"""High-sigma yield engine tests.

Covers the stdlib normal quantile (against scipy where present), the
probe-direction state-leak regression, estimator properties on the
analytic linear model, surrogate screening, bit-consistency across
jobs/backends/batching, checkpoint resume, and the CLI surface.
No scipy import at module level — only individual tests that compare
against scipy skip when it is absent.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import differential_pair, input_referred_offset_v
from repro.core import (
    HighSigmaResult,
    HighSigmaYield,
    Specification,
    Surrogate,
    SurrogateConfig,
    normal_ppf,
    normal_sf,
    sigma_level_from_probability,
)
from repro.core import importance
from repro.parallel import FailureLedger
from repro.technology import get_node
from repro.variability.sampler import MismatchSampler
from repro.verify.oracles import HighSigmaLinearOracle
from repro.workloads import resolve


def linear_engine(k_sigma=3.0):
    """The analytic linear-tail engine (exact P(fail) = Φ(−k))."""
    return HighSigmaLinearOracle(k_sigma=k_sigma)._engine()


# ----------------------------------------------------------------------
# Normal-distribution helpers
# ----------------------------------------------------------------------
def _ppf_grid() -> np.ndarray:
    """Log grid over p in [1e-300, 1 - 1e-16]: both tails and the middle."""
    return np.concatenate([np.logspace(-300, math.log10(0.5), 601),
                           1.0 - np.logspace(-16, math.log10(0.5), 161)])


class TestNormalHelpers:
    def test_ppf_matches_scipy_within_8_ulps(self):
        norm = pytest.importorskip("scipy.stats").norm
        for p in _ppf_grid():
            expected = float(norm.ppf(p))
            assert abs(normal_ppf(float(p)) - expected) \
                <= 8 * math.ulp(expected), p

    def test_ppf_symmetry(self):
        for p in (1e-9, 0.01, 0.3):
            assert normal_ppf(p) == pytest.approx(-normal_ppf(1.0 - p))

    def test_ppf_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                normal_ppf(p)

    def test_ppf_same_with_scipy_blocked(self, monkeypatch):
        """One quantile path: blocking scipy changes no value."""
        grid = [float(p) for p in _ppf_grid()]
        expected = [normal_ppf(p) for p in grid]
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        monkeypatch.setitem(sys.modules, "scipy", None)
        assert [normal_ppf(p) for p in grid] == expected
        assert math.isfinite(sigma_level_from_probability(1e-8))

    def test_sigma_level_roundtrip(self):
        for k in (1.0, 2.0, 3.0, 4.5, 6.0):
            assert sigma_level_from_probability(normal_sf(k)) == \
                pytest.approx(k, rel=1e-6)

    def test_sigma_level_edge_cases(self):
        assert sigma_level_from_probability(0.0) == math.inf
        assert sigma_level_from_probability(float("nan")) == math.inf
        assert sigma_level_from_probability(1.0) == -math.inf


# ----------------------------------------------------------------------
# Probe-direction state leak (satellite regression)
# ----------------------------------------------------------------------
class TestProbeStateLeak:
    def _fixture(self, tech90):
        return differential_pair(tech90, w_m=4e-6, l_m=0.4e-6)

    def test_engine_probe_clears_on_extractor_crash(self, tech90):
        fx = self._fixture(tech90)
        calls = {"n": 0}

        def exploding(fixture):
            calls["n"] += 1
            if calls["n"] >= 2:  # crash mid-probe, after the nominal
                raise RuntimeError("boom")
            return input_referred_offset_v(fixture)

        spec = Specification("offset", exploding, lower=-1e-3, upper=1e-3)
        engine = HighSigmaYield(fx, spec, tech90)
        with pytest.raises(RuntimeError):
            engine.probe_direction()
        assert all(m.variation.delta_vt_v == 0.0
                   for m in fx.circuit.mosfets)


# ----------------------------------------------------------------------
# Engine accuracy on the analytic linear model
# ----------------------------------------------------------------------
class TestLinearAccuracy:
    def test_plain_is_within_band(self):
        oracle = HighSigmaLinearOracle(k_sigma=4.0, n_samples=1024, seed=5)
        engine = oracle._engine()
        result = engine.run(n_samples=1024, shift_sigma=4.0, seed=5,
                            adapt=False, surrogate=None)
        p_true = normal_sf(4.0)
        se = oracle.closed_form_se()
        assert abs(result.failure_probability - p_true) <= 4.0 * se
        assert result.full_solver_calls == 1024
        assert result.surrogate_info is None

    def test_screened_within_band_and_saves_solves(self):
        oracle = HighSigmaLinearOracle(k_sigma=4.0, n_samples=1024, seed=5)
        engine = oracle._engine()
        result = engine.run(n_samples=1024, shift_sigma=4.0, seed=5,
                            adapt=False, surrogate=SurrogateConfig())
        p_true = normal_sf(4.0)
        se = oracle.closed_form_se()
        assert abs(result.failure_probability - p_true) <= 6.0 * se
        # The linear metric is exactly representable by the poly
        # surrogate, so screening should skip most post-pilot solves.
        assert result.full_solver_calls < 1024 // 2
        assert result.screened_samples > 0
        assert result.screening_factor > 2.0
        assert result.surrogate_info is not None
        assert result.audit_mismatches == 0

    def test_adaptive_refinement_finds_direction(self):
        engine = linear_engine(k_sigma=4.0)
        # Start from a deliberately unhelpful explicit direction and a
        # surrogate pilot large enough for refinement to engage.
        result = engine.run(n_samples=768, seed=11,
                            surrogate=SurrogateConfig(train_samples=256))
        assert result.n_failures_observed > 100
        assert 2.0 <= result.shift_sigma <= 8.0
        assert result.sigma_level == pytest.approx(4.0, abs=0.6)

    def test_sigma_level_and_ess(self):
        engine = linear_engine(k_sigma=3.0)
        result = engine.run(n_samples=512, shift_sigma=3.0, seed=2,
                            adapt=False, surrogate=None)
        assert result.sigma_level == pytest.approx(3.0, abs=0.3)
        assert 1.0 <= result.effective_samples <= 512.0
        assert result.relative_standard_error < 0.5


# ----------------------------------------------------------------------
# Estimator properties (hypothesis)
# ----------------------------------------------------------------------
class TestEstimatorProperties:
    @given(shift=st.floats(min_value=1.5, max_value=4.5),
           seed=st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_unnorm_and_selfnorm_agree_within_se(self, shift, seed):
        """Both estimators target the same tail probability.

        On the linear model either estimator's realized error is a few
        standard errors at worst; the gap between them must be within a
        generous multiple of their combined SE for ANY shift choice.
        """
        engine = linear_engine(k_sigma=3.0)
        result = engine.run(n_samples=512, shift_sigma=shift, seed=seed,
                            adapt=False, surrogate=None)
        if result.n_failures_observed == 0:
            return  # nothing to compare at tiny shifts
        se = math.hypot(result.standard_error,
                        result.standard_error_self_normalized)
        gap = abs(result.failure_probability
                  - result.failure_probability_self_normalized)
        assert gap <= 8.0 * max(se, 1e-300)

    @given(shift=st.floats(min_value=0.5, max_value=5.0),
           seed=st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_weight_invariants(self, shift, seed):
        engine = linear_engine(k_sigma=3.0)
        result = engine.run(n_samples=256, shift_sigma=shift, seed=seed,
                            adapt=False, surrogate=None)
        assert np.all(result.weights > 0.0)
        assert 1.0 <= result.effective_samples <= 256.0 + 1e-9
        assert result.failure_probability >= 0.0


# ----------------------------------------------------------------------
# Bit-consistency: jobs, backends, batching
# ----------------------------------------------------------------------
class TestBitConsistency:
    def test_thread_jobs_bit_identical(self):
        engine = linear_engine(k_sigma=3.5)
        kwargs = dict(n_samples=512, shift_sigma=3.5, seed=9,
                      surrogate=SurrogateConfig())
        serial = engine.run(jobs=1, backend="serial", **kwargs)
        threaded = engine.run(jobs=4, backend="thread", **kwargs)
        assert np.array_equal(serial.weights, threaded.weights)
        assert np.array_equal(serial.values, threaded.values)
        assert np.array_equal(serial.fails, threaded.fails)
        assert np.array_equal(serial.solved, threaded.solved)

    def test_batched_dc_bit_identical(self, tech90):
        """samples-as-lanes DC sweeps change nothing but the clock."""
        fx = differential_pair(tech90, w_m=4e-6, l_m=0.4e-6)
        spec = Specification(
            "offset", _offset_metric, lower=-4e-3, upper=4e-3)
        engine = HighSigmaYield(fx, spec, tech90)
        kwargs = dict(n_samples=64, shift_sigma=3.0, seed=3,
                      adapt=False, surrogate=None)
        scalar = engine.run(batch_size=None, **kwargs)
        batched = engine.run(batch_size=8, **kwargs)
        # The MC batching contract: variates and verdicts are exact,
        # solver values agree to solver tolerance.
        assert np.array_equal(scalar.weights, batched.weights)
        assert np.array_equal(scalar.fails, batched.fails)
        np.testing.assert_allclose(batched.values, scalar.values,
                                   rtol=0, atol=1e-9)

    def test_chunk_size_changes_nothing_statistical(self):
        """The chunk grid is the reproducibility contract: the same
        seed and chunk size give identical draws regardless of jobs."""
        engine = linear_engine(k_sigma=3.0)
        a = engine.run(n_samples=256, shift_sigma=3.0, seed=4,
                       adapt=False, surrogate=None, chunk_size=32)
        b = engine.run(n_samples=256, shift_sigma=3.0, seed=4,
                       adapt=False, surrogate=None, chunk_size=32,
                       jobs=2, backend="thread")
        assert np.array_equal(a.weights, b.weights)


# ----------------------------------------------------------------------
# The chunk's draw
# ----------------------------------------------------------------------
def _sram_engine(include_ler=False, snm_min_mv=66.7):
    """The ``repro highsigma`` engine on the ``sram`` workload."""
    tech = get_node("65nm")
    workload = resolve("sram", {"snm_min_mv": snm_min_mv}, tech,
                       analysis="highsigma")
    spec, _text = workload.spec()
    return HighSigmaYield(workload.fixture(), spec, tech,
                          include_ler=include_ler)


def _scalar_draw(sampler, devices, proposal, n):
    """The chunk's variates drawn one scalar generator call at a time:
    per sample the lobe (two-sided only), then per device the shifted
    ΔV_T and one :meth:`MismatchSampler.sample_device` draw."""
    rng = sampler.rng
    d = len(devices)
    sig, mus = np.asarray(proposal.sigmas), np.asarray(proposal.mus)
    z, beta, gamma = (np.empty((n, d)) for _ in range(3))
    sides = np.ones(n)
    for k in range(n):
        if proposal.two_sided:
            if rng.random() < 0.5:
                sides[k] = -1.0
        for j, device in enumerate(devices):
            x = rng.normal(sides[k] * mus[j], sig[j])
            z[k, j] = x / sig[j]
            base = sampler.sample_device(device.params.w_m,
                                         device.params.l_m)
            beta[k, j] = base.beta_factor
            gamma[k, j] = base.gamma_factor
    return z, beta, gamma


class TestChunkDraw:
    """A chunk draws its variates in one generator call (a two-sided
    proposal: one uniform and one row per sample).  The variates and
    the generator state after them must be the scalar loop's."""

    @staticmethod
    def _proposal(engine, two_sided):
        # A shift on every device, of both signs.
        names = [m.name for m in engine.fixture.circuit.mosfets]
        direction = {name: (-1.0) ** i * (i + 1.0)
                     for i, name in enumerate(names)}
        return engine._proposal(direction, 3.5, two_sided)

    @pytest.mark.parametrize("include_ler", [False, True],
                             ids=["pelgrom", "ler"])
    @pytest.mark.parametrize("two_sided", [False, True],
                             ids=["one-sided", "two-sided"])
    def test_same_variates_and_generator_state(self, include_ler,
                                               two_sided):
        engine = _sram_engine(include_ler)
        devices = engine.fixture.circuit.mosfets
        proposal = self._proposal(engine, two_sided)
        for seed in range(4):
            def sampler():
                return MismatchSampler(engine.tech,
                                       np.random.default_rng(seed),
                                       include_ler=include_ler)

            scalar, chunk = sampler(), sampler()
            want = _scalar_draw(scalar, devices, proposal, 37)
            got = importance._draw_variates(chunk, devices, proposal, 37)
            for name, a, b in zip(("z", "beta", "gamma"), want, got):
                np.testing.assert_array_equal(b, a, err_msg=name)
            assert chunk.rng.bit_generator.state == \
                scalar.rng.bit_generator.state

    def test_clamped_factors(self, monkeypatch):
        # σ(β)/β = σ(γ)/γ = 0.8 clamps about one factor in eight.
        monkeypatch.setattr(MismatchSampler, "_draw_sigmas",
                            lambda self, w_m, l_m: (0.02, 0.8, 0.8))
        engine = _sram_engine()
        devices = engine.fixture.circuit.mosfets
        proposal = self._proposal(engine, True)
        scalar = MismatchSampler(engine.tech, np.random.default_rng(5))
        chunk = MismatchSampler(engine.tech, np.random.default_rng(5))
        want = _scalar_draw(scalar, devices, proposal, 64)
        got = importance._draw_variates(chunk, devices, proposal, 64)
        for a, b in zip(want, got):
            np.testing.assert_array_equal(b, a)
        assert (got[1] == 0.05).any() and (got[2] == 0.05).any()
        assert chunk.rng.random() == scalar.rng.random()

    @pytest.mark.parametrize("two_sided", [False, True],
                             ids=["one-sided", "two-sided"])
    def test_chunk_payload_carries_the_scalar_draws(self, two_sided):
        engine = _sram_engine()
        devices = engine.fixture.circuit.mosfets
        proposal = self._proposal(engine, two_sided)
        seed = np.random.SeedSequence(11)
        payload = engine._evaluate_chunk(((5, 17), seed, None, None,
                                          proposal, None))
        want = _scalar_draw(MismatchSampler(
            engine.tech, np.random.default_rng(seed)), devices, proposal, 12)
        for j in range(len(devices)):
            for prefix, channel in zip("zbg", want):
                np.testing.assert_array_equal(
                    payload["values"][f"{prefix}{j}"], channel[:, j])
        assert np.isfinite(payload["values"]["value"]).all()


def test_zero_shift_weights_are_exactly_one():
    # With no shift the proposal is the nominal density: every weight
    # is exactly 1, so the run is textbook Monte-Carlo on the real SRAM
    # read-SNM tail.
    result = _sram_engine(snm_min_mv=120.0).run(
        n_samples=96, seed=1, shift_sigma=0.0, surrogate=None,
        chunk_size=32)
    assert (result.weights == 1.0).all()
    assert result.effective_samples == result.n_samples
    assert result.full_solver_calls == result.n_samples
    assert result.failure_probability == \
        result.n_failures_observed / result.n_samples
    assert result.n_failures_observed > 0


# ----------------------------------------------------------------------
# Checkpoint / resume / partial results
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_resume_bit_identical(self, tmp_path):
        engine = linear_engine(k_sigma=3.5)
        kwargs = dict(n_samples=384, shift_sigma=3.5, seed=6,
                      surrogate=SurrogateConfig(train_samples=64))
        reference = engine.run(**kwargs)
        ckpt = tmp_path / "hs"
        first = engine.run(checkpoint=ckpt, **kwargs)
        resumed = engine.run(checkpoint=ckpt, resume=True, **kwargs)
        for result in (first, resumed):
            assert np.array_equal(reference.weights, result.weights)
            assert np.array_equal(reference.values, result.values)
            assert np.array_equal(reference.fails, result.fails)
            assert np.array_equal(reference.solved, result.solved)
        assert resumed.audit_count == reference.audit_count
        # Mismatch verdicts are recomputed from persisted channels, so
        # a resume must report the same count as the uninterrupted run
        # (not silently reset to zero).
        assert resumed.audit_mismatches == reference.audit_mismatches

    def test_resume_refuses_wrong_params(self, tmp_path):
        from repro.checkpoint import CheckpointError

        engine = linear_engine(k_sigma=3.5)
        ckpt = tmp_path / "hs"
        engine.run(n_samples=128, shift_sigma=3.5, seed=6, adapt=False,
                   surrogate=None, checkpoint=ckpt)
        with pytest.raises(CheckpointError):
            engine.run(n_samples=128, shift_sigma=3.5, seed=7, adapt=False,
                       surrogate=None, checkpoint=ckpt, resume=True)

    def test_partial_result_masks_unevaluated(self):
        """A budget-expired result only averages evaluated samples."""
        n = 8
        evaluated = np.array([True] * 4 + [False] * 4)
        result = HighSigmaResult(
            n_samples=n, spec_name="m",
            values=np.ones(n), weights=np.ones(n),
            fails=np.array([True, False, False, False] + [False] * 4),
            solved=np.ones(n, dtype=bool), shift_sigma=3.0,
            direction={"m1": 1.0}, two_sided=False, n_pilot=0,
            ledger=FailureLedger(), evaluated=evaluated)
        assert result.n_evaluated == 4
        assert result.failure_probability == pytest.approx(0.25)
        assert result.is_degraded


# ----------------------------------------------------------------------
# Surrogate unit behaviour
# ----------------------------------------------------------------------
class TestSurrogate:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SurrogateConfig(kind="forest")
        with pytest.raises(ValueError):
            SurrogateConfig(degree=0)
        with pytest.raises(ValueError):
            SurrogateConfig(train_samples=4)
        with pytest.raises(ValueError):
            SurrogateConfig(k_sigma=0.0)

    def test_fit_underdetermined_returns_none(self):
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(6, 4))
        y = rng.normal(size=6)
        assert Surrogate.fit(SurrogateConfig(), Z, y) is None

    def test_poly_recovers_quadratic_exactly(self):
        rng = np.random.default_rng(1)
        Z = rng.normal(size=(200, 2))
        y = 1.0 + 2.0 * Z[:, 0] - Z[:, 1] + 0.5 * Z[:, 0] * Z[:, 1]
        model = Surrogate.fit(SurrogateConfig(ridge_lambda=1e-12), Z, y)
        assert model is not None
        pred = model.predict(Z)
        assert np.allclose(pred, y, atol=1e-6)
        assert model.residual_sigma < 1e-5

    def test_uncertain_brackets_the_bound(self):
        rng = np.random.default_rng(2)
        Z = rng.normal(size=(100, 2))
        y = Z[:, 0] + 0.01 * rng.normal(size=100)
        model = Surrogate.fit(SurrogateConfig(k_sigma=3.0), Z, y)
        spec = Specification("m", lambda f: 0.0, lower=0.0)
        preds = np.array([-10.0, 0.0, 10.0, float("nan")])
        unsure = model.uncertain(preds, spec)
        assert not unsure[0] and not unsure[2]
        assert unsure[1] and unsure[3]  # near bound / non-finite

    def test_rbf_fits_smooth_function(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(120, 2))
        y = np.tanh(Z[:, 0]) + 0.3 * Z[:, 1]
        model = Surrogate.fit(SurrogateConfig(kind="rbf"), Z, y)
        assert model is not None
        pred = model.predict(Z)
        assert float(np.std(pred - y)) < 0.1


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_highsigma_smoke(self, capsys):
        from repro.cli import main

        code = main(["highsigma", "--samples", "96", "--train-samples",
                     "64", "--snm-min-mv", "80", "--snm-points", "21",
                     "--quiet", "--seed", "1"])
        out = capsys.readouterr().out
        assert code in (0, 2)
        assert "High-sigma read-SNM yield" in out
        assert "full solver calls" in out
        assert "surrogate" in out

    def test_highsigma_resume_requires_checkpoint(self, capsys):
        from repro.cli import main

        assert main(["highsigma", "--resume"]) == 1


def _offset_metric(fixture):
    """Module-level offset extractor (picklable for process backends)."""
    return input_referred_offset_v(fixture)
