"""Tests for the deterministic parallel execution layer.

Covers the :mod:`repro.parallel` primitives and their wiring through
the analysis engines: the ISSUE-1 acceptance contract is that
``jobs=N`` is bit-identical to ``jobs=1`` for a fixed seed, and that a
worker exception surfaces with the global sample index.
"""

import operator

import numpy as np
import pytest

from repro.aging import HciModel, NbtiModel
from repro.circuit import dc_operating_point
from repro.circuits import (
    differential_pair,
    input_referred_offset_v,
    simple_current_mirror,
)
from repro.core import (
    CornerAnalysis,
    MissionProfile,
    MonteCarloYield,
    SampleEvaluationError,
    Specification,
    aging_ensemble,
    sweep,
)
from repro.parallel import (
    ParallelMap,
    chunk_ranges,
    clone_fixture,
    resolve_jobs,
    spawn_seed_sequences,
)
from repro.variability import MismatchSampler, PelgromModel


def _square(x):
    """Module-level so the process backend can pickle it."""
    return x * x


def _mirror_iout(fixture):
    """Output current of the current-mirror fixture [A]."""
    return -dc_operating_point(fixture.circuit).source_current("vout")


class TestParallelMap:
    def test_serial_preserves_order(self):
        out = ParallelMap("serial").map(_square, range(10))
        assert out == [x * x for x in range(10)]

    def test_thread_matches_serial(self):
        items = list(range(23))
        serial = ParallelMap("serial").map(_square, items)
        threaded = ParallelMap("thread", n_jobs=4).map(_square, items)
        assert serial == threaded

    def test_process_backend(self):
        out = ParallelMap("process", n_jobs=2).map(_square, [1, 2, 3])
        assert out == [1, 4, 9]

    def test_auto_is_serial_for_one_job(self):
        assert ParallelMap("auto", n_jobs=1).backend == "serial"
        assert ParallelMap("auto", n_jobs=4).backend == "thread"

    def test_empty_input(self):
        assert ParallelMap("thread", n_jobs=4).map(_square, []) == []

    def test_exception_propagates(self):
        def boom(x):
            raise RuntimeError(f"task {x}")

        with pytest.raises(RuntimeError, match="task"):
            ParallelMap("thread", n_jobs=2).map(boom, [0, 1, 2])

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelMap("gpu")

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(-1) == resolve_jobs(None)
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestChunking:
    def test_chunk_ranges_cover_everything(self):
        ranges = chunk_ranges(10, 4)
        assert ranges == [(0, 4), (4, 8), (8, 10)]

    def test_single_chunk(self):
        assert chunk_ranges(3, 100) == [(0, 3)]

    def test_grid_independent_of_jobs(self):
        # The chunk grid is a pure function of (n, chunk_size) — THE
        # property that makes jobs=1 and jobs=N draw identical variates.
        assert chunk_ranges(100, 7) == chunk_ranges(100, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_ranges(0, 4)
        with pytest.raises(ValueError):
            chunk_ranges(4, 0)

    def test_seed_sequences_independent(self):
        seqs = spawn_seed_sequences(42, 8)
        draws = [np.random.default_rng(s).normal() for s in seqs]
        assert len(set(draws)) == len(draws)
        again = [np.random.default_rng(s).normal()
                 for s in spawn_seed_sequences(42, 8)]
        assert draws == again


class TestCloneFixture:
    def test_clone_is_independent(self, tech90):
        fx = differential_pair(tech90)
        clone = clone_fixture(fx)
        clone.circuit.mosfets[0].variation.delta_vt_v = 0.1
        assert fx.circuit.mosfets[0].variation.delta_vt_v == 0.0

    def test_clone_solves_identically(self, tech90):
        fx = simple_current_mirror(tech90)
        assert _mirror_iout(clone_fixture(fx)) == _mirror_iout(fx)


class TestParallelYield:
    def test_jobs4_bit_identical_to_jobs1(self, tech90):
        # The ISSUE-1 acceptance criterion, verbatim: 500 samples,
        # jobs=4 vs jobs=1, same seed, bit-identical values.
        fx = simple_current_mirror(tech90, w_m=2e-6, l_m=0.2e-6)
        spec = Specification("iout", _mirror_iout, lower=50e-6, upper=200e-6)
        mc = MonteCarloYield(fx, [spec], tech90)
        serial = mc.run(n_samples=500, seed=11, jobs=1)
        parallel = mc.run(n_samples=500, seed=11, jobs=4)
        assert np.array_equal(serial.values["iout"], parallel.values["iout"])
        assert np.array_equal(serial.passes, parallel.passes)
        assert np.array_equal(serial.spec_passes["iout"],
                              parallel.spec_passes["iout"])

    def test_thread_and_process_backends_match(self, tech90):
        fx = simple_current_mirror(tech90, w_m=2e-6, l_m=0.2e-6)
        spec = Specification("iout", _mirror_iout, lower=0.0)
        mc = MonteCarloYield(fx, [spec], tech90)
        serial = mc.run(n_samples=24, seed=5, jobs=1, chunk_size=8)
        threaded = mc.run(n_samples=24, seed=5, jobs=3, backend="thread",
                          chunk_size=8)
        assert np.array_equal(serial.values["iout"], threaded.values["iout"])
        # Module-level extractor → the chunk tasks pickle, so the
        # process backend must agree too.
        procs = mc.run(n_samples=24, seed=5, jobs=2, backend="process",
                       chunk_size=8)
        assert np.array_equal(serial.values["iout"], procs.values["iout"])

    def test_worker_exception_carries_sample_index(self, tech90):
        fx = differential_pair(tech90)
        calls = {"n": 0}

        def explodes_on_third(fixture):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("synthetic worker crash")
            return 0.0

        spec = Specification("m", explodes_on_third, lower=-1.0, upper=1.0)
        mc = MonteCarloYield(fx, [spec], tech90)
        with pytest.raises(SampleEvaluationError,
                           match=r"sample 2 .*'m'.*worker crash") as err:
            mc.run(n_samples=6, seed=0, jobs=1, chunk_size=10)
        assert err.value.sample_index == 2
        assert err.value.spec_name == "m"
        assert isinstance(err.value.original, RuntimeError)

    def test_failure_counts_record_exception_types(self, tech90):
        fx = differential_pair(tech90)

        def never_converges(fixture):
            raise ValueError("synthetic evaluation failure")

        spec = Specification("boom", never_converges, lower=0.0)
        result = MonteCarloYield(fx, [spec], tech90).run(n_samples=7, seed=0)
        assert result.failure_counts == {"ValueError": 7}
        assert np.all(np.isnan(result.values["boom"]))
        assert result.yield_fraction == 0.0

    def test_clean_run_has_no_failures(self, tech90):
        fx = simple_current_mirror(tech90)
        spec = Specification("iout", _mirror_iout, lower=0.0)
        result = MonteCarloYield(fx, [spec], tech90).run(n_samples=5, seed=0)
        assert result.failure_counts == {}


class TestParallelCornersAndSweeps:
    def test_corners_parallel_matches_serial(self, tech90):
        fx = simple_current_mirror(tech90, w_m=2e-6, l_m=0.2e-6)
        spec = Specification("iout", _mirror_iout, lower=50e-6, upper=200e-6)
        analysis = CornerAnalysis(fx, [spec], tech90,
                                  vdd_source_name="vout",
                                  vdd_scales=(0.9, 1.1),
                                  temperatures_k=(300.0, 398.15))
        serial = analysis.run()
        for backend in ("thread", "process"):
            parallel = analysis.run(jobs=4, backend=backend)
            assert [p.label for p in serial.points] == \
                [p.label for p in parallel.points]
            assert serial.values == parallel.values

    def test_sweep_parallel_matches_serial(self):
        # Module-level metrics, so the process backend can pickle them.
        metrics = {"sq": _square, "neg": operator.neg}
        grid = np.linspace(0.0, 1.0, 9)
        serial = sweep("x", grid, metrics)
        for backend in ("thread", "process"):
            parallel = sweep("x", grid, metrics, jobs=4, backend=backend)
            for name in metrics:
                assert np.array_equal(serial.values[name],
                                      parallel.values[name])

    def test_aging_ensemble_parallel_matches_serial(self, tech90):
        fx = differential_pair(tech90)
        profile = MissionProfile(n_epochs=2, duration_s=1e6,
                                 t_first_epoch_s=1e3)

        def run(**kwargs):
            mechanisms = [NbtiModel(tech90.aging), HciModel(tech90.aging)]
            return aging_ensemble(fx, mechanisms, profile,
                                  {"offset": input_referred_offset_v},
                                  tech90, n_samples=3, seed=5, **kwargs)
        serial = run()
        for backend in ("thread", "process"):
            parallel = run(jobs=2, backend=backend)
            assert len(parallel) == len(serial)
            for a, b in zip(serial, parallel):
                assert np.array_equal(a.times_s, b.times_s)
                assert np.array_equal(a.metrics["offset"],
                                      b.metrics["offset"])
                assert a.device_delta_vt_v.keys() == \
                    b.device_delta_vt_v.keys()
                for name in a.device_delta_vt_v:
                    assert np.array_equal(a.device_delta_vt_v[name],
                                          b.device_delta_vt_v[name])


class TestSamplerBatchApi:
    def test_batch_matches_scalar_distribution(self, tech90):
        w, l = 1e-6, 1e-6
        sampler = MismatchSampler(tech90, np.random.default_rng(0))
        dvt, beta, gamma = sampler.sample_devices_batch(w, l, 4000)
        assert dvt.shape == beta.shape == gamma.shape == (4000,)
        expected = sampler.sigma_single_vt_v(w, l)
        assert np.std(dvt) == pytest.approx(expected, rel=0.1)
        assert np.mean(beta) == pytest.approx(1.0, abs=0.01)
        assert np.all(beta >= 0.05) and np.all(gamma >= 0.05)

    def test_batch_pair_sigma_matches_eq1(self, tech90):
        w, l = 1e-6, 1e-6
        sampler = MismatchSampler(tech90, np.random.default_rng(1))
        draws = sampler.sample_pair_delta_vt_batch_v(w, l, 4000)
        expected = PelgromModel.for_technology(tech90).sigma_delta_vt_v(w, l)
        assert np.std(draws) == pytest.approx(expected, rel=0.1)

    def test_batch_rejects_bad_count(self, tech90):
        sampler = MismatchSampler(tech90, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sampler.sample_devices_batch(1e-6, 1e-6, 0)
        with pytest.raises(ValueError):
            sampler.sample_pair_delta_vt_batch_v(1e-6, 1e-6, 0)
