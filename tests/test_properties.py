"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import units
from repro.aging import weibull_cdf, weibull_quantile
from repro.aging.base import power_law_advance
from repro.circuit import Mosfet, Waveform
from repro.circuit.mosfet import _log1pexp, _softplus
from repro.solutions import DacConfig, CurrentSteeringDac, sspa_sequence
from repro.technology import get_node
from repro.variability import PelgromModel

TECH = get_node("90nm")
PELGROM = PelgromModel.for_technology(TECH)

voltages = st.floats(min_value=-2.0, max_value=2.0,
                     allow_nan=False, allow_infinity=False)
positive_voltages = st.floats(min_value=0.0, max_value=2.0,
                              allow_nan=False, allow_infinity=False)


def make_nmos():
    return Mosfet.from_technology("m", "d", "g", "s", "b", TECH, "n",
                                  w_m=1e-6, l_m=0.09e-6)


#: Central-difference step of the reference linearization [V].
CENTRAL_STEP_V = 1e-6


def central_linearize(m, vgs, vds, vbs, h=CENTRAL_STEP_V):
    """Reference ``(ids, gm, gds, gmb)`` of ``m`` by a 7-point central
    difference of the polarity-aware :meth:`Mosfet.drain_current`: the
    model-agnostic check on the closed-form derivatives."""
    ids = m.drain_current(vgs, vds, vbs)
    gm = (m.drain_current(vgs + h, vds, vbs)
          - m.drain_current(vgs - h, vds, vbs)) / (2.0 * h)
    gds = (m.drain_current(vgs, vds + h, vbs)
           - m.drain_current(vgs, vds - h, vbs)) / (2.0 * h)
    gmb = (m.drain_current(vgs, vds, vbs + h)
           - m.drain_current(vgs, vds, vbs - h)) / (2.0 * h)
    return ids, gm, gds, gmb


class TestNumericHelpers:
    @given(st.floats(min_value=-500.0, max_value=500.0))
    def test_softplus_positive_and_bounded(self, x):
        y = _softplus(x)
        assert y >= 0.0
        assert y >= x - 1e-12
        assert y <= abs(x) + math.log(2.0) + 1e-12

    @given(st.floats(min_value=-500.0, max_value=500.0))
    def test_log1pexp_matches_reference(self, x):
        if abs(x) < 30.0:
            assert _log1pexp(x) == pytest.approx(math.log1p(math.exp(x)),
                                                 rel=1e-9)
        else:
            assert _log1pexp(x) == pytest.approx(max(x, 0.0), abs=1e-9)


class TestMosfetInvariants:
    @given(vgs=voltages, vds=positive_voltages, vbs=st.floats(-1.0, 0.0))
    @settings(max_examples=200, deadline=None)
    def test_nmos_forward_current_non_negative(self, vgs, vds, vbs):
        m = make_nmos()
        assert m.drain_current(vgs, vds, vbs) >= -1e-15

    @given(vgs1=voltages, vgs2=voltages, vds=positive_voltages)
    @settings(max_examples=150, deadline=None)
    def test_current_monotone_in_vgs(self, vgs1, vgs2, vds):
        assume(vgs1 < vgs2)
        m = make_nmos()
        assert (m.drain_current(vgs2, vds, 0.0)
                >= m.drain_current(vgs1, vds, 0.0) - 1e-15)

    @given(vgs=st.floats(0.3, 1.5), vds1=positive_voltages,
           vds2=positive_voltages)
    @settings(max_examples=150, deadline=None)
    def test_current_monotone_in_vds(self, vgs, vds1, vds2):
        assume(vds1 < vds2)
        m = make_nmos()
        assert (m.drain_current(vgs, vds2, 0.0)
                >= m.drain_current(vgs, vds1, 0.0) - 1e-15)

    @given(vgs=st.floats(0.3, 1.5), vds=st.floats(0.1, 1.5),
           dvt=st.floats(0.0, 0.3))
    @settings(max_examples=150, deadline=None)
    def test_degradation_never_increases_current(self, vgs, vds, dvt):
        m = make_nmos()
        fresh = m.drain_current(vgs, vds, 0.0)
        m.degradation.delta_vt_v = dvt
        m.degradation.beta_factor = 0.9
        aged = m.drain_current(vgs, vds, 0.0)
        assert aged <= fresh + 1e-15


class TestAnalyticJacobianProperties:
    """Analytic ``linearize`` agrees with :func:`central_linearize`.

    Tolerance derivation: the model transcendentals vary on the
    moderate-inversion scale ``s = 2·n·φt ≈ 70 mV``, so the central
    difference with step ``h = CENTRAL_STEP_V = 1e-6 V`` carries a relative
    truncation error of order ``h²/(6·s²) ≈ 3e-11`` plus a subtraction
    roundoff term of order ``ε·s/h ≈ 1e-11``.  A relative band of 1e-6
    on the dominant conductance scale at the bias point leaves four
    decades of safety while still failing loudly on a wrong derivative
    (which would be off at O(1)).  The only analytic/FD disagreement by
    construction is the hard gmb = 0 beyond the body clamp — the ±h
    neighbourhood of the clamp kink is assumed away.
    """

    @given(polarity=st.sampled_from(["n", "p"]),
           tech_name=st.sampled_from(["180nm", "90nm", "65nm"]),
           vgs_n=st.floats(-0.5, 1.5), vds_n=st.floats(-1.0, 1.5),
           vbs_n=st.floats(-1.2, 1.2))
    @settings(max_examples=300, deadline=None)
    def test_linearize_matches_central_fd(self, polarity, tech_name,
                                          vgs_n, vds_n, vbs_n):
        tech = get_node(tech_name)
        m = Mosfet.from_technology("m", "d", "g", "s", "b", tech, polarity,
                                   w_m=12.0 * tech.wmin_m,
                                   l_m=2.0 * tech.lmin_m)
        # FD differentiates across the body-clamp kink within ±h of it;
        # the analytic branch is exact on either side but not inside.
        cap = m.params.phi_v - 0.05
        assume(abs(vbs_n - cap) > 4.0 * CENTRAL_STEP_V)

        sign = 1.0 if polarity == "n" else -1.0
        vgs, vds, vbs = sign * vgs_n, sign * vds_n, sign * vbs_n
        ids_a, gm_a, gds_a, gmb_a = m.linearize(vgs, vds, vbs)
        ids_f, gm_f, gds_f, gmb_f = central_linearize(m, vgs, vds, vbs)

        # Identical current expression, different evaluation order only.
        assert ids_a == pytest.approx(ids_f, rel=1e-12, abs=1e-18)

        phit = units.thermal_voltage(m.params.temperature_k)
        s_v = 2.0 * m.params.n_slope * phit
        g_scale = max(abs(ids_f) / s_v, abs(gm_f), abs(gds_f),
                      abs(gmb_f), 1e-18)
        for g_a, g_f, name in ((gm_a, gm_f, "gm"), (gds_a, gds_f, "gds"),
                               (gmb_a, gmb_f, "gmb")):
            assert abs(g_a - g_f) <= 1e-6 * g_scale, (
                f"{name}: analytic={g_a:.12e} fd={g_f:.12e} "
                f"scale={g_scale:.3e}")

    @given(vgs_n=st.floats(-0.5, 1.5), vds_n=st.floats(0.0, 1.5),
           vbs_n=st.floats(-1.2, 0.2), dvt=st.floats(0.0, 0.25),
           beta_fac=st.floats(0.7, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_fd_agreement_survives_variation_and_aging(self, vgs_n, vds_n,
                                                       vbs_n, dvt, beta_fac):
        """The closed forms track the *effective* parameters — mismatch
        offsets and degradation factors must not desynchronize them
        from the underlying current equation."""
        m = make_nmos()
        assume(abs(vbs_n - (m.params.phi_v - 0.05)) > 4.0 * CENTRAL_STEP_V)
        m.variation.delta_vt_v = dvt * 0.1
        m.variation.beta_factor = beta_fac
        m.degradation.delta_vt_v = dvt
        m.degradation.beta_factor = beta_fac
        ids_a, gm_a, gds_a, gmb_a = m.linearize(vgs_n, vds_n, vbs_n)
        ids_f, gm_f, gds_f, gmb_f = central_linearize(m, vgs_n, vds_n,
                                                      vbs_n)
        phit = units.thermal_voltage(m.params.temperature_k)
        g_scale = max(abs(ids_f) / (2.0 * m.params.n_slope * phit),
                      abs(gm_f), abs(gds_f), abs(gmb_f), 1e-18)
        assert ids_a == pytest.approx(ids_f, rel=1e-12, abs=1e-18)
        assert abs(gm_a - gm_f) <= 1e-6 * g_scale
        assert abs(gds_a - gds_f) <= 1e-6 * g_scale
        assert abs(gmb_a - gmb_f) <= 1e-6 * g_scale


class TestPelgromInvariants:
    geometries = st.floats(min_value=0.13, max_value=100.0)

    @given(w=geometries, l=geometries, scale=st.floats(1.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_sigma_decreases_with_area(self, w, l, scale):
        s_small = PELGROM.sigma_delta_vt_v(w * 1e-6, l * 1e-6)
        s_big = PELGROM.sigma_delta_vt_v(w * scale * 1e-6, l * scale * 1e-6)
        assert s_big < s_small

    @given(w=geometries, l=geometries,
           d1=st.floats(0.0, 1e-2), d2=st.floats(0.0, 1e-2))
    @settings(max_examples=100, deadline=None)
    def test_sigma_monotone_in_distance(self, w, l, d1, d2):
        assume(d1 < d2)
        assert (PELGROM.sigma_delta_vt_v(w * 1e-6, l * 1e-6, d1)
                <= PELGROM.sigma_delta_vt_v(w * 1e-6, l * 1e-6, d2))

    @given(w=geometries, l=geometries)
    @settings(max_examples=100, deadline=None)
    def test_sigma_positive_and_finite(self, w, l):
        sigma = PELGROM.sigma_delta_vt_v(w * 1e-6, l * 1e-6)
        assert 0.0 < sigma < 1.0


class TestPowerLawInvariants:
    @given(k=st.floats(1e-9, 1e-1), n=st.floats(0.05, 0.95),
           steps=st.lists(st.floats(1.0, 1e7), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_split_accumulation_equals_total(self, k, n, steps):
        """Advancing in pieces at CONSTANT stress equals one shot."""
        delta = 0.0
        for dt in steps:
            delta = power_law_advance(delta, k, n, dt)
        total = k * sum(steps) ** n
        assert delta == pytest.approx(total, rel=1e-6)

    @given(k1=st.floats(1e-9, 1e-3), k2=st.floats(1e-9, 1e-3),
           n=st.floats(0.1, 0.9), dt=st.floats(1.0, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_damage_never_decreases(self, k1, k2, n, dt):
        d1 = power_law_advance(0.0, k1, n, dt)
        d2 = power_law_advance(d1, k2, n, dt)
        assert d2 >= d1


class TestWeibullInvariants:
    @given(eta=st.floats(1e-3, 1e12), shape=st.floats(0.5, 5.0),
           t=st.floats(0.0, 1e15))
    @settings(max_examples=150, deadline=None)
    def test_cdf_in_unit_interval(self, eta, shape, t):
        f = weibull_cdf(t, eta, shape)
        assert 0.0 <= f <= 1.0

    @given(eta=st.floats(1e-3, 1e12), shape=st.floats(0.5, 5.0),
           q=st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=150, deadline=None)
    def test_quantile_cdf_roundtrip(self, eta, shape, q):
        t = weibull_quantile(q, eta, shape)
        assert weibull_cdf(t, eta, shape) == pytest.approx(q, rel=1e-6)

    @given(eta=st.floats(1e-3, 1e12), shape=st.floats(0.5, 5.0),
           t1=st.floats(0.0, 1e15), t2=st.floats(0.0, 1e15))
    @settings(max_examples=100, deadline=None)
    def test_cdf_monotone(self, eta, shape, t1, t2):
        assume(t1 < t2)
        assert weibull_cdf(t1, eta, shape) <= weibull_cdf(t2, eta, shape)


class TestWaveformInvariants:
    wf_values = st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=50)

    @given(values=wf_values)
    @settings(max_examples=100, deadline=None)
    def test_mean_between_extrema(self, values):
        t = np.linspace(0.0, 1.0, len(values))
        w = Waveform(t, np.array(values))
        assert w.trough() - 1e-12 <= w.mean() <= w.peak() + 1e-12

    @given(values=wf_values)
    @settings(max_examples=100, deadline=None)
    def test_rms_at_least_abs_mean(self, values):
        t = np.linspace(0.0, 1.0, len(values))
        w = Waveform(t, np.array(values))
        assert w.rms() >= abs(w.mean()) - 1e-9

    @given(values=wf_values, threshold=st.floats(-20.0, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_duty_in_unit_interval(self, values, threshold):
        t = np.linspace(0.0, 1.0, len(values))
        w = Waveform(t, np.array(values))
        assert 0.0 <= w.duty_above(threshold) <= 1.0


class TestSspaInvariants:
    @given(seed=st.integers(0, 10_000), sigma=st.floats(1e-4, 5e-2),
           n_sources=st.sampled_from([7, 15, 31]))
    @settings(max_examples=50, deadline=None)
    def test_sequence_is_permutation(self, seed, sigma, n_sources):
        errors = np.random.default_rng(seed).normal(0.0, sigma, n_sources)
        seq = sspa_sequence(errors)
        assert sorted(seq.tolist()) == list(range(n_sources))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_calibration_never_moves_endpoints(self, seed):
        cfg = DacConfig(n_bits=8, n_unary_bits=4)
        dac = CurrentSteeringDac(cfg, 0.01, np.random.default_rng(seed))
        out_before = dac.transfer_lsb()
        seq = sspa_sequence(dac.unary_errors)
        out_after = dac.transfer_lsb(seq)
        assert out_after[0] == pytest.approx(out_before[0])
        assert out_after[-1] == pytest.approx(out_before[-1])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_inl_never_worse_than_3x(self, seed):
        """SSPA may rarely not help, but must never blow INL up."""
        cfg = DacConfig(n_bits=8, n_unary_bits=4)
        dac = CurrentSteeringDac(cfg, 0.01, np.random.default_rng(seed))
        before = dac.max_inl_lsb()
        after = dac.max_inl_lsb(sspa_sequence(dac.unary_errors))
        assert after <= 3.0 * before + 1e-9


class TestParserRoundtripProperties:
    from repro.circuit import format_value, parse_value

    @given(value=st.floats(min_value=1e-15, max_value=1e12,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_format_parse_roundtrip(self, value):
        from repro.circuit import format_value, parse_value

        assert parse_value(format_value(value)) == pytest.approx(
            value, rel=1e-5)

    @given(value=st.floats(min_value=-1e12, max_value=-1e-15,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_negative_roundtrip(self, value):
        from repro.circuit import format_value, parse_value

        assert parse_value(format_value(value)) == pytest.approx(
            value, rel=1e-5)


class TestSpectrumProperties:
    @given(seed=st.integers(0, 10_000), n=st.sampled_from([256, 500, 1024]))
    @settings(max_examples=50, deadline=None)
    def test_parseval_energy_match(self, seed, n):
        """Single-sided amplitude spectrum conserves signal power."""
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, 1.0, n)
        t = np.linspace(0.0, 1.0, n)
        w = Waveform(t, values)
        freqs, amps = w.spectrum()
        # Power from the spectrum: DC² + Σ (A_k/√2)².
        power_spec = amps[0] ** 2 + 0.5 * np.sum(amps[1:] ** 2)
        power_time = float(np.mean(values ** 2))
        # rFFT of even-length signals puts Nyquist in the last bin; the
        # single-sided doubling slightly overcounts it — tolerate a few %.
        assert power_spec == pytest.approx(power_time, rel=0.05)

    @given(offset=st.floats(-5.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_dc_bin_is_mean(self, offset):
        t = np.linspace(0.0, 1.0, 512)
        w = Waveform(t, np.full(512, offset))
        freqs, amps = w.spectrum()
        assert amps[0] == pytest.approx(abs(offset), abs=1e-9)
        assert np.all(amps[1:] < 1e-9)


class TestOracleProperties:
    """Solver-vs-analytic error stays inside the documented bands over
    randomly drawn oracle parameters (see docs/verification.md)."""

    @given(n_rungs=st.integers(2, 8),
           r_ohms=st.floats(10.0, 1e6),
           vdd=st.floats(0.5, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_ladder_within_band_for_any_geometry(self, n_rungs, r_ohms,
                                                 vdd):
        from repro.verify import check_oracle
        from repro.verify.oracles import ResistiveLadderOracle

        oracle = ResistiveLadderOracle(n_rungs=n_rungs, r_ohms=r_ohms,
                                       vdd_v=vdd)
        for dev in check_oracle(oracle):
            assert dev.passed, (f"{dev.path}:{dev.quantity} "
                                f"err={dev.error:.3g} bound={dev.bound:.3g}")

    @given(region=st.sampled_from(["subthreshold", "triode", "saturation"]),
           w_factor=st.floats(1.0, 40.0),
           tech_name=st.sampled_from(["180nm", "90nm", "65nm"]))
    @settings(max_examples=12, deadline=None)
    def test_mosfet_op_within_newton_band(self, region, w_factor,
                                          tech_name):
        from repro.verify import check_oracle
        from repro.verify.oracles import MosfetRegionOracle

        tech = get_node(tech_name)
        oracle = MosfetRegionOracle(region, tech_name=tech_name,
                                    w_m=w_factor * tech.wmin_m)
        for dev in check_oracle(oracle, paths=["dc.scalar"]):
            assert dev.passed, (f"{dev.quantity} err={dev.error:.3g} "
                                f"bound={dev.bound:.3g}")

    @given(r_ohms=st.floats(100.0, 1e5),
           c_f=st.floats(1e-12, 1e-9),
           vstep=st.floats(0.5, 3.0),
           points_per_tau=st.sampled_from([25, 50]))
    @settings(max_examples=10, deadline=None)
    def test_rc_integrators_hold_their_order_bands(self, r_ohms, c_f,
                                                   vstep, points_per_tau):
        from repro.verify import check_oracle
        from repro.verify.oracles import RcStepOracle

        oracle = RcStepOracle(r_ohms=r_ohms, c_f=c_f, vstep_v=vstep,
                              points_per_tau=points_per_tau)
        for dev in check_oracle(oracle):
            assert dev.passed, (f"{dev.path}:{dev.quantity} "
                                f"err={dev.error:.3g} bound={dev.bound:.3g}")

    @given(w_um=st.floats(0.5, 8.0), l_um=st.floats(0.5, 8.0),
           seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_pelgrom_sampler_within_sampling_band(self, w_um, l_um, seed):
        from repro.verify import check_oracle
        from repro.verify.oracles import PelgromSigmaOracle

        oracle = PelgromSigmaOracle(w_um=w_um, l_um=l_um,
                                    n_samples=800, seed=seed)
        for dev in check_oracle(oracle):
            assert dev.passed, (f"{dev.quantity} err={dev.error:.3g} "
                                f"bound={dev.bound:.3g}")


class TestLifetimeCrossingProperties:
    @given(seed=st.integers(0, 10_000),
           bound=st.floats(0.1, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_crossing_bracketed_by_samples(self, seed, bound):
        """The interpolated crossing lies inside the bracketing epochs."""
        from repro.core import time_to_spec_violation

        rng = np.random.default_rng(seed)
        times = np.concatenate(([0.0], np.sort(rng.uniform(1.0, 1e8, 6))))
        # Strictly decreasing trajectory from 1.0 toward 0.
        drops = np.sort(rng.uniform(0.0, 1.0, 7))[::-1]
        values = drops / drops[0]
        t_fail = time_to_spec_violation(times, values, lower=bound)
        if t_fail in (0.0, float("inf")):
            return
        k = int(np.searchsorted(times, t_fail))
        assert times[k - 1] <= t_fail <= times[k] * (1 + 1e-9)
