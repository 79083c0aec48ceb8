"""Unit tests for the compact MOSFET model."""

import math

import numpy as np
import pytest

from repro import units
from repro.circuit import (
    Circuit,
    DeviceDegradation,
    DeviceVariation,
    Mosfet,
    MosfetParams,
    dc_operating_point,
    dc_sweep,
)
from tests.test_properties import CENTRAL_STEP_V, central_linearize


def nmos(tech, w=1e-6, l=None, name="m1"):
    return Mosfet.from_technology(name, "d", "g", "s", "b", tech, "n",
                                  w_m=w, l_m=l if l else tech.lmin_m)


def pmos(tech, w=2e-6, l=None, name="m1"):
    return Mosfet.from_technology(name, "d", "g", "s", "b", tech, "p",
                                  w_m=w, l_m=l if l else tech.lmin_m)


class TestConstruction:
    def test_from_technology_sets_geometry(self, tech90):
        m = nmos(tech90, w=2e-6, l=0.2e-6)
        assert m.params.w_um == pytest.approx(2.0)
        assert m.params.l_um == pytest.approx(0.2)
        assert m.params.area_um2 == pytest.approx(0.4)

    def test_rejects_sub_minimum_geometry(self, tech90):
        with pytest.raises(ValueError, match="below technology minimum"):
            nmos(tech90, l=0.5 * tech90.lmin_m)
        with pytest.raises(ValueError, match="below technology minimum"):
            nmos(tech90, w=0.5 * tech90.wmin_m)

    def test_rejects_bad_polarity(self, tech90):
        with pytest.raises(ValueError):
            Mosfet.from_technology("m", "d", "g", "s", "b", tech90, "x",
                                   w_m=1e-6, l_m=1e-6)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MosfetParams(polarity="n", w_m=-1e-6, l_m=1e-6, vt0_v=0.3,
                         kp_a_per_v2=1e-4, lambda_per_v=0.1,
                         gamma_sqrt_v=0.4, phi_v=0.8, theta_per_v=0.3,
                         esat_l_v=1.0, n_slope=1.3, tox_m=2e-9)

    def test_pmos_vt_magnitude_positive(self, tech90):
        assert pmos(tech90).params.vt0_v > 0.0


class TestCurrentEquation:
    def test_cutoff_current_tiny(self, tech90):
        m = nmos(tech90)
        assert abs(m.drain_current(0.0, tech90.vdd, 0.0)) < 1e-7

    def test_subthreshold_exponential_slope(self, tech90):
        m = nmos(tech90)
        vt = m.params.vt0_v
        phit = units.thermal_voltage()
        n = m.params.n_slope
        i1 = m.drain_current(vt - 0.2, 0.5, 0.0)
        i2 = m.drain_current(vt - 0.2 + n * phit, 0.5, 0.0)
        assert i2 / i1 == pytest.approx(math.e, rel=0.05)

    def test_saturation_square_law(self, tech90):
        # Long, wide device: Ids ≈ vov² damped by the θ·vov mobility
        # term — doubling the overdrive should give a 3–4× current.
        m = Mosfet.from_technology("m", "d", "g", "s", "b", tech90, "n",
                                   w_m=100e-6, l_m=10e-6)
        vt = m.params.vt0_v
        i1 = m.drain_current(vt + 0.2, 1.2, 0.0)
        i2 = m.drain_current(vt + 0.4, 1.2, 0.0)
        assert 3.0 < i2 / i1 < 4.0

    def test_triode_linear_in_small_vds(self, tech90):
        m = nmos(tech90)
        vgs = tech90.vdd
        i1 = m.drain_current(vgs, 0.01, 0.0)
        i2 = m.drain_current(vgs, 0.02, 0.0)
        assert i2 / i1 == pytest.approx(2.0, rel=0.03)

    def test_reverse_conduction_changes_sign(self, tech90):
        # The EKV core conducts backwards for vds < 0 (source and drain
        # exchange roles) — essential for pass gates and SRAM access
        # devices.  Exact S/D symmetry is NOT claimed (β_eff and CLM are
        # source-referenced), but sign and magnitude must be sensible.
        m = nmos(tech90)
        forward = m.drain_current(0.8, 0.3, 0.0)
        reverse = m.drain_current(0.8, -0.3, 0.0)
        assert forward > 0.0
        assert reverse < 0.0
        assert forward / 5.0 < abs(reverse) < 5.0 * forward

    def test_zero_vds_zero_current(self, tech90):
        m = nmos(tech90)
        assert m.drain_current(0.9, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotonic_in_vgs(self, tech90):
        m = nmos(tech90)
        vgs = np.linspace(0.0, tech90.vdd, 40)
        ids = [m.drain_current(v, 0.6, 0.0) for v in vgs]
        assert all(b >= a - 1e-15 for a, b in zip(ids, ids[1:]))

    def test_monotonic_in_vds(self, tech90):
        m = nmos(tech90)
        vds = np.linspace(0.0, tech90.vdd, 40)
        ids = [m.drain_current(0.8, v, 0.0) for v in vds]
        assert all(b >= a - 1e-15 for a, b in zip(ids, ids[1:]))

    def test_body_effect_raises_threshold(self, tech90):
        m = nmos(tech90)
        i_no_bias = m.drain_current(0.6, 0.6, 0.0)
        i_back_bias = m.drain_current(0.6, 0.6, -0.5)
        assert i_back_bias < i_no_bias

    def test_pmos_reflection(self, tech90):
        # Long-channel, low-overdrive devices: velocity saturation and
        # mobility degradation are mild, so the NMOS/PMOS current ratio
        # approaches the mobility ratio.
        mn = nmos(tech90, w=10e-6, l=5e-6)
        mp = pmos(tech90, w=10e-6, l=5e-6)
        i_n = mn.drain_current(0.5, 1.2, 0.0)
        i_p = mp.drain_current(-0.5, -1.2, 0.0)
        assert i_p < 0.0
        ratio = tech90.u0_n_m2_per_vs / tech90.u0_p_m2_per_vs
        assert i_n / (-i_p) == pytest.approx(ratio, rel=0.15)

    def test_clm_increases_sat_current(self, tech90):
        m = nmos(tech90)
        i1 = m.drain_current(0.8, 0.8, 0.0)
        i2 = m.drain_current(0.8, 1.2, 0.0)
        assert i2 > i1

    def test_continuity_across_threshold(self, tech90):
        # No kink at vgs = VT: relative steps stay bounded.
        m = nmos(tech90)
        vt = m.params.vt0_v
        vgs = np.linspace(vt - 0.05, vt + 0.05, 201)
        ids = np.array([m.drain_current(v, 0.6, 0.0) for v in vgs])
        rel_step = np.diff(ids) / ids[:-1]
        assert np.max(rel_step) < 0.2


class TestLinearization:
    def test_gm_matches_secant(self, tech90):
        m = nmos(tech90)
        _, gm, _, _ = m.linearize(0.8, 0.6, 0.0)
        h = 1e-4
        secant = (m.drain_current(0.8 + h, 0.6, 0.0)
                  - m.drain_current(0.8 - h, 0.6, 0.0)) / (2 * h)
        assert gm == pytest.approx(secant, rel=1e-3)

    def test_gds_positive_in_saturation(self, tech90):
        m = nmos(tech90)
        _, _, gds, _ = m.linearize(0.8, 1.0, 0.0)
        assert gds > 0.0

    def test_gmb_positive_for_nmos(self, tech90):
        m = nmos(tech90)
        _, _, _, gmb = m.linearize(0.8, 1.0, -0.3)
        assert gmb > 0.0

    def test_gm_larger_than_gds_in_saturation(self, tech90):
        m = nmos(tech90, l=4 * tech90.lmin_m)
        _, gm, gds, _ = m.linearize(0.8, 1.0, 0.0)
        assert gm > 5.0 * gds


class TestOperatingPoint:
    def test_regions(self, tech90):
        ckt = Circuit("op")
        ckt.voltage_source("vg", "g", "0", 0.0)
        ckt.voltage_source("vd", "d", "0", 1.0)
        ckt.mosfet(Mosfet.from_technology("m1", "d", "g", "0", "0", tech90,
                                          "n", w_m=1e-6, l_m=0.09e-6))
        op = dc_operating_point(ckt)
        assert op.device_op("m1").region == "cutoff"
        ckt["vg"].spec = type(ckt["vg"].spec)(1.2)
        op = dc_operating_point(ckt)
        assert op.device_op("m1").region == "saturation"
        ckt["vd"].spec = type(ckt["vd"].spec)(0.05)
        op = dc_operating_point(ckt)
        assert op.device_op("m1").region == "triode"

    def test_ro_and_gain(self, tech90):
        ckt = Circuit("op")
        ckt.voltage_source("vg", "g", "0", 0.8)
        ckt.voltage_source("vd", "d", "0", 1.0)
        ckt.mosfet(Mosfet.from_technology("m1", "d", "g", "0", "0", tech90,
                                          "n", w_m=1e-6, l_m=0.36e-6))
        dev_op = dc_operating_point(ckt).device_op("m1")
        assert dev_op.ro_ohm == pytest.approx(1.0 / dev_op.gds_s)
        assert dev_op.intrinsic_gain > 5.0


class TestVariationHooks:
    def test_delta_vt_shifts_current(self, tech90):
        m = nmos(tech90)
        i_nominal = m.drain_current(0.8, 0.6, 0.0)
        m.variation = DeviceVariation(delta_vt_v=0.05)
        i_shifted = m.drain_current(0.8, 0.6, 0.0)
        # Positive ΔV_T = harder to turn on = less current.
        assert i_shifted < i_nominal
        # Equivalent to lowering vgs by the same amount (square-ish law).
        m.variation = DeviceVariation()
        assert i_shifted == pytest.approx(
            m.drain_current(0.75, 0.6, 0.0), rel=0.02)

    def test_beta_factor_scales_current(self, tech90):
        m = nmos(tech90)
        i_nominal = m.drain_current(0.8, 0.6, 0.0)
        m.variation = DeviceVariation(beta_factor=0.9)
        assert m.drain_current(0.8, 0.6, 0.0) == pytest.approx(
            0.9 * i_nominal, rel=1e-3)

    def test_pmos_delta_vt_sign_convention(self, tech90):
        # Positive ΔV_T makes a PMOS harder to turn on too.
        m = pmos(tech90)
        i_nominal = abs(m.drain_current(-0.8, -0.6, 0.0))
        m.variation = DeviceVariation(delta_vt_v=0.05)
        assert abs(m.drain_current(-0.8, -0.6, 0.0)) < i_nominal


class TestDegradationHooks:
    def test_fresh_flag(self, tech90):
        m = nmos(tech90)
        assert m.degradation.is_fresh()
        m.degradation.delta_vt_v = 0.01
        assert not m.degradation.is_fresh()
        m.degradation.reset()
        assert m.degradation.is_fresh()

    def test_degraded_iv_shifts_down(self, tech90):
        # Fig 2: degraded device carries less current everywhere.
        m = nmos(tech90)
        vds = np.linspace(0.05, 1.2, 10)
        fresh = np.array([m.drain_current(1.0, v, 0.0) for v in vds])
        m.degradation = DeviceDegradation(delta_vt_v=0.05, beta_factor=0.9)
        aged = np.array([m.drain_current(1.0, v, 0.0) for v in vds])
        assert np.all(aged < fresh)

    def test_lambda_factor_softens_output(self, tech90):
        m = nmos(tech90)
        _, _, gds_fresh, _ = m.linearize(0.8, 1.0, 0.0)
        m.degradation = DeviceDegradation(lambda_factor=2.0)
        _, _, gds_aged, _ = m.linearize(0.8, 1.0, 0.0)
        assert gds_aged > gds_fresh

    def test_gate_leak_draws_gate_current(self, tech90):
        ckt = Circuit("leak")
        ckt.voltage_source("vg", "g", "0", 1.0)
        ckt.voltage_source("vd", "d", "0", 0.6)
        m = Mosfet.from_technology("m1", "d", "g", "0", "0", tech90, "n",
                                   w_m=1e-6, l_m=0.09e-6)
        ckt.mosfet(m)
        op = dc_operating_point(ckt)
        assert abs(op.source_current("vg")) < 1e-11
        m.degradation.gate_leak_s = 1e-3
        m.degradation.bd_spot_position = 0.0  # leak to source (=gnd)
        op = dc_operating_point(ckt)
        # HBD: gate current in the mA range at ~1 V (paper §3.1).
        assert abs(op.source_current("vg")) == pytest.approx(1e-3, rel=0.01)


class TestGroupParameters:
    def test_refresh_equals_the_effective_properties(self, tech90):
        # MosfetGroup.refresh derives each device's dynamic rows from
        # the *_effective properties; they must agree to the bit.
        from dataclasses import replace

        from repro.circuit.mosfet import _CLM_SMOOTH_V, MosfetGroup

        hot = nmos(tech90, w=3e-6, name="m3")
        hot.params = replace(hot.params, temperature_k=398.15)
        devices = [nmos(tech90, name="m1"), pmos(tech90, name="m2"), hot]
        circuit = Circuit("group")
        for m in devices:
            circuit.mosfet(m)
        group = MosfetGroup(devices, circuit.n_unknowns)
        rng = np.random.default_rng(3)
        for _ in range(5):
            for m in devices:
                m.variation = DeviceVariation(
                    delta_vt_v=rng.normal(0.0, 0.02),
                    beta_factor=1.0 + rng.normal(0.0, 0.05),
                    gamma_factor=1.0 + rng.normal(0.0, 0.05))
                m.degradation = DeviceDegradation(
                    delta_vt_v=abs(rng.normal(0.0, 0.01)),
                    beta_factor=1.0 - abs(rng.normal(0.0, 0.02)),
                    lambda_factor=1.0 + abs(rng.normal(0.0, 0.1)))
            group.refresh()
            for j, m in enumerate(devices):
                gamma = m.gamma_effective
                lam = m.lambda_effective
                want = [group._vt_thermal[j] + m.vt_effective_v
                        - gamma * group._sqrt_phi[j], gamma,
                        group._c0s[j] * m.beta_effective, lam,
                        0.5 * gamma, lam * _CLM_SMOOTH_V]
                assert group._dyn[:, j].tolist() == want


class TestGroupStampAgainstCentralDifferences:
    """``MosfetGroup.stamp`` — the C kernel and the numpy pass
    ``_stamp_analytic`` — against the companion model built from central
    differences of ``Mosfet.drain_current``.

    Each device gets four nodes of its own, so its eight Jacobian
    entries and two RHS entries land in distinct cells.  Biases are
    random node voltages in ±1 V (both body-clamp sides, every region
    of both polarities); the ±4h neighbourhood of the clamp kink is
    skipped, as in ``TestAnalyticJacobianProperties``, whose tolerance
    derivation the Jacobian band follows.  The RHS band adds the
    Jacobian band times the terminal voltages it multiplies.
    """

    DRAWS = 60

    @staticmethod
    def _devices():
        from repro.technology import get_node

        devices = []
        for tech_name in ("90nm", "65nm"):
            tech = get_node(tech_name)
            for polarity in ("n", "p"):
                name = f"m{polarity}{tech_name}"
                devices.append(Mosfet.from_technology(
                    name, f"{name}.d", f"{name}.g", f"{name}.s",
                    f"{name}.b", tech, polarity, w_m=12.0 * tech.wmin_m,
                    l_m=2.0 * tech.lmin_m))
        rng = np.random.default_rng(11)
        for m in devices:
            m.variation = DeviceVariation(
                delta_vt_v=rng.normal(0.0, 0.02),
                beta_factor=1.0 + rng.normal(0.0, 0.05),
                gamma_factor=1.0 + rng.normal(0.0, 0.05))
            m.degradation = DeviceDegradation(
                delta_vt_v=abs(rng.normal(0.0, 0.02)),
                beta_factor=1.0 - abs(rng.normal(0.0, 0.05)),
                lambda_factor=1.0 + abs(rng.normal(0.0, 0.3)))
        return devices

    def _check(self, stamp_fn):
        from repro.circuit.mna import Stamper
        from repro.circuit.mosfet import MosfetGroup

        devices = self._devices()
        circuit = Circuit("group-stamp")
        for m in devices:
            circuit.mosfet(m)
        size = circuit.n_unknowns
        group = MosfetGroup(devices, size)
        rng = np.random.default_rng(5)
        st = Stamper(size)
        checked = clamped = 0
        while checked < self.DRAWS:
            x = rng.uniform(-1.0, 1.0, size)
            terminals = [m._terminal_voltages(x) for m in devices]
            # NMOS-frame v_BS past the clamp (positive) or short of it.
            past_clamp = [
                (vbs if m.params.polarity == "n" else -vbs)
                - (m.params.phi_v - 0.05)
                for m, (_, _, vbs) in zip(devices, terminals)]
            if min(map(abs, past_clamp)) <= 4.0 * CENTRAL_STEP_V:
                continue
            clamped += sum(v > 0.0 for v in past_clamp)
            st.clear()
            stamp_fn(group, st, x)
            for m, (vgs, vds, vbs) in zip(devices, terminals):
                self._compare(m, st, vgs, vds, vbs)
            checked += 1
        # Both sides of the body clamp were exercised.
        assert 0 < clamped < self.DRAWS * len(devices)

    @staticmethod
    def _compare(m, st, vgs, vds, vbs):
        d, g, s, b = m.nodes
        ids, gm, gds, gmb = central_linearize(m, vgs, vds, vbs)
        total = gm + gds + gmb
        ieq = ids - gm * vgs - gds * vds - gmb * vbs
        want_a = [gm, gds, gmb, -total, -gm, -gds, -gmb, total]
        got_a = [st.a[d, g], st.a[d, d], st.a[d, b], st.a[d, s],
                 st.a[s, g], st.a[s, d], st.a[s, b], st.a[s, s]]
        phit = units.thermal_voltage(m.params.temperature_k)
        g_scale = max(abs(ids) / (2.0 * m.params.n_slope * phit),
                      abs(gm), abs(gds), abs(gmb), 1e-18)
        band = 1e-6 * g_scale
        for k, (got, want) in enumerate(zip(got_a, want_a)):
            assert abs(got - want) <= band, (
                f"{m.name} entry {k} at vgs={vgs:.4f} vds={vds:.4f} "
                f"vbs={vbs:.4f}: stamped={got:.12e} reference={want:.12e}")
        rhs_band = band * (abs(vgs) + abs(vds) + abs(vbs)) \
            + 1e-12 * abs(ids) + 1e-21
        for got, want, row in ((st.b[d], -ieq, "drain"),
                               (st.b[s], ieq, "source")):
            assert abs(got - want) <= rhs_band, (
                f"{m.name} {row} rhs at vgs={vgs:.4f} vds={vds:.4f} "
                f"vbs={vbs:.4f}: stamped={got:.12e} reference={want:.12e}")

    def test_compiled_kernel(self):
        from repro.circuit import _ckernel

        if not _ckernel.available():
            pytest.skip("compiled stamp kernel not available")

        def stamp(group, st, x):
            assert group._ck_args is not None
            group.stamp(st, x)

        self._check(stamp)

    def test_numpy_pass(self):
        self._check(lambda group, st, x: group._stamp_analytic(st, x))


class TestStressHelpers:
    def test_oxide_field(self, tech90):
        m = nmos(tech90)
        assert m.oxide_field(1.2) == pytest.approx(1.2 / tech90.tox_m)

    def test_lateral_field(self, tech90):
        m = nmos(tech90, l=0.09e-6)
        assert m.lateral_field(0.9) == pytest.approx(1e7)
