"""Batched ensemble DC engine vs the scalar path (repro.circuit.batch).

The contract under test: batched and scalar solves iterate to the same
fixed point with the same stopping criterion, so their answers agree
within a small multiple of the Newton tolerance — across the circuits
library, under forced lane fallback, and end-to-end through ``MonteCarloYield(batch_size=)`` on every
backend.  The multiple is no longer a blanket 10x: each circuit class
carries the measured factor documented in
``repro.verify.differential.BATCH_AGREEMENT_FACTORS`` (worst observed
gaps are ~1e-6x the criterion — see docs/verification.md), so a real
divergence between the paths can no longer hide under a loose bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faultinject, telemetry
from repro.circuit import _ckernel, batched_sweeps, can_batch, dc_sweep
from repro.circuits import (
    beta_multiplier_reference,
    differential_pair,
    five_transistor_ota,
    input_referred_offset_v,
    inverter,
    simple_current_mirror,
)
from repro.core import MonteCarloYield, Specification
from repro.verify.differential import BATCH_AGREEMENT_FACTORS, batch_state_bound

#: Forced-fallback paths re-enter the scalar ladder from
#: a pilot-seeded start, so they get the differential pair's sweep
#: factor with the same measured headroom (worst observed ~4e-6x).
_LANE_FACTOR = BATCH_AGREEMENT_FACTORS["differential_pair"]

#: Scalar voltage-source sweeps run as one compiled call (one
#: ``solve.dc.sweep`` span) when the compiled Newton loop is usable.
COMPILED_SWEEPS = _ckernel.available() and _ckernel.dgesv_pointer() is not None


def _assert_states_close(x_batch, x_scalar, factor, options=None):
    """Per-unknown |Δx| ≤ factor·(vtol + reltol·scale) — the solver's
    own convergence criterion scaled by the documented per-class
    factor."""
    limit = batch_state_bound(x_scalar, factor, options)
    np.testing.assert_array_less(np.abs(np.asarray(x_batch) - x_scalar),
                                 limit)


def _compare_sweep(circuit, source, values, class_key):
    factor = BATCH_AGREEMENT_FACTORS[class_key]
    scalar = dc_sweep(circuit, source, values, batch=False)
    batched = dc_sweep(circuit, source, values, batch=True)
    assert len(scalar) == len(batched) == len(values)
    for sol_b, sol_s in zip(batched, scalar):
        _assert_states_close(sol_b.x, sol_s.x, factor)


# ----------------------------------------------------------------------
# Corpus: batched sweep matches scalar on the circuits library
# ----------------------------------------------------------------------
class TestBatchedSweepCorpus:
    def test_differential_pair(self, tech90):
        fx = differential_pair(tech90)
        vcm = fx.circuit["vinp"].spec.dc_value()
        _compare_sweep(fx.circuit, "vinp",
                       np.linspace(vcm - 0.2, vcm + 0.2, 41),
                       "differential_pair")

    def test_five_transistor_ota(self, tech90):
        fx = five_transistor_ota(tech90)
        vcm = fx.circuit["vinp"].spec.dc_value()
        _compare_sweep(fx.circuit, "vinp",
                       np.linspace(vcm - 0.1, vcm + 0.1, 21),
                       "five_transistor_ota")

    def test_simple_current_mirror(self, tech90):
        fx = simple_current_mirror(tech90)
        _compare_sweep(fx.circuit, "vout",
                       np.linspace(0.05, tech90.vdd, 33),
                       "simple_current_mirror")

    def test_inverter_full_vtc(self, tech90):
        # The full VTC crosses the high-gain transition region — the
        # hardest stretch for a shared pilot seed.
        fx = inverter(tech90)
        _compare_sweep(fx.circuit, "vin",
                       np.linspace(0.0, tech90.vdd, 41), "inverter_vtc")

    def test_beta_multiplier_supply_sweep(self, tech90):
        fx = beta_multiplier_reference(tech90)
        _compare_sweep(fx.circuit, "vdd",
                       np.linspace(0.8 * tech90.vdd, 1.1 * tech90.vdd, 13),
                       "beta_multiplier_reference")

    def test_multiple_slabs(self, tech90):
        # More points than max_lanes → several slabs with x-carry.
        fx = inverter(tech90)
        values = np.linspace(0.0, tech90.vdd, 23)
        scalar = dc_sweep(fx.circuit, "vin", values, batch=False)
        from repro.circuit import batched_dc_sweep
        batched = batched_dc_sweep(fx.circuit, "vin", values, max_lanes=8)
        for sol_b, sol_s in zip(batched, scalar):
            _assert_states_close(sol_b.x, sol_s.x,
                                 BATCH_AGREEMENT_FACTORS["inverter_vtc"])

    def test_single_point_stays_scalar(self, tech90):
        fx = inverter(tech90)
        with telemetry.session() as sess:
            dc_sweep(fx.circuit, "vin", [0.5], batch=True)
        names = [r["name"] for r in sess.tracer.export_records()]
        assert "solve.dc.batch" not in names
        # The scalar sweep: one compiled-sweep span, or one per-point
        # solve span without the compiled Newton loop.
        expected = "solve.dc.sweep" if COMPILED_SWEEPS \
            else "solve.dc"
        assert names == [expected]

    @settings(max_examples=8, deadline=None)
    @given(start=st.floats(0.0, 0.3), span=st.floats(0.1, 0.9),
           n=st.integers(3, 17))
    def test_property_arbitrary_ranges(self, start, span, n):
        from repro.technology import get_node

        fx = inverter(get_node("90nm"))
        _compare_sweep(fx.circuit, "vin",
                       np.linspace(start, start + span, n), "inverter_vtc")


# ----------------------------------------------------------------------
# Routing and scope
# ----------------------------------------------------------------------
class TestRouting:
    def test_batched_sweeps_context_routes(self, tech90):
        fx = differential_pair(tech90)
        vcm = fx.circuit["vinp"].spec.dc_value()
        values = np.linspace(vcm - 0.1, vcm + 0.1, 9)
        with telemetry.session() as sess, batched_sweeps():
            dc_sweep(fx.circuit, "vinp", values)
        names = [r["name"] for r in sess.tracer.export_records()]
        assert "solve.dc.batch" in names

    def test_batch_false_overrides_context(self, tech90):
        fx = differential_pair(tech90)
        vcm = fx.circuit["vinp"].spec.dc_value()
        values = np.linspace(vcm - 0.1, vcm + 0.1, 9)
        with telemetry.session() as sess, batched_sweeps():
            dc_sweep(fx.circuit, "vinp", values, batch=False)
        names = [r["name"] for r in sess.tracer.export_records()]
        assert "solve.dc.batch" not in names

    def test_context_lane_cap_slabs(self, tech90):
        fx = inverter(tech90)
        values = np.linspace(0.0, tech90.vdd, 20)
        with telemetry.session() as sess, batched_sweeps(max_lanes=8):
            dc_sweep(fx.circuit, "vin", values)
        spans = [r for r in sess.tracer.export_records()
                 if r["name"] == "solve.dc.batch"]
        assert [s["attrs"]["lanes"] for s in spans] == [8, 8, 4]

    def test_other_nonlinear_falls_back_to_scalar(self, tech90):
        from repro.circuit import Circuit

        ckt = Circuit("diode-load")
        ckt.voltage_source("vdd", "vdd", "0", 1.0)
        ckt.resistor("r1", "vdd", "a", 1e3)
        ckt.diode("d1", "a", "0")
        assert not can_batch(ckt)
        values = np.linspace(0.4, 1.2, 7)
        with telemetry.session() as sess:
            batched = dc_sweep(ckt, "vdd", values, batch=True)
        names = [r["name"] for r in sess.tracer.export_records()]
        assert "solve.dc.batch" not in names  # silently scalar
        scalar = dc_sweep(ckt, "vdd", values, batch=False)
        for sol_b, sol_s in zip(batched, scalar):
            np.testing.assert_allclose(sol_b.x, sol_s.x, rtol=0, atol=1e-12)

    def test_invalid_lane_cap_rejected(self):
        with pytest.raises(ValueError):
            with batched_sweeps(max_lanes=0):
                pass


# ----------------------------------------------------------------------
# Forced scalar fallback (faultinject)
# ----------------------------------------------------------------------
class TestLaneFallback:
    def test_forced_fallback_lane_matches_scalar(self, tech90):
        fx = differential_pair(tech90)
        vcm = fx.circuit["vinp"].spec.dc_value()
        values = np.linspace(vcm - 0.2, vcm + 0.2, 17)
        scalar = dc_sweep(fx.circuit, "vinp", values, batch=False)
        faultinject.force_batch_lane_fallback(fx.circuit, [3, 11])
        try:
            with telemetry.session() as sess:
                batched = dc_sweep(fx.circuit, "vinp", values, batch=True)
            assert sess.metrics.counter(
                "solver.dc.batch.fallback_lanes") == 2
            span = next(r for r in sess.tracer.export_records()
                        if r["name"] == "solve.dc.batch")
            assert span["attrs"]["fallback_lanes"] == 2
            # Ladder-solved lanes obey the same agreement contract.
            for sol_b, sol_s in zip(batched, scalar):
                _assert_states_close(sol_b.x, sol_s.x, _LANE_FACTOR)
        finally:
            faultinject.clear_batch_lane_fallback(fx.circuit)

    def test_fallback_preserves_convergence_error(self, tech90):
        # A lane that cannot converge anywhere must surface the scalar
        # ladder's ConvergenceError, not a batch-specific failure.
        from repro.circuit import ConvergenceError

        fx = differential_pair(tech90)
        vcm = fx.circuit["vinp"].spec.dc_value()
        faultinject.force_nonconvergence(fx.circuit,
                                         fx.circuit.mosfets[0].name)
        with pytest.raises(ConvergenceError) as excinfo:
            dc_sweep(fx.circuit, "vinp",
                     np.linspace(vcm - 0.1, vcm + 0.1, 5), batch=True)
        assert excinfo.value.report is not None


# ----------------------------------------------------------------------
# Monte-Carlo seam: batch_size= agrees with scalar on every backend
# ----------------------------------------------------------------------
class TestMonteCarloBatch:
    def _mc(self, tech90):
        fx = differential_pair(tech90)
        spec = Specification("offset", input_referred_offset_v,
                             lower=-5e-3, upper=5e-3)
        return MonteCarloYield(fx, [spec], tech90)

    @pytest.mark.parametrize("backend,jobs", [("serial", 1),
                                              ("thread", 2),
                                              ("process", 2)])
    def test_batched_mc_matches_scalar(self, tech90, backend, jobs):
        mc = self._mc(tech90)
        scalar = mc.run(n_samples=16, seed=5)
        batched = mc.run(n_samples=16, seed=5, jobs=jobs, backend=backend,
                         batch_size=32)
        # Identical variates → identical verdicts; metrics agree within
        # Newton tolerance (the extractor interpolates between sweep
        # points, which only tightens the agreement).
        np.testing.assert_array_equal(scalar.passes, batched.passes)
        np.testing.assert_allclose(batched.values["offset"],
                                   scalar.values["offset"],
                                   rtol=0, atol=1e-7)
        assert scalar.yield_fraction == batched.yield_fraction

    def test_batch_size_validation(self, tech90):
        mc = self._mc(tech90)
        with pytest.raises(ValueError):
            mc.run(n_samples=4, batch_size=0)

    def test_batched_mc_emits_batch_spans(self, tech90):
        mc = self._mc(tech90)
        with telemetry.session() as sess:
            mc.run(n_samples=4, seed=1, batch_size=64)
        names = [r["name"] for r in sess.tracer.export_records()]
        assert "solve.dc.batch" in names
        assert sess.metrics.counter("solver.dc.batch.solves") > 0
