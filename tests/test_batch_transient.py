"""Transient ensembles are bit-identical to the scalar integrator.

``batch_size`` batches DC sweeps only; every transient die runs the
scalar :func:`~repro.circuit.transient.transient`.  The contract under
test: a transient spec gives the same bits with and without
``batch_size`` (``MonteCarloYield`` and ``HighSigmaYield``), and lane
``k`` of :func:`~repro.circuit.batch_transient.batched_transient` is
``transient()`` under ``configure(k)``, bit for bit.
"""

import numpy as np
import pytest

from repro import faultinject, telemetry
from repro.circuit import ConvergenceError, batched_transient, transient
from repro.circuits import (
    differential_pair,
    oscillation_frequency,
    ring_oscillator,
)
from repro.core import HighSigmaYield, MonteCarloYield, transient_specification
from repro.variability.sampler import MismatchSampler


def _assert_same_trace(result_a, result_b):
    np.testing.assert_array_equal(result_a.times, result_b.times)
    np.testing.assert_array_equal(result_a.states, result_b.states)


# ----------------------------------------------------------------------
# batched_transient: lane k is transient() under configure(k)
# ----------------------------------------------------------------------
class TestBatchedTransientAgreement:
    def test_uniform_lanes_match_scalar(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        scalar = transient(fx.circuit, t_stop=0.5e-9, dt=5e-12)
        results = batched_transient(fx.circuit, 3, t_stop=0.5e-9, dt=5e-12)
        assert len(results) == 3
        for res in results:
            _assert_same_trace(res, scalar)

    def test_mismatch_lanes_match_per_die_scalar(self, tech90):
        fx = differential_pair(tech90)
        devices = fx.circuit.mosfets
        sampler = MismatchSampler(tech90, np.random.default_rng(7))
        dies = []
        for _ in range(4):
            sampler.assign(fx.circuit)
            dies.append([m.variation for m in devices])

        def configure(lane):
            for m, v in zip(devices, dies[lane]):
                m.variation = v

        results = batched_transient(fx.circuit, 4, t_stop=1e-9, dt=2e-11,
                                    configure=configure)
        for lane in range(4):
            configure(lane)
            _assert_same_trace(results[lane],
                               transient(fx.circuit, t_stop=1e-9, dt=2e-11))
        sampler.clear(fx.circuit)

    def test_lte_controlled_grid_matches_scalar(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        scalar = transient(fx.circuit, t_stop=0.4e-9, dt=1e-11,
                           lte_rtol=5e-3)
        results = batched_transient(fx.circuit, 2, t_stop=0.4e-9, dt=1e-11,
                                    lte_rtol=5e-3)
        for res in results:
            _assert_same_trace(res, scalar)

    def test_waveform_metric_agreement(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        scalar = transient(fx.circuit, t_stop=2.5e-9, dt=5e-12)
        f_ref = oscillation_frequency(scalar.voltage("s0"), tech90.vdd / 2)
        (res,) = batched_transient(fx.circuit, 1, t_stop=2.5e-9, dt=5e-12)
        assert oscillation_frequency(res.voltage("s0"),
                                     tech90.vdd / 2) == f_ref

    def test_non_batchable_circuit_integrates(self, tech90):
        # A per-lane scalar loop handles any circuit, diodes included.
        from repro.circuit import Circuit

        ckt = Circuit("diode-rc")
        ckt.voltage_source("vin", "a", "0", 1.0)
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.diode("d1", "b", "0")
        results = batched_transient(ckt, 2, t_stop=1e-10, dt=1e-11)
        for res in results:
            _assert_same_trace(res, transient(ckt, t_stop=1e-10, dt=1e-11))


# ----------------------------------------------------------------------
# Validation and the (results, errors) contract
# ----------------------------------------------------------------------
class TestValidation:
    def test_nonpositive_lanes_rejected(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        with pytest.raises(ValueError, match="n_lanes"):
            batched_transient(fx.circuit, 0, t_stop=1e-10, dt=1e-11)

    def test_bad_grid_rejected(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        with pytest.raises(ValueError):
            batched_transient(fx.circuit, 2, t_stop=-1e-9, dt=1e-11)
        with pytest.raises(ValueError):
            batched_transient(fx.circuit, 2, t_stop=1e-9, dt=0.0)


class TestFallbackAndTelemetry:
    def test_quarantine_returns_errors_list(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        faultinject.force_nonconvergence(fx.circuit,
                                         fx.circuit.mosfets[0].name)
        results, errors = batched_transient(
            fx.circuit, 2, t_stop=0.1e-9, dt=5e-12, quarantine=True)
        assert results == [None, None]
        assert all(isinstance(e, ConvergenceError) for e in errors)

    def test_poisoned_circuit_raises_convergence_error(self, tech90):
        # A die that cannot bias anywhere surfaces the scalar ladder's
        # ConvergenceError from the t=0 operating point.
        fx = ring_oscillator(tech90, n_stages=3)
        faultinject.force_nonconvergence(fx.circuit,
                                         fx.circuit.mosfets[0].name)
        with pytest.raises(ConvergenceError):
            batched_transient(fx.circuit, 2, t_stop=0.1e-9, dt=5e-12)


# ----------------------------------------------------------------------
# Engines: batch_size never changes transient bits
# ----------------------------------------------------------------------
def _swing_metric(result, fixture):
    wave = result.voltage(fixture.nodes["stage1"])
    return float(wave.peak() - wave.trough())


def _swing_spec(tech90):
    return transient_specification(
        "swing", _swing_metric, t_stop_s=0.3e-9, dt_s=5e-12,
        lower=0.5 * tech90.vdd)


class TestMonteCarloTransientBatch:
    def test_batched_transient_mc_matches_scalar(self, tech90):
        mc = MonteCarloYield(ring_oscillator(tech90, n_stages=3),
                             [_swing_spec(tech90)], tech90)
        scalar = mc.run(n_samples=6, seed=3)
        batched = mc.run(n_samples=6, seed=3, batch_size=4)
        np.testing.assert_array_equal(batched.values["swing"],
                                      scalar.values["swing"])
        np.testing.assert_array_equal(batched.passes, scalar.passes)
        assert batched.ledger.to_list() == scalar.ledger.to_list()

    def test_batched_transient_mc_runs_scalar_integrator(self, tech90):
        mc = MonteCarloYield(ring_oscillator(tech90, n_stages=3),
                             [_swing_spec(tech90)], tech90)
        with telemetry.session() as sess:
            mc.run(n_samples=4, seed=1, batch_size=4)
        names = [r["name"] for r in sess.tracer.export_records()]
        assert names.count("solve.transient") == 4
        assert "solve.transient.batch" not in names


class TestHighSigmaTransientBatch:
    def test_batched_transient_highsigma_matches_scalar(self, tech90):
        engine = HighSigmaYield(ring_oscillator(tech90, n_stages=3),
                                _swing_spec(tech90), tech90)
        kwargs = dict(n_samples=16, shift_sigma=2.0, seed=5, adapt=False,
                      surrogate=None, chunk_size=8)
        scalar = engine.run(**kwargs)
        batched = engine.run(batch_size=4, **kwargs)
        for field in ("values", "weights", "fails", "solved"):
            np.testing.assert_array_equal(getattr(batched, field),
                                          getattr(scalar, field))
        assert batched.ledger.to_list() == scalar.ledger.to_list()
