"""Differential tests of the compiled transient step loop.

A transient whose Newton solves the compiled Newton loop serves, and
whose linear elements are resistors, capacitors and independent
sources, runs all of its grid steps in one call into the compiled
kernel; a step the kernel cannot accept is replayed through the Python
step logic (seeded retry, halving, errors) and the kernel resumes at the
next step.  It must be bit-identical to the Python step loop — states,
times, step rejections, iteration totals, metrics and errors — and must
leave every other transient to the Python loop.
"""

import re

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import (
    Circuit,
    ConvergenceError,
    Mosfet,
    NewtonOptions,
    PulseSpec,
    PwlSpec,
    SineSpec,
    SingularCircuitError,
    _ckernel,
    transient,
)
from repro.circuit.mosfet import MosfetGroup
from repro.circuit.transient import _transient_impl
from repro.circuits import ring_oscillator
from tests.test_newton_kernel import _counters, _error_payload

pytestmark = pytest.mark.skipif(
    not _ckernel.available() or _ckernel.dgesv_pointer() is None,
    reason="needs the compiled kernel and scipy's LAPACK")

_HISTOGRAMS = ("solver.transient.newton_iterations",
               "solver.dc.newton_iterations")


def _integrate(monkeypatch, circuit, python_loop: bool, **kwargs):
    """One transient on the compiled step loop or forced onto the Python
    loop, run twice: through ``_transient_impl`` for the rejection tally
    and iteration total, and through ``transient`` under a telemetry
    session.  Returns ``(impl outcome, transient outcome, metrics,
    solve.transient span attrs, compiled-loop calls)``; an outcome is
    the raised error when the run fails."""
    with monkeypatch.context() as patch:
        calls = []
        real = _ckernel.transient_dense
        patch.setattr(_ckernel, "transient_dense",
                      lambda *args: calls.append(None) or real(*args))
        if python_loop:
            patch.setattr(MosfetGroup, "newton_args", lambda self, ws: None)
        outcomes = []
        with telemetry.session() as session:
            for fn in (_transient_impl, transient):
                try:
                    outcomes.append(fn(circuit, **kwargs))
                except (ConvergenceError, SingularCircuitError) as exc:
                    outcomes.append(exc)
        spans = [record["attrs"] for record
                 in session.tracer.export_records()
                 if record["name"] == "solve.transient"]
    assert len(spans) == 1
    return (*outcomes, session.metrics, spans[0], len(calls))


def _assert_identical(monkeypatch, circuit, **kwargs):
    """Run ``circuit`` on both loops, assert every observable is equal,
    and return the compiled run's ``(impl outcome, span attrs)``."""
    impl_c, tran_c, m_c, span_c, calls_c = _integrate(
        monkeypatch, circuit, False, **kwargs)
    impl_p, tran_p, m_p, span_p, calls_p = _integrate(
        monkeypatch, circuit, True, **kwargs)
    assert calls_c >= 2 and calls_p == 0
    if isinstance(impl_p, Exception):
        assert _error_payload(impl_c) == _error_payload(impl_p)
        assert _error_payload(tran_c) == _error_payload(tran_p)
    else:
        (result_c, rejections_c, iterations_c, fallback_c) = impl_c
        (result_p, rejections_p, iterations_p, fallback_p) = impl_p
        for result in (result_c, tran_c, tran_p):
            np.testing.assert_array_equal(result.states, result_p.states)
            np.testing.assert_array_equal(result.times, result_p.times)
        assert rejections_c == rejections_p
        assert iterations_c == iterations_p > 0
        assert fallback_c is not None and fallback_p is None
        assert span_c.pop("fallback_steps") == fallback_c
        assert span_p.pop("fallback_steps") == 0
        assert span_c == span_p
        assert m_c.counters_with_prefix("solver.transient.kernel.") \
            == {"compiled": 1}
        assert m_p.counters_with_prefix("solver.transient.kernel.") \
            == {"python": 1}
    assert _counters(m_c) == _counters(m_p)
    for name in _HISTOGRAMS:
        assert m_c.snapshot()["histograms"].get(name) \
            == m_p.snapshot()["histograms"].get(name), name
    return impl_c, span_c


def _driven_inverter(tech, drive):
    """An inverter driven through an RC from ``drive``, loaded by a
    resistor, a pre-charged capacitor and a sinusoidal current sink."""
    circuit = Circuit("driven inverter")
    circuit.voltage_source("vdd", "vdd", "0", tech.vdd)
    circuit.voltage_source("vin", "in", "0", drive)
    circuit.resistor("rin", "in", "g", 2e3)
    circuit.capacitor("cg", "g", "0", 2e-15)
    circuit.mosfet(Mosfet.from_technology(
        "mn", "out", "g", "0", "0", tech, "n", 4 * tech.wmin_m, tech.lmin_m))
    circuit.mosfet(Mosfet.from_technology(
        "mp", "out", "g", "vdd", "vdd", tech, "p", 8 * tech.wmin_m,
        tech.lmin_m))
    circuit.capacitor("cl", "out", "0", 5e-15, v_initial=0.3)
    circuit.resistor("rl", "out", "vdd", 50e3)
    circuit.current_source("iload", "out", "0",
                           SineSpec(0.0, 5e-6, 3e9, delay_s=0.1e-9))
    return circuit


class TestBitIdentical:
    @pytest.mark.parametrize("n_stages", [3, 5])
    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_ring(self, tech90, monkeypatch, n_stages, method):
        circuit = ring_oscillator(tech90, n_stages=n_stages).circuit
        (result, *_, fallback), span = _assert_identical(
            monkeypatch, circuit, t_stop=0.3e-9, dt=5e-12, method=method)
        assert fallback == 0
        # The ring actually switches over the window.
        assert np.ptp(result.states[:, circuit.node("s0")]) > 0.5

    @pytest.mark.parametrize("lte_rtol, halvings, fallbacks", [
        (0.2, 2, 2),      # a few rejections, the rest in the kernel
        (1e-3, 2, 59),    # every step after the first hands back
        (1e-3, 0, 0),     # no halving budget: no LTE test at all
    ])
    def test_lte_rejections(self, tech90, monkeypatch, lte_rtol, halvings,
                            fallbacks):
        circuit = ring_oscillator(tech90, n_stages=3).circuit
        (_, rejections, *_, fallback), span = _assert_identical(
            monkeypatch, circuit, t_stop=0.3e-9, dt=5e-12,
            lte_rtol=lte_rtol, max_step_halvings=halvings)
        assert fallback == fallbacks == rejections["lte"]
        assert rejections["max_depth"] == (1 if fallbacks else 0)

    def test_newton_rejections_at_depth(self, tech90, monkeypatch):
        # Five iterations are too few for 20 ps steps: steps halve, some
        # of them twice, and all complete.
        circuit = ring_oscillator(tech90, n_stages=3).circuit
        (_, rejections, *_, fallback), _ = _assert_identical(
            monkeypatch, circuit, t_stop=1.2e-9, dt=20e-12,
            options=NewtonOptions(max_iterations=5), max_step_halvings=2)
        assert rejections["newton"] > 0 and rejections["max_depth"] == 2
        assert 0 < fallback < 60

    def test_seeded_retry_hands_back_without_rejection(self, tech90,
                                                       monkeypatch):
        # Here a few predictor-seeded solves fail and their unseeded
        # retries converge: hand-backs that reject nothing.
        circuit = ring_oscillator(tech90, n_stages=3).circuit
        (_, rejections, *_, fallback), _ = _assert_identical(
            monkeypatch, circuit, t_stop=0.6e-9, dt=10e-12,
            options=NewtonOptions(max_iterations=5))
        assert rejections == {"newton": 0, "lte": 0, "max_depth": 0}
        assert 0 < fallback < 60

    @pytest.mark.parametrize("drive", [
        PulseSpec(0.0, 1.2, delay_s=0.1e-9, rise_s=50e-12, fall_s=50e-12,
                  width_s=0.3e-9, period_s=0.8e-9),
        SineSpec(0.6, 0.6, 2e9, phase_rad=0.3),
        PwlSpec(((0.0, 0.0), (0.2e-9, 1.2), (0.5e-9, 1.2), (0.55e-9, 0.1),
                 (2e-9, 0.4))),
    ], ids=["pulse", "sin", "pwl"])
    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_time_dependent_sources(self, tech90, monkeypatch, drive,
                                    method):
        circuit = _driven_inverter(tech90, drive)
        (result, *_), _ = _assert_identical(
            monkeypatch, circuit, t_stop=1e-9, dt=5e-12, method=method)
        assert np.ptp(result.states[:, circuit.node("out")]) > 0.1

    def test_post_breakdown_gate_leak(self, tech90, monkeypatch):
        circuit = ring_oscillator(tech90, n_stages=3).circuit
        leaky = circuit.mosfets[1].degradation
        leaky.gate_leak_s, leaky.bd_spot_position = 2e-5, 0.3
        reference = transient(circuit, 0.3e-9, 5e-12).states
        _assert_identical(monkeypatch, circuit, t_stop=0.3e-9, dt=5e-12)
        leaky.gate_leak_s = 0.0
        # The leak is in the tape: it changes the waveform.
        assert not np.array_equal(
            transient(circuit, 0.3e-9, 5e-12).states, reference)


class TestFailures:
    def test_newton_failure_mid_run(self, tech90, monkeypatch):
        # Without a halving budget a 25 ps step that six iterations
        # cannot solve is fatal — a few steps into the run.
        circuit = ring_oscillator(tech90, n_stages=3).circuit
        exc, _ = _assert_identical(
            monkeypatch, circuit, t_stop=1.5e-9, dt=25e-12,
            options=NewtonOptions(max_iterations=6), max_step_halvings=0)
        assert isinstance(exc, ConvergenceError)
        assert exc.report.analysis == "transient"
        assert exc.report.strategies[0].detail.startswith("t=1e-10s")
        assert exc.iterations > 0 and exc.worst_index is not None

    def test_singular_step(self, tech90, monkeypatch):
        # A drain only its channel connects: once the gate is driven far
        # below threshold the channel conductances underflow to zero and
        # (with gmin off) the step matrix is exactly singular.
        circuit = Circuit("floating drain")
        circuit.voltage_source("vg", "g", "0", PulseSpec(
            1.2, -50.0, delay_s=0.1e-9, rise_s=1e-12, fall_s=1e-12,
            width_s=1e-9, period_s=3e-9))
        circuit.mosfet(Mosfet.from_technology(
            "m1", "d", "g", "0", "0", tech90, "n", 1e-6, tech90.lmin_m))
        exc, _ = _assert_identical(
            monkeypatch, circuit, t_stop=0.3e-9, dt=5e-12,
            options=NewtonOptions(gmin=0.0))
        assert isinstance(exc, SingularCircuitError)


class TestPythonLoopCircuits:
    """Transients the compiled step loop does not serve."""

    @staticmethod
    def _loops(monkeypatch, circuit):
        calls = []
        real = _ckernel.transient_dense
        monkeypatch.setattr(_ckernel, "transient_dense",
                            lambda *args: calls.append(None) or real(*args))
        with telemetry.session() as session:
            transient(circuit, 0.2e-9, 5e-12)
        assert not calls
        return session.metrics.counters_with_prefix(
            "solver.transient.kernel.")

    def test_inductor(self, tech90, monkeypatch):
        circuit = ring_oscillator(tech90, n_stages=3).circuit
        circuit.inductor("lsupply", "vdd", "vdd_core", 1e-9)
        circuit.resistor("rsupply", "vdd_core", "0", 1e6)
        assert self._loops(monkeypatch, circuit) == {"python": 1}

    def test_diode(self, tech90, monkeypatch):
        circuit = ring_oscillator(tech90, n_stages=3).circuit
        circuit.diode("dclamp", "s0", "vdd")
        assert self._loops(monkeypatch, circuit) == {"python": 1}

    def test_no_mosfets(self, monkeypatch):
        circuit = Circuit("rc")
        circuit.voltage_source("vin", "in", "0", SineSpec(0.0, 1.0, 1e9))
        circuit.resistor("r1", "in", "out", 1e3)
        circuit.capacitor("c1", "out", "0", 1e-13)
        assert self._loops(monkeypatch, circuit) == {"python": 1}


class TestTelemetry:
    def test_ring_trace_names_the_step_loop(self, tmp_path, capsys):
        # The ring workload's transients all take the compiled loop; the
        # trace report says so (the CI traced-smoke guard reads the
        # same counters).
        from repro.cli import main
        from repro.telemetry import read_trace

        path = tmp_path / "ring.jsonl"
        assert main(["mc", "--workload", "ring", "--samples", "4",
                     "--quiet", "--trace", str(path)]) == 0
        counters = read_trace(str(path)).metrics["counters"]
        assert counters["solver.transient.kernel.compiled"] == 4
        assert "solver.transient.kernel.python" not in counters
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        assert re.search(r"step loop\s+: compiled 4\n",
                         capsys.readouterr().out)
