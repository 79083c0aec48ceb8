"""Differential tests of the compiled damped-Newton loop.

``newton_solve(..., group=)`` runs the whole iteration of a dense
all-MOSFET system in one call into the compiled kernel.  It must be
bit-identical to the Python loop — same iterates, same iteration
counts, same errors — and must hand solves back to the Python loop
whenever one of its preconditions goes away.
"""

import json
import math

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import (
    Circuit,
    ConvergenceError,
    NewtonOptions,
    SingularCircuitError,
    _ckernel,
    dc_operating_point,
    dc_sweep,
    transient,
)
from repro.circuit import mna
from repro.circuit.dc import dc_engine
from repro.circuit.mosfet import Mosfet, MosfetGroup, fd_jacobians
from repro.circuits import differential_pair, ring_oscillator, sram_cell, \
    sram_read_butterfly
from repro.faultinject import force_nonconvergence
from repro.verify.differential import _batch_corpus

pytestmark = pytest.mark.skipif(
    not _ckernel.available() or _ckernel.dgesv_pointer() is None,
    reason="needs the compiled kernel and scipy's LAPACK")


class _LoopCounter:
    """Counts calls into the compiled Newton loop."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = _ckernel.newton_dense

        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(_ckernel, "newton_dense", counted)


def _run(monkeypatch, fn, python_loop: bool):
    """``fn()`` under the compiled loop or forced onto the Python loop;
    returns ``(result or raised error, metrics snapshot)`` and checks
    which loop served it."""
    with monkeypatch.context() as patch:
        counter = _LoopCounter(patch)
        if python_loop:
            patch.setattr(MosfetGroup, "newton_args", lambda self, ws: None)
        with telemetry.session() as session:
            try:
                outcome = fn()
            except (ConvergenceError, SingularCircuitError) as exc:
                outcome = exc
        if python_loop:
            assert counter.calls == 0
        else:
            assert counter.calls > 0
        return outcome, session.metrics


def _iterations(metrics) -> float:
    return metrics.counter("solver.factorizations")


def _error_payload(exc) -> str:
    """Everything an error carries, NaN-safe for equality."""
    report = exc.report.to_dict() if getattr(exc, "report", None) else None
    return json.dumps({"type": type(exc).__name__, "message": str(exc),
                       "iterations": getattr(exc, "iterations", None),
                       "residual": repr(getattr(exc, "final_residual", None)),
                       "worst": getattr(exc, "worst_index", None),
                       "report": report}, sort_keys=True)


class TestBitIdentical:
    def test_batch_corpus_sweeps(self, tech90, monkeypatch):
        for name, circuit, source, values in _batch_corpus(tech90):
            def sweep():
                return np.array([s.x for s in dc_sweep(
                    circuit, source, values, batch=False)])

            compiled, m_c = _run(monkeypatch, sweep, python_loop=False)
            python, m_p = _run(monkeypatch, sweep, python_loop=True)
            np.testing.assert_array_equal(compiled, python, err_msg=name)
            assert _iterations(m_c) == _iterations(m_p) > 0, name

    def test_ring_transient(self, tech90, monkeypatch):
        fx = ring_oscillator(tech90, n_stages=3)

        def ring():
            return transient(fx.circuit, 0.3e-9, 5e-12).states

        compiled, m_c = _run(monkeypatch, ring, python_loop=False)
        python, m_p = _run(monkeypatch, ring, python_loop=True)
        np.testing.assert_array_equal(compiled, python)
        assert _iterations(m_c) == _iterations(m_p) > 0

    def test_sram_butterfly(self, tech90, monkeypatch):
        fx = sram_cell(tech90)

        def butterfly():
            return np.array(sram_read_butterfly(fx, n_points=41))

        compiled, m_c = _run(monkeypatch, butterfly, python_loop=False)
        python, m_p = _run(monkeypatch, butterfly, python_loop=True)
        np.testing.assert_array_equal(compiled, python)
        assert _iterations(m_c) == _iterations(m_p) > 0


class TestFailurePathsIdentical:
    def _both(self, monkeypatch, fn):
        compiled, m_c = _run(monkeypatch, fn, python_loop=False)
        python, m_p = _run(monkeypatch, fn, python_loop=True)
        assert isinstance(compiled, Exception), compiled
        assert _error_payload(compiled) == _error_payload(python)
        # Same telemetry too (singular-matrix events, factorizations).
        assert m_c.snapshot()["counters"] == m_p.snapshot()["counters"]
        return compiled

    def test_iteration_cap(self, tech90, monkeypatch):
        fx = differential_pair(tech90)
        opts = NewtonOptions(max_iterations=1)
        exc = self._both(monkeypatch,
                         lambda: dc_operating_point(fx.circuit, options=opts))
        assert isinstance(exc, ConvergenceError)
        assert exc.report.strategy_names()[0] == "newton"
        assert exc.report.strategies[0].iterations == 1

    def test_poisoned_nan_parameter(self, tech90, monkeypatch):
        fx = differential_pair(tech90)
        force_nonconvergence(fx.circuit, fx.circuit.mosfets[0].name)
        exc = self._both(monkeypatch, lambda: dc_operating_point(fx.circuit))
        assert isinstance(exc, ConvergenceError)
        assert math.isnan(exc.report.strategies[0].final_residual)

    def test_singular_floating_node(self, tech90, monkeypatch):
        # A node that only drives a gate floats once gmin is zero.
        circuit = Circuit("floating gate")
        circuit.voltage_source("vdd", "vdd", "0", tech90.vdd)
        circuit.resistor("rl", "vdd", "d", 10e3)
        circuit.mosfet(Mosfet.from_technology(
            "m1", "d", "g", "0", "0", tech90, "n", 1e-6, tech90.lmin_m))
        opts = NewtonOptions(gmin=0.0)
        exc = self._both(monkeypatch,
                         lambda: dc_operating_point(circuit, options=opts))
        assert isinstance(exc, SingularCircuitError)


class TestFallbackRules:
    def test_veto_mid_sweep_switches_next_solve(self, tech90, monkeypatch):
        fx = differential_pair(tech90)
        circuit = fx.circuit
        values = np.linspace(0.5, 0.7, 9)
        reference = np.array([s.x for s in dc_sweep(
            circuit, "vinp", values, batch=False)])
        calls = []
        real = _ckernel.newton_dense

        def newton_dense(*args):
            # The breaker quarantines the kernel after the second solve.
            calls.append(None)
            status = real(*args)
            if len(calls) == 2:
                _ckernel.set_veto(True)
            return status

        monkeypatch.setattr(_ckernel, "newton_dense", newton_dense)
        try:
            got = np.array([s.x for s in dc_sweep(
                circuit, "vinp", values, batch=False)])
            assert len(calls) == 2
        finally:
            _ckernel.set_veto(False)
        # The vetoed solves also lose the compiled stamp pass, so they
        # agree with the kernel's answers to Newton tolerance only.
        np.testing.assert_array_equal(got[:2], reference[:2])
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-6)
        # Lifting the veto brings the compiled loop back.
        dc_operating_point(circuit)
        assert len(calls) == 3

    def test_veto_mid_transient_switches_next_step(self, tech90,
                                                   monkeypatch):
        # The group refreshes once per transient, not per step: the
        # per-solve capability check alone must catch the veto.
        fx = ring_oscillator(tech90, n_stages=3)
        reference = transient(fx.circuit, 0.3e-9, 5e-12).states
        calls = []
        real = _ckernel.newton_dense

        def newton_dense(*args):
            calls.append(None)
            status = real(*args)
            if len(calls) == 5:
                _ckernel.set_veto(True)
            return status

        monkeypatch.setattr(_ckernel, "newton_dense", newton_dense)
        try:
            got = transient(fx.circuit, 0.3e-9, 5e-12).states
            assert len(calls) == 5
        finally:
            _ckernel.set_veto(False)
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-6)

    def test_no_dgesv_uses_python_loop(self, tech90, monkeypatch):
        fx = differential_pair(tech90)
        dc_operating_point(fx.circuit)  # block already built
        counter = _LoopCounter(monkeypatch)
        monkeypatch.setattr(mna, "_dgesv", None)
        with telemetry.session() as session:
            dc_operating_point(fx.circuit)
        assert counter.calls == 0
        assert session.metrics.counters_with_prefix("solver.dc.kernel.") \
            == {"python": 1}

    def test_fd_jacobians_use_python_loop(self, tech90, monkeypatch):
        fx = differential_pair(tech90)
        counter = _LoopCounter(monkeypatch)
        with fd_jacobians():
            dc_operating_point(fx.circuit)
        assert counter.calls == 0

    def test_sparse_plan_uses_python_loop(self, tech90, monkeypatch):
        fx = differential_pair(tech90)
        counter = _LoopCounter(monkeypatch)
        with mna.sparse_mode(1):
            assert dc_engine(fx.circuit).sparsity_plan is not None
            dc_operating_point(fx.circuit)
        assert counter.calls == 0

    def test_kernel_tally_counts_one_per_solve(self, tech90):
        fx = differential_pair(tech90)
        with telemetry.session() as session:
            dc_sweep(fx.circuit, "vinp", np.linspace(0.5, 0.7, 5),
                     batch=False)
        assert session.metrics.counters_with_prefix("solver.dc.kernel.") \
            == {"compiled": 5}
