"""Differential tests of the compiled damped-Newton loop and sweep.

``newton_solve(..., group=)`` runs the whole iteration of a dense
all-MOSFET system in one call into the compiled kernel, and a scalar
voltage-source ``dc_sweep`` runs all of its points in one call.  Both
must be bit-identical to the Python loop — same iterates, same
iteration counts and metrics, same errors — and must hand solves back
to the Python loop whenever one of their preconditions goes away.
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
from repro.circuit.dc import DcSweep, dc_engine, sweep_voltages, warm_start
from repro.circuit.mosfet import Mosfet, MosfetGroup, fd_jacobians
from repro.circuits import differential_pair, ring_oscillator, sram_cell, \
    sram_read_butterfly
from repro.faultinject import force_nonconvergence
from repro.verify.differential import _batch_corpus

pytestmark = pytest.mark.skipif(
    not _ckernel.available() or _ckernel.dgesv_pointer() is None,
    reason="needs the compiled kernel and scipy's LAPACK")


class _LoopCounter:
    """Counts calls into the compiled Newton loop, sweep and transient."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for name in ("newton_dense", "sweep_dense", "transient_dense"):
            monkeypatch.setattr(_ckernel, name, self._counted(
                getattr(_ckernel, name)))

    def _counted(self, real):
        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        return counted


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


#: Counters of what an engine builds once and reuses: the first of the
#: two runs builds the circuit's engine, its memoized DC base and its
#: step tape, and the second reuses them, whichever loop serves them.
BUILD_COUNTERS = ("solver.dc.engine_builds", "solver.dc.base_builds",
                  "solver.transient.tape_builds")


def _solve_counters(metrics) -> dict:
    """The counter snapshot without the :data:`BUILD_COUNTERS`."""
    counters = metrics.snapshot()["counters"]
    for name in BUILD_COUNTERS:
        counters.pop(name, None)
    return counters


def _counters(metrics) -> dict:
    """:func:`_solve_counters` with the
    ``solver.<dc|transient>.kernel.<loop>`` tallies — the counters that
    must differ between the two loops — each folded into a single
    ``solver.<dc|transient>.kernel`` count."""
    counters = _solve_counters(metrics)
    for analysis in ("dc", "transient"):
        prefix = f"solver.{analysis}.kernel."
        kernel = [counters.pop(name) for name in list(counters)
                  if name.startswith(prefix)]
        if kernel:
            counters[prefix[:-1]] = sum(kernel)
    return counters


def _assert_same_metrics(m_c, m_p, label=""):
    assert _counters(m_c) == _counters(m_p), label
    hist = "solver.dc.newton_iterations"
    assert m_c.snapshot()["histograms"][hist] \
        == m_p.snapshot()["histograms"][hist], label


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
            _assert_same_metrics(m_c, m_p, name)

    def test_ring_transient(self, tech90, monkeypatch):
        fx = ring_oscillator(tech90, n_stages=3)

        def ring():
            return transient(fx.circuit, 0.3e-9, 5e-12).states

        compiled, m_c = _run(monkeypatch, ring, python_loop=False)
        python, m_p = _run(monkeypatch, ring, python_loop=True)
        np.testing.assert_array_equal(compiled, python)
        assert _iterations(m_c) == _iterations(m_p) > 0
        _assert_same_metrics(m_c, m_p)

    def test_sram_butterfly(self, tech90, monkeypatch):
        fx = sram_cell(tech90)

        def butterfly():
            return np.array(sram_read_butterfly(fx, n_points=41))

        compiled, m_c = _run(monkeypatch, butterfly, python_loop=False)
        python, m_p = _run(monkeypatch, butterfly, python_loop=True)
        np.testing.assert_array_equal(compiled, python)
        assert _iterations(m_c) == _iterations(m_p) > 0
        _assert_same_metrics(m_c, m_p)


class TestCompiledSweep:
    """The compiled sweep around points plain Newton cannot solve."""

    @staticmethod
    def _ota(tech90):
        from repro.circuits import five_transistor_ota

        circuit = five_transistor_ota(tech90).circuit
        vcm = circuit["vinp"].spec.dc_value()
        return circuit, np.linspace(vcm - 0.1, vcm + 0.1, 11)

    def test_some_points_fall_back_to_the_ladder(self, tech90,
                                                 monkeypatch):
        # Four iterations are too few for some points from their
        # predictor: those take the ladder, the others stay compiled.
        circuit, values = self._ota(tech90)
        opts = NewtonOptions(max_iterations=4)
        spans = []

        def sweep():
            x = np.array([s.x for s in dc_sweep(circuit, "vinp", values,
                                                opts, batch=False)])
            spans.append(telemetry.active().tracer.export_records())
            return x

        compiled, m_c = _run(monkeypatch, sweep, python_loop=False)
        python, m_p = _run(monkeypatch, sweep, python_loop=True)
        np.testing.assert_array_equal(compiled, python)
        _assert_same_metrics(m_c, m_p)
        strategies = m_c.counters_with_prefix("solver.dc.strategy.")
        fallbacks = sum(strategies.values()) - strategies["newton"]
        assert 0 < fallbacks and strategies["newton"] > 0
        sweeps = [r for r in spans[0] if r["name"] == "solve.dc.sweep"]
        assert len(sweeps) == 1
        attrs = sweeps[0]["attrs"]
        assert attrs["points"] == len(values)
        assert attrs["fallback_points"] == fallbacks
        # The kernel's own iterations; replayed points count on their
        # own spans.
        replayed = [r for r in spans[0] if r["name"] == "solve.dc"]
        assert len(replayed) == fallbacks
        assert all(r["parent"] == sweeps[0]["id"] for r in replayed)
        assert attrs["iterations"] + sum(
            r["attrs"]["iterations"] for r in replayed) == _iterations(m_c)
        # Python-loop sweeps emit per-point spans only.
        assert not [r for r in spans[1] if r["name"] == "solve.dc.sweep"]

    def test_sweep_is_one_array(self, tech90, monkeypatch):
        # The compiled sweep and the point loop both return a DcSweep:
        # its node columns and its indexed, sliced and iterated
        # solutions are the point loop's, bit for bit.
        circuit, values = self._ota(tech90)
        nodes = list(circuit.node_names) + ["0"]

        def sweep():
            return dc_sweep(circuit, "vinp", values, batch=False)

        compiled, _ = _run(monkeypatch, sweep, python_loop=False)
        python, _ = _run(monkeypatch, sweep, python_loop=True)
        for result in (compiled, python):
            assert isinstance(result, DcSweep)
            assert len(result) == len(values)
            assert result.x.shape == (len(values), circuit.n_unknowns)
        np.testing.assert_array_equal(compiled.x, python.x)
        columns = sweep_voltages(compiled, nodes)
        np.testing.assert_array_equal(columns,
                                      sweep_voltages(python, nodes))
        np.testing.assert_array_equal(
            columns, [[s.voltage(n) for s in python] for n in nodes])
        np.testing.assert_array_equal([s.x for s in compiled],
                                      [s.x for s in python])
        for i in (0, 4, -1):
            assert compiled[i].circuit is circuit
            np.testing.assert_array_equal(compiled[i].x, python[i].x)
        np.testing.assert_array_equal(compiled[2:5].x, python.x[2:5])
        with pytest.raises(IndexError):
            compiled[len(values)]
        assert isinstance(dc_sweep(circuit, "vinp", values, batch=True),
                          DcSweep)
        empty = dc_sweep(circuit, "vinp", [], batch=False)
        assert len(empty) == 0
        assert sweep_voltages(empty, nodes).shape == (len(nodes), 0)

    def test_ladder_failure_mid_sweep(self, tech90, monkeypatch):
        # Warm-started from a converged point, three iterations carry
        # the first points; later ones exhaust the whole ladder.
        circuit, values = self._ota(tech90)
        opts = NewtonOptions(max_iterations=3)
        original = circuit["vinp"].spec

        def sweep():
            with warm_start(circuit) as engine:
                dc_sweep(circuit, "vinp", values[:1], batch=False)
                try:
                    dc_sweep(circuit, "vinp", values, opts, batch=False)
                except ConvergenceError as exc:
                    return exc, engine.last_x.copy()
            raise AssertionError("the sweep should have failed")

        (exc_c, last_c), m_c = _run(monkeypatch, sweep, python_loop=False)
        (exc_p, last_p), m_p = _run(monkeypatch, sweep, python_loop=True)
        assert _error_payload(exc_c) == _error_payload(exc_p)
        np.testing.assert_array_equal(last_c, last_p)
        _assert_same_metrics(m_c, m_p)
        assert m_c.counter("solver.dc.failures") == 1
        assert m_c.counter("solver.dc.strategy.newton") > 1
        assert circuit["vinp"].spec is original

    def test_strided_and_listed_values(self, tech90, monkeypatch):
        # The kernel reads the values through a raw pointer: a strided
        # view or a plain list must sweep the same points.
        circuit, values = self._ota(tech90)
        for swept in (values[::2], values[::2].tolist()):
            def sweep():
                return np.array([s.x for s in dc_sweep(
                    circuit, "vinp", swept, batch=False)])

            compiled, m_c = _run(monkeypatch, sweep, python_loop=False)
            python, m_p = _run(monkeypatch, sweep, python_loop=True)
            np.testing.assert_array_equal(compiled, python)
            _assert_same_metrics(m_c, m_p)

    def test_warm_start_carries_across_sweeps(self, tech90, monkeypatch):
        fx = differential_pair(tech90)
        circuit = fx.circuit

        def sweeps():
            with warm_start(circuit) as engine:
                first = [s.x for s in dc_sweep(
                    circuit, "vinp", np.linspace(0.5, 0.6, 5), batch=False)]
                carried = engine.last_x.copy()
                second = [s.x for s in dc_sweep(
                    circuit, "vinp", np.linspace(0.6, 0.7, 5), batch=False)]
                return np.array(first + [carried] + second
                                + [engine.last_x])

        compiled, m_c = _run(monkeypatch, sweeps, python_loop=False)
        python, m_p = _run(monkeypatch, sweeps, python_loop=True)
        np.testing.assert_array_equal(compiled, python)
        _assert_same_metrics(m_c, m_p)
        # The carried seed is the first sweep's last solution.
        np.testing.assert_array_equal(compiled[5], compiled[4])


class TestFailurePathsIdentical:
    def _both(self, monkeypatch, fn):
        compiled, m_c = _run(monkeypatch, fn, python_loop=False)
        python, m_p = _run(monkeypatch, fn, python_loop=True)
        assert isinstance(compiled, Exception), compiled
        assert _error_payload(compiled) == _error_payload(python)
        # Same telemetry too (singular-matrix events, factorizations).
        assert _solve_counters(m_c) == _solve_counters(m_p)
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
    def test_veto_mid_sweep_switches_next_sweep(self, tech90, monkeypatch):
        # The capability check runs once per sweep: a veto raised while
        # a sweep is in the kernel takes effect at the next sweep.
        fx = differential_pair(tech90)
        circuit = fx.circuit
        values = np.linspace(0.5, 0.7, 9)

        def sweep():
            return np.array([s.x for s in dc_sweep(
                circuit, "vinp", values, batch=False)])

        reference = sweep()
        counter = _LoopCounter(monkeypatch)
        counted = _ckernel.sweep_dense

        def sweep_dense(*args):
            # The breaker quarantines the kernel mid-sweep.
            _ckernel.set_veto(True)
            return counted(*args)

        monkeypatch.setattr(_ckernel, "sweep_dense", sweep_dense)
        try:
            during = sweep()
            assert counter.calls == 1
            after = sweep()
            assert counter.calls == 1
        finally:
            _ckernel.set_veto(False)
        np.testing.assert_array_equal(during, reference)
        # The vetoed sweep also loses the compiled stamp pass, so it
        # agrees with the kernel's answers to Newton tolerance only.
        np.testing.assert_allclose(after, reference, rtol=0, atol=1e-6)
        # Lifting the veto brings the compiled sweep back.
        monkeypatch.setattr(_ckernel, "sweep_dense", counted)
        np.testing.assert_array_equal(sweep(), reference)
        assert counter.calls == 2

    def test_current_source_sweep_uses_point_loop(self, tech90,
                                                  monkeypatch):
        fx = differential_pair(tech90)
        sweeps, solves = [], []
        for name, calls in (("sweep_dense", sweeps),
                            ("newton_dense", solves)):
            real = getattr(_ckernel, name)
            monkeypatch.setattr(
                _ckernel, name,
                lambda *a, _real=real, _calls=calls:
                    _calls.append(None) or _real(*a))
        itail = fx.circuit["itail"].spec.dc_value()
        dc_sweep(fx.circuit, "itail", np.linspace(0.9, 1.1, 5) * itail,
                 batch=False)
        assert not sweeps and len(solves) == 5

    def test_veto_mid_transient_switches_next_transient(self, tech90,
                                                        monkeypatch):
        # The capability check runs once per transient: a veto raised
        # while a transient is in the kernel takes effect at the next.
        fx = ring_oscillator(tech90, n_stages=3)

        def ring():
            return transient(fx.circuit, 0.3e-9, 5e-12).states

        reference = ring()
        counter = _LoopCounter(monkeypatch)
        counted = _ckernel.transient_dense

        def transient_dense(*args):
            # The breaker quarantines the kernel mid-transient.
            _ckernel.set_veto(True)
            return counted(*args)

        monkeypatch.setattr(_ckernel, "transient_dense", transient_dense)
        try:
            during = ring()
            assert counter.calls == 2  # the operating point, the steps
            after = ring()
            assert counter.calls == 2
        finally:
            _ckernel.set_veto(False)
        np.testing.assert_array_equal(during, reference)
        # The vetoed transient also loses the compiled stamp pass, so it
        # agrees with the kernel's answers to Newton tolerance only.
        np.testing.assert_allclose(after, reference, rtol=0, atol=1e-6)
        # Lifting the veto brings the compiled transient back.
        monkeypatch.setattr(_ckernel, "transient_dense", counted)
        np.testing.assert_array_equal(ring(), reference)
        assert counter.calls == 4

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
