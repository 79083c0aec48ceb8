"""The DC engine's stamp memos: a memo hit equals a forced rebuild.

A :class:`~repro.circuit.dc.DcEngine` keeps the stamped base of the
compiled plain-Newton rung and the last transient's step tape, keyed by
the live values their stamps read (``DcEngine.linear_key``).  Each test
runs one scenario twice on fresh fixtures — once with the memos, once
with every lookup forced to miss — and asserts the same solutions and
states, bit for bit, and the same counters and histograms apart from
the two build counters.  The build counts then show how often the
memos hit.
"""

import gc
import weakref

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
    _ckernel,
    dc_operating_point,
    dc_sweep,
    transient,
)
from repro.circuit import dc
from repro.circuit.dc import DcEngine, _solve_ladder, dc_engine
from repro.circuit.mosfet import MosfetGroup
from repro.circuit.transient import _transient_impl
from repro.circuits import five_transistor_ota, ring_oscillator
from repro.variability import MismatchSampler
from tests.test_newton_kernel import BUILD_COUNTERS, _error_payload

pytestmark = pytest.mark.skipif(
    not _ckernel.available() or _ckernel.dgesv_pointer() is None,
    reason="needs the compiled kernel and scipy's LAPACK")

BASE = "solver.dc.base_builds"
TAPE = "solver.transient.tape_builds"


def _run(monkeypatch, scenario, rebuild: bool):
    """``scenario()`` under a telemetry session; with ``rebuild`` every
    memo lookup misses.  Returns ``(outputs, counters without the build
    counters, histograms, build counts)``."""
    with monkeypatch.context() as patch:
        if rebuild:
            real = DcEngine.linear_key
            patch.setattr(DcEngine, "linear_key", lambda self: None
                          if real(self) is None else [object()])
        with telemetry.session() as session:
            outputs = scenario()
    snapshot = session.metrics.snapshot()
    counters = snapshot["counters"]
    builds = {name: counters.pop(name, 0) for name in BUILD_COUNTERS}
    builds.pop("solver.dc.engine_builds")
    return outputs, counters, snapshot["histograms"], builds


def _hits_equal_rebuilds(monkeypatch, scenario):
    """Assert the memoized and the forced-rebuild runs of ``scenario``
    agree; return ``(memo builds, rebuild builds, outputs)``."""
    out_m, counters_m, hist_m, builds_m = _run(monkeypatch, scenario, False)
    out_r, counters_r, hist_r, builds_r = _run(monkeypatch, scenario, True)
    assert len(out_m) == len(out_r) > 0
    for got, want in zip(out_m, out_r):
        if isinstance(want, Exception):
            assert _error_payload(got) == _error_payload(want)
        else:
            np.testing.assert_array_equal(got, want)
    assert counters_m == counters_r
    assert hist_m.keys() == hist_r.keys()
    for name in hist_r:
        if "iterations" in name:
            assert hist_m[name] == hist_r[name], name
    return builds_m, builds_r, out_m


def _tran(circuit, **kwargs) -> list:
    """A transient's states and its step-loop outcome (rejections,
    iterations, replayed steps)."""
    kwargs.setdefault("t_stop", 0.3e-9)
    kwargs.setdefault("dt", 5e-12)
    result, rejections, iterations, fallback = _transient_impl(
        circuit, **kwargs)
    return [result.states,
            np.array([rejections["newton"], rejections["lte"],
                      rejections["max_depth"], iterations, fallback])]


def _op(circuit, **kwargs) -> np.ndarray:
    return dc_operating_point(circuit, **kwargs).x


def _driven_inverter(tech):
    circuit = Circuit("driven inverter")
    circuit.voltage_source("vdd", "vdd", "0", tech.vdd)
    circuit.voltage_source("vin", "in", "0", 0.3)
    circuit.resistor("rin", "in", "g", 2e3)
    circuit.capacitor("cg", "g", "0", 2e-15)
    circuit.mosfet(Mosfet.from_technology(
        "mn", "out", "g", "0", "0", tech, "n", 4 * tech.wmin_m, tech.lmin_m))
    circuit.mosfet(Mosfet.from_technology(
        "mp", "out", "g", "vdd", "vdd", tech, "p", 8 * tech.wmin_m,
        tech.lmin_m))
    circuit.capacitor("cl", "out", "0", 5e-15)
    circuit.resistor("rl", "out", "vdd", 50e3)
    return circuit


def _common_source(tech):
    circuit = Circuit("common-source stage")
    circuit.voltage_source("vdd", "vdd", "0", 1.2)
    circuit.voltage_source("vg", "g", "0", 0.6)
    circuit.resistor("rl", "vdd", "out", 12e3)
    circuit.mosfet(Mosfet.from_technology(
        "m1", "out", "g", "0", "0", tech, "n", 1.5e-6, 0.1e-6))
    return circuit


class TestMismatchDies:
    def test_ring_dies_share_one_tape_and_one_base(self, tech90,
                                                   monkeypatch):
        def scenario():
            circuit = ring_oscillator(tech90, n_stages=3).circuit
            sampler = MismatchSampler(tech90, rng=np.random.default_rng(5))
            outputs = []
            for _ in range(4):
                sampler.assign(circuit)
                outputs += _tran(circuit)
            return outputs

        memo, rebuild, _ = _hits_equal_rebuilds(monkeypatch, scenario)
        assert memo == {BASE: 1, TAPE: 1}
        assert rebuild == {BASE: 4, TAPE: 4}

    def test_operating_point_dies(self, tech90, monkeypatch):
        def scenario():
            circuit = _common_source(tech90)
            sampler = MismatchSampler(tech90, rng=np.random.default_rng(3))
            outputs = []
            for _ in range(6):
                sampler.assign(circuit)
                outputs.append(_op(circuit))
            return outputs

        memo, rebuild, outputs = _hits_equal_rebuilds(monkeypatch, scenario)
        assert memo == {BASE: 1, TAPE: 0}
        assert rebuild == {BASE: 6, TAPE: 0}
        # The dies differ, so a stale memo could not have hidden.
        assert len({x.tobytes() for x in outputs}) == 6


class TestLiveValues:
    def test_source_spec_swap_and_scale(self, tech90, monkeypatch):
        def scenario():
            circuit = _driven_inverter(tech90)
            vin, vdd = circuit["vin"], circuit["vdd"]
            dc_spec = vin.spec
            outputs = _tran(circuit, t_stop=1e-9)
            for spec in (PulseSpec(0.0, 1.2, delay_s=0.1e-9, rise_s=50e-12,
                                   fall_s=50e-12, width_s=0.3e-9,
                                   period_s=0.8e-9),
                         PwlSpec(((0.0, 0.2), (0.4e-9, 1.1), (1e-9, 0.3))),
                         dc_spec):
                vin.spec = spec
                outputs += _tran(circuit, t_stop=1e-9)
            scale = vdd.scale
            vdd.scale = 0.9
            outputs += _tran(circuit, t_stop=1e-9)
            vdd.scale = scale
            outputs += _tran(circuit, t_stop=1e-9)
            return outputs

        memo, rebuild, outputs = _hits_equal_rebuilds(monkeypatch, scenario)
        # Every swap and scale change is a new key (the tape is one
        # slot, so the return to an earlier spec rebuilds too).
        assert memo == rebuild == {BASE: 6, TAPE: 6}
        assert not np.array_equal(outputs[0], outputs[2])
        np.testing.assert_array_equal(outputs[0], outputs[6])

    def test_source_stepping_restores_the_key(self, tech90, monkeypatch):
        # Plain Newton fails at 3 iterations and source stepping ramps
        # the supply's scale; restored afterwards, the key is unchanged.
        def scenario():
            circuit = ring_oscillator(tech90, n_stages=3).circuit
            outputs = []
            for _ in range(2):
                solution, strategy, _ = _solve_ladder(
                    circuit, None, NewtonOptions(max_iterations=3))
                assert strategy == "source-stepping"
                outputs += [solution.x, _op(circuit)]
            return outputs

        memo, rebuild, _ = _hits_equal_rebuilds(monkeypatch, scenario)
        assert memo == {BASE: 1, TAPE: 0}
        assert rebuild == {BASE: 4, TAPE: 0}

    def test_resistor_edit(self, tech90, monkeypatch):
        def scenario():
            circuit = _driven_inverter(tech90)
            outputs = [_op(circuit)] + _tran(circuit)
            circuit["rl"].resistance = 20e3
            outputs += [_op(circuit)] + _tran(circuit)
            circuit["cl"].capacitance = 9e-15
            outputs += [_op(circuit)] + _tran(circuit)
            return outputs

        memo, rebuild, outputs = _hits_equal_rebuilds(monkeypatch, scenario)
        # The base key lists capacitances too (one key for both memos).
        assert memo == {BASE: 3, TAPE: 3}
        assert rebuild == {BASE: 6, TAPE: 3}
        assert not np.array_equal(outputs[0], outputs[3])
        assert not np.array_equal(outputs[4], outputs[7])

    def test_gate_leak_through_degradation(self, tech90, monkeypatch):
        def scenario():
            circuit = ring_oscillator(tech90, n_stages=3).circuit
            leaky = circuit.mosfets[1].degradation
            outputs = _tran(circuit)
            leaky.gate_leak_s, leaky.bd_spot_position = 2e-5, 0.3
            outputs += _tran(circuit)
            leaky.bd_spot_position = 0.8
            outputs += _tran(circuit)
            leaky.reset()
            outputs += _tran(circuit)
            return outputs

        memo, rebuild, outputs = _hits_equal_rebuilds(monkeypatch, scenario)
        assert memo == rebuild == {BASE: 4, TAPE: 4}
        states = outputs[0::2]
        assert not np.array_equal(states[0], states[1])
        assert not np.array_equal(states[1], states[2])
        np.testing.assert_array_equal(states[0], states[3])

    def test_gmin_stepping_rung(self, tech90, monkeypatch):
        def scenario():
            fx = five_transistor_ota(tech90)
            sampler = MismatchSampler(tech90, rng=np.random.default_rng(9))
            outputs = []
            for _ in range(3):
                sampler.assign(fx.circuit)
                solution, strategy, iterations = _solve_ladder(
                    fx.circuit, None, NewtonOptions(max_iterations=6))
                outputs += [solution.x, np.array([iterations]),
                            _op(fx.circuit)]
                outputs.append(np.array([strategy == "gmin-stepping"]))
            return outputs

        memo, rebuild, outputs = _hits_equal_rebuilds(monkeypatch, scenario)
        assert any(flag[0] for flag in outputs[3::4])
        assert memo == {BASE: 1, TAPE: 0}
        assert rebuild == {BASE: 6, TAPE: 0}


class TestOneEngine:
    def test_transient_settings(self, tech90, monkeypatch):
        # Each run differs from the one before it in one key field.
        settings = [
            {},
            {"method": "backward_euler"},
            {},
            {"t_stop": 0.6e-9, "dt": 1e-11},  # same step count
            {"t_stop": 0.8e-9, "dt": 1e-11},  # same step size
            {"lte_rtol": 0.2, "max_step_halvings": 2},
            {"lte_rtol": 1e-3, "max_step_halvings": 2},
            {"lte_rtol": 1e-3, "max_step_halvings": 1},
            {"lte_rtol": 1e-3, "max_step_halvings": 1,
             "options": NewtonOptions(gmin=1e-9)},
            {"lte_rtol": 1e-3, "max_step_halvings": 1},
            {"lte_rtol": 1e-3, "max_step_halvings": 1},
        ]

        def scenario():
            circuit = ring_oscillator(tech90, n_stages=3).circuit
            outputs = []
            for kwargs in settings:
                outputs += _tran(circuit, **kwargs)
            return outputs

        memo, rebuild, _ = _hits_equal_rebuilds(monkeypatch, scenario)
        # The last run repeats the one before it: one tape hit.
        assert memo[TAPE] == len(settings) - 1
        assert rebuild[TAPE] == len(settings)

    def test_op_sweep_and_transient_interleaved(self, tech90, monkeypatch):
        def scenario():
            circuit = _driven_inverter(tech90)
            values = np.linspace(0.0, 1.2, 13)
            outputs = []
            for _ in range(2):
                outputs.append(_op(circuit))
                outputs.append(np.array(
                    [s.x for s in dc_sweep(circuit, "vin", values)]))
                outputs += _tran(circuit)
                outputs.append(_op(circuit))
            return outputs

        memo, rebuild, _ = _hits_equal_rebuilds(monkeypatch, scenario)
        assert memo == {BASE: 1, TAPE: 1}
        assert rebuild == {BASE: 6, TAPE: 2}

    def test_kernel_rejected_step_under_a_memoized_tape(self, tech90,
                                                        monkeypatch):
        # Five iterations are too few for 20 ps steps: the kernel hands
        # steps back, and the Python loop replays them, halving.
        def scenario():
            circuit = ring_oscillator(tech90, n_stages=3).circuit
            sampler = MismatchSampler(tech90, rng=np.random.default_rng(1))
            outputs = []
            for _ in range(3):
                sampler.assign(circuit)
                outputs += _tran(circuit, t_stop=1.2e-9, dt=20e-12,
                                 options=NewtonOptions(max_iterations=5),
                                 max_step_halvings=2)
            return outputs

        memo, rebuild, outputs = _hits_equal_rebuilds(monkeypatch, scenario)
        assert memo[TAPE] == 1 and rebuild[TAPE] == 3
        for outcome in outputs[1::2]:
            assert outcome[0] > 0 and outcome[4] > 0  # rejected, replayed

    def test_failed_transient_keeps_the_memo_consistent(self, tech90,
                                                        monkeypatch):
        def scenario():
            circuit = ring_oscillator(tech90, n_stages=3).circuit
            outputs = []
            for options in (NewtonOptions(max_iterations=6), None):
                try:
                    outputs += _tran(circuit, t_stop=1.5e-9, dt=25e-12,
                                     options=options, max_step_halvings=0)
                except ConvergenceError as exc:
                    outputs.append(exc)
            outputs += _tran(circuit, t_stop=1.5e-9, dt=25e-12,
                             max_step_halvings=0)
            return outputs

        memo, rebuild, outputs = _hits_equal_rebuilds(monkeypatch, scenario)
        assert isinstance(outputs[0], ConvergenceError)
        assert memo[TAPE] == 1 and rebuild[TAPE] == 3

    def test_python_loop_records_no_memo(self, tech90, monkeypatch):
        monkeypatch.setattr(MosfetGroup, "newton_args", lambda self, ws: None)
        circuit = ring_oscillator(tech90, n_stages=3).circuit
        with telemetry.session() as session:
            transient(circuit, 0.3e-9, 5e-12)
        counters = session.metrics.snapshot()["counters"]
        assert BASE not in counters and TAPE not in counters
        engine = dc_engine(circuit)
        assert engine.step_tape is None and engine._base_memo is None


def test_memos_die_with_their_circuit(tech90):
    gc.collect()
    baseline = len(dc._ENGINES)
    circuit = ring_oscillator(tech90, n_stages=3).circuit
    transient(circuit, 0.3e-9, 5e-12)
    engine = dc_engine(circuit)
    assert engine.step_tape is not None and engine._base_memo is not None
    refs = [weakref.ref(obj) for obj in
            (engine, engine.step_tape, engine._base_memo)]
    assert len(dc._ENGINES) == baseline + 1
    del circuit, engine
    gc.collect()
    assert len(dc._ENGINES) == baseline
    assert all(ref() is None for ref in refs)
