"""The die loop of a Monte-Carlo or high-sigma chunk.

:func:`repro.circuit.dc.operating_point_dies` solves every die of a
chunk whose specs each declare their solves — one DC node voltage
(:class:`NodeVoltageExtractor`, a netlist ``mc`` die), one offset
sweep (:class:`OffsetExtractor`, the offset ``mc`` die), one read
butterfly sweep (:class:`SnmExtractor`, the ``highsigma`` die) or one
transient (:class:`RingSwing`, the ring ``mc`` die) — in one loop
around the compiled kernel.  It must give what the per-die path gives
— each extractor called per die — bit for bit: values, pass flags,
quarantines (``failure_counts``, ledger), ``solver.dc.*`` and
``solver.transient.*`` counters, the iteration histograms and the span
counts.  The per-die path is forced here by making the die loop
decline.
"""

import importlib
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry, workloads
from repro.checkpoint import RunInterrupted
from repro.circuit import NewtonOptions, _ckernel
from repro.circuit import dc as dc_module
from repro.circuit.elements import DcSpec
from repro.circuit.mosfet import DeviceVariation
from repro.circuit.mna import ConvergenceError
from repro.circuits import differential_pair, ring_oscillator
from repro.core import (
    HighSigmaYield,
    MonteCarloYield,
    Specification,
    SurrogateConfig,
    transient_specification,
)
from repro.core import importance, yield_analysis
from repro.faultinject import (
    current_sample,
    failing_extractor,
    force_nonconvergence,
    interrupting_extractor,
)
from repro.resilience import BudgetExpiredError, DeadlineBudget
from repro.technology import get_node
from repro.variability.sampler import MismatchSampler
from repro.workloads import (
    NodeVoltageExtractor,
    OffsetExtractor,
    RingSwing,
    SnmExtractor,
    netlist_fixture,
    resolve,
)

pytestmark = pytest.mark.skipif(
    not _ckernel.available() or _ckernel.dgesv_pointer() is None,
    reason="needs the compiled kernel and scipy's LAPACK")

TECH = get_node("90nm")

#: The module (``repro.circuit.transient`` the attribute is the function).
transient_module = importlib.import_module("repro.circuit.transient")

#: A resistively loaded common-source stage (the serve benchmark's).
COMMON_SOURCE = """common-source stage
vdd vdd 0 dc 1.2
vg g 0 dc 0.6
rl vdd out 12k
m1 out g 0 0 n w=1.5u l=0.1u
.end
"""

#: A two-stage amplifier: two MOSFETs, two specs on different nodes.
TWO_STAGE = """two stages
vdd vdd 0 dc 1.2
vg g 0 dc 0.55
r1 vdd mid 20k
m1 mid g 0 0 n w=1u l=0.1u
r2 vdd out 15k
m2 out mid 0 0 n w=2u l=0.1u
.end
"""

#: The span records of :func:`traced_spans`, written by the per-die
#: loop the die loop replaced.
TRACE_REFERENCE = Path(__file__).resolve().parent / "data" / \
    "traced_netlist_mc_spans.json"


def _engine(netlist=COMMON_SOURCE, nodes=("out",)):
    fixture = netlist_fixture(netlist, TECH)
    specs = [Specification(f"v({node})", NodeVoltageExtractor(node),
                           lower=0.05, upper=1.15) for node in nodes]
    return MonteCarloYield(fixture, specs, TECH)


#: The Newton-iteration histograms a run's two paths must agree on.
ITERATION_HISTOGRAMS = ("solver.dc.newton_iterations",
                        "solver.transient.newton_iterations")


def _run(engine, monkeypatch, per_die: bool, **kwargs):
    """``(result, counters, histograms, phase counts)`` of one run, with
    the die loop allowed or declined (the per-die path)."""
    with monkeypatch.context() as patch:
        if per_die:
            patch.setattr(yield_analysis, "operating_point_dies",
                          lambda *args, **kw: None)
        with telemetry.session(records=False) as session:
            result = engine.run(24, seed=3, chunk_size=8, **kwargs)
    snapshot = session.metrics.snapshot()
    return (result, snapshot["counters"],
            {name: snapshot["histograms"].get(name)
             for name in ITERATION_HISTOGRAMS},
            {name: entry["count"]
             for name, entry in session.tracer.totals().items()})


def _assert_same(a, b):
    result_a, counters_a, histogram_a, phases_a = a
    result_b, counters_b, histogram_b, phases_b = b
    assert result_a.values.keys() == result_b.values.keys()
    for name in result_a.values:
        np.testing.assert_array_equal(result_a.values[name],
                                      result_b.values[name])
        np.testing.assert_array_equal(result_a.spec_passes[name],
                                      result_b.spec_passes[name])
    np.testing.assert_array_equal(result_a.passes, result_b.passes)
    assert result_a.failure_counts == result_b.failure_counts
    # JSON text, so the reports' NaN residuals compare equal.
    assert json.dumps(result_a.ledger.to_list()) == \
        json.dumps(result_b.ledger.to_list())
    assert counters_a == counters_b
    assert histogram_a == histogram_b
    assert phases_a == phases_b


def _offset_engine(*extractors):
    """The offset workload's engine (one spec per extractor; the
    workload's own by default)."""
    tech = get_node("90nm")
    fixture = differential_pair(tech, w_m=4e-6, l_m=0.4e-6)
    specs = [Specification(f"s{i}", extractor, lower=-5e-3, upper=5e-3)
             for i, extractor in enumerate(extractors
                                           or [workloads.offset_extractor])]
    return MonteCarloYield(fixture, specs, tech)


def _newton_iterations(monkeypatch, limit):
    """Cap every solve's plain-Newton iterations at ``limit``: the
    points that need more replay through the ladder."""
    real_init = NewtonOptions.__init__

    def short_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.max_iterations = limit

    monkeypatch.setattr(NewtonOptions, "__init__", short_init)


def _declined(monkeypatch, engine, **kwargs):
    """``(result, calls)`` of one 24-die run that the die loop must not
    serve: ``calls`` is how often it was called (it declined each
    time)."""
    real = dc_module.operating_point_dies
    seen = []

    def recorded(*args, **kw):
        seen.append(real(*args, **kw))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(yield_analysis, "operating_point_dies", recorded)
        result = engine.run(24, seed=3, chunk_size=8, **kwargs)
    assert all(outcome is None for outcome in seen)
    return result, len(seen)


@pytest.fixture
def poison_dies(monkeypatch):
    """Make :meth:`MismatchSampler.assign` poison the threshold of
    every device on the given sample indices (NaN: the Newton guard
    trips, the whole ladder fails)."""
    def poison(indices):
        real = MismatchSampler.assign
        dies = itertools.count()
        chosen = set(indices)

        def assign(self, circuit, placements=None, variates=None):
            real(self, circuit, placements, variates)
            if next(dies) in chosen:
                for device in circuit.mosfets:
                    device.variation = DeviceVariation(
                        delta_vt_v=math.nan)

        monkeypatch.setattr(MismatchSampler, "assign", assign)

    return poison


@pytest.fixture
def swap_params(monkeypatch):
    """Make :meth:`MismatchSampler.assign` warm a device (``m1`` unless
    named) by 30 K (a params swap) on the given sample indices."""
    def swap(indices, name="m1"):
        real = MismatchSampler.assign
        dies = itertools.count()
        chosen = set(indices)

        def assign(self, circuit, placements=None, variates=None):
            real(self, circuit, placements, variates)
            if next(dies) in chosen:
                device = circuit[name]
                device.params = replace(
                    device.params,
                    temperature_k=device.params.temperature_k + 30.0)

        monkeypatch.setattr(MismatchSampler, "assign", assign)

    return swap


class TestSameAsPerDie:
    @pytest.mark.parametrize("netlist,nodes", [
        (COMMON_SOURCE, ("out",)),
        (TWO_STAGE, ("mid", "out")),
        (TWO_STAGE, ("out", "0")),
    ])
    def test_values_counters_spans(self, monkeypatch, netlist, nodes):
        engine = _engine(netlist, nodes)
        lean = _run(engine, monkeypatch, per_die=False)
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        _result, counters, _histogram, phases = lean
        n_solves = 24 * len(nodes)
        assert counters["solver.dc.kernel.compiled"] == n_solves
        assert "solver.dc.kernel.python" not in counters
        assert phases["solve.dc"] == phases["analysis"] == n_solves
        assert phases["sample"] == 24

    def test_poisoned_device_quarantines_every_die(self, monkeypatch):
        engine = _engine()
        force_nonconvergence(engine.fixture.circuit, "m1")
        lean = _run(engine, monkeypatch, per_die=False)
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        result, counters, _histogram, _phases = lean
        assert np.isnan(result.values["v(out)"]).all()
        assert result.failure_counts == {"ConvergenceError": 24}
        assert counters["solver.dc.failures"] == 24

    def test_quarantined_dies_resume_from_last_good(self, monkeypatch,
                                                    poison_dies):
        poison_dies([0, 5, 6, 17])
        engine = _engine(TWO_STAGE, ("mid", "out"))
        lean = _run(engine, monkeypatch, per_die=False)
        poison_dies([0, 5, 6, 17])
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        result = lean[0]
        bad = np.isnan(result.values["v(out)"])
        assert bad.nonzero()[0].tolist() == [0, 5, 6, 17]
        assert result.n_quarantined == 4
        assert len(result.ledger.to_list()) == 8  # two specs per die

    def test_dies_that_need_the_ladder(self, monkeypatch):
        # Five plain-Newton iterations are too few for a chunk's first
        # die, which starts cold: it replays through the ladder.
        real_init = NewtonOptions.__init__

        def short_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            self.max_iterations = 5

        monkeypatch.setattr(NewtonOptions, "__init__", short_init)
        engine = _engine(TWO_STAGE, ("mid", "out"))
        lean = _run(engine, monkeypatch, per_die=False)
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        counters = lean[1]
        assert counters["solver.dc.strategy.newton"] == 45
        assert counters["solver.dc.strategy.gmin-stepping"] == 1
        assert counters["solver.dc.strategy.pseudo-transient"] == 2

    def test_base_after_a_replay_is_reloaded(self, monkeypatch,
                                              poison_dies):
        # Whatever base the ladder leaves in the workspace, the next
        # kernel solve must start from the engine's own.
        real = dc_module._solve_ladder
        replays = []

        def scribbling(circuit, x0, options, engine=None):
            replays.append(1)
            try:
                return real(circuit, x0, options, engine)
            finally:
                dc_module.dc_engine(circuit).workspace.base.b[:] = 7.0

        monkeypatch.setattr(dc_module, "_solve_ladder", scribbling)
        poison_dies([2, 9])
        engine = _engine()
        lean = _run(engine, monkeypatch, per_die=False)
        assert len(replays) == 2  # the poisoned dies, and no others
        poison_dies([2, 9])
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        assert lean[0].failure_counts == {"ConvergenceError": 2}

    def test_params_swap_mid_chunk(self, monkeypatch, swap_params):
        # A die that swaps a device's params rebinds the kernel block,
        # which the loop fetches after each die's refresh.
        swap_params((3, 11))
        engine = _engine()
        lean = _run(engine, monkeypatch, per_die=False)
        swap_params((3, 11))
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        counters = lean[1]
        assert "solver.dc.kernel.python" not in counters
        assert counters["solver.dc.kernel.compiled"] == 24


class TestSweepDies:
    """The offset sweep die: one ``sweep_dense`` call per die."""

    def test_values_counters_spans(self, monkeypatch):
        engine = _offset_engine()
        lean = _run(engine, monkeypatch, per_die=False)
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        result, counters, _histogram, phases = lean
        assert np.isfinite(result.values["s0"]).all()
        assert counters["solver.dc.kernel.compiled"] == 24 * 81
        assert "solver.dc.kernel.python" not in counters
        assert counters["solver.dc.base_builds"] == 3  # one per chunk
        assert phases["solve.dc.sweep"] == phases["analysis"] == 24
        assert "solve.dc" not in phases

    @pytest.mark.parametrize("limit,extractors", [
        (8, ()),
        (6, ()),
        (3, ()),
        # An operating point after a replayed sweep reloads the base
        # under the source's own spec.
        (6, (OffsetExtractor(), NodeVoltageExtractor("tail"))),
    ], ids=["gmin", "pseudo-transient", "all-fail", "mixed"])
    def test_ladder_replayed_points(self, monkeypatch, limit, extractors):
        _newton_iterations(monkeypatch, limit)
        engine = _offset_engine(*extractors)
        lean = _run(engine, monkeypatch, per_die=False)
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        counters = lean[1]
        assert counters["solver.dc.solves"] > \
            counters.get("solver.dc.strategy.newton", 0)
        assert engine.fixture.circuit["vinp"].spec.dc_value() == \
            engine.fixture.meta["vcm_v"]

    def test_base_after_a_replay_is_reloaded(self, monkeypatch):
        # Whatever base the ladder leaves in the workspace, the
        # kernel's next point must start from the engine's own.
        real = dc_module._solve_ladder
        replays = []

        def scribbling(circuit, x0, options, engine=None):
            replays.append(1)
            try:
                return real(circuit, x0, options, engine)
            finally:
                dc_module.dc_engine(circuit).workspace.base.b[:] = 7.0

        monkeypatch.setattr(dc_module, "_solve_ladder", scribbling)
        _newton_iterations(monkeypatch, 8)
        engine = _offset_engine()
        lean = _run(engine, monkeypatch, per_die=False)
        assert len(replays) == 3
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        assert np.isfinite(lean[0].values["s0"]).all()

    def test_no_balance_point_is_quarantined(self, monkeypatch):
        engine = _offset_engine(OffsetExtractor(search_range_v=2e-3,
                                                n_points=9))
        lean = _run(engine, monkeypatch, per_die=False)
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        result = lean[0]
        assert result.failure_counts == {"ValueError": 11}
        assert 0 < np.isnan(result.values["s0"]).sum() < 24

    def test_quarantined_dies_resume_from_last_good(self, monkeypatch,
                                                    poison_dies):
        poison_dies([0, 5, 6, 17])
        engine = _offset_engine()
        lean = _run(engine, monkeypatch, per_die=False)
        poison_dies([0, 5, 6, 17])
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        result = lean[0]
        bad = np.isnan(result.values["s0"])
        assert bad.nonzero()[0].tolist() == [0, 5, 6, 17]
        assert result.failure_counts == {"ConvergenceError": 4}

    def test_params_swap_mid_chunk(self, monkeypatch, swap_params):
        # The swapped dies sweep on the rebound block, in the kernel.
        swap_params((3, 11))
        engine = _offset_engine()
        lean = _run(engine, monkeypatch, per_die=False)
        swap_params((3, 11))
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        counters, phases = lean[1], lean[3]
        assert "solver.dc.kernel.python" not in counters
        assert counters["solver.dc.kernel.compiled"] == 24 * 81
        assert phases["solve.dc.sweep"] == 24
        assert "solve.dc" not in phases

    def test_resume_from_a_checkpoint(self, monkeypatch, tmp_path):
        # Chunks written by the per-die path, the rest by the die loop.
        reference = _run(_offset_engine(), monkeypatch, per_die=True)[0]
        ckpt = tmp_path / "ck"
        with pytest.raises(RunInterrupted):
            _offset_engine(interrupting_extractor(
                workloads.offset_extractor, interrupt_on=13)).run(
                    24, seed=3, chunk_size=8, checkpoint=ckpt)
        resumed = _offset_engine().run(24, seed=3, chunk_size=8,
                                       checkpoint=ckpt, resume=True)
        np.testing.assert_array_equal(resumed.values["s0"],
                                      reference.values["s0"])
        np.testing.assert_array_equal(resumed.passes, reference.passes)


def _ring_engine(n_stages=3, method="trapezoidal", lte_rtol=None,
                 metric=workloads.ring_swing, extra=(), dt_s=5e-12):
    """The ring workload's engine: one swing spec (the workload's
    window and bound) with these integration settings and metric, then
    the ``extra`` specs."""
    spec = transient_specification(
        "swing", metric, t_stop_s=0.3e-9, dt_s=dt_s, method=method,
        lte_rtol=lte_rtol, lower=0.5 * TECH.vdd)
    return MonteCarloYield(ring_oscillator(TECH, n_stages=n_stages),
                           [spec, *extra], TECH)


def _ring_runs(engine, monkeypatch, **kwargs):
    """``(die loop, per-die path)`` runs of :func:`_run`, having checked
    that the die loop served every chunk of the first."""
    real = dc_module.operating_point_dies
    served = []

    def recorded(*args, **kw):
        served.append(real(*args, **kw))
        return served[-1]

    with monkeypatch.context() as patch:
        patch.setattr(yield_analysis, "operating_point_dies", recorded)
        loop = _run(engine, monkeypatch, per_die=False, **kwargs)
    assert len(served) == 3
    assert all(outcome is not None for outcome in served)
    return loop, _run(engine, monkeypatch, per_die=True, **kwargs)


def _transient_counters(counters) -> dict:
    return {name: value for name, value in counters.items()
            if name.startswith("solver.transient.")}


class TestTransientDies:
    """The ring die: one operating point and one ``transient_dense``
    call per die, on a step tape bound once per chunk."""

    @pytest.mark.parametrize("n_stages", [3, 5])
    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_values_counters_spans(self, monkeypatch, n_stages, method):
        lean, per_die = _ring_runs(_ring_engine(n_stages, method),
                                   monkeypatch)
        _assert_same(lean, per_die)
        result, counters, histograms, phases = lean
        assert np.isfinite(result.values["swing"]).all()
        assert _transient_counters(counters) == {
            "solver.transient.solves": 24,
            "solver.transient.kernel.compiled": 24,
            "solver.transient.steps": 24 * 60,
            "solver.transient.step_rejections": 0,
            "solver.transient.lte_rejections": 0,
            "solver.transient.tape_builds": 3}  # one per chunk
        assert counters["solver.dc.kernel.compiled"] == 24
        assert counters["solver.dc.base_builds"] == 3
        assert histograms["solver.transient.newton_iterations"]["count"] \
            == 24
        for name in ("sample", "analysis", "solve.dc", "solve.transient"):
            assert phases[name] == 24

    def test_rejected_steps_replay(self, monkeypatch):
        # An LTE bound the first predicted step of every die misses:
        # the kernel stops there, the Python step loop halves it, and
        # the kernel resumes after it.
        replays = []
        real = transient_module._StepReplay.step

        def counted(self, *args):
            replays.append(1)
            return real(self, *args)

        monkeypatch.setattr(transient_module._StepReplay, "step", counted)
        lean, per_die = _ring_runs(_ring_engine(lte_rtol=0.3), monkeypatch)
        _assert_same(lean, per_die)
        counters = lean[1]
        assert counters["solver.transient.lte_rejections"] == 24
        assert counters["solver.transient.step_rejections"] == 24
        assert len(replays) == 2 * 24  # both paths, one step per die

    def test_operating_points_and_steps_that_need_the_ladder(
            self, monkeypatch):
        # Four plain-Newton iterations: cold operating points walk the
        # ladder, and some grid steps fail Newton and halve.
        _newton_iterations(monkeypatch, 4)
        lean, per_die = _ring_runs(_ring_engine(), monkeypatch)
        _assert_same(lean, per_die)
        counters = lean[1]
        assert counters["solver.dc.strategy.newton"] < 24
        assert counters["solver.dc.solves"] == 24
        assert counters["solver.transient.step_rejections"] > 0
        assert counters["solver.transient.lte_rejections"] == 0

    def test_step_that_exhausts_its_halvings(self, monkeypatch):
        # Every replayed solve of two dies fails: their rejected step
        # halves to the limit and raises; the dies after them are good.
        chosen = {2, 9}
        real = transient_module.newton_solve

        def failing(*args, **kwargs):
            if current_sample() in chosen:
                raise ConvergenceError("forced", final_residual=1.0,
                                       worst_index=0)
            return real(*args, **kwargs)

        monkeypatch.setattr(transient_module, "newton_solve", failing)
        lean, per_die = _ring_runs(_ring_engine(lte_rtol=0.3), monkeypatch)
        _assert_same(lean, per_die)
        result, counters = lean[0], lean[1]
        bad = np.isnan(result.values["swing"])
        assert bad.nonzero()[0].tolist() == sorted(chosen)
        assert result.failure_counts == {"ConvergenceError": 2}
        assert counters["solver.transient.failures"] == 2
        assert counters["solver.transient.solves"] == 24
        assert counters["solver.transient.kernel.compiled"] == 22
        for record in result.ledger.records:
            assert record.convergence_report["message"].endswith(
                "rejected 4 halvings deep")

    def test_quarantined_dies_resume_from_last_good(self, monkeypatch,
                                                    poison_dies):
        poison_dies([0, 5, 6, 17])
        engine = _ring_engine()
        lean = _ring_runs(engine, monkeypatch)[0]
        poison_dies([0, 5, 6, 17])
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        result, counters, _histograms, phases = lean
        bad = np.isnan(result.values["swing"])
        assert bad.nonzero()[0].tolist() == [0, 5, 6, 17]
        assert counters["solver.dc.failures"] == 4
        # A die whose operating point failed integrates nothing.
        assert phases["solve.transient"] == \
            counters["solver.transient.solves"] == 20

    def test_params_swap_mid_chunk(self, monkeypatch, swap_params):
        swap_params((3, 11), "mn_0")
        engine = _ring_engine()
        lean = _ring_runs(engine, monkeypatch)[0]
        swap_params((3, 11), "mn_0")
        _assert_same(lean, _run(engine, monkeypatch, per_die=True))
        counters = lean[1]
        assert counters["solver.transient.kernel.compiled"] == 24
        assert "solver.transient.kernel.python" not in counters

    @pytest.mark.parametrize("first", [True, False],
                             ids=["transient-first", "transient-last"])
    def test_operating_point_after_a_transient(self, monkeypatch, first):
        # The transient kernel rewrites the base: an operating point
        # after it, in the same die or the next, must start from the
        # engine's own.
        node = Specification("v(s1)", NodeVoltageExtractor("s1"),
                             lower=-1.0, upper=2.0)
        engine = _ring_engine(extra=[node])
        if not first:
            engine.specs.reverse()
        lean, per_die = _ring_runs(engine, monkeypatch)
        _assert_same(lean, per_die)
        assert lean[1]["solver.dc.solves"] == 48

    def test_batch_size_takes_the_loop(self, monkeypatch):
        lean, per_die = _ring_runs(_ring_engine(), monkeypatch,
                                   batch_size=16)
        _assert_same(lean, per_die)
        _assert_same(lean, _run(_ring_engine(), monkeypatch,
                                per_die=True))

    def test_plan_matches_the_metric(self):
        # The plan the loop integrates is the metric's measurement: the
        # stage's node over the transient's grid, reduced to its swing.
        fixture = ring_oscillator(TECH, n_stages=5)
        metric = RingSwing("stage2")
        plan = metric.die_plan(fixture, 0.3e-9, 5e-12)
        assert plan.nodes == ("s2",)
        values, _durations = dc_module.operating_point_dies(
            fixture.circuit, 1, lambda k: None, [plan],
            lambda k, j, exc: None)
        result = transient_module.transient(fixture.circuit, 0.3e-9, 5e-12)
        assert values[0, 0] == metric(result, fixture)

    def test_per_die_checkpoint_resumes_under_the_loop(self, monkeypatch,
                                                       tmp_path):
        reference = _run(_ring_engine(), monkeypatch, per_die=True)[0]
        ckpt = tmp_path / "ck"
        with monkeypatch.context() as patch:
            patch.setattr(yield_analysis, "operating_point_dies",
                          lambda *args, **kw: None)
            with pytest.raises(RunInterrupted) as stop:
                _ring_engine().run(24, seed=3, chunk_size=8,
                                   checkpoint=ckpt, budget=_stop_at(13))
        assert stop.value.reason == "budget"
        manifest = json.loads((ckpt / "manifest.json").read_text())
        assert manifest["completed"] == [0]
        loop = []
        real = yield_analysis.operating_point_dies

        def counted(*args, **kwargs):
            loop.append(real(*args, **kwargs))
            return loop[-1]

        monkeypatch.setattr(yield_analysis, "operating_point_dies", counted)
        resumed = _ring_engine().run(24, seed=3, chunk_size=8,
                                     checkpoint=ckpt, resume=True)
        assert len(loop) == 2 and None not in loop
        np.testing.assert_array_equal(resumed.values["swing"],
                                      reference.values["swing"])
        np.testing.assert_array_equal(resumed.passes, reference.passes)
        assert resumed.ledger.to_list() == reference.ledger.to_list()
        # The ring workload's identity, as the per-die path wrote it.
        manifest = json.loads((ckpt / "manifest.json").read_text())
        assert {key: manifest[key] for key in RING_IDENTITY} == \
            RING_IDENTITY
        assert manifest["tech"]["name"] == "90nm"


#: The checkpoint identity of :func:`_ring_engine`'s 24-die run (the
#: node's fields apart).
RING_IDENTITY = {
    "kind": "mc-yield", "seed": 3, "n_samples": 24, "chunk_size": 8,
    "spec_names": ["swing"], "circuit": "4f236a4c4ca5",
    "specs": [{"name": "swing", "bounds": ["0.6", None], "extractor": {
        "__class__": "repro.core.yield_analysis:_TransientExtractor",
        "metric": {"__class__": "repro.workloads:RingSwing",
                   "stage": "stage1"},
        "t_stop_s": "3e-10", "dt_s": "5e-12", "method": "trapezoidal",
        "lte_rtol": None}}],
    "sampler": {"include_ler": False, "placements": None}}


class TestBackends:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_two_jobs_match_serial_per_die(self, monkeypatch, backend):
        engine = _engine(TWO_STAGE, ("mid", "out"))
        parallel = _run(engine, monkeypatch, per_die=False, jobs=2,
                        backend=backend)
        _assert_same(parallel, _run(engine, monkeypatch, per_die=True))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_sweep_dies_match_serial_per_die(self, monkeypatch, backend):
        engine = _offset_engine()
        parallel = _run(engine, monkeypatch, per_die=False, jobs=2,
                        backend=backend)
        _assert_same(parallel, _run(engine, monkeypatch, per_die=True))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_ring_dies_match_serial_per_die(self, monkeypatch, backend):
        engine = _ring_engine()
        parallel = _run(engine, monkeypatch, per_die=False, jobs=2,
                        backend=backend)
        _assert_same(parallel, _run(engine, monkeypatch, per_die=True))


class TestDeclines:
    def test_no_kernel_takes_the_per_die_path(self, monkeypatch):
        engine = _engine()
        compiled = _run(engine, monkeypatch, per_die=False)
        monkeypatch.setattr(_ckernel, "_DISABLED", True)
        with telemetry.session(records=False) as session:
            result, calls = _declined(monkeypatch, engine)
        assert calls == 3
        # The numpy stamp pass rounds differently from the C one.
        np.testing.assert_allclose(result.values["v(out)"],
                                   compiled[0].values["v(out)"],
                                   rtol=1e-12)
        counters = session.metrics.snapshot()["counters"]
        assert counters["solver.dc.kernel.python"] == 24
        assert "solver.dc.kernel.compiled" not in counters

    def test_converging_dies_never_call_dc_operating_point(
            self, monkeypatch):
        calls = []
        real = dc_module.dc_operating_point

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(dc_module, "dc_operating_point", counted)
        engine = _engine()
        lean = _run(engine, monkeypatch, per_die=False)
        assert calls == []
        assert lean[1]["solver.dc.solves"] == 24
        _run(engine, monkeypatch, per_die=True)
        assert len(calls) == 24

    def test_traced_run_writes_the_reference_spans(self):
        # A record-keeping tracer still gets one sample, analysis and
        # solve.dc span per die, as the code before the die loop wrote.
        want = json.loads(TRACE_REFERENCE.read_text(encoding="utf-8"))
        assert traced_spans() == want

    @pytest.mark.parametrize("case", [
        "batch_size", "trace", "no kernel", "wrapped"])
    def test_sweep_dies_decline(self, monkeypatch, case):
        kwargs, extractor = {}, workloads.offset_extractor
        if case == "batch_size":
            kwargs["batch_size"] = 16
        elif case == "no kernel":
            monkeypatch.setattr(_ckernel, "_DISABLED", True)
        elif case == "wrapped":
            extractor = failing_extractor(extractor, fail_on=[1])
        engine = _offset_engine(extractor)
        with telemetry.session(records=case == "trace"):
            _result, calls = _declined(monkeypatch, engine, **kwargs)
        assert calls == (3 if case in ("trace", "no kernel") else 0)

    @pytest.mark.parametrize("case", ["trace", "no kernel", "closure"])
    def test_ring_dies_decline(self, monkeypatch, case):
        metric = workloads.ring_swing
        if case == "no kernel":
            monkeypatch.setattr(_ckernel, "_DISABLED", True)
        elif case == "closure":
            def metric(result, fixture):
                return workloads.ring_swing(result, fixture)
        engine = _ring_engine(metric=metric)
        with telemetry.session(records=case == "trace"):
            result, calls = _declined(monkeypatch, engine)
        assert calls == (0 if case == "closure" else 3)
        assert np.isfinite(result.values["swing"]).all()

    def test_ragged_grid_is_quarantined_per_die(self, monkeypatch):
        # A window that is no whole number of steps: the loop declines,
        # and the per-die path quarantines every die as transient()
        # refuses it.
        result, calls = _declined(monkeypatch, _ring_engine(dt_s=7e-12))
        assert calls == 3
        assert result.failure_counts == {"ValueError": 24}

    def test_wrapped_workload_extractor_takes_the_per_die_path(
            self, monkeypatch, capsys):
        # The CLI builds its spec from the module's extractor: a wrapped
        # one (fault injection) never reaches the die loop.
        import repro.cli as cli

        monkeypatch.setattr(workloads, "offset_extractor", failing_extractor(
            workloads.offset_extractor, fail_on=[1]))
        calls = []
        monkeypatch.setattr(yield_analysis, "operating_point_dies",
                            lambda *args, **kw: calls.append(1))
        assert cli.main(["mc", "--samples", "8", "--seed", "1",
                         "--quiet"]) == 2
        assert calls == []
        assert "quarantined evaluations" in capsys.readouterr().out

    def test_unknown_node_is_a_sample_error(self):
        engine = _engine(nodes=("nowhere",))
        with pytest.raises(yield_analysis.SampleEvaluationError,
                           match="sample 0 .*nowhere"):
            engine.run(4, seed=1)

    def test_unknown_balance_node_is_a_sample_error(self):
        engine = _offset_engine()
        engine.fixture.nodes["outn"] = "nowhere"
        with pytest.raises(yield_analysis.SampleEvaluationError,
                           match="sample 0 .*nowhere"):
            engine.run(4, seed=1)


# ----------------------------------------------------------------------
# High-sigma SNM dies
# ----------------------------------------------------------------------
#: Telemetry of a high-sigma run compared between the two paths.  The
#: per-die path builds each chunk's base-circuit engine only to enter
#: ``warm_start`` (the SNM die solves on the SRAM probe), so it alone
#: counts those builds.
HS_COUNTERS = ("engine.", "highsigma.", "solver.")


def _hs_engine(extractor=None, snm_min_mv=66.7):
    """The ``repro highsigma`` engine on the ``sram`` workload (its own
    extractor unless one is given)."""
    tech = get_node("65nm")
    workload = resolve("sram", {"snm_min_mv": snm_min_mv}, tech,
                       analysis="highsigma")
    spec, _text = workload.spec()
    if extractor is not None:
        spec = replace(spec, extractor=extractor)
    return HighSigmaYield(workload.fixture(), spec, tech)


def _hs_run(engine, monkeypatch, per_die: bool, n_samples=128,
            chunk_size=32, **kwargs):
    """``(result, counters, histogram, phase counts)`` of a high-sigma
    run with a surrogate (by default two pilot chunks, then two whose
    full solves are a subset), the die loop allowed or declined."""
    kwargs.setdefault("surrogate", SurrogateConfig(train_samples=64))
    with monkeypatch.context() as patch:
        if per_die:
            patch.setattr(yield_analysis, "operating_point_dies",
                          lambda *args, **kw: None)
        with telemetry.session(records=False) as session:
            result = engine.run(n_samples, seed=1, chunk_size=chunk_size,
                                **kwargs)
    snapshot = session.metrics.snapshot()
    counters = {name: value for name, value
                in snapshot["counters"].items()
                if name.startswith(HS_COUNTERS)
                and name != "solver.dc.engine_builds"}
    return (result, counters,
            snapshot["histograms"].get("solver.dc.newton_iterations"),
            {name: entry["count"]
             for name, entry in session.tracer.totals().items()})


def _hs_bits(result) -> dict:
    return {"values": result.values, "weights": result.weights,
            "fails": result.fails, "solved": result.solved,
            "evaluated": result.evaluated,
            "shift_sigma": result.shift_sigma,
            "direction": sorted(result.direction.items()),
            "audits": (result.audit_count, result.audit_mismatches),
            "failure_counts": sorted(result.failure_counts.items()),
            # JSON text, so the reports' NaN residuals compare equal.
            "ledger": json.dumps(result.ledger.to_list())}


def _assert_same_hs(a, b):
    bits_a, bits_b = _hs_bits(a[0]), _hs_bits(b[0])
    for key in bits_a:
        np.testing.assert_array_equal(bits_a[key], bits_b[key],
                                      err_msg=key)
    assert a[1:] == b[1:]


@dataclass(frozen=True)
class _StopAt(DeadlineBudget):
    """A budget that expires at the check before one sample, however
    long the run takes (the deadline itself is never reached)."""

    sample: int = 0

    def check(self, where: str = "") -> None:
        if where == "sample %d" % self.sample:
            raise BudgetExpiredError("budget expired", budget_s=self.total_s,
                                     where=where)


def _stop_at(sample: int) -> _StopAt:
    return _StopAt(deadline_epoch=time.time() + 3600.0, total_s=3600.0,
                   sample=sample)


@pytest.fixture
def snm_clones(monkeypatch):
    """The fixture replicas high-sigma chunks solve on, as they are
    made."""
    made = []
    real = importance.clone_fixture

    def clone(fixture):
        made.append(real(fixture))
        return made[-1]

    monkeypatch.setattr(importance, "clone_fixture", clone)
    return made


class TestSnmDies:
    """The high-sigma read-SNM die: one ``sweep_dense`` call per die on
    the SRAM's butterfly probe, each die starting cold."""

    def test_values_counters_spans(self, monkeypatch):
        engine = _hs_engine()
        lean = _hs_run(engine, monkeypatch, per_die=False)
        _assert_same_hs(lean, _hs_run(engine, monkeypatch, per_die=True))
        result, counters, _histogram, phases = lean
        solved = int(result.solved.sum())
        assert 64 < solved < 128  # the pilot, then a screened subset
        assert np.isfinite(result.values[result.solved]).all()
        assert "solver.dc.kernel.python" not in counters
        assert counters["highsigma.full_solves"] == solved
        assert phases["sample"] == phases["analysis"] == solved
        # The direction probe's sweeps run outside the chunks.
        assert phases["solve.dc.sweep"] == solved + 7
        assert counters["solver.dc.base_builds"] == 4 + 1  # per chunk

    def test_traced_sample_spans_name_their_engine(self):
        # Both engines trace their dies through one loop: a Monte-Carlo
        # sample span carries its index, a high-sigma one its index and
        # kind="highsigma", and each holds one analysis span.
        def samples(run):
            with telemetry.session(records=True) as session:
                result = run()
            records = session.tracer.export_records()
            children = [r["parent"] for r in records
                        if r["name"] == "analysis"]
            spans = [r for r in records if r["name"] == "sample"]
            assert sorted(children) == sorted(r["id"] for r in spans)
            return result, sorted((r["attrs"] for r in spans),
                                  key=lambda attrs: attrs["index"])

        _result, mc = samples(lambda: _offset_engine().run(8, seed=1))
        assert mc == [{"index": k} for k in range(8)]
        result, hs = samples(lambda: _hs_engine().run(
            128, seed=1, chunk_size=32))
        assert hs == [{"index": int(k), "kind": "highsigma"}
                      for k in np.flatnonzero(result.solved)]

    def test_chunk_without_full_solves(self, monkeypatch):
        # A bound far below the nominal SNM: the surrogate screens
        # whole chunks, and a chunk with nothing to solve builds nothing.
        engine = _hs_engine(snm_min_mv=40.0)
        kwargs = {"n_samples": 160, "chunk_size": 8,
                  "surrogate": SurrogateConfig(train_samples=64,
                                               audit_every=64)}
        lean = _hs_run(engine, monkeypatch, per_die=False, **kwargs)
        _assert_same_hs(lean, _hs_run(engine, monkeypatch, per_die=True,
                                      **kwargs))
        per_chunk = lean[0].solved.reshape(-1, 8).sum(axis=1)
        assert (per_chunk == 0).any()
        assert lean[1]["solver.dc.base_builds"] == \
            1 + int((per_chunk > 0).sum())

    def test_monte_carlo_chunks(self, monkeypatch):
        # The calibration Monte-Carlo of a highsigma run without
        # --snm-min-mv: MonteCarloYield chunks on the sram spec take
        # the die loop too.
        highsigma = _hs_engine()
        spec = highsigma.spec
        engine = MonteCarloYield(
            highsigma.fixture,
            [Specification(spec.name, spec.extractor, lower=-1.0)],
            get_node("65nm"))
        real = dc_module.operating_point_dies
        loop, runs = [], []

        def recorded(*args, **kw):
            loop.append(real(*args, **kw))
            return loop[-1]

        for per_die in (False, True):
            with monkeypatch.context() as patch:
                patch.setattr(yield_analysis, "operating_point_dies",
                              (lambda *args, **kw: None) if per_die
                              else recorded)
                with telemetry.session(records=False) as session:
                    result = engine.run(64, seed=7919, chunk_size=16)
            snapshot = session.metrics.snapshot()
            runs.append((result,
                         {name: value for name, value
                          in snapshot["counters"].items()
                          if name.startswith(HS_COUNTERS)
                          and name != "solver.dc.engine_builds"},
                         snapshot["histograms"].get(
                             "solver.dc.newton_iterations"),
                         {name: entry["count"] for name, entry
                          in session.tracer.totals().items()}))
        assert len(loop) == 4 and None not in loop
        _assert_same(*runs)
        result, counters, _histogram, phases = runs[0]
        assert np.isfinite(result.values[spec.name]).all()
        assert "solver.dc.kernel.python" not in counters
        assert phases["solve.dc.sweep"] == phases["analysis"] == 64
        assert counters["solver.dc.base_builds"] == 4  # one per chunk

    def test_two_sided_and_no_surrogate(self, monkeypatch):
        engine = _hs_engine()
        kwargs = {"surrogate": None, "two_sided": True, "shift_sigma": 3.0}
        lean = _hs_run(engine, monkeypatch, per_die=False, **kwargs)
        _assert_same_hs(lean, _hs_run(engine, monkeypatch, per_die=True,
                                      **kwargs))
        assert lean[0].solved.all()

    def test_quarantined_dies(self, monkeypatch):
        # NaN thresholds on chosen samples: the Newton guard trips and
        # the whole ladder fails.
        chosen = {3, 40, 41, 100}
        real = importance.DeviceVariation

        def poisoned(**kwargs):
            if current_sample() in chosen:
                kwargs["delta_vt_v"] = math.nan
            return real(**kwargs)

        monkeypatch.setattr(importance, "DeviceVariation", poisoned)
        engine = _hs_engine()
        kwargs = {"surrogate": None}
        lean = _hs_run(engine, monkeypatch, per_die=False, **kwargs)
        _assert_same_hs(lean, _hs_run(engine, monkeypatch, per_die=True,
                                      **kwargs))
        result = lean[0]
        assert np.isnan(result.values).nonzero()[0].tolist() == \
            sorted(chosen)
        assert result.failure_counts == {"ConvergenceError": 4}
        assert lean[1]["solver.dc.failures"] == 4

    def test_budget_stop(self, monkeypatch):
        engine = _hs_engine()
        lean = _hs_run(engine, monkeypatch, per_die=False,
                       budget=_stop_at(40))
        _assert_same_hs(lean, _hs_run(engine, monkeypatch, per_die=True,
                                      budget=_stop_at(40)))
        result = lean[0]
        assert result.n_evaluated == 32  # the one whole chunk
        assert any(r.label == "resilience:budget"
                   for r in result.ledger.records)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_two_jobs_match_serial_per_die(self, monkeypatch, backend):
        engine = _hs_engine()
        parallel = _hs_run(engine, monkeypatch, per_die=False, jobs=2,
                           backend=backend)
        _assert_same_hs(parallel, _hs_run(engine, monkeypatch,
                                          per_die=True))

    @pytest.mark.parametrize("budget", [None, 40], ids=["run", "budget"])
    def test_wordline_restored(self, monkeypatch, snm_clones, budget):
        # The loop holds the read condition (wordline at VDD) for the
        # whole chunk; the cell's own wordline is low again after it,
        # however the chunk ends.
        engine = _hs_engine()
        lean = _hs_run(engine, monkeypatch, per_die=False,
                       budget=None if budget is None else _stop_at(budget))
        assert lean[0].n_evaluated == (128 if budget is None else 32)
        # The direction probe's replica, then one per chunk run.
        assert len(snm_clones) == 1 + (4 if budget is None else 2)
        for fixture in snm_clones + [engine.fixture]:
            assert fixture.circuit["vwl"].spec == DcSpec(0.0)

    def test_ladder_replayed_points(self, monkeypatch):
        # Cold dies on a short plain-Newton budget: the points plain
        # Newton cannot solve from zero or from the secant guess replay
        # through the ladder.
        _newton_iterations(monkeypatch, 6)
        engine = _hs_engine()
        kwargs = {"surrogate": None}
        lean = _hs_run(engine, monkeypatch, per_die=False, **kwargs)
        _assert_same_hs(lean, _hs_run(engine, monkeypatch, per_die=True,
                                      **kwargs))
        counters = lean[1]
        assert counters["solver.dc.solves"] > \
            counters["solver.dc.strategy.newton"]

    def test_per_die_checkpoint_resumes_under_the_loop(self, monkeypatch,
                                                       tmp_path):
        reference = _hs_run(_hs_engine(), monkeypatch, per_die=False)[0]
        ckpt = tmp_path / "ck"
        with monkeypatch.context() as patch:
            patch.setattr(yield_analysis, "operating_point_dies",
                          lambda *args, **kw: None)
            with pytest.raises(RunInterrupted) as stop:
                _hs_engine().run(128, seed=1, chunk_size=32,
                                 surrogate=SurrogateConfig(train_samples=64),
                                 checkpoint=ckpt, budget=_stop_at(40))
        assert stop.value.reason == "budget"
        loop = []
        real = yield_analysis.operating_point_dies

        def counted(*args, **kwargs):
            loop.append(real(*args, **kwargs))
            return loop[-1]

        monkeypatch.setattr(yield_analysis, "operating_point_dies", counted)
        resumed = _hs_engine().run(
            128, seed=1, chunk_size=32,
            surrogate=SurrogateConfig(train_samples=64),
            checkpoint=ckpt, resume=True)
        assert len(loop) == 3 and None not in loop
        bits, want = _hs_bits(resumed), _hs_bits(reference)
        for key in want:
            np.testing.assert_array_equal(bits[key], want[key],
                                          err_msg=key)

    @pytest.mark.parametrize("case", [
        "batch_size", "trace", "no kernel", "wrapped"])
    def test_declines(self, monkeypatch, case):
        kwargs, extractor = {}, None
        if case == "batch_size":
            kwargs["batch_size"] = 16
        elif case == "no kernel":
            monkeypatch.setattr(_ckernel, "_DISABLED", True)
        elif case == "wrapped":
            extractor = failing_extractor(SnmExtractor(), fail_on=[1])
        engine = _hs_engine(extractor)
        real = dc_module.operating_point_dies
        seen = []

        def recorded(*args, **kw):
            seen.append(real(*args, **kw))
            return seen[-1]

        monkeypatch.setattr(yield_analysis, "operating_point_dies",
                            recorded)
        with telemetry.session(records=case == "trace"):
            engine.run(64, seed=1, chunk_size=32, surrogate=None, **kwargs)
        assert all(outcome is None for outcome in seen)
        assert len(seen) == (2 if case in ("trace", "no kernel") else 0)

    def test_plan_matches_the_extractor(self):
        # The plan the loop solves is the measurement the extractor
        # makes: the probe's own sweep, read at qb, reduced to the SNM.
        fixture = _hs_engine().fixture
        extractor = SnmExtractor(21)
        plan = extractor.die_plan(fixture)
        assert (plan.source, plan.nodes) == ("vprobe", ("qb",))
        assert plan.held == (("vwl", fixture.circuit["vdd"].spec.dc_value()),)
        assert plan.circuit is not fixture.circuit
        assert set(plan.circuit.mosfets) == set(fixture.circuit.mosfets)
        values, _durations = dc_module.operating_point_dies(
            plan.circuit, 1, lambda k: None, [plan],
            lambda k, j, exc: None)
        assert values[0, 0] == extractor(fixture)
        assert fixture.circuit["vwl"].spec == DcSpec(0.0)


def test_offset_extractor_balances_an_ota():
    # The extractor picks an OTA's balance nodes as
    # input_referred_offset_v does, in its plan too.
    from repro.circuits import five_transistor_ota, input_referred_offset_v

    fixture = five_transistor_ota(TECH)
    extractor = OffsetExtractor()
    assert extractor(fixture) == input_referred_offset_v(fixture)
    plan = extractor.die_plan(fixture)
    assert plan.nodes == (fixture.nodes["out"], fixture.nodes["mirror"])
    assert plan.source == "vinp"


def traced_spans() -> list:
    """The span records of a traced two-spec netlist run (4 dies in two
    chunks), with what depends on time or on the worker masked."""
    engine = _engine(TWO_STAGE, ("mid", "out"))
    with telemetry.session(records=True) as session:
        engine.run(4, seed=3, chunk_size=2)
    spans = []
    for record in session.tracer.export_records():
        if record["type"] != "span":
            continue
        record = dict(record, t0=None, t1=None)
        if record["name"] == "chunk":
            record["attrs"] = dict(record["attrs"], worker=None,
                                   queue_wait_s=None)
        spans.append(record)
    return spans


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    TRACE_REFERENCE.write_text(json.dumps(traced_spans(), indent=1,
                                          sort_keys=True) + "\n",
                               encoding="utf-8")
