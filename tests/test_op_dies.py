"""The operating-point die loop of a netlist Monte-Carlo chunk.

:func:`repro.circuit.dc.operating_point_dies` solves every die of a
chunk whose specs each read one DC node voltage in one loop around the
compiled Newton kernel.  It must give what the per-die path gives — one
``dc_operating_point`` per spec per die — bit for bit: values, pass
flags, quarantines (``failure_counts``, ledger), ``solver.dc.*``
counters, the iteration histogram and the span counts.  The per-die
path is forced here by making the die loop decline.
"""

import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import NewtonOptions, _ckernel
from repro.circuit import dc as dc_module
from repro.circuit.mosfet import DeviceVariation
from repro.core import MonteCarloYield, Specification
from repro.core import yield_analysis
from repro.faultinject import force_nonconvergence
from repro.technology import get_node
from repro.variability.sampler import MismatchSampler
from repro.workloads import NodeVoltageExtractor, netlist_fixture

pytestmark = pytest.mark.skipif(
    not _ckernel.available() or _ckernel.dgesv_pointer() is None,
    reason="needs the compiled kernel and scipy's LAPACK")

TECH = get_node("90nm")

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

PHASES = ("run", "chunk", "sample", "analysis", "solve.dc")


#: The span records of :func:`traced_spans`, written by the per-die
#: loop the die loop replaced.
TRACE_REFERENCE = Path(__file__).resolve().parent / "data" / \
    "traced_netlist_mc_spans.json"


def _engine(netlist=COMMON_SOURCE, nodes=("out",)):
    fixture = netlist_fixture(netlist, TECH)
    specs = [Specification(f"v({node})", NodeVoltageExtractor(node),
                           lower=0.05, upper=1.15) for node in nodes]
    return MonteCarloYield(fixture, specs, TECH)


def _run(engine, monkeypatch, per_die: bool, **kwargs):
    """``(result, counters, histogram, phase counts)`` of one run, with
    the die loop allowed or declined (the per-die path)."""
    with monkeypatch.context() as patch:
        if per_die:
            patch.setattr(yield_analysis, "operating_point_dies",
                          lambda *args, **kw: None)
        with telemetry.session(records=False) as session:
            result = engine.run(24, seed=3, chunk_size=8, **kwargs)
    snapshot = session.metrics.snapshot()
    totals = session.tracer.totals()
    return (result, snapshot["counters"],
            snapshot["histograms"].get("solver.dc.newton_iterations"),
            {name: totals[name]["count"] for name in PHASES})


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

    def test_params_swap_and_veto_mid_chunk(self, monkeypatch):
        # A die that swaps a device's params rebinds the kernel block;
        # the dies under a veto go to the Python loop, and the kernel
        # serves again once it is lifted.
        real = MismatchSampler.assign
        dies = []

        def assign(self, circuit, placements=None, variates=None):
            real(self, circuit, placements, variates)
            dies.append(len(dies))
            if dies[-1] in (3, 11):
                device = circuit["m1"]
                device.params = replace(
                    device.params,
                    temperature_k=device.params.temperature_k + 30.0)
            if dies[-1] in (13, 19):
                _ckernel.set_veto(dies[-1] == 13)

        monkeypatch.setattr(MismatchSampler, "assign", assign)
        engine = _engine()
        try:
            lean = _run(engine, monkeypatch, per_die=False)
            _ckernel.set_veto(False)
            dies.clear()
            per_die = _run(engine, monkeypatch, per_die=True)
        finally:
            _ckernel.set_veto(False)
        _assert_same(lean, per_die)
        counters = lean[1]
        assert counters["solver.dc.kernel.python"] == 19 - 13
        assert counters["solver.dc.kernel.compiled"] == 24 - 6


class TestBackends:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_two_jobs_match_serial_per_die(self, monkeypatch, backend):
        engine = _engine(TWO_STAGE, ("mid", "out"))
        parallel = _run(engine, monkeypatch, per_die=False, jobs=2,
                        backend=backend)
        _assert_same(parallel, _run(engine, monkeypatch, per_die=True))


class TestDeclines:
    def test_no_kernel_takes_the_per_die_path(self, monkeypatch):
        engine = _engine()
        compiled = _run(engine, monkeypatch, per_die=False)
        monkeypatch.setattr(_ckernel, "_DISABLED", True)
        seen = []
        real = dc_module.operating_point_dies

        def recorded(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(yield_analysis, "operating_point_dies",
                            recorded)
        with telemetry.session(records=False) as session:
            result = engine.run(24, seed=3, chunk_size=8)
        assert seen == [None, None, None]
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

    def test_unknown_node_is_a_sample_error(self):
        engine = _engine(nodes=("nowhere",))
        with pytest.raises(yield_analysis.SampleEvaluationError,
                           match="sample 0 .*nowhere"):
            engine.run(4, seed=1)


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
