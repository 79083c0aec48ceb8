"""Telemetry-layer tests: spans, metrics, sessions, trace files and the
observability seams in the solvers, engines and CLI.

The contract under test (see ``docs/observability.md``):

* hierarchical spans with correct nesting under the serial, thread AND
  process backends (worker buffers merge into one connected tree);
* results are bit-identical with telemetry on or off — observation
  never perturbs the physics;
* the disabled path is a near-free no-op (micro-benchmarked here,
  macro-gated by ``scripts/check_regression.py``);
* trace files round-trip through :func:`repro.telemetry.read_trace`
  and render deterministically through ``repro trace``.
"""

import json
import time

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import ConvergenceError, _ckernel, dc_operating_point, \
    transient
from repro.circuits import differential_pair, input_referred_offset_v
from repro.cli import main
from repro.core import MonteCarloYield, Specification
from repro.faultinject import failing_extractor, force_nonconvergence
from repro.report import render_trace_summary
from repro.telemetry import (
    ITERATION_BUCKETS,
    NULL_SPAN,
    MetricsRegistry,
    TelemetrySession,
    TraceError,
    aggregate_spans,
    profile_phases,
    read_trace,
)


#: Scalar voltage-source sweeps run as one compiled call (one
#: ``solve.dc.sweep`` span) when the compiled Newton loop is usable.
COMPILED_SWEEPS = _ckernel.available() and _ckernel.dgesv_pointer() is not None


def _offset(fixture) -> float:
    return input_referred_offset_v(fixture)


def offset_spec(extractor=_offset, limit_v=5e-3):
    return Specification("offset", extractor, lower=-limit_v, upper=limit_v)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.gauge("g", 1.0)
        reg.gauge("g", 3.0)
        assert reg.counter("a") == 3
        assert reg.counter("missing") == 0
        assert reg.snapshot()["gauges"]["g"] == 3.0

    def test_counters_with_prefix(self):
        reg = MetricsRegistry()
        reg.inc("solver.dc.strategy.newton", 5)
        reg.inc("solver.dc.strategy.gmin-stepping")
        reg.inc("solver.transient.solves")
        assert reg.counters_with_prefix("solver.dc.strategy.") == {
            "newton": 5, "gmin-stepping": 1}

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        for value in (1, 2, 2, 7, 1000):
            reg.observe("it", value, ITERATION_BUCKETS)
        stats = reg.histogram_stats("it")
        assert stats["count"] == 5
        assert stats["max"] == 1000
        hist = reg.snapshot()["histograms"]["it"]
        assert sum(hist["counts"]) == 5
        assert hist["counts"][-1] == 1  # 1000 overflows the last edge

    def test_observe_many_equals_observe_sequence(self):
        values = [3, 1, 0.25, 2, 1000, 7, 3]
        one, many = MetricsRegistry(), MetricsRegistry()
        one.observe("it", 5, ITERATION_BUCKETS)
        many.observe("it", 5, ITERATION_BUCKETS)
        for value in values:
            one.observe("it", value)
        many.observe_many("it", values)
        # Also on a histogram the batch call creates.
        for value in values:
            one.observe("new", value, ITERATION_BUCKETS)
        many.observe_many("new", values, ITERATION_BUCKETS)
        assert many.snapshot() == one.snapshot()
        assert many.snapshot()["histograms"]["it"]["count"] == 8

    def test_snapshot_merge_roundtrip(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.inc("only_b")
        a.gauge("g", 1.0)
        b.gauge("g", 9.0)
        a.observe("h", 0.5)
        b.observe("h", 1.5)
        a.merge(b.snapshot())
        assert a.counter("n") == 5
        assert a.counter("only_b") == 1
        assert a.snapshot()["gauges"]["g"] == 9.0
        assert a.histogram_stats("h")["count"] == 2

    def test_merge_empty_is_noop(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.merge(None)
        reg.merge({})
        assert reg.counter("a") == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("h", 1.0)
        reg.reset()
        assert reg.counter("a") == 0
        assert reg.histogram_stats("h") is None


# ----------------------------------------------------------------------
# Spans and sessions
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_null_singleton(self):
        assert telemetry.active() is None
        assert telemetry.span("anything") is NULL_SPAN
        with telemetry.span("x") as sp:
            sp.set(ignored=1)  # must not raise
        telemetry.event("nothing-happens")

    def test_nesting_and_attributes(self):
        with telemetry.session() as sess:
            with sess.tracer.span("outer", a=1) as outer:
                with sess.tracer.span("inner") as inner:
                    inner.set(b=2)
                assert inner.parent_id == outer.span_id
            records = sess.tracer.export_records()
        spans = {r["name"]: r for r in records if r["type"] == "span"}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert spans["outer"]["attrs"] == {"a": 1}
        assert spans["inner"]["attrs"] == {"b": 2}
        # inner closes first, so it is recorded first
        assert [r["name"] for r in records] == ["inner", "outer"]

    def test_span_records_exception_type(self):
        with telemetry.session() as sess:
            with pytest.raises(ValueError):
                with sess.tracer.span("boom"):
                    raise ValueError("x")
        record = sess.tracer.export_records()[0]
        assert record["attrs"]["error"] == "ValueError"

    def test_event_binds_to_current_span(self):
        with telemetry.session() as sess:
            with sess.tracer.span("s") as sp:
                telemetry.event("ping", k=1)
            records = sess.tracer.export_records()
        event = next(r for r in records if r["type"] == "event")
        assert event["span"] == sp.span_id
        assert event["attrs"] == {"k": 1}

    def test_session_scoping(self):
        assert not telemetry.enabled()
        with telemetry.session() as sess:
            assert telemetry.active() is sess
            assert telemetry.enabled()
        assert not telemetry.enabled()

    def test_worker_session_masks_ambient(self):
        with telemetry.session() as outer:
            with telemetry.worker_session(False):
                assert telemetry.active() is None
            with telemetry.worker_session(True, "w.") as inner:
                assert telemetry.active() is inner
                with inner.tracer.span("job"):
                    pass
            assert telemetry.active() is outer
        assert len(outer.tracer) == 0
        job = inner.tracer.export_records()[0]
        assert job["id"].startswith("w.")

    def test_merge_worker_reparents_orphans(self):
        parent = TelemetrySession()
        with telemetry.session():
            pass
        worker = TelemetrySession(id_prefix="c0.")
        # Build the worker tree outside any ambient session.
        with telemetry.worker_session(True, "c0.") as wsess:
            with wsess.tracer.span("chunk"):
                with wsess.tracer.span("sample"):
                    pass
        with telemetry.session() as main:
            with main.tracer.span("run") as run_sp:
                main.merge_worker(wsess.export(), run_sp)
            spans = [r for r in main.tracer.export_records()
                     if r["type"] == "span"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["chunk"]["parent"] == run_sp.span_id
        assert by_name["sample"]["parent"] == by_name["chunk"]["id"]
        del parent, worker  # constructed-only sessions: nothing to assert

    def test_merge_worker_accumulates_metrics(self):
        worker = TelemetrySession()
        worker.metrics.inc("n", 4)
        main = TelemetrySession()
        main.metrics.inc("n", 1)
        main.merge_worker(worker.export())
        assert main.metrics.counter("n") == 5


def _drive(tracer):
    """Nested spans and an event: run > 3 x (chunk > sample > solve)."""
    with tracer.span("run"):
        for i in range(3):
            with tracer.span("chunk", i=i):
                tracer.event("tick", i=i)
                with tracer.span("sample"):
                    with tracer.span("solve.dc"):
                        time.sleep(0.001)


class TestSpanTotals:
    def test_totals_are_the_fold_of_the_records(self):
        with telemetry.session() as sess:
            _drive(sess.tracer)
        spans = [r for r in sess.tracer.export_records()
                 if r["type"] == "span"]
        # Same spans, same order, same arithmetic: equal to the bit.
        assert sess.tracer.totals() == aggregate_spans(spans)
        assert sess.tracer.totals()["chunk"]["count"] == 3
        assert sess.tracer.roots() == [
            s["t1"] - s["t0"] for s in spans if s["parent"] is None]

    def test_session_without_records_keeps_totals_only(self):
        with telemetry.session() as kept:
            _drive(kept.tracer)
        with telemetry.session(records=False) as sess:
            _drive(sess.tracer)
            telemetry.event("dropped")
        assert not sess.tracer.keeps_records
        assert len(sess.tracer) == 0
        assert sess.tracer.export_records() == []
        assert "records" not in sess.export()
        totals = sess.tracer.totals()
        assert {n: e["count"] for n, e in totals.items()} == \
            {n: e["count"] for n, e in kept.tracer.totals().items()}
        # Self times partition the one top-level span.
        assert sum(e["self_s"] for e in totals.values()) == \
            pytest.approx(totals["run"]["total_s"], rel=1e-9)

    def test_records_do_not_change_a_netlist_runs_totals(self):
        # The serve benchmark's job: a 32-sample netlist mc run, one
        # operating point per die.  A record-less tracer's spans get no
        # id but fold and charge exactly the same.
        from repro.technology import get_node
        from repro.workloads import netlist_fixture, resolve

        text = ("common-source stage\nvdd vdd 0 dc 1.2\nvg g 0 dc 0.6\n"
                "rl vdd out 15k\nm1 out g 0 0 n w=2.25u l=0.1u\n.end\n")
        tech = get_node("90nm")
        workload = resolve("node", {"node": "out", "lower": 0.05,
                                    "upper": 1.15}, tech, analysis="mc",
                           netlist=text)
        engine = MonteCarloYield(netlist_fixture(text, tech),
                                 [workload.spec()[0]], tech)
        totals = {}
        for records in (True, False):
            with telemetry.session(records=records) as sess:
                engine.run(32, seed=5)
            totals[records] = sess.tracer.totals()
            assert len(sess.tracer) == (len(sess.tracer.export_records())
                                        if records else 0)
        kept, lean = totals[True], totals[False]
        assert {n: e["count"] for n, e in lean.items()} == \
            {n: e["count"] for n, e in kept.items()}
        assert lean["solve.dc"]["count"] == lean["sample"]["count"] == 32
        for phases in (kept, lean):
            for entry in phases.values():
                assert 0.0 <= entry["self_s"] <= entry["total_s"] + 1e-12
            # Each parent is charged its children: one child span per
            # parent on this path, so self = total - children's total.
            for parent, child in (("run", "chunk"), ("chunk", "sample"),
                                  ("sample", "analysis"),
                                  ("analysis", "solve.dc")):
                assert phases[parent]["self_s"] == pytest.approx(
                    phases[parent]["total_s"] - phases[child]["total_s"],
                    abs=1e-9), parent
            assert sum(e["self_s"] for e in phases.values()) <= \
                phases["run"]["total_s"] + 1e-9

    @pytest.mark.parametrize("records", [True, False])
    def test_merged_workers_are_charged_to_their_parent(self, records):
        payloads = []

        def work(chunk):
            # A serial-backend chunk: a worker session inside the run.
            with telemetry.worker_session(True, f"c{chunk}.",
                                          records) as worker:
                with worker.tracer.span("chunk"):
                    with worker.tracer.span("sample"):
                        time.sleep(0.002)
            payloads.append(worker.export())
            return payloads[-1]

        with telemetry.session(records=records) as main_sess:
            with main_sess.tracer.span("run") as run:
                with main_sess.tracer.span("stage") as stage:
                    main_sess.merge_worker(work(0), stage)
                main_sess.merge_worker(work(1), run)
        assert ("records" in payloads[0]) == records
        totals = main_sess.tracer.totals()
        assert totals["chunk"]["count"] == 2
        assert totals["sample"]["count"] == 2
        # The stage did no work of its own: its chunk is its child.
        chunk0 = payloads[0]["roots"][0]
        assert totals["stage"]["self_s"] == pytest.approx(
            max(0.0, totals["stage"]["total_s"] - chunk0), abs=1e-9)
        assert totals["stage"]["self_s"] < 0.001
        assert sum(e["self_s"] for e in totals.values()) <= \
            totals["run"]["total_s"] + 1e-9
        if records:
            spans = [r for r in main_sess.tracer.export_records()
                     if r["type"] == "span"]
            folded = aggregate_spans(spans)
            assert set(folded) == set(totals)
            for name, entry in totals.items():
                assert entry["count"] == folded[name]["count"]
                for key in ("total_s", "self_s", "max_s"):
                    assert entry[key] == pytest.approx(
                        folded[name][key], rel=1e-9, abs=1e-12), name


# ----------------------------------------------------------------------
# Disabled-path overhead
# ----------------------------------------------------------------------
class TestNoOpOverhead:
    def test_disabled_span_is_cheap(self):
        # 20k disabled span() entries must stay comfortably under the
        # budget that would show up in the BENCH gate (~5 us each would
        # already be pathological; assert far above the expected
        # ~100 ns to stay robust on loaded CI machines).
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with telemetry.span("hot"):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5, f"{elapsed / n * 1e6:.2f} us per no-op span"

    def test_solver_results_identical_with_session(self, tech90):
        from repro.circuits import simple_current_mirror

        fx = simple_current_mirror(tech90)
        baseline = dc_operating_point(fx.circuit).x.copy()
        with telemetry.session():
            traced = dc_operating_point(fx.circuit).x.copy()
        assert np.array_equal(baseline, traced)


# ----------------------------------------------------------------------
# Solver instrumentation
# ----------------------------------------------------------------------
class TestSolverTelemetry:
    def test_dc_strategy_and_iteration_metrics(self, tech90):
        from repro.circuits import simple_current_mirror

        fx = simple_current_mirror(tech90)
        with telemetry.session() as sess:
            dc_operating_point(fx.circuit)
        assert sess.metrics.counter("solver.dc.solves") == 1
        assert sess.metrics.counter("solver.dc.strategy.newton") == 1
        assert sess.metrics.counter("solver.factorizations") > 0
        span = sess.tracer.export_records()[0]
        assert span["name"] == "solve.dc"
        assert span["attrs"]["strategy"] == "newton"
        assert span["attrs"]["iterations"] >= 1

    def test_dc_failure_records_summary(self, tech90):
        fx = differential_pair(tech90)
        force_nonconvergence(fx.circuit, fx.circuit.mosfets[0].name)
        with telemetry.session() as sess:
            with pytest.raises(ConvergenceError):
                dc_operating_point(fx.circuit)
        assert sess.metrics.counter("solver.dc.failures") == 1
        span = next(r for r in sess.tracer.export_records()
                    if r["name"] == "solve.dc")
        assert span["attrs"]["status"] == "failed"
        assert "dc solve failed" in span["attrs"]["summary"]
        # fault.injected event recorded by force_nonconvergence?  No —
        # no session was active at injection time; that path is covered
        # in TestEngineTelemetry below.

    def test_transient_metrics(self, tech90):
        from repro.circuits import ring_oscillator

        fx = ring_oscillator(tech90, n_stages=3)
        with telemetry.session() as sess:
            transient(fx.circuit, t_stop=0.2e-9, dt=5e-12)
        assert sess.metrics.counter("solver.transient.solves") == 1
        assert sess.metrics.counter("solver.transient.steps") > 0
        span = next(r for r in sess.tracer.export_records()
                    if r["name"] == "solve.transient")
        assert span["attrs"]["steps"] > 0
        # The t=0 operating point is solved BEFORE the transient span
        # opens: its solve.dc span is a sibling, never a child, so
        # phase reports don't double-count DC time inside the
        # integration.
        dc_spans = [r for r in sess.tracer.export_records()
                    if r["name"] == "solve.dc"]
        assert dc_spans
        assert all(s["parent"] != span["id"] for s in dc_spans)
        assert all(s["parent"] == span["parent"] for s in dc_spans)


# ----------------------------------------------------------------------
# Engine integration: span trees and bit-identical results
# ----------------------------------------------------------------------
class TestEngineTelemetry:
    def _run(self, tech90, **kwargs):
        fx = differential_pair(tech90)
        mc = MonteCarloYield(fx, [offset_spec()], tech90)
        return mc.run(n_samples=48, seed=7, **kwargs)

    @pytest.mark.parametrize("backend,jobs", [("serial", 1),
                                              ("thread", 2),
                                              ("process", 2)])
    def test_span_tree_connected_and_results_identical(
            self, tech90, backend, jobs):
        baseline = self._run(tech90)
        with telemetry.session() as sess:
            result = self._run(tech90, backend=backend, jobs=jobs)
        assert np.array_equal(result.passes, baseline.passes)
        assert np.array_equal(result.values["offset"],
                              baseline.values["offset"])
        spans = [r for r in sess.tracer.export_records()
                 if r["type"] == "span"]
        counts = {}
        for span in spans:
            counts[span["name"]] = counts.get(span["name"], 0) + 1
        assert counts["run"] == 1
        assert counts["chunk"] == 2  # 48 samples / DEFAULT_CHUNK_SIZE
        assert counts["sample"] == 48
        assert counts["analysis"] == 48
        # One DC sweep per sample: a single compiled-sweep span (no
        # point of this run needs the ladder), or per-point solve spans
        # without the compiled Newton loop.
        if COMPILED_SWEEPS:
            assert counts["solve.dc.sweep"] == 48
            assert "solve.dc" not in counts
        else:
            assert counts["solve.dc"] > 48
        # one connected tree: every parent id resolves
        ids = {s["id"] for s in spans}
        assert all(s["parent"] in ids for s in spans
                   if s["parent"] is not None)
        run_id = next(s["id"] for s in spans if s["name"] == "run")
        assert all(s["parent"] == run_id for s in spans
                   if s["name"] == "chunk")
        assert sess.metrics.counter("engine.samples") == 48
        assert sess.metrics.histogram_stats(
            "engine.sample_duration_s")["count"] == 48

    def test_quarantine_and_fault_events(self, tech90):
        fx = differential_pair(tech90)
        ext = failing_extractor(_offset, fail_on=[5])
        mc = MonteCarloYield(fx, [offset_spec(ext)], tech90)
        with telemetry.session() as sess:
            result = mc.run(n_samples=16, seed=0)
        assert result.n_quarantined == 1
        assert sess.metrics.counter("engine.quarantines") == 1
        assert sess.metrics.counter("faults.activated") == 1
        events = [r for r in sess.tracer.export_records()
                  if r["type"] == "event"]
        names = {e["name"] for e in events}
        assert {"fault.activated", "quarantine"} <= names
        quarantine = next(e for e in events if e["name"] == "quarantine")
        assert quarantine["attrs"]["index"] == 5
        assert quarantine["attrs"]["exception"] == "ValueError"

    def test_fault_injected_event(self, tech90):
        fx = differential_pair(tech90)
        with telemetry.session() as sess:
            force_nonconvergence(fx.circuit, fx.circuit.mosfets[0].name)
        events = [r for r in sess.tracer.export_records()
                  if r["type"] == "event"]
        assert events[0]["name"] == "fault.injected"
        assert events[0]["attrs"]["kind"] == "force-nonconvergence"
        assert sess.metrics.counter("faults.injected") == 1

    def test_progress_callback_without_session(self, tech90):
        beats = []
        result = self._run(tech90, progress=beats.append)
        baseline = self._run(tech90)
        assert np.array_equal(result.passes, baseline.passes)
        assert [b["done"] for b in beats] == [32, 48]
        assert all(b["total"] == 48 for b in beats)

    def test_checkpoint_metrics_accumulate_across_resume(self, tech90,
                                                         tmp_path):
        from repro.checkpoint import McCheckpointStore, RunInterrupted
        from repro.faultinject import interrupting_extractor

        fx = differential_pair(tech90)
        ck = tmp_path / "ck"
        ext = interrupting_extractor(_offset, interrupt_on=40)
        mc = MonteCarloYield(fx, [offset_spec(ext)], tech90)
        with telemetry.session():
            with pytest.raises(RunInterrupted):
                mc.run(n_samples=64, seed=1, checkpoint=ck)
        persisted = McCheckpointStore(ck).load_metrics()
        first_solves = persisted["counters"]["solver.dc.solves"]
        assert first_solves > 0
        assert persisted["counters"]["engine.samples"] == 32

        mc_clean = MonteCarloYield(fx, [offset_spec()], tech90)
        with telemetry.session() as sess:
            result = mc_clean.run(n_samples=64, seed=1, checkpoint=ck,
                                  resume=True)
        final = McCheckpointStore(ck).load_metrics()
        # counters carried over the interruption and kept growing
        assert final["counters"]["engine.samples"] == 64
        assert final["counters"]["solver.dc.solves"] > first_solves
        assert sess.metrics.counter("engine.samples") == 64
        baseline = mc_clean.run(n_samples=64, seed=1)
        assert np.array_equal(result.passes, baseline.passes)

    def test_old_checkpoint_without_metrics_still_loads(self, tech90,
                                                        tmp_path):
        from repro.checkpoint import McCheckpointStore

        fx = differential_pair(tech90)
        mc = MonteCarloYield(fx, [offset_spec()], tech90)
        ck = tmp_path / "ck"
        mc.run(n_samples=32, seed=2, checkpoint=ck)  # no session
        store = McCheckpointStore(ck)
        # without a session only the (empty) accumulator is persisted
        persisted = store.load_metrics()
        assert persisted.get("counters", {}).get("engine.samples") is None
        result = mc.run(n_samples=32, seed=2, checkpoint=ck, resume=True)
        assert result.n_samples == 32

    def test_corner_analysis_span_tree(self, tech90):
        from repro.core.corners import CornerAnalysis

        fx = differential_pair(tech90)
        analysis = CornerAnalysis(fx, [offset_spec(limit_v=1.0)], tech90,
                                  vdd_scales=[1.0],
                                  temperatures_k=[300.0])
        baseline = analysis.run()
        with telemetry.session() as sess:
            traced = analysis.run(jobs=2, backend="thread")
        assert traced.values == baseline.values
        spans = [r for r in sess.tracer.export_records()
                 if r["type"] == "span"]
        points = [s for s in spans if s["name"] == "point"]
        assert len(points) == 5  # five corners x 1 vdd x 1 T
        run_id = next(s["id"] for s in spans if s["name"] == "run")
        assert all(p["parent"] == run_id for p in points)
        assert sess.metrics.counter("engine.corner_points") == 5

    def test_aging_ensemble_span_tree(self, tech90):
        from repro.aging import NbtiModel
        from repro.core import MissionProfile, aging_ensemble

        fx = differential_pair(tech90)
        profile = MissionProfile(n_epochs=2, duration_s=1e6,
                                 t_first_epoch_s=1e3)
        baseline = aging_ensemble(fx, [NbtiModel(tech90.aging)], profile,
                                  {"offset": _offset}, tech90,
                                  n_samples=2, seed=0)
        with telemetry.session() as sess:
            traced = aging_ensemble(fx, [NbtiModel(tech90.aging)], profile,
                                    {"offset": _offset}, tech90,
                                    n_samples=2, seed=0, jobs=2,
                                    backend="thread")
        for a, b in zip(baseline, traced):
            assert np.array_equal(a.metrics["offset"], b.metrics["offset"])
        spans = [r for r in sess.tracer.export_records()
                 if r["type"] == "span"]
        names = [s["name"] for s in spans]
        assert names.count("sample") == 2
        assert names.count("aging.mission") == 2
        assert names.count("aging.epoch") == 4
        assert sess.metrics.counter("engine.aging_epochs") == 4


# ----------------------------------------------------------------------
# Trace files
# ----------------------------------------------------------------------
class TestTraceFiles:
    def _write_session(self, path):
        with telemetry.session(meta={"command": "test"}) as sess:
            with sess.tracer.span("run", kind="test"):
                with sess.tracer.span("sample", index=0):
                    telemetry.event("marker", note="hi")
            sess.metrics.inc("n", 3)
            count = sess.write_trace(path)
        return count

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        count = self._write_session(path)
        trace = read_trace(path)
        trace.validate()
        assert len(trace.spans) == 2
        assert count == 3  # 2 spans + 1 event
        assert len(trace.events) == 1
        assert trace.meta["command"] == "test"
        assert trace.metrics["counters"]["n"] == 3

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"type": "meta", "schema": 999}) + "\n")
        with pytest.raises(TraceError, match="schema"):
            read_trace(path)

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"type": "span", "id": "1",
                                    "t0": 0, "t1": 1}) + "\n")
        with pytest.raises(TraceError, match="meta"):
            read_trace(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "schema": 1}) + "\n"
            + json.dumps({"type": "mystery"}) + "\n")
        with pytest.raises(TraceError, match="unknown record type"):
            read_trace(path)

    def test_validate_rejects_unknown_parent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "schema": 1}) + "\n"
            + json.dumps({"type": "span", "name": "x", "id": "1",
                          "parent": "ghost", "t0": 0, "t1": 1,
                          "attrs": {}}) + "\n")
        trace = read_trace(path)
        with pytest.raises(TraceError, match="unknown parent"):
            trace.validate()

    def test_validate_rejects_unfinished_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "schema": 1}) + "\n"
            + json.dumps({"type": "span", "name": "x", "id": "1",
                          "parent": None, "t0": 0, "t1": None,
                          "attrs": {}}) + "\n")
        with pytest.raises(TraceError, match="unfinished"):
            read_trace(path).validate()

    def test_aggregate_spans_self_time(self):
        spans = [
            {"type": "span", "name": "outer", "id": "1", "parent": None,
             "t0": 0.0, "t1": 10.0, "attrs": {}},
            {"type": "span", "name": "inner", "id": "2", "parent": "1",
             "t0": 1.0, "t1": 7.0, "attrs": {}},
        ]
        stats = aggregate_spans(spans)
        assert stats["outer"]["total_s"] == 10.0
        assert stats["outer"]["self_s"] == 4.0  # 10 - 6 of child time
        assert stats["inner"]["self_s"] == 6.0

    def test_profile_phases(self, tech90):
        from repro.circuits import simple_current_mirror

        fx = simple_current_mirror(tech90)
        phases = profile_phases(lambda: dc_operating_point(fx.circuit),
                                repeats=2)
        assert "solve.dc" in phases
        assert phases["solve.dc"]["count"] == 1.0  # per-repeat average
        assert phases["solve.dc"]["total_s"] > 0.0


# ----------------------------------------------------------------------
# Trace report rendering (golden output on a synthetic trace)
# ----------------------------------------------------------------------
GOLDEN_TRACE_LINES = [
    json.dumps({"type": "meta", "schema": 1, "t": 100.0, "command": "mc",
                "samples": 2, "seed": 0, "jobs": 1}),
    json.dumps({"type": "span", "name": "run", "id": "1", "parent": None,
                "t0": 100.0, "t1": 103.0, "attrs": {"kind": "mc-yield"}}),
    json.dumps({"type": "span", "name": "chunk", "id": "c0.1",
                "parent": "1", "t0": 100.0, "t1": 103.0,
                "attrs": {"worker": "123/MainThread",
                          "queue_wait_s": 0.25}}),
    json.dumps({"type": "span", "name": "sample", "id": "c0.2",
                "parent": "c0.1", "t0": 100.0, "t1": 102.0,
                "attrs": {"index": 0}}),
    json.dumps({"type": "span", "name": "sample", "id": "c0.3",
                "parent": "c0.1", "t0": 102.0, "t1": 102.5,
                "attrs": {"index": 1}}),
    json.dumps({"type": "event", "name": "quarantine", "t": 102.4,
                "span": "c0.3",
                "attrs": {"index": 1, "label": "offset",
                          "exception": "ConvergenceError",
                          "attempts": 1,
                          "summary": "dc solve failed after newton(60it)"}}),
    json.dumps({"type": "metrics",
                "data": {"counters": {"solver.dc.solves": 4,
                                      "solver.dc.strategy.newton": 3,
                                      "solver.dc.failures": 1,
                                      "solver.factorizations": 80,
                                      "engine.samples": 2,
                                      "engine.quarantines": 1},
                         "gauges": {}, "histograms": {}}}),
]

GOLDEN_SUMMARY = """\
trace summary
=============
  command   : mc
  samples   : 2
  seed      : 0
  jobs      : 1
  wall time : 3.000 s
  records   : 4 spans, 1 events
  workers   : 1 (123/MainThread)

top time sinks (by self time)
=============================
  span  count  total [s]  self [s]  max [s]
-------------------------------------------
sample      2        2.5       2.5        2
 chunk      1          3       0.5        3
   run      1          3         0        3

DC convergence
==============
strategy  solves   share
------------------------
  newton       3  75.0 %
(failed)       1  25.0 %
  matrix factorizations : 80

slowest samples
===============
sample  duration [s]          worker
------------------------------------
     0             2  123/MainThread
     1           0.5  123/MainThread

quarantined samples (1)
=======================
sample   label         exception                           diagnosis
--------------------------------------------------------------------
     1  offset  ConvergenceError  dc solve failed after newton(60it)

engine
======
  engine.quarantines : 1
  engine.samples     : 2
"""


class TestTraceSummaryGolden:
    def test_golden_output(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text("\n".join(GOLDEN_TRACE_LINES) + "\n")
        trace = read_trace(path)
        trace.validate()
        assert render_trace_summary(trace) == GOLDEN_SUMMARY


# ----------------------------------------------------------------------
# CLI: mc --trace / --quiet and the trace command
# ----------------------------------------------------------------------
class TestCliTrace:
    def test_mc_trace_roundtrip(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        code = main(["mc", "--samples", "8", "--jobs", "2",
                     "--backend", "thread", "--quiet",
                     "--trace", str(trace_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "Monte-Carlo offset yield" in captured.out
        assert captured.err == ""  # --quiet: no heartbeat, no trace note
        trace = read_trace(trace_path)
        trace.validate()
        names = {s["name"] for s in trace.spans}
        assert {"run", "chunk", "sample", "analysis"} <= names
        # Each sample's sweep: compiled, or point by point without the
        # compiled Newton loop.
        sweep_span = "solve.dc.sweep" if COMPILED_SWEEPS \
            else "solve.dc"
        assert sweep_span in names
        assert trace.meta["command"] == "mc"
        assert trace.metrics["counters"]["engine.samples"] == 8
        # Every DC solve names the Newton loop that served it.
        counters = trace.metrics["counters"]
        kernels = sum(v for k, v in counters.items()
                      if k.startswith("solver.dc.kernel."))
        assert kernels == counters["solver.dc.solves"] > 0

        code = main(["trace", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "top time sinks" in out
        assert "DC convergence" in out
        assert "newton loop" in out

    def test_mc_heartbeat_on_stderr(self, capsys):
        code = main(["mc", "--samples", "8"])
        assert code == 0
        err = capsys.readouterr().err
        assert "[mc] 8/8 samples" in err
        assert "fail=0" in err

    def test_trace_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


def _self_time_partition(trace):
    """Self times of a trace's spans: the ``run`` subtree's sum, every
    span's sum, the run span's duration, and the top-level spans'
    summed durations."""
    stats = aggregate_spans(trace.spans)
    children: dict = {}
    for span in trace.spans:
        children.setdefault(span["parent"], []).append(span)
    (run,) = trace.spans_named("run")
    subtree, stack = [], [run]
    while stack:
        span = stack.pop()
        subtree.append(span)
        stack.extend(children.get(span["id"], ()))
    run_self = sum(aggregate_spans(subtree)[name]["self_s"]
                   for name in {s["name"] for s in subtree})
    return (run_self, sum(e["self_s"] for e in stats.values()),
            run["t1"] - run["t0"],
            sum(s["t1"] - s["t0"] for s in children[None]))


def _record_of(runs_dir, command):
    from repro.obs.runlog import RunRegistry

    records = [r for r in RunRegistry(str(runs_dir)).list()
               if r["command"] == command]
    return records[-1]


class TestCommandPhases:
    """Run records carry span totals; traces keep the span records."""

    @pytest.mark.parametrize("argv", [
        ["mc", "--workload", "offset", "--tech", "90nm", "--samples", "64",
         "--seed", "1"],
        ["mc", "--workload", "ring", "--tech", "90nm", "--samples", "16",
         "--seed", "1"],
        ["highsigma", "--samples", "256", "--seed", "1",
         "--snm-min-mv", "66.7"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_self_times_partition_the_wall(self, argv, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        trace_path = tmp_path / "run.jsonl"
        assert main(argv + ["--quiet", "--trace", str(trace_path)]) == 0
        trace = read_trace(trace_path)
        run_self, all_self, run_s, top_s = _self_time_partition(trace)
        assert run_self <= run_s + 1e-9
        # The run is the engine's only top-level span: the high-sigma
        # direction probe runs inside it.
        assert [s["name"] for s in trace.spans if s["parent"] is None] \
            == ["run"]
        assert all_self <= top_s + 1e-9
        record = _record_of(tmp_path / "runs", argv[0])
        assert sum(e["self_s"] for e in record["phases"].values()) \
            <= top_s + 1e-9
        if argv[0] == "highsigma":
            pilot = trace.spans_named("highsigma.pilot")[0]
            chunks = [s for s in trace.spans_named("chunk")
                      if s["parent"] == pilot["id"]]
            assert chunks, "pilot chunks are children of the pilot span"
            (run,) = trace.spans_named("run")
            (probe,) = trace.spans_named("highsigma.probe")
            assert probe["parent"] == run["id"]
            # Compiled sweeps are one solve.dc.sweep span each; without
            # the kernel a sweep's points are solve.dc spans.
            solves = [s for s in trace.spans
                      if s["name"] in ("solve.dc.sweep", "solve.dc")]
            assert solves
            by_id = {s["id"]: s for s in trace.spans}
            for solve in solves:
                span = solve
                while span["parent"] is not None:
                    span = by_id[span["parent"]]
                assert span is run, "every solve descends from the run"
            probed = [s for s in solves if s["parent"] == probe["id"]]
            assert probed, "the probe's solves are its children"
            if _ckernel.available():
                assert len(probed) == 7  # nominal + one per device

    def test_untraced_run_keeps_totals_not_records(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        sessions = []
        real_session = telemetry.session

        def capture(*args, **kwargs):
            context = real_session(*args, **kwargs)
            sess = context.__enter__()
            sessions.append(sess)

            class _Ctx:
                def __enter__(self):
                    return sess

                def __exit__(self, *exc):
                    return context.__exit__(*exc)
            return _Ctx()

        argv = ["mc", "--workload", "offset", "--tech", "90nm",
                "--samples", "2000", "--seed", "1", "--quiet"]
        monkeypatch.setattr(telemetry, "session", capture)
        assert main(argv) == 0
        monkeypatch.setattr(telemetry, "session", real_session)
        (sess,) = sessions
        chunks = -(-2000 // 32)
        assert len(sess.tracer) <= chunks
        untraced = _record_of(tmp_path / "runs", "mc")["phases"]
        assert untraced["sample"]["count"] == 2000

        trace_path = tmp_path / "run.jsonl"
        assert main(argv + ["--trace", str(trace_path)]) == 0
        folded = aggregate_spans(read_trace(trace_path).spans)
        traced = _record_of(tmp_path / "runs", "mc")["phases"]
        counts = {name: entry["count"] for name, entry in folded.items()}
        assert {n: e["count"] for n, e in untraced.items()} == counts
        assert {n: e["count"] for n, e in traced.items()} == counts
        for name, entry in traced.items():
            for key in ("total_s", "self_s", "max_s"):
                assert entry[key] == pytest.approx(
                    folded[name][key], rel=1e-9, abs=1e-9), (name, key)
