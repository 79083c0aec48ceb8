"""The tracer and the metrics fast paths record what they always did.

:class:`repro.telemetry.Tracer` buffers finished spans as objects and
builds their JSONL records at export; :meth:`MetricsRegistry.update`
records counters and a folded histogram in one call.  These tests hold
both to reference copies of the per-record logic kept here: a tracer
that builds each span's dict at close under a lock, and one ``inc`` /
``observe`` per value.  Timestamps are masked; everything else — names,
ids, parents, attributes, event placement, merged worker buffers, the
trace file — must be equal.
"""

import contextvars
import gc
import itertools
import json
import sys
import threading
import time
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.circuit.dc import _record_kernel_solves
from repro.telemetry import (
    ITERATION_BUCKETS,
    MetricsRegistry,
    Span,
    TelemetrySession,
    Tracer,
    read_trace,
)


class _ReferenceSpanContext:
    """The span context manager before spans were buffered as objects."""

    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self._span = tracer._open(name, attrs)
        self._token = None

    def __enter__(self):
        self._token = telemetry._CURRENT_SPAN.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb):
        telemetry._CURRENT_SPAN.reset(self._token)
        if exc is not None and "error" not in self._span.attrs:
            self._span.attrs["error"] = type(exc).__name__
        self._tracer._close(self._span)
        return False


class _ReferenceTracer:
    """The tracer before spans were buffered as objects: ids and
    records taken under a lock, each span's dict built at close."""

    def __init__(self, id_prefix=""):
        self.id_prefix = id_prefix
        self._lock = threading.Lock()
        self._records = []
        self._ids = itertools.count(1)

    def span(self, name, **attrs):
        return _ReferenceSpanContext(self, name, attrs)

    def event(self, name, **attrs):
        current = telemetry._CURRENT_SPAN.get()
        record = {"type": "event", "name": name, "t": time.time(),
                  "span": current.span_id if current is not None else None,
                  "attrs": attrs}
        with self._lock:
            self._records.append(record)

    def _open(self, name, attrs):
        parent = telemetry._CURRENT_SPAN.get()
        with self._lock:
            span_id = f"{self.id_prefix}{next(self._ids)}"
        return Span(name, span_id,
                    parent.span_id if parent is not None else None,
                    time.time(), attrs)

    def _close(self, span):
        span.t_end = time.time()
        with self._lock:
            self._records.append(span.to_dict())

    def export_records(self):
        with self._lock:
            return list(self._records)


def _reference_merge(tracer, payload, parent_span_id=None):
    """``TelemetrySession.merge_worker``'s record half, as it was."""
    for record in payload.get("records", []):
        if parent_span_id is not None and record.get("type") == "span" \
                and record.get("parent") is None:
            record = dict(record)
            record["parent"] = parent_span_id
        with tracer._lock:
            tracer._records.append(record)


def _masked(records):
    out = []
    for record in records:
        record = dict(record)
        for key in ("t", "t0", "t1"):
            if key in record:
                record[key] = None
        out.append(record)
    return out


def _drive(tracer, tag=0):
    """Spans, events, attributes and errors in one nested pattern."""
    tracer.event("start", tag=tag)
    with tracer.span("run", tag=tag) as run:
        for i in range(3):
            with tracer.span("chunk", i=i) as chunk:
                tracer.event("tick", i=i)
                with tracer.span("solve.dc", points=81):
                    pass
                chunk.set(done=i, tag=tag)
        try:
            with tracer.span("raises"):
                raise ValueError("boom")
        except ValueError:
            pass
        try:
            with tracer.span("raises.preset") as span:
                span.set(error="preset")
                raise KeyError("k")
        except KeyError:
            pass
        run.set(chunks=3)
    tracer.event("end", tag=tag)


def _isolated(fn, *args):
    """Run ``fn`` with no span open, in a context of its own."""
    def body():
        telemetry._CURRENT_SPAN.set(None)
        return fn(*args)
    return contextvars.copy_context().run(body)


class TestTracerEquivalence:
    def test_records_equal_the_reference(self):
        new, ref = Tracer("7/"), _ReferenceTracer("7/")
        _isolated(_drive, new)
        _isolated(_drive, ref)
        records = new.export_records()
        assert _masked(records) == _masked(ref.export_records())
        assert len(new) == len(records) == 14
        assert [r["attrs"].get("error") for r in records
                if r["name"].startswith("raises")] == ["ValueError", "preset"]

    def test_export_twice_and_attrs_after_close(self):
        new = Tracer()

        def body():
            with new.span("a") as span:
                pass
            return span

        span = _isolated(body)
        first = new.export_records()
        span.set(late=1)  # a closed span's attrs are still its record's
        assert new.export_records() == first
        assert first[0]["attrs"] == {"late": 1}

    def test_dropped_session_needs_no_cyclic_collector(self):
        # A buffered span that pointed back at its buffer would keep
        # every finished serve job's session alive until a gc pass.
        gc.collect()
        gc.disable()
        try:
            session = TelemetrySession()
            _isolated(_drive, session.tracer)
            assert len(session.tracer) == 14
            del session
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_merge_worker_reparenting(self):
        def workers():
            payloads = []
            for chunk in range(2):
                tracer = Tracer(f"1/c{chunk}.")
                _isolated(_drive, tracer, chunk)
                payloads.append({"records": tracer.export_records(),
                                 "metrics": {}})
            return payloads

        session = TelemetrySession()
        ref = _ReferenceTracer()
        parent = Span("run", "1", None, time.time())
        for payload in workers():
            session.merge_worker(payload, parent)
        for payload in workers():
            _reference_merge(ref, payload, parent_span_id="1")
        merged = session.tracer.export_records()
        assert _masked(merged) == _masked(ref.export_records())
        roots = [r for r in merged if r["type"] == "span"
                 and r["name"] == "run"]
        assert [r["parent"] for r in roots] == ["1", "1"]

    def test_write_trace_equals_the_reference(self, tmp_path):
        new = TelemetrySession(meta={"command": "mc"})
        ref = TelemetrySession(meta={"command": "mc"})
        ref.tracer = _ReferenceTracer()
        for session in (new, ref):
            _isolated(_drive, session.tracer)
            session.metrics.inc("engine.chunks", 3)
        paths = [tmp_path / "new.jsonl", tmp_path / "ref.jsonl"]
        counts = [s.write_trace(p) for s, p in zip((new, ref), paths)]
        assert counts[0] == counts[1] == 14
        lines = [[json.loads(line) for line in p.read_text().splitlines()]
                 for p in paths]
        # Key order too: the lines are the same text once masked.
        assert [json.dumps(r) for r in _masked(lines[0])] \
            == [json.dumps(r) for r in _masked(lines[1])]
        read_trace(paths[0]).validate()

    def test_four_threads(self):
        def signatures(records):
            by_id = {r["id"]: r for r in records if r["type"] == "span"}

            def sign(span_id):
                if span_id is None:
                    return None
                record = by_id[span_id]
                return (record["name"], json.dumps(record["attrs"],
                                                   sort_keys=True),
                        sign(record["parent"]))

            spans = sorted(repr(sign(i)) for i in by_id)
            events = sorted(repr((r["name"], r["attrs"], sign(r["span"])))
                            for r in records if r["type"] == "event")
            return spans, events, sorted(by_id)

        def drive_many(tracer, tag):
            for repeat in range(ROUNDS):
                _drive(tracer, (tag, repeat))

        # Four threads on two cores, switching every microsecond: a
        # lost append or a reused id would break the counts below.
        ROUNDS = 25
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for tracer in (Tracer("t/"), _ReferenceTracer("t/")):
                threads = [threading.Thread(target=_isolated,
                                            args=(drive_many, tracer, tag))
                           for tag in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(thread.is_alive() for thread in threads)
                results.append(signatures(tracer.export_records()))
                if isinstance(tracer, Tracer):
                    totals = tracer.totals()
        finally:
            sys.setswitchinterval(interval)
        (spans, events, ids), reference = results
        # No span lost from the totals either.
        assert {name: entry["count"] for name, entry in totals.items()} \
            == {"run": 4 * ROUNDS, "chunk": 4 * ROUNDS * 3,
                "solve.dc": 4 * ROUNDS * 3, "raises": 4 * ROUNDS,
                "raises.preset": 4 * ROUNDS}
        assert (spans, events) == reference[:2]
        assert ids == sorted(f"t/{n}" for n in range(1, 4 * ROUNDS * 9 + 1))
        assert len(events) == 4 * ROUNDS * 5


def _reference_kernel_solves(metrics, iterations):
    """``_record_kernel_solves`` as one inc/observe per quantity."""
    count = len(iterations)
    metrics.inc("solver.dc.solves", count)
    metrics.inc("solver.dc.strategy.newton", count)
    metrics.inc("solver.factorizations", sum(iterations))
    metrics.inc("solver.dc.kernel.compiled", count)
    for value in iterations:
        metrics.observe("solver.dc.newton_iterations", value,
                        ITERATION_BUCKETS)


class TestFoldedHistogram:
    @settings(max_examples=60, deadline=None)
    @given(prior=st.lists(st.integers(0, 300), max_size=20),
           values=st.lists(st.integers(0, 300), min_size=1, max_size=120))
    def test_update_equals_one_observe_per_value(self, prior, values):
        one, folded = MetricsRegistry(), MetricsRegistry()
        for registry in (one, folded):
            for value in prior:
                registry.observe("it", value, ITERATION_BUCKETS)
        one.inc("solves", len(values))
        for value in values:
            one.observe("it", value, ITERATION_BUCKETS)
        folded.update([("solves", len(values))], "it",
                      sorted(Counter(values).items()), ITERATION_BUCKETS)
        assert json.dumps(folded.snapshot()) == json.dumps(one.snapshot())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 150), min_size=1, max_size=81))
    def test_record_kernel_solves(self, values):
        one, folded = MetricsRegistry(), MetricsRegistry()
        for registry in (one, folded):
            registry.observe("solver.dc.newton_iterations", 3,
                             ITERATION_BUCKETS)
            registry.inc("solver.dc.solves")
        _reference_kernel_solves(one, values)
        _record_kernel_solves(folded, np.array(values, dtype=np.int64))
        assert json.dumps(folded.snapshot()) == json.dumps(one.snapshot())
