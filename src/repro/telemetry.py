"""Hierarchical tracing and metrics for the analysis engines.

The production north-star (ROADMAP) needs visibility into *where* a
long Monte-Carlo / aging campaign spends its time and *which* samples
misbehave — not just the final ``YieldResult`` and a post-mortem
``ConvergenceReport``.  This module is the zero-dependency
observability layer the engines and solvers emit into:

* **Spans** — a hierarchical trace
  (``run → chunk → sample → analysis → solve.dc / solve.transient``),
  each span carrying structured attributes (sample index, convergence
  strategy, Newton iterations, worker identity, queue wait).  Span
  timestamps use the epoch clock so spans recorded in different
  processes land on one comparable timeline.  The verification gate
  (:mod:`repro.verify`) emits its own family on the same seams —
  ``verify.differential → verify.oracle / verify.corpus`` and
  ``verify.experiments → verify.experiment`` — plus the
  ``verify.checks`` / ``verify.failures`` counters, so a traced
  ``repro verify --trace`` run is inspectable with ``repro trace``
  exactly like an ``mc`` campaign.
* **Metrics registry** — thread-safe counters, gauges and fixed-bucket
  histograms instrumented at the hot seams: Newton iterations per
  solve, DC-ladder strategy used, transient step rejections, matrix
  factorizations, quarantines, per-chunk queue wait and
  sample durations.
* **Span totals** — every closed span folds into per-name totals
  (count, total, self and max seconds) as it closes; a run record's
  ``phases`` are these totals.  Span *records* are kept only when a
  session is asked to (``records=True``, the default; the CLI asks
  only under ``--trace``), so an untraced run's telemetry does not
  grow with its sample count; without records a span gets no id
  either.
* **Sessions** — :func:`session` activates collection in the calling
  context; :func:`worker_session` gives each parallel chunk a private
  buffer (ContextVar-scoped, so the thread backend never interleaves
  chunks) whose exported payload — span totals, top-level span
  durations, metrics and, when kept, records — rides back to the
  parent *alongside the chunk's results* and is merged under the
  span of the stage that ran it.  The process backend needs no
  sockets or shared memory — telemetry is data, shipped the same way
  results are.
* **JSONL trace export** — :meth:`TelemetrySession.write_trace` emits
  one JSON object per line (``meta`` header, then ``span`` / ``event``
  records, then a final ``metrics`` snapshot); :func:`read_trace`
  parses and validates a file; :func:`aggregate_spans` reduces spans
  to per-name totals/self-time for the ``repro trace`` report.

Disabled-path contract: when no session is active, :func:`span`
returns a shared no-op context manager and :func:`active` returns
``None`` — the solver hot path stays flat (see the overhead micro-test
in ``tests/test_telemetry.py`` and the BENCH gate in
``scripts/check_regression.py``).  Call sites therefore follow one of
two idioms::

    with telemetry.span("solve.dc") as sp:   # no-op when disabled
        ...
        sp.set(strategy="newton")

    session = telemetry.active()
    if session is not None:                   # guard bulk metric work
        session.metrics.inc("solver.dc.solves")

Everything in this module is pure stdlib and importable from every
layer (it imports nothing from :mod:`repro`).
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, \
    Sequence, Tuple, Union

#: Trace-file schema version (bump when the JSONL layout changes).
TRACE_SCHEMA = 1

#: Default histogram buckets for durations [s] (log-ish spacing).
TIME_BUCKETS_S = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                  1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0)

#: Default histogram buckets for Newton iteration counts.
ITERATION_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128)

#: Histogram buckets for service job latency [s]: finer in the
#: sub-second range an interactive client sits in, coarser toward the
#: multi-minute campaigns (``serve.job.seconds`` in ``repro serve``).
SERVE_LATENCY_BUCKETS_S = (1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0,
                           30.0, 60.0, 180.0, 600.0, 1800.0)

#: Default histogram buckets for batched-solve lane counts.
LANE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """Thread-safe counters, gauges and fixed-bucket histograms.

    Metric names are dotted strings (``solver.dc.newton_iterations``);
    the catalogue lives in ``docs/observability.md``.  A registry
    serialises to a JSON-ready *snapshot* and merges snapshots from
    workers (counters add, gauges last-write-wins, histograms add
    bucket-wise) — the operation that lets chunk metrics accumulate in
    the parent and checkpointed runs accumulate across interruptions.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        # name -> {"bounds": [..], "counts": [..] (len bounds+1),
        #          "sum": float, "count": int, "max": float}
        self._histograms: Dict[str, dict] = {}

    # -- writing -------------------------------------------------------
    def inc(self, name: str, value: Union[int, float] = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = TIME_BUCKETS_S) -> None:
        """Record ``value`` into histogram ``name``.

        ``bounds`` are the upper bucket edges; values above the last
        edge land in the overflow bucket.  The bounds of the *first*
        observation stick — later calls may omit them.
        """
        self.observe_many(name, (value,), bounds)

    def observe_many(self, name: str, values: Iterable[float],
                     bounds: Sequence[float] = TIME_BUCKETS_S) -> None:
        """Record every one of ``values`` into histogram ``name``, in
        order, under one lock — the same snapshot as one :meth:`observe`
        call per value."""
        with self._lock:
            hist = self._histogram(name, bounds)
            edges, counts = hist["bounds"], hist["counts"]
            for value in values:
                counts[bisect.bisect_left(edges, value)] += 1
                hist["sum"] += value
                hist["count"] += 1
                if value > hist["max"]:
                    hist["max"] = value

    def update(self, counters: Iterable[Tuple[str, Union[int, float]]],
               histogram: Optional[str] = None,
               folded: Iterable[Tuple[int, int]] = (),
               bounds: Sequence[float] = TIME_BUCKETS_S) -> None:
        """Add each ``(name, value)`` of ``counters``, in order, then
        record ``folded`` — ``(value, times)`` pairs of *integer*
        observations — into ``histogram``, all under one lock.

        The snapshot is the one an :meth:`inc` per counter and an
        :meth:`observe` per observation would leave, provided the
        histogram holds integer observations only (as the Newton
        iteration histograms do): then ``value * times`` is the exact
        sum of ``times`` additions.
        """
        with self._lock:
            registry = self._counters
            for name, value in counters:
                registry[name] = registry.get(name, 0) + value
            if histogram is None:
                return
            hist = self._histogram(histogram, bounds)
            edges, counts = hist["bounds"], hist["counts"]
            for value, times in folded:
                counts[bisect.bisect_left(edges, value)] += times
                hist["sum"] += value * times
                hist["count"] += times
                if value > hist["max"]:
                    hist["max"] = value

    def _histogram(self, name: str, bounds: Sequence[float]) -> dict:
        """Histogram ``name``, created with ``bounds`` (lock held)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = {"bounds": [float(b) for b in bounds],
                    "counts": [0] * (len(bounds) + 1),
                    "sum": 0.0, "count": 0, "max": float("-inf")}
            self._histograms[name] = hist
        return hist

    def reset(self) -> None:
        """Drop every metric (a fresh registry)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- reading -------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def counters_with_prefix(self, prefix: str) -> Dict[str, float]:
        """``{suffix: value}`` of every counter under ``prefix``."""
        with self._lock:
            return {name[len(prefix):]: value
                    for name, value in self._counters.items()
                    if name.startswith(prefix)}

    def histogram_stats(self, name: str) -> Optional[dict]:
        """``{"count", "sum", "mean", "max"}`` of a histogram, or None."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None or hist["count"] == 0:
                return None
            return {"count": hist["count"], "sum": hist["sum"],
                    "mean": hist["sum"] / hist["count"], "max": hist["max"]}

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready payload of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {name: {"bounds": list(h["bounds"]),
                                      "counts": list(h["counts"]),
                                      "sum": h["sum"], "count": h["count"],
                                      "max": h["max"]}
                               for name, h in self._histograms.items()},
            }

    def merge(self, snapshot: Optional[dict]) -> None:
        """Fold a :meth:`snapshot` payload into this registry.

        Counters and histogram buckets add; gauges take the incoming
        value.  Histograms with mismatched bucket bounds are merged by
        scalar stats only (sum/count/max stay exact, the incoming
        bucket detail is folded into the overflow-safe union via
        re-observation of nothing — in practice all emitters share the
        module-level bucket constants, so bounds always match).
        """
        if not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[name] = value
            for name, incoming in snapshot.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    self._histograms[name] = {
                        "bounds": list(incoming["bounds"]),
                        "counts": list(incoming["counts"]),
                        "sum": incoming["sum"], "count": incoming["count"],
                        "max": incoming["max"]}
                    continue
                hist["sum"] += incoming["sum"]
                hist["count"] += incoming["count"]
                hist["max"] = max(hist["max"], incoming["max"])
                if hist["bounds"] == list(incoming["bounds"]):
                    for i, c in enumerate(incoming["counts"]):
                        hist["counts"][i] += c
                else:  # pragma: no cover - emitters share bucket constants
                    hist["counts"][-1] += sum(incoming["counts"])


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span:
    """One trace span, and the context manager that keeps it open.

    A span folds into its tracer's per-name totals when it closes and,
    when the tracer keeps records, is buffered as this object; its
    JSONL record is built only at export (:meth:`Tracer.export_records`),
    so opening and closing one costs no dict.  A span of a tracer
    without records has no id (``span_id`` is ``None``)."""

    __slots__ = ("name", "span_id", "parent_id", "t_start", "t_end", "attrs",
                 "_tracer", "_parent", "_child_s", "_token")

    def __init__(self, name: str, span_id: Optional[str],
                 parent_id: Optional[str],
                 t_start: float, attrs: Optional[dict] = None,
                 tracer: Optional["Tracer"] = None,
                 parent: Optional["Span"] = None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_start = t_start
        self.t_end: Optional[float] = None
        self.attrs: dict = attrs if attrs is not None else {}
        self._tracer = tracer
        self._parent = parent
        self._child_s = 0.0
        self._token = None

    def __enter__(self) -> "Span":
        self._token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT_SPAN.reset(self._token)
        if exc is not None and "error" not in self.attrs:
            self.attrs["error"] = type(exc).__name__
        self.t_end = time.time()
        # Drop the tracer before joining its buffer: a buffered span
        # that still pointed at its tracer would make a reference
        # cycle, and a dropped session's spans would wait for the
        # cyclic collector.
        tracer, self._tracer, self._token = self._tracer, None, None
        if tracer is not None:
            tracer._close(self)
        return False

    def set(self, **attrs: Any) -> None:
        """Attach structured attributes to the span."""
        self.attrs.update(attrs)

    @property
    def duration_s(self) -> float:
        """Wall-clock span length [s] (0 while still open)."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        """The JSONL ``span`` record."""
        return {"type": "span", "name": self.name, "id": self.span_id,
                "parent": self.parent_id, "t0": self.t_start,
                "t1": self.t_end, "attrs": self.attrs}


class _NullSpan:
    """Shared no-op stand-in returned when telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        """No-op."""


NULL_SPAN = _NullSpan()

#: Innermost open span of the current context (thread / task local).
_CURRENT_SPAN: ContextVar[Optional[Span]] = ContextVar(
    "repro_telemetry_span", default=None)


def current_span() -> Optional[Span]:
    """The innermost open span of the calling context, or None."""
    return _CURRENT_SPAN.get()


#: Field order of a per-name totals entry (:func:`_fold`); exported as
#: ``{field: value}`` dicts (:func:`_phases`).
_TOTAL_FIELDS = ("count", "total_s", "self_s", "max_s")


def _fold(totals: Dict[str, list], name: str, count: int, total_s: float,
          self_s: float, max_s: float) -> None:
    """Add ``count`` spans named ``name`` to per-name ``totals``."""
    entry = totals.get(name)
    if entry is None:
        entry = totals[name] = [0, 0.0, 0.0, 0.0]
    entry[0] += count
    entry[1] += total_s
    entry[2] += self_s
    if max_s > entry[3]:
        entry[3] = max_s


def _phases(totals: Dict[str, list]) -> Dict[str, dict]:
    """``{name: {count, total_s, self_s, max_s}}`` of :func:`_fold` totals."""
    return {name: dict(zip(_TOTAL_FIELDS, entry))
            for name, entry in totals.items()}


class Tracer:
    """Folds finished spans into per-name totals, and optionally keeps them.

    Every span adds to ``{name: {count, total_s, self_s, max_s}}`` as it
    closes (:meth:`totals`); *self* time is the span's duration minus
    its direct children's, charged to the parent as each child closes.
    The totals are what a run record's ``phases`` hold, and their size
    depends on the span names, not on how many spans a run opens.

    With ``records=True`` the tracer also buffers the finished
    :class:`Span` objects and event records, in finishing order, for a
    trace file (:meth:`export_records`).  Without, its spans get no
    id, events are dropped and :meth:`export_records` is empty.

    ``id_prefix`` namespaces span ids so worker buffers merge into the
    parent without collisions (chunk tracers use
    ``<run span id>/c<chunk id>.``, unique across runs in one session).
    """

    def __init__(self, id_prefix: str = "", records: bool = True):
        self.id_prefix = id_prefix
        self._records: Optional[list] = [] if records else None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._totals: Dict[str, list] = {}
        self._roots: List[float] = []

    @property
    def keeps_records(self) -> bool:
        """Whether finished spans and events are buffered for export."""
        return self._records is not None

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span as a context manager (child of the current one)."""
        return self.open(name, attrs)

    def open(self, name: str, attrs: dict) -> Span:
        """:meth:`span` with its attributes as one dict, which the span
        takes over."""
        parent = _CURRENT_SPAN.get()
        if self._records is None:  # no record to export: no id to build
            return Span(name, None, None, time.time(), attrs, self, parent)
        return Span(name, f"{self.id_prefix}{next(self._ids)}",
                    parent.span_id if parent is not None else None,
                    time.time(), attrs, self, parent)

    def _close(self, span: Span) -> None:
        """Fold a finished span into the totals (and buffer it)."""
        duration = span.t_end - span.t_start
        self_s = duration - span._child_s
        parent, span._parent = span._parent, None
        with self._lock:
            if parent is None:
                self._roots.append(duration)
            else:
                parent._child_s += duration
            # _fold, inlined: this runs for every span.
            entry = self._totals.get(span.name)
            if entry is None:
                entry = self._totals[span.name] = [0, 0.0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_s if self_s > 0.0 else 0.0
            if duration > entry[3]:
                entry[3] = duration
        if self._records is not None:
            self._records.append(span)

    def absorb(self, totals: Dict[str, dict], roots: Iterable[float],
               parent: Optional[Span] = None) -> None:
        """Fold another tracer's :meth:`totals` in; ``roots`` are the
        durations of its top-level spans, which become children of
        ``parent`` (of nothing, when None)."""
        with self._lock:
            for name, entry in totals.items():
                _fold(self._totals, name, entry["count"], entry["total_s"],
                      entry["self_s"], entry["max_s"])
            for duration in roots:
                if parent is None:
                    self._roots.append(duration)
                else:
                    parent._child_s += duration

    def totals(self) -> Dict[str, dict]:
        """``{name: {count, total_s, self_s, max_s}}`` of closed spans."""
        with self._lock:
            return _phases(self._totals)

    def roots(self) -> List[float]:
        """Durations of the closed top-level spans, in closing order."""
        with self._lock:
            return list(self._roots)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event under the current span."""
        if self._records is None:
            return
        current = _CURRENT_SPAN.get()
        self._records.append(
            {"type": "event", "name": name, "t": time.time(),
             "span": current.span_id if current is not None else None,
             "attrs": attrs})

    def append(self, record: dict) -> None:
        """Buffer an already-built span or event record (dropped when
        the tracer keeps none)."""
        if self._records is not None:
            self._records.append(record)

    def export_records(self) -> List[dict]:
        """The buffered span/event records (finishing order)."""
        if self._records is None:
            return []
        return [record.to_dict() if type(record) is Span else record
                for record in list(self._records)]

    def __len__(self) -> int:
        return 0 if self._records is None else len(self._records)


def worker_label() -> str:
    """``pid/thread-name`` identity of the executing worker."""
    return f"{os.getpid()}/{threading.current_thread().name}"


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class TelemetrySession:
    """One collection scope: a tracer plus a metrics registry.

    The *main* session lives for a whole CLI command / engine run and
    is what :meth:`write_trace` serialises.  *Worker* sessions are
    short-lived per-chunk buffers whose :meth:`export` payload is
    merged back with :meth:`merge_worker`.  ``records`` says whether
    the tracer keeps span records (see :class:`Tracer`); span totals
    are kept either way.
    """

    def __init__(self, id_prefix: str = "",
                 meta: Optional[dict] = None, records: bool = True):
        self.tracer = Tracer(id_prefix, records)
        self.metrics = MetricsRegistry()
        self.meta = dict(meta) if meta else {}
        #: Optional sampling-profiler payload (see
        #: :mod:`repro.obs.profiler`); when set, :meth:`write_trace`
        #: appends it as a ``profile`` record so ``repro trace`` can
        #: render the top wall-time sinks next to the span report.
        self.profile: Optional[dict] = None

    # -- worker round-trip ---------------------------------------------
    def export(self) -> dict:
        """Picklable payload a worker ships back with its results: its
        span totals, the durations of its top-level spans, its metrics
        and, when kept, its span/event records."""
        payload = {"totals": self.tracer.totals(),
                   "roots": self.tracer.roots(),
                   "metrics": self.metrics.snapshot()}
        if self.tracer.keeps_records:
            payload["records"] = self.tracer.export_records()
        return payload

    def merge_worker(self, payload: Optional[dict],
                     parent: Optional[Span] = None) -> None:
        """Fold a worker's :meth:`export` payload into this session.

        The worker's top-level spans become children of the open span
        ``parent``: their records (when both sides keep them) are
        re-parented under it, so the merged trace is one connected
        tree, and ``parent`` is charged their durations, so its self
        time in :meth:`Tracer.totals` excludes them.
        """
        if not payload:
            return
        for record in payload.get("records", ()):
            if parent is not None and record.get("type") == "span" \
                    and record.get("parent") is None:
                record = dict(record)
                record["parent"] = parent.span_id
            self.tracer.append(record)
        self.tracer.absorb(payload.get("totals", {}),
                           payload.get("roots", ()), parent)
        self.metrics.merge(payload.get("metrics"))

    # -- trace export --------------------------------------------------
    def write_trace(self, path: Union[str, Path]) -> int:
        """Write the JSONL trace file; returns the record count.

        Layout: a ``meta`` header line, every ``span`` / ``event``
        record, then one final ``metrics`` line holding the registry
        snapshot.
        """
        records = self.tracer.export_records()
        path = Path(path)
        with open(path, "w", encoding="utf-8") as handle:
            header = {"type": "meta", "schema": TRACE_SCHEMA,
                      "t": time.time()}
            header.update(self.meta)
            handle.write(json.dumps(header) + "\n")
            for record in records:
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"type": "metrics",
                                     "data": self.metrics.snapshot()}) + "\n")
            if self.profile:
                handle.write(json.dumps({"type": "profile",
                                         "data": self.profile}) + "\n")
        return len(records)


#: The session collecting in the current context (None = disabled).
_ACTIVE_SESSION: ContextVar[Optional[TelemetrySession]] = ContextVar(
    "repro_telemetry_session", default=None)


def active() -> Optional[TelemetrySession]:
    """The session of the current context, or None when disabled."""
    return _ACTIVE_SESSION.get()


def enabled() -> bool:
    """Whether telemetry is collecting in the current context."""
    return _ACTIVE_SESSION.get() is not None


def span(name: str, **attrs: Any):
    """Open a span in the active session; a shared no-op when disabled.

    This is THE hot-path entry point: with no session active it costs
    one ContextVar read and returns the singleton :data:`NULL_SPAN`.
    """
    session = _ACTIVE_SESSION.get()
    if session is None:
        return NULL_SPAN
    return session.tracer.open(name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Record a point event in the active session (no-op when disabled)."""
    session = _ACTIVE_SESSION.get()
    if session is not None:
        session.tracer.event(name, **attrs)


@contextmanager
def session(meta: Optional[dict] = None, records: bool = True
            ) -> Iterator[TelemetrySession]:
    """Activate a main telemetry session in the calling context.

    ``records=False`` keeps span totals only — for a run nobody will
    write a trace of, whose memory then does not grow with its spans.
    """
    sess = TelemetrySession(meta=meta, records=records)
    token = _ACTIVE_SESSION.set(sess)
    span_token = _CURRENT_SPAN.set(None)
    try:
        yield sess
    finally:
        _CURRENT_SPAN.reset(span_token)
        _ACTIVE_SESSION.reset(token)


@contextmanager
def worker_session(collect: bool, id_prefix: str = "", records: bool = True
                   ) -> Iterator[Optional[TelemetrySession]]:
    """Per-chunk collection buffer for parallel workers.

    With ``collect=False`` this yields ``None`` and leaves the context
    untouched (beyond masking any ambient session, so a serial-backend
    chunk behaves exactly like a pooled one).  With ``collect=True`` a
    fresh session (keeping span records when ``records``) becomes
    active for the chunk; the caller ships ``session.export()`` back
    with the chunk results.  ContextVar scoping keeps concurrent
    thread-backend chunks from interleaving.
    """
    sess = TelemetrySession(id_prefix=id_prefix, records=records) \
        if collect else None
    token = _ACTIVE_SESSION.set(sess)
    span_token = _CURRENT_SPAN.set(None)
    try:
        yield sess
    finally:
        _CURRENT_SPAN.reset(span_token)
        _ACTIVE_SESSION.reset(token)


# ----------------------------------------------------------------------
# Trace files: reading and aggregation
# ----------------------------------------------------------------------
class TraceError(RuntimeError):
    """The trace file is malformed or uses an unsupported schema."""


@dataclass
class TraceData:
    """A parsed JSONL trace."""

    meta: dict = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    profile: dict = field(default_factory=dict)
    corrupt_lines: int = 0
    """Lines that were not valid JSON (a worker killed mid-write leaves
    a truncated tail) — skipped and counted, never fatal."""

    def spans_named(self, name: str) -> List[dict]:
        """Every span record with the given name."""
        return [s for s in self.spans if s.get("name") == name]

    def validate(self) -> None:
        """Structural checks: ids unique, parents resolvable.

        Raises :class:`TraceError` on the first violation — the CI
        smoke job runs this through ``repro trace`` to assert traces
        parse cleanly.
        """
        seen: Dict[str, dict] = {}
        for record in self.spans:
            span_id = record.get("id")
            if not span_id:
                raise TraceError(f"span without id: {record!r}")
            if span_id in seen:
                raise TraceError(f"duplicate span id {span_id!r}")
            if record.get("t1") is None:
                raise TraceError(f"unfinished span {span_id!r}")
            seen[span_id] = record
        for record in self.spans:
            parent = record.get("parent")
            if parent is not None and parent not in seen:
                raise TraceError(
                    f"span {record['id']!r} references unknown parent "
                    f"{parent!r}")


def read_trace(path: Union[str, Path]) -> TraceData:
    """Parse a JSONL trace file written by :meth:`write_trace`.

    Truncated or otherwise non-JSON lines — the signature a killed
    worker leaves when it dies mid-write — are skipped and counted in
    :attr:`TraceData.corrupt_lines` instead of aborting the parse, so
    one mangled tail line never makes a multi-hour trace unreadable.
    ``repro trace`` surfaces the count as a warning.
    """
    trace = TraceData()
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                trace.corrupt_lines += 1
                continue
            if not isinstance(record, dict):
                trace.corrupt_lines += 1
                continue
            kind = record.get("type")
            if kind == "meta":
                if record.get("schema") != TRACE_SCHEMA:
                    raise TraceError(
                        f"unsupported trace schema {record.get('schema')!r}")
                trace.meta = record
            elif kind == "span":
                trace.spans.append(record)
            elif kind == "event":
                trace.events.append(record)
            elif kind == "metrics":
                trace.metrics = record.get("data", {})
            elif kind == "profile":
                trace.profile = record.get("data", {})
            else:
                raise TraceError(
                    f"line {line_no}: unknown record type {kind!r}")
    if not trace.meta:
        raise TraceError("trace has no meta header")
    return trace


def aggregate_spans(spans: Sequence[dict]) -> Dict[str, dict]:
    """Per-name totals: ``{name: {count, total_s, self_s, max_s}}``.

    *Self* time is a span's duration minus its direct children's —
    the number that makes "top time sinks" honest when spans nest
    (a ``sample`` span fully contains its ``solve.dc`` spans).  This is
    the fold :class:`Tracer` applies as each span closes, applied to
    span records.
    """
    child_time: Dict[str, float] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is not None:
            duration = (record.get("t1") or 0) - (record.get("t0") or 0)
            child_time[parent] = child_time.get(parent, 0.0) + duration
    totals: Dict[str, list] = {}
    for record in spans:
        duration = (record.get("t1") or 0) - (record.get("t0") or 0)
        _fold(totals, record.get("name", "?"), 1, duration,
              max(0.0, duration - child_time.get(record.get("id"), 0.0)),
              duration)
    return _phases(totals)


# ----------------------------------------------------------------------
# Phase profiling for the bench harness
# ----------------------------------------------------------------------
def profile_phases(fn: Callable[[], Any], repeats: int = 1
                   ) -> Dict[str, dict]:
    """Run ``fn`` under a private session and return its span totals.

    The bench harness (``benchmarks/run_bench.py``) uses this to attach
    a *phase breakdown* — per-span-name total/self times — to each
    ``BENCH_<n>.json`` entry, so snapshots record where the time went,
    not just how much there was.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    with session() as sess:
        with sess.tracer.span("profile"):
            for _ in range(repeats):
                fn()
        records = sess.tracer.export_records()
    spans = [r for r in records if r.get("type") == "span"
             and r.get("name") != "profile"]
    aggregated = aggregate_spans(spans)
    for entry in aggregated.values():
        entry["total_s"] /= repeats
        entry["self_s"] /= repeats
        entry["count"] = entry["count"] / repeats
    return aggregated
