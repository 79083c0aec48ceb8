"""Deterministic parallel execution for the analysis engines.

The Monte-Carlo engines (§2 yield, §3 aging ensembles, PVT corner
matrices) are embarrassingly parallel: every virtual die is independent.
This module provides the shared machinery to fan them out without
giving up reproducibility:

* :class:`ParallelMap` — a minimal map abstraction over serial, thread
  and process backends with ``n_jobs`` auto-detection;
* :func:`chunk_ranges` / :func:`spawn_seed_sequences` — work is split
  into *fixed-size* chunks (independent of the worker count) and each
  chunk receives its own child of one ``np.random.SeedSequence``.  A
  chunk's results therefore depend only on (chunk content, chunk seed),
  never on which worker ran it or how many workers exist — ``jobs=1``
  and ``jobs=N`` are bit-identical for the same seed;
* :func:`clone_fixture` / :func:`replicate` — per-worker circuit
  replicas.  Workers mutate device variations and cached engine state,
  so each chunk evaluates a private deep copy of the fixture (pickle
  round-trip, falling back to ``copy.deepcopy`` for fixtures that hold
  unpicklable callables such as lambdas).

Backend notes: the ``process`` backend requires every task (function
and payload) to be picklable — use module-level extractors, not
lambdas.  The ``thread`` backend has no such restriction and still
helps here because the compiled kernel's sweep and transient entry
points (``repro_sweep_dense``, ``repro_transient_dense``: a die's DC
sweep or its whole transient in one call) release the GIL while they
run; the single Newton solve (``repro_newton_dense``) and the stamp
pass keep it (see :func:`repro.circuit._ckernel._compile`).  ``auto``
picks serial for one job and threads otherwise.

Resilience primitives:

* :class:`FailureLedger` / :class:`FailureRecord` — the quarantine
  book: which sample failed, with which exception, carrying the
  solver's :class:`~repro.circuit.mna.ConvergenceReport` when there is
  one.  JSON-serialisable so checkpoints and reports can persist it;
* :meth:`ParallelMap.map_completed` — completion-order iteration used
  by the checkpointing engines to persist finished chunks while later
  chunks are still running.
"""

from __future__ import annotations

import copy
import os
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, \
    ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, \
    Tuple, TypeVar

import numpy as np

from repro import telemetry

_BACKENDS = ("auto", "serial", "thread", "process")

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request to a positive worker count.

    ``None``, ``0`` and ``-1`` mean "use every core".
    """
    if jobs is None or jobs in (0, -1):
        return max(1, os.cpu_count() or 1)
    if jobs < -1:
        raise ValueError(f"jobs must be positive, -1, 0 or None, got {jobs}")
    return int(jobs)


def fair_share_jobs(jobs: Optional[int], lanes: int = 1) -> int:
    """Worker count for one of ``lanes`` concurrent runs on this host.

    A multiplexer (the serve daemon's worker pool) running ``lanes``
    analyses at once must not let each one claim every core: this caps
    the per-run worker count at an even split of the machine, floored
    at one.  Worker count never changes results (the chunk-grid
    determinism contract), so the cap is always safe to apply.
    """
    if lanes < 1:
        raise ValueError("lanes must be at least 1")
    requested = resolve_jobs(jobs)
    share = max(1, (os.cpu_count() or 1) // lanes)
    return min(requested, share)


def chunk_ranges(n_items: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Split ``range(n_items)`` into ``(start, stop)`` chunks.

    The chunk grid depends only on ``chunk_size`` — never on the worker
    count — which is what makes parallel runs reproducible.
    """
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return [(start, min(start + chunk_size, n_items))
            for start in range(0, n_items, chunk_size)]


def spawn_seed_sequences(seed: int, n: int) -> List[np.random.SeedSequence]:
    """``n`` independent child seed streams of one root seed."""
    if n <= 0:
        raise ValueError("n must be positive")
    return np.random.SeedSequence(seed).spawn(n)


def replicate(obj: T) -> T:
    """Deep-copy ``obj`` for a worker (pickle, deepcopy fallback).

    Pickle round-trips are preferred because they produce exactly the
    object a process worker would receive; fixtures holding lambdas or
    other unpicklable members fall back to ``copy.deepcopy``.
    """
    try:
        return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError):
        return copy.deepcopy(obj)


def clone_fixture(fixture: T) -> T:
    """Private per-worker replica of a circuit fixture."""
    return replicate(fixture)


class ParallelMap:
    """Ordered ``map`` over a serial, thread or process backend.

    Results come back in input order; the first exception raised by any
    task propagates to the caller (earliest index first, matching the
    serial backend).
    """

    def __init__(self, backend: str = "auto", n_jobs: Optional[int] = None):
        if backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.n_jobs = resolve_jobs(n_jobs)
        if backend == "auto":
            backend = "serial" if self.n_jobs == 1 else "thread"
        self.backend = backend

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving order."""
        items = list(items)
        if not items:
            return []
        if self.backend == "serial" or self.n_jobs == 1 or len(items) == 1:
            return [fn(item) for item in items]
        workers = min(self.n_jobs, len(items))
        if self.backend == "thread":
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))

    def map_completed(self, fn: Callable[[T], R], items: Sequence[T],
                      deadline=None) -> Iterator[Tuple[int, R]]:
        """Yield ``(index, fn(item))`` pairs in completion order.

        The serial backend yields in input order; pooled backends yield
        as futures finish, which lets a checkpointing caller persist
        every finished chunk immediately instead of waiting for the
        whole batch.  A task exception propagates when its future is
        consumed; on ``KeyboardInterrupt`` pending futures are cancelled
        so the caller can write a final checkpoint and exit promptly.

        ``deadline`` (a :class:`repro.resilience.DeadlineBudget`) arms
        coercive cancellation on top of the workers' own cooperative
        per-sample checks: the pool wait times out at the deadline and
        raises :class:`~repro.resilience.BudgetExpiredError` after
        cancelling what it can.  On the process backend, workers that
        *hang* (never reaching a cooperative check) are terminated so
        the caller regains control; hung threads cannot be killed, so
        the thread/serial backends rely on the cooperative checks
        alone.
        """
        from repro import telemetry

        session = telemetry.active()
        items = list(items)
        if not items:
            return
        if self.backend == "serial" or self.n_jobs == 1 or len(items) == 1:
            for index, item in enumerate(items):
                if deadline is not None:
                    deadline.check("task %d" % index)
                if session is not None:
                    session.metrics.gauge("parallel.pending_tasks",
                                          len(items) - index - 1)
                yield index, fn(item)
            return
        workers = min(self.n_jobs, len(items))
        pool_cls = ThreadPoolExecutor if self.backend == "thread" \
            else ProcessPoolExecutor
        pool = pool_cls(max_workers=workers)
        abandoned = False
        futures = {}
        try:
            futures = {pool.submit(fn, item): index
                       for index, item in enumerate(items)}
            pending = set(futures)
            while pending:
                timeout = None if deadline is None \
                    else max(0.0, deadline.remaining())
                done, pending = wait(pending, timeout=timeout,
                                     return_when=FIRST_COMPLETED)
                if not done and deadline is not None and deadline.expired():
                    abandoned = True
                    for future in pending:
                        future.cancel()
                    from repro.resilience.budget import BudgetExpiredError

                    raise BudgetExpiredError(
                        "wall-clock budget of %.3g s expired with %d "
                        "task(s) unfinished" % (deadline.total_s,
                                                len(pending)),
                        budget_s=deadline.total_s, where="pool")
                if session is not None:
                    # Live queue depth for the /metrics exposition: how
                    # many chunks have not finished yet.
                    session.metrics.gauge("parallel.pending_tasks",
                                          len(pending))
                for future in done:
                    yield futures[future], future.result()
        except BaseException:
            if not abandoned:
                for future in futures:
                    future.cancel()
            raise
        finally:
            if abandoned:
                # A worker is past the deadline and may be hung: never
                # join it.  Process workers are terminated outright;
                # thread workers cannot be killed, so the pool is left
                # to drain without blocking this caller.
                if isinstance(pool, ProcessPoolExecutor):
                    for proc in list(getattr(pool, "_processes",
                                             {}).values()):
                        try:
                            proc.terminate()
                        except Exception:
                            pass
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)


# ----------------------------------------------------------------------
# Failure ledger
# ----------------------------------------------------------------------
@dataclass
class FailureRecord:
    """One quarantined evaluation."""

    index: int
    """Global sample index (or PVT-point ordinal for corner runs)."""

    label: str = ""
    """What failed: a spec name, metric name, or point label."""

    exception_type: str = ""
    message: str = ""
    attempts: int = 1
    """Evaluations made of the failed item: 1 for a sample, 0 for a
    run-level record."""

    convergence_report: Optional[dict] = None
    """``ConvergenceReport.to_dict()`` payload when the solver attached
    one (strategy ladder, iterations, residual, worst device)."""

    def to_dict(self) -> dict:
        """JSON-ready payload (checkpoint manifests, reports)."""
        return {"index": self.index, "label": self.label,
                "exception_type": self.exception_type,
                "message": self.message, "attempts": self.attempts,
                "convergence_report": self.convergence_report}

    @classmethod
    def from_dict(cls, data: dict) -> "FailureRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class FailureLedger:
    """The quarantine book of a resilient analysis run.

    Engines append a :class:`FailureRecord` per sample they could not
    evaluate instead of aborting; reports and checkpoints serialise the
    ledger so a resumed or merged run keeps full failure provenance.
    """

    records: List[FailureRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def add(self, index: int, exc: BaseException,
            label: str = "") -> FailureRecord:
        """Quarantine one failure, capturing solver telemetry if any.

        With an active telemetry session, every quarantine also emits a
        ``quarantine`` trace event (under the span that was open when
        the failure surfaced) and bumps the ``engine.quarantines``
        counter — so traces show the PR 2 failure path, not just the
        final ledger.
        """
        report = getattr(exc, "report", None)
        record = FailureRecord(
            index=index, label=label,
            exception_type=type(exc).__name__,
            message=str(exc), convergence_report=report.to_dict() if report is not None
            else None)
        self.records.append(record)
        session = telemetry.active()
        if session is not None:
            session.metrics.inc("engine.quarantines")
            summary = report.summary() if report is not None else str(exc)
            session.tracer.event(
                "quarantine", index=index, label=label,
                exception=record.exception_type, attempts=record.attempts,
                summary=summary[:200])
        return record

    def merge(self, other: "FailureLedger") -> None:
        """Absorb another ledger (e.g. a chunk's) into this one."""
        self.records.extend(other.records)

    def sort(self) -> None:
        """Deterministic order: by sample index, then label."""
        self.records.sort(key=lambda r: (r.index, r.label))

    def counts_by_type(self) -> Dict[str, int]:
        """Exception type name → quarantined record count."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.exception_type] = \
                counts.get(record.exception_type, 0) + 1
        return counts

    def quarantined_indices(self) -> List[int]:
        """Sorted unique sample indices with at least one failure.

        Run-level records (``index < 0``, e.g. resilience-supervisor
        events) are not samples and are excluded.
        """
        return sorted({r.index for r in self.records if r.index >= 0})

    def dedupe_run_level(self) -> None:
        """Drop duplicate run-level records (``index < 0``).

        Every worker process runs its own resilience supervisor, so N
        workers hitting the same degradation each report an identical
        event; one record per distinct (label, type, message) is the
        honest run-level summary.
        """
        seen = set()
        kept = []
        for record in self.records:
            if record.index < 0:
                key = (record.index, record.label, record.exception_type,
                       record.message)
                if key in seen:
                    continue
                seen.add(key)
            kept.append(record)
        self.records = kept

    def to_list(self) -> List[dict]:
        """JSON-ready list of record payloads."""
        return [r.to_dict() for r in self.records]

    @classmethod
    def from_list(cls, data: Sequence[dict]) -> "FailureLedger":
        """Inverse of :meth:`to_list`."""
        return cls(records=[FailureRecord.from_dict(d) for d in data])
