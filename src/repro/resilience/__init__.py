"""Resilience supervisor: probing, guards, budgets.

The paper's §5.2 argument — nanometer systems stay dependable by
monitoring themselves and adapting knobs in the field, not by
over-design — applied to the simulator itself.  Three accelerated
paths (runtime-compiled C stamp kernel, scipy ``splu`` sparse solves,
lane-batched Newton for DC sweeps) can each fail in ways the proven
numpy/scalar ladder cannot; this package makes every such failure a
degradation instead of a crash:

* :class:`~repro.resilience.capabilities.CapabilityRegistry` probes
  each accelerator once at startup and records why it is or is not
  available (kill switch, minimal environment, anomalous failure).
  The verdict holds for the life of the process (only fault injection
  re-probes), so the capability flags a run or a serve daemon reads at
  start-up are the ones every solve sees; cold seams (sweep setup)
  consult :func:`allows`.
* A runtime failure of an accelerated call (a ``splu`` factorization
  that fails on a solvable matrix, a batch lane that diverges) falls
  back to the numpy/scalar path for that call only and is counted in
  telemetry (``solver.sparse.fallbacks``,
  ``solver.dc.batch.fallback_lanes``); the next call tries the
  accelerator again.
* :func:`~repro.resilience.guards.admit_lanes` bounds batched-slab
  memory before allocation (``REPRO_MEM_CEILING_MB``).
* :class:`~repro.resilience.budget.DeadlineBudget` carries a
  wall-clock deadline into workers (``repro mc --budget``).

Everything notable becomes a supervisor *event*, drained into run
failure ledgers as ``index == -1`` records (run-level, not tied to a
sample) and mirrored into telemetry, so a degraded run is visibly
degraded in ``repro trace`` and exits 2 — never a silent wrong answer.

The supervisor is a per-process lazy singleton: worker processes build
their own on first use (probes are cheap and the compiled kernel is
cached on disk), and their events travel back to the parent inside
chunk ledgers like any other quarantine record.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from repro import telemetry
from repro.resilience.budget import (  # noqa: F401 (re-export)
    BudgetExpiredError,
    CancellableBudget,
    DeadlineBudget,
)
from repro.resilience.capabilities import (  # noqa: F401 (re-export)
    CAPABILITY_NAMES,
    Capability,
    CapabilityRegistry,
)
from repro.resilience.guards import (  # noqa: F401 (re-export)
    DEFAULT_MEM_CEILING_MB,
    admit_lanes,
    memory_ceiling_bytes,
    slab_bytes,
)

__all__ = [
    "ResilienceSupervisor", "supervisor", "reset_supervisor",
    "allows", "drain_events", "drain_into", "snapshot",
    # re-exports
    "Capability", "CapabilityRegistry", "CAPABILITY_NAMES",
    "BudgetExpiredError",
    "CancellableBudget", "DeadlineBudget",
    "admit_lanes", "slab_bytes", "memory_ceiling_bytes",
    "DEFAULT_MEM_CEILING_MB",
]


class ResilienceSupervisor:
    """Process-wide accelerator health: registry + events."""

    def __init__(self):
        self._lock = threading.RLock()
        self._events: List[dict] = []
        self._dedupe: set = set()
        self.registry = CapabilityRegistry()
        for name in self.registry.names():
            self._note_probe(self.registry.capability(name))

    # -- event plumbing ------------------------------------------------
    def _note_probe(self, cap: Capability) -> None:
        session = telemetry.active()
        if session is not None:
            session.tracer.event("resilience.capability",
                                 capability=cap.name,
                                 available=cap.available,
                                 detail=cap.detail)
        if cap.anomalous:
            self._push_event("capability-unavailable", cap.name, cap.detail,
                             dedupe=("probe", cap.name, cap.detail))

    def _push_event(self, kind: str, capability: str, reason: str,
                    dedupe=None) -> None:
        with self._lock:
            if dedupe is not None:
                if dedupe in self._dedupe:
                    return
                self._dedupe.add(dedupe)
            self._events.append({"kind": kind, "capability": capability,
                                 "reason": reason})
        session = telemetry.active()
        if session is not None:
            session.tracer.event("resilience.%s" % kind.replace("-", "_"),
                          capability=capability, reason=reason)

    def note_event(self, kind: str, capability: str, reason: str,
                   dedupe=None) -> None:
        """Record an arbitrary supervisor event (drained into ledgers)."""
        self._push_event(kind, capability, reason, dedupe=dedupe)

    def note_clamp(self, requested: int, admitted: int, reason: str,
                   dedupe=None) -> None:
        """Record a resource-guard clamp (lanes reduced to fit the
        memory ceiling) as an event plus metrics."""
        self._push_event("resource-clamp", "memory", reason, dedupe=dedupe)
        session = telemetry.active()
        if session is not None:
            session.metrics.inc("resilience.resource.clamps")
            session.metrics.gauge("resilience.admitted_lanes", admitted)

    # -- capability API ------------------------------------------------
    def allows(self, name: str) -> bool:
        """Whether the accelerator probed available."""
        return self.registry.capability(name).available

    def reprobe(self, name: str) -> Capability:
        """Re-run one capability probe (fault injection changed the
        environment after startup) and re-evaluate its events."""
        with self._lock:
            cap = self.registry.reprobe(name)
        self._note_probe(cap)
        return cap

    # -- draining ------------------------------------------------------
    def drain_events(self) -> List[dict]:
        """Pop all pending events (each is reported exactly once)."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def drain_into(self, ledger) -> int:
        """Append pending events to a :class:`FailureLedger` as
        run-level records (``index == -1``) and return how many."""
        from repro.parallel import FailureRecord

        events = self.drain_events()
        for evt in events:
            ledger.records.append(FailureRecord(
                index=-1,
                label="resilience:%s" % evt["capability"],
                exception_type=evt["kind"],
                message=evt["reason"],
                attempts=0,
                convergence_report=None))
        return len(events)

    def snapshot(self) -> dict:
        """JSON-ready health summary for reports and the CLI."""
        with self._lock:
            return {
                "capabilities": self.registry.snapshot(),
                "pending_events": len(self._events),
            }


_SUPERVISOR: List[Optional[ResilienceSupervisor]] = [None]
_SUPERVISOR_LOCK = threading.Lock()


def supervisor() -> ResilienceSupervisor:
    """The process-wide supervisor, built (and probed) on first use."""
    found = _SUPERVISOR[0]
    if found is not None:
        return found
    with _SUPERVISOR_LOCK:
        if _SUPERVISOR[0] is None:
            _SUPERVISOR[0] = ResilienceSupervisor()
        return _SUPERVISOR[0]


def reset_supervisor() -> None:
    """Discard supervisor state (tests, and long-lived daemons that
    want a fresh probe)."""
    with _SUPERVISOR_LOCK:
        _SUPERVISOR[0] = None


def allows(name: str) -> bool:
    """Module-level convenience: did this accelerator probe available?"""
    return supervisor().allows(name)


def drain_events() -> List[dict]:
    """Pop all pending supervisor events (reported exactly once)."""
    return supervisor().drain_events()


def drain_into(ledger) -> int:
    """Drain pending events into ``ledger`` as run-level records."""
    return supervisor().drain_into(ledger)


def snapshot() -> dict:
    """JSON-ready capability health summary."""
    return supervisor().snapshot()
