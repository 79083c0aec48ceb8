"""Resilience supervisor: probing, breakers, guards, budgets.

The paper's §5.2 argument — nanometer systems stay dependable by
monitoring themselves and adapting knobs in the field, not by
over-design — applied to the simulator itself.  Three accelerated
paths (runtime-compiled C stamp kernel, scipy ``splu`` sparse solves,
lane-batched Newton for DC sweeps) can each fail in ways the proven
numpy/scalar ladder cannot; this package makes every such failure a
*recorded degradation* instead of a crash:

* :class:`~repro.resilience.capabilities.CapabilityRegistry` probes
  each accelerator once at startup and records why it is or is not
  available (kill switch, minimal environment, anomalous failure).
* A :class:`~repro.resilience.breakers.CircuitBreaker` per accelerator
  trips after N consecutive runtime failures and quarantines it for
  the rest of the process.  Tripping *pushes* a veto flag into the
  accelerator module (``_ckernel.set_veto`` / ``mna.set_sparse_veto``)
  so hot solve loops never pay a supervisor lookup; cold seams (sweep
  setup, engine construction, chunk entry) consult :func:`allows`.
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
from typing import Iterable, List, Optional

from repro import telemetry
from repro.resilience.breakers import (  # noqa: F401 (re-export)
    DEFAULT_BREAKER_THRESHOLD,
    BreakerOpenError,
    CircuitBreaker,
    breaker_threshold,
)
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
    "allows", "require", "record_failure", "record_success",
    "drain_events", "drain_into", "snapshot",
    # re-exports
    "Capability", "CapabilityRegistry", "CAPABILITY_NAMES",
    "CircuitBreaker", "BreakerOpenError", "breaker_threshold",
    "DEFAULT_BREAKER_THRESHOLD", "BudgetExpiredError",
    "CancellableBudget", "DeadlineBudget",
    "admit_lanes", "slab_bytes", "memory_ceiling_bytes",
    "DEFAULT_MEM_CEILING_MB",
]


class ResilienceSupervisor:
    """Process-wide accelerator health: registry + breakers + events."""

    def __init__(self, threshold: Optional[int] = None):
        self._lock = threading.RLock()
        self._events: List[dict] = []
        self._dedupe: set = set()
        self.registry = CapabilityRegistry(threshold)
        for cap in (self.registry.capability(n)
                    for n in self.registry.names()):
            cap.breaker.on_trip = self._on_trip
            self._note_probe(cap)

    # -- veto push-down ------------------------------------------------
    @staticmethod
    def _push_veto(name: str) -> None:
        """Quarantine ``name`` inside the accelerator module so the hot
        path sees a plain flag, not a supervisor call."""
        if name == "ckernel":
            from repro.circuit import _ckernel

            _ckernel.set_veto(True)
        elif name == "sparse":
            from repro.circuit import mna

            mna.set_sparse_veto(True)
        # "batch" and "dgesv" are gated at cold seams via allows().

    @staticmethod
    def _clear_vetoes() -> None:
        from repro.circuit import _ckernel, mna

        _ckernel.set_veto(False)
        mna.set_sparse_veto(False)

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

    def _on_trip(self, breaker: CircuitBreaker) -> None:
        self._push_veto(breaker.name)
        self._push_event(
            "breaker-tripped", breaker.name,
            "%s quarantined after %d failure(s): %s — falling back to the "
            "numpy/scalar path" % (breaker.name, breaker.total_failures,
                                   breaker.last_detail or "unspecified"),
            dedupe=("trip", breaker.name))
        session = telemetry.active()
        if session is not None:
            session.metrics.inc("resilience.breaker.trips")

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

    # -- breaker API ---------------------------------------------------
    def allows(self, name: str) -> bool:
        """Whether the accelerator is available and not quarantined."""
        return self.registry.capability(name).usable

    def require(self, name: str) -> None:
        """Like :meth:`allows`, but raise :class:`BreakerOpenError`
        with the quarantine reason instead of returning False."""
        cap = self.registry.capability(name)
        if not cap.usable:
            raise BreakerOpenError(
                "capability %r is unavailable: %s"
                % (name, cap.breaker.last_detail or cap.detail), name)

    def record_failure(self, name: str, detail: str = "") -> bool:
        """Count one accelerator failure; True iff the breaker tripped
        on this call (the trip event is emitted exactly once)."""
        with self._lock:
            return self.registry.capability(name).breaker \
                .record_failure(detail)

    def record_success(self, name: str) -> None:
        """Count one healthy accelerator use (resets the breaker's
        consecutive-failure count while untripped)."""
        with self._lock:
            self.registry.capability(name).breaker.record_success()

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
    """Discard supervisor state and clear pushed vetoes (tests, and
    long-lived daemons that want a fresh probe)."""
    with _SUPERVISOR_LOCK:
        _SUPERVISOR[0] = None
        ResilienceSupervisor._clear_vetoes()


def allows(name: str) -> bool:
    """Module-level convenience: is this accelerator healthy?"""
    return supervisor().allows(name)


def require(name: str) -> None:
    """Raise :class:`BreakerOpenError` unless the accelerator is usable."""
    supervisor().require(name)


def record_failure(name: str, detail: str = "") -> bool:
    """Count one accelerator failure; True iff the breaker tripped now."""
    return supervisor().record_failure(name, detail)


def record_success(name: str) -> None:
    """Count one healthy accelerator use (resets consecutive failures)."""
    supervisor().record_success(name)


def drain_events() -> List[dict]:
    """Pop all pending supervisor events (reported exactly once)."""
    return supervisor().drain_events()


def drain_into(ledger) -> int:
    """Drain pending events into ``ledger`` as run-level records."""
    return supervisor().drain_into(ledger)


def snapshot() -> dict:
    """JSON-ready capability/breaker health summary."""
    return supervisor().snapshot()
