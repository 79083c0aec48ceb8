"""Persistent, content-addressed registry of analysis runs.

Long Monte-Carlo and aging campaigns are only as useful as they are
*comparable*: a 5σ yield number means nothing if you cannot say which
configuration, seed, and accelerator set produced it, or why this
week's run is 18 % slower than last week's.  Until now every run died
with its process; this module gives each one a durable record.

Every ``repro mc`` / ``repro verify`` / bench invocation writes one
schema-versioned JSON record into a *run registry* directory
(``.repro/runs/`` by default, ``REPRO_RUNS_DIR`` overrides, and
``REPRO_NO_RUNLOG=1`` disables recording entirely).  A record carries:

* identity — content-addressed ``run_id`` (SHA-256 of the canonical
  record), command, config dict + its hash, seed;
* environment — the :mod:`repro.resilience` capability summary, so two
  runs solved by different accelerator sets are never silently compared;
* outcome — exit code, ``ok``/``degraded``/``interrupted``/``error``,
  wall time, failure-ledger digest (exception-type counts);
* observability — the final metrics snapshot, per-span-name phase
  totals, and (when profiled) the sampling profiler's phase breakdown.

Records are immutable compact JSON, written atomically (temp + rename
via :func:`repro.checkpoint.atomic_write_text`); the registry is the
substrate ``repro runs`` (list/show/gc) and ``repro trace --diff``
operate on, and the cross-run store every later service/fleet layer
scrapes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Run-record schema version (bump when the record layout changes;
#: 2: compact JSON, and ``config_hash`` covers only what changes the
#: bits — see :func:`config_hash`).
RUN_SCHEMA = 2

#: ``config`` keys that never change a run's results (worker count,
#: parallel backend, serve queue priority): :func:`config_hash` leaves
#: them out, so bit-identical runs share one hash.
UNHASHED_CONFIG = ("jobs", "backend", "priority")

#: Default registry directory, relative to the working directory.
DEFAULT_RUNS_DIR = os.path.join(".repro", "runs")

#: Hex digits kept from the content hash for run ids / config hashes.
ID_LENGTH = 12

#: The outcome taxonomy every writer uses, in decreasing health:
#: ``ok`` clean; ``degraded`` finished with quarantined/widened
#: results; ``refused`` rejected up front (bad spec, identity
#: mismatch); ``budget`` stopped by an expired wall-clock budget with a
#: partial result; ``interrupted`` stopped by SIGINT/SIGTERM/drain;
#: ``cancelled`` never started (queue drained); ``fail`` a verification
#: verdict; ``error`` a hard failure.  Shared by the CLI commands and
#: the serve daemon so records diff cleanly across entry points.
OUTCOMES = ("ok", "degraded", "refused", "budget", "interrupted",
            "cancelled", "fail", "error")


class RunLogError(RuntimeError):
    """A run record is missing, ambiguous, or unreadable."""


def runs_enabled() -> bool:
    """Whether run recording is enabled (``REPRO_NO_RUNLOG`` disables)."""
    return os.environ.get("REPRO_NO_RUNLOG", "") not in ("1", "true", "yes")


def default_runs_dir() -> Path:
    """The registry directory (``REPRO_RUNS_DIR`` or ``.repro/runs``)."""
    return Path(os.environ.get("REPRO_RUNS_DIR") or DEFAULT_RUNS_DIR)


def canonical_text(payload) -> str:
    """The canonical JSON form of a payload: sorted keys, minimal
    separators, NaN-safe via ``allow_nan``, non-JSON values as their
    ``str``."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)


def _digest(text: str, length: int) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:length]


def content_hash(payload, length: int = ID_LENGTH) -> str:
    """Stable SHA-256 hex digest of a JSON-serialisable payload's
    :func:`canonical_text`, so the same logical content always hashes
    the same — the property that makes run ids content addresses."""
    return _digest(canonical_text(payload), length)


def config_hash(config: dict, accel: Optional[dict] = None) -> str:
    """Hash of what in ``config`` changes a run's bits: every key but
    :data:`UNHASHED_CONFIG`, plus ``accel``, the accelerator manifest
    (:func:`repro.runner.accel_manifest`) the run was started under,
    when the caller gives one."""
    payload = {key: value for key, value in config.items()
               if key not in UNHASHED_CONFIG}
    if accel is not None:
        payload["accel"] = accel
    return content_hash(payload)


def ledger_digest(ledger) -> dict:
    """Compress a :class:`~repro.parallel.FailureLedger` for a record.

    Full ledgers can hold thousands of per-sample diagnoses; the run
    record keeps the cross-run-comparable shape: total quarantines,
    counts per exception type, and the run-level (``index == -1``)
    resilience events.
    """
    if not ledger:
        return {"total": 0, "by_type": {}, "run_level": 0}
    return {
        "total": len(ledger.records),
        "by_type": dict(sorted(ledger.counts_by_type().items())),
        "run_level": sum(1 for r in ledger.records if r.index < 0),
    }


class RunRegistry:
    """Reader/writer for the content-addressed run-record store.

    One JSON file per run, named ``<run_id>.json``; ids are prefixes of
    the record's content hash, so identical runs (same config, seed,
    outcome, metrics) converge on one file and a re-written record is
    byte-identical — the registry is idempotent by construction.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_runs_dir()

    # -- writing -------------------------------------------------------
    def record(self, command: str, config: Optional[dict] = None, *,
               outcome: str = "ok", exit_code: int = 0,
               seed: Optional[int] = None,
               capabilities: Optional[dict] = None,
               metrics: Optional[dict] = None,
               phases: Optional[dict] = None,
               ledger: Optional[dict] = None,
               profile: Optional[dict] = None,
               wall_s: Optional[float] = None,
               t_start: Optional[float] = None,
               accel: Optional[dict] = None,
               extra: Optional[dict] = None) -> dict:
        """Build, persist, and return one immutable run record.

        ``config`` is whatever identifies the workload (tech, samples,
        workload, netlist hash, batch size…) — its bit-relevant part,
        with ``accel`` (the accelerator manifest the caller captured
        when the run started), is hashed into ``config_hash``
        (:func:`config_hash`) so "same analysis, different day" is a
        string compare.  ``phases`` is a session's span totals
        (:meth:`~repro.telemetry.Tracer.totals`, the shape
        :func:`~repro.telemetry.aggregate_spans` returns); ``ledger`` a
        :func:`ledger_digest`; ``profile`` the sampling profiler's phase
        breakdown.  The write is atomic.

        The record is serialised once: its :func:`canonical_text` is
        what ``run_id`` hashes and, with ``run_id`` put first, what the
        file holds.
        """
        from repro.checkpoint import atomic_write_text

        now = time.time()
        record = {
            "schema": RUN_SCHEMA,
            "command": command,
            "config": dict(config or {}),
            "config_hash": config_hash(config or {}, accel),
            "seed": seed,
            "outcome": outcome,
            "exit_code": int(exit_code),
            "capabilities": dict(capabilities or {}),
            "metrics": dict(metrics or {}),
            "phases": dict(phases or {}),
            "ledger": dict(ledger or {"total": 0, "by_type": {},
                                      "run_level": 0}),
            "profile": dict(profile or {}),
            "t_start": float(t_start if t_start is not None else now),
            "t_end": now,
            "wall_s": float(wall_s if wall_s is not None
                            else now - (t_start or now)),
        }
        if extra:
            record.update(extra)
        text = canonical_text(record)
        run_id = record["run_id"] = _digest(text, ID_LENGTH)
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.root / f"{run_id}.json",
                          f'{{"run_id":"{run_id}",{text[1:]}')
        return record

    # -- reading -------------------------------------------------------
    def list(self) -> List[dict]:
        """Every readable record, oldest first (unreadable files skipped)."""
        if not self.root.is_dir():
            return []
        records = []
        for path in sorted(self.root.glob("*.json")):
            try:
                with open(path, encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue  # half-written by a dying process: not fatal
            if isinstance(record, dict) and record.get("run_id"):
                records.append(record)
        records.sort(key=lambda r: (r.get("t_start", 0.0),
                                    r.get("run_id", "")))
        return records

    def load(self, run_id: str) -> dict:
        """Load one record by id or unambiguous id prefix."""
        if not run_id:
            raise RunLogError("empty run id")
        exact = self.root / f"{run_id}.json"
        if exact.is_file():
            with open(exact, encoding="utf-8") as handle:
                return json.load(handle)
        matches = [r for r in self.list()
                   if r.get("run_id", "").startswith(run_id)]
        if not matches:
            raise RunLogError(
                f"no run {run_id!r} in registry {self.root} "
                f"(see `repro runs list`)")
        if len(matches) > 1:
            ids = ", ".join(r["run_id"] for r in matches[:6])
            raise RunLogError(
                f"run id prefix {run_id!r} is ambiguous: {ids}")
        return matches[0]

    def gc(self, keep: int) -> List[str]:
        """Delete all but the newest ``keep`` records; returns removed ids."""
        if keep < 0:
            raise ValueError("keep must be non-negative")
        records = self.list()
        doomed = records[:max(0, len(records) - keep)]
        removed = []
        for record in doomed:
            try:
                (self.root / f"{record['run_id']}.json").unlink()
                removed.append(record["run_id"])
            except OSError:
                pass
        return removed


def record_run(command: str, config: Optional[dict] = None,
               **kwargs) -> Optional[dict]:
    """Best-effort module-level recording used by the CLI seams.

    Returns the record, or ``None`` when recording is disabled
    (``REPRO_NO_RUNLOG``) or fails — a broken registry disk must never
    turn a finished analysis into an error.
    """
    if not runs_enabled():
        return None
    try:
        return RunRegistry().record(command, config, **kwargs)
    except Exception:
        return None


def capability_flags(snapshot: Optional[Dict[str, dict]] = None) -> dict:
    """``{capability: available?}`` summary for records and BENCH files.

    Flattens :func:`repro.resilience.snapshot` to the one bit that
    decides comparability — whether the accelerator served this run
    (a probe's verdict holds for the whole process) — so diffing two
    records (or two bench snapshots) can refuse apples-to-oranges
    comparisons cheaply.
    """
    if snapshot is None:
        from repro import resilience

        snapshot = resilience.snapshot().get("capabilities", {})
    return {name: bool(state.get("available"))
            for name, state in sorted(snapshot.items())}
