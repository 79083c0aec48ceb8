"""Atomic chunk-granular checkpoints for long-run analyses.

A million-sample Monte-Carlo run must survive restarts: this module
persists every completed work chunk as it finishes, so an interrupted
run resumes from the last checkpoint and — because each chunk's result
depends only on (chunk bounds, chunk seed), never on execution order —
finishes **bit-identical** to an uninterrupted run under the same seed.

Format: a checkpoint is a *directory* holding

* ``manifest.json`` — run identity (seed, chunk grid, accelerator and
  :func:`repro.runner.run_identity`), completed chunk ids, failure counts,
  the serialised :class:`~repro.parallel.FailureLedger` and the run's
  cumulative :class:`~repro.telemetry.MetricsRegistry` snapshot (so a
  resumed run's solver/engine counters continue instead of resetting);
* ``chunks.npz`` — the numeric chunk payloads (values, pass flags) in
  lossless binary.

Writes are atomic: each file is written to a temporary sibling and
``os.replace``-d into place, arrays first, manifest last.  A crash
mid-write therefore leaves the previous consistent state — the manifest
only ever names chunks whose arrays are already on disk.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.parallel import FailureLedger

#: Manifest schema version.  Bump when the manifest layout changes or
#: when chunks saved by older code hold different bits than the current
#: code computes for the same run (2: batched transient specs run the
#: scalar integrator; 3: :func:`repro.runner.run_identity` joins the
#: manifest; 4: the finite-difference Jacobian mode is gone, so the
#: accelerator manifest loses ``jacobians``; 5: the run identity is
#: derived from every object the run computes on, not declared by the
#: extractor), so a resume never splices old and new chunks.
MC_CHECKPOINT_SCHEMA = 5

MANIFEST_NAME = "manifest.json"
CHUNKS_NAME = "chunks.npz"


class CheckpointError(RuntimeError):
    """The checkpoint is missing, corrupt, or belongs to another run."""


class RunInterrupted(RuntimeError):
    """A checkpointed run was interrupted (SIGINT / injected fault).

    Raised by the engines *after* the final checkpoint has been
    written; carries the partial result and the checkpoint path so
    callers can report progress and instruct the user how to resume.
    """

    def __init__(self, message: str, checkpoint_path: Optional[Path] = None,
                 partial_result=None, reason: str = "interrupt"):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
        self.partial_result = partial_result
        #: Why the run stopped: ``"interrupt"`` (SIGINT / injected
        #: fault) or ``"budget"`` (wall-clock deadline — including a
        #: serve drain, which trips a
        #: :class:`~repro.resilience.CancellableBudget`).  The CLI exit
        #: code hangs off this — 130 for interrupts, 2 for a degraded
        #: budget stop.
        self.reason = reason

    @property
    def outcome(self) -> str:
        """The run-registry outcome this stop records.

        ``"budget"`` for a deadline stop, ``"interrupted"`` otherwise —
        the taxonomy shared by the CLI and the serve daemon (see
        :data:`repro.obs.runlog.OUTCOMES`).
        """
        return "budget" if self.reason == "budget" else "interrupted"

    @property
    def resumable(self) -> bool:
        """Whether a final checkpoint exists to resume from."""
        return self.checkpoint_path is not None

    def __reduce__(self):
        return type(self), (self.args[0] if self.args else "",
                            self.checkpoint_path, self.partial_result,
                            self.reason)


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp + rename."""
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                    prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_json(path: Path, obj) -> None:
    """Atomically serialise ``obj`` as compact JSON (sorted keys, no
    whitespace) at ``path`` — compact, so the C encoder writes it."""
    _atomic_write_bytes(Path(path),
                        json.dumps(obj, sort_keys=True, separators=(",", ":"))
                        .encode("utf-8"))


def atomic_write_text(path: Path, text: str) -> None:
    """Atomically write UTF-8 ``text`` at ``path``.

    Shared by the run registry (:mod:`repro.obs.runlog`) and the
    profiler's collapsed-stack export — the same crash-consistency
    contract the checkpoint files get.
    """
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


def atomic_write_npz(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """Atomically write an ``.npz`` archive at ``path``."""
    import io

    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    _atomic_write_bytes(Path(path), buffer.getvalue())


def _canonical(value) -> str:
    """``value``'s JSON text: a tuple equals the list read back."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _differences(found, expected, path: str = "") -> list:
    """``path: checkpoint has …, this run has …`` for each leaf at which
    two identities differ."""
    if isinstance(found, dict) and isinstance(expected, dict):
        return [line for key in sorted(set(found) | set(expected))
                for line in _differences(found.get(key), expected.get(key),
                                         f"{path}{key}.")]
    if _canonical(found) == _canonical(expected):
        return []
    return [f"{path[:-1] + ': ' if path else ''}checkpoint has {found!r}, "
            f"this run has {expected!r}"]


class McCheckpointStore:
    """Checkpoint reader/writer of :func:`repro.runner.run_chunks`,
    which both sampling engines (Monte-Carlo and high-sigma yield) run.

    A *chunk payload* is the dict an engine's chunk function returns:
    start/stop bounds, per-channel value and pass arrays, the overall
    pass flags, failure counts and quarantine records.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    @property
    def manifest_path(self) -> Path:
        """Path of the JSON manifest (run identity + completed chunks)."""
        return self.path / MANIFEST_NAME

    @property
    def chunks_path(self) -> Path:
        """Path of the ``.npz`` archive holding the chunk arrays."""
        return self.path / CHUNKS_NAME

    def exists(self) -> bool:
        """Whether a loadable checkpoint is present."""
        return self.manifest_path.is_file()

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def save(self, run_params: dict, chunks: Dict[int, dict],
             metrics: Optional[dict] = None) -> None:
        """Persist the run state: arrays first, manifest last.

        ``metrics`` (a :meth:`MetricsRegistry.snapshot
        <repro.telemetry.MetricsRegistry.snapshot>` payload) rides in
        the manifest so counters accumulate across interruptions.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        spec_names = list(run_params["spec_names"])
        arrays: Dict[str, np.ndarray] = {}
        failure_counts: Dict[str, dict] = {}
        ledger_records = []
        for cid in sorted(chunks):
            chunk = chunks[cid]
            arrays[f"c{cid}_passes"] = chunk["passes"]
            for j, name in enumerate(spec_names):
                arrays[f"c{cid}_v{j}"] = chunk["values"][name]
                arrays[f"c{cid}_s{j}"] = chunk["spec_passes"][name]
            if chunk["failure_counts"]:
                failure_counts[str(cid)] = chunk["failure_counts"]
            ledger_records.extend(chunk.get("ledger", []))
        atomic_write_npz(self.chunks_path, arrays)
        manifest = dict(run_params)
        manifest["schema"] = MC_CHECKPOINT_SCHEMA
        manifest["completed"] = sorted(chunks)
        manifest["bounds"] = {str(cid): [chunks[cid]["start"],
                                         chunks[cid]["stop"]]
                              for cid in sorted(chunks)}
        manifest["failure_counts"] = failure_counts
        manifest["ledger"] = ledger_records
        if metrics is not None:
            manifest["metrics"] = metrics
        atomic_write_json(self.manifest_path, manifest)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, expected_params: dict
             ) -> Tuple[Dict[int, dict], FailureLedger]:
        """Restore completed chunk payloads, validating run identity.

        Raises :class:`CheckpointError` when the manifest does not
        match ``expected_params`` — resuming a different run (other
        seed, sample count, chunk size, specs, node or circuit) would
        silently corrupt the statistics, so it is refused outright,
        naming what differs (compared as canonical JSON).
        """
        if not self.exists():
            raise CheckpointError(f"no checkpoint at {self.path}")
        try:
            with open(self.manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint manifest: {exc}") from exc
        if manifest.get("schema") != MC_CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint schema {manifest.get('schema')!r} not supported")
        for key, expected in expected_params.items():
            found = manifest.get(key)
            if _canonical(found) == _canonical(expected):
                continue
            lines = _differences(found, expected)
            diffs = "; ".join(lines[:3]) + ("; …" if len(lines) > 3 else "")
            if key == "accel" and isinstance(found, dict):
                # Splicing chunks solved by different accelerator paths
                # silently breaks the bit-identical-resume guarantee.
                raise CheckpointError(
                    "accelerator configuration mismatch — resuming "
                    "would not be bit-identical (" + diffs + "). "
                    "Rerun with the checkpoint's accelerator "
                    "configuration, or start a fresh checkpoint.")
            raise CheckpointError(f"checkpoint mismatch on {key!r}: {diffs}")
        spec_names = list(expected_params["spec_names"])
        try:
            with np.load(self.chunks_path) as archive:
                chunks: Dict[int, dict] = {}
                for cid in manifest.get("completed", []):
                    start, stop = manifest["bounds"][str(cid)]
                    chunks[int(cid)] = {
                        "start": int(start), "stop": int(stop),
                        "passes": archive[f"c{cid}_passes"],
                        "values": {name: archive[f"c{cid}_v{j}"]
                                   for j, name in enumerate(spec_names)},
                        "spec_passes": {name: archive[f"c{cid}_s{j}"]
                                        for j, name in enumerate(spec_names)},
                        "failure_counts": manifest.get(
                            "failure_counts", {}).get(str(cid), {}),
                        "ledger": [],
                    }
        except (OSError, KeyError, ValueError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint arrays: {exc}") from exc
        ledger = FailureLedger.from_list(manifest.get("ledger", []))
        # Re-home quarantine records onto their chunks so a later save
        # round-trips them unchanged.
        if ledger:
            grid = {int(cid): chunks[int(cid)] for cid in chunks}
            for record in ledger.records:
                for chunk in grid.values():
                    if chunk["start"] <= record.index < chunk["stop"]:
                        chunk["ledger"].append(record.to_dict())
                        break
        return chunks, ledger

    def load_metrics(self) -> dict:
        """The persisted metrics snapshot ({} when absent).

        Kept separate from :meth:`load`: metrics are observability
        payload, not part of the result contract.
        """
        if not self.exists():
            return {}
        try:
            with open(self.manifest_path, encoding="utf-8") as handle:
                return json.load(handle).get("metrics", {})
        except (OSError, json.JSONDecodeError):
            return {}
