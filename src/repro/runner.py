"""One chunked-run driver for the sampling engines.

:class:`~repro.core.yield_analysis.MonteCarloYield` and
:class:`~repro.core.importance.HighSigmaYield` split a run into
seed-deterministic chunks whose results depend only on (chunk bounds,
chunk seed, task payload).  Everything around the chunks is the same
for both engines and lives here, written once:

* **Checkpoints** — create, resume, refuse an existing checkpoint
  without ``resume`` or a checkpoint of another run
  (:class:`~repro.checkpoint.McCheckpointStore`), save after every
  ``checkpoint_every`` chunks and once at the end.
* **Metrics** — a :class:`~repro.telemetry.MetricsRegistry`
  accumulator persisted in the manifest and restored on resume, so
  counters carry across interruptions.
* **Telemetry** — a ``run`` span; each chunk runs in a private
  :func:`~repro.telemetry.worker_session` under a ``chunk`` span whose
  export is merged back under the run span; process-backend chunks
  also ship :func:`~repro.obs.profiler.worker_profile` stacks.
* **Budgets and stops** — an expired deadline returns a partial
  result carrying a ``resilience:budget`` ledger record (no
  checkpoint) or raises :class:`~repro.checkpoint.RunInterrupted` with
  ``reason="budget"`` (checkpoint); Ctrl-C saves and raises
  ``RunInterrupted``; any other failure saves and re-raises.

An engine supplies a pure chunk function ``task -> payload``, its
``stages`` and ``assemble(chunks, partial)``.  A task is a tuple whose
first item is the chunk's ``(start, stop)`` sample bounds; a payload
carries ``start``/``stop`` and a ``ledger`` list, and is what
:class:`~repro.checkpoint.McCheckpointStore` persists.  ``stages`` is
either one ``{chunk_id: task}`` dict or a generator yielding such
dicts; each ``yield`` evaluates to the stage's chunk payloads in
chunk-id order, which lets an engine derive the next stage's tasks
from the previous one (the high-sigma pilot refines its proposal that
way).  Chunks restored from a checkpoint are not re-evaluated but are
still handed back, so a resumed run derives the same later stages.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Mapping, \
    Optional, Union

from repro import resilience, telemetry
from repro.checkpoint import CheckpointError, McCheckpointStore, RunInterrupted
from repro.faultinject import set_current_sample
from repro.parallel import FailureLedger, FailureRecord, ParallelMap
from repro.resilience import BudgetExpiredError, DeadlineBudget

#: Samples per work chunk of both engines.  Part of the
#: reproducibility contract: the chunk grid (and hence the per-chunk
#: seed streams) depends only on this value and the seed, never on
#: ``jobs``/``backend`` — changing it changes the drawn variates,
#: changing ``jobs`` does not.
DEFAULT_CHUNK_SIZE = 32

Stage = Mapping[int, Any]
Stages = Union[Stage, Generator[Stage, List[dict], None]]


def accel_manifest(batch_size: Optional[int]) -> dict:
    """Accelerator configuration that affects bit-identity of results.

    Persisted in the checkpoint manifest so a ``--resume`` under a
    different configuration fails loudly (exit 2) instead of silently
    splicing chunks solved by different code paths, and part of the
    serve cache key so two daemons configured differently never serve
    each other's results.  The C kernel and the numpy stamping agree
    only to final-ulp rounding, FD and analytic Jacobians take
    different Newton paths, and the batched engines take different
    damped-iteration paths than the scalar ladder — close enough for
    physics, not for bit-identity.
    """
    from repro.circuit import _ckernel, mna
    from repro.circuit.mosfet import jacobian_mode

    return {
        "batch_size": batch_size,
        "ckernel": bool(_ckernel.available()),
        "sparse": bool(mna.sparse_available()),
        "sparse_min_size": int(mna.sparse_min_size()),
        "jacobians": jacobian_mode(),
    }


def run_identity(fixture, specs, tech) -> dict:
    """What a run computes on, for the checkpoint manifest: the node,
    each spec's bounds (plus a transient spec's integration settings
    and a :func:`functools.partial` extractor's keywords) and a hash of
    the template circuit's :func:`~repro.circuit.parser.canonical_cards`
    — so a resume never splices chunks of two different runs."""
    from repro.circuit.parser import canonical_cards
    from repro.obs.runlog import content_hash

    def identity(spec) -> dict:
        entry = {"name": spec.name, "bounds": [spec.lower, spec.upper]}
        if hasattr(spec, "t_stop_s"):
            entry["transient"] = [spec.t_stop_s, spec.dt_s, spec.method,
                                  spec.lte_rtol]
        if isinstance(spec.extractor, functools.partial):
            entry["keywords"] = {key: repr(value) for key, value
                                 in sorted(spec.extractor.keywords.items())}
        return entry

    return {"tech": tech.name, "specs": [identity(s) for s in specs],
            "circuit": content_hash(canonical_cards(fixture.circuit))}


@dataclass(frozen=True)
class _ChunkCall:
    """One chunk as shipped to a worker (picklable for processes)."""

    evaluate: Callable[[Any], dict]
    task: Any
    kind: str
    id_prefix: Optional[str]
    """Span-id namespace of the chunk's worker session; None when the
    run is not traced."""
    t_enqueued: float
    profile: bool


def _run_chunk(call: _ChunkCall) -> dict:
    """Evaluate one chunk inside its telemetry and profiling wrappers.

    The payload gains the resilience events the chunk raised (as
    run-level ledger records) and, when collected, the chunk's
    ``telemetry`` and ``profile`` exports — the same transport as the
    results, so the process backend needs no side channel.
    """
    if call.profile:
        from repro.obs.profiler import worker_profile

        with worker_profile(True) as prof:
            payload = _run_chunk(replace(call, profile=False))
        payload["profile"] = prof.snapshot()
        return payload
    start, stop = call.task[0]
    with telemetry.worker_session(call.id_prefix is not None,
                                  call.id_prefix or "") as tsession:
        chunk_ctx = telemetry.NULL_SPAN
        if tsession is not None:
            queue_wait_s = max(0.0, time.time() - call.t_enqueued)
            tsession.metrics.observe("engine.queue_wait_s", queue_wait_s)
            chunk_ctx = tsession.tracer.span(
                "chunk", kind=call.kind, start=start, stop=stop,
                worker=telemetry.worker_label(),
                queue_wait_s=round(queue_wait_s, 6))
        try:
            with chunk_ctx:
                payload = call.evaluate(call.task)
        finally:
            set_current_sample(None)
        events = FailureLedger()
        resilience.supervisor().drain_into(events)
        payload["ledger"] = payload["ledger"] + events.to_list()
        if tsession is not None:
            payload["telemetry"] = tsession.export()
        return payload


def _one_stage(stage: Stage) -> Generator[Stage, List[dict], None]:
    yield stage


def _restore(store: McCheckpointStore, run_params: dict, resume: bool,
             metrics: telemetry.MetricsRegistry,
             session: Optional[telemetry.TelemetrySession]
             ) -> Dict[int, dict]:
    """Completed chunks of a resumed run ({} for a fresh checkpoint)."""
    if not resume:
        if store.exists():
            # Refuse to silently clobber an existing checkpoint the
            # caller did not ask to resume.
            store.load(run_params)  # validates it is OUR run at least
            raise CheckpointError(
                f"checkpoint already exists at {store.path}; pass "
                f"resume=True to continue it or remove the directory")
        return {}
    if not store.exists():
        raise CheckpointError(
            f"resume requested but no checkpoint at {store.path}")
    completed, _ = store.load(run_params)
    restored = store.load_metrics()
    metrics.merge(restored)
    if session is not None:
        session.metrics.merge(restored)
    return completed


def run_chunks(evaluate: Callable[[Any], dict], stages: Stages,
               assemble: Callable[[List[dict], bool], Any], *,
               kind: str, n_samples: int, run_params: dict,
               jobs: int = 1, backend: str = "auto",
               checkpoint: Optional[Union[str, Path]] = None,
               resume: bool = False, checkpoint_every: int = 1,
               budget: Optional[DeadlineBudget] = None,
               progress: Optional[Callable[[dict], None]] = None,
               span_attrs: Optional[dict] = None):
    """Evaluate every stage's chunks and return ``assemble(chunks, False)``.

    ``run_params`` is the run identity a checkpoint must match;
    ``kind`` names the run in spans; ``span_attrs`` adds attributes to
    the ``run`` span.  ``budget`` is the same
    :class:`~repro.resilience.DeadlineBudget` the engine's tasks check
    cooperatively — here it bounds the pool wait.  ``progress`` is
    called after every chunk with ``{"done", "total", "elapsed_s"}`` in
    samples.  See the module docstring for the stop semantics.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    if isinstance(stages, Mapping):
        stages = _one_stage(stages)
    session = telemetry.active()
    mapper = ParallelMap(backend=backend, n_jobs=jobs)
    # Chunk-level profiling only under the process backend: serial/
    # thread chunks run in this process, where the ambient sampler
    # already sees them — a second sampler would double-count.
    from repro.obs.profiler import active as profiler_active

    profile = mapper.backend == "process" and profiler_active() is not None
    store = McCheckpointStore(checkpoint) if checkpoint is not None else None
    metrics = telemetry.MetricsRegistry()
    run_ctx = telemetry.NULL_SPAN if session is None else \
        session.tracer.span("run", kind=kind, n_samples=n_samples,
                            jobs=jobs, backend=backend,
                            **(span_attrs or {}))
    with run_ctx as run_span:
        run_span_id = None if session is None else run_span.span_id
        completed = {} if store is None else _restore(
            store, run_params, resume, metrics, session)
        done = sum(c["stop"] - c["start"] for c in completed.values())
        since_save = 0
        t_start = time.time()

        def save() -> None:
            if store is not None:
                store.save(run_params, completed,
                           metrics=metrics.snapshot())

        def run_stage(stage: Stage) -> None:
            nonlocal done, since_save
            t_enqueued = time.time()
            pending = [cid for cid in stage if cid not in completed]
            calls = [_ChunkCall(
                evaluate, stage[cid], kind,
                None if session is None else f"{run_span_id}/c{cid}.",
                t_enqueued, profile) for cid in pending]
            for index, chunk in mapper.map_completed(_run_chunk, calls,
                                                     deadline=budget):
                # Observability payloads leave the chunk BEFORE it
                # reaches the store — checkpoints hold results only.
                payload = chunk.pop("telemetry", None)
                if payload is not None:
                    metrics.merge(payload.get("metrics"))
                    if session is not None:
                        session.merge_worker(payload, run_span_id)
                stacks = chunk.pop("profile", None)
                if stacks:
                    prof = profiler_active()
                    if prof is not None:
                        prof.absorb(stacks)
                completed[pending[index]] = chunk
                done += chunk["stop"] - chunk["start"]
                if progress is not None:
                    progress({"done": done, "total": n_samples,
                              "elapsed_s": time.time() - t_start})
                since_save += 1
                if since_save >= checkpoint_every:
                    save()
                    since_save = 0

        try:
            stage = next(stages)
            while True:
                try:
                    run_stage(stage)
                except BaseException as exc:
                    # Let the engine's open stage context (its spans)
                    # see the failure before it is handled below.
                    stages.throw(exc)
                    raise
                try:
                    stage = stages.send([completed[cid] for cid in stage])
                except StopIteration:
                    break
        except BudgetExpiredError as exc:
            save()
            result = assemble(list(completed.values()), True)
            if store is not None:
                raise RunInterrupted(
                    f"wall-clock budget expired with {done}/{n_samples} "
                    f"samples complete; checkpoint written to {store.path}",
                    checkpoint_path=store.path, partial_result=result,
                    reason="budget") from exc
            # No checkpoint: hand back whatever finished, visibly
            # degraded, instead of raising away completed work.
            result.ledger.records.append(FailureRecord(
                index=-1, label="resilience:budget",
                exception_type=type(exc).__name__, message=str(exc),
                attempts=0, convergence_report=None))
            result.ledger.dedupe_run_level()
            result.ledger.sort()
            return result
        except (KeyboardInterrupt, SystemExit) as exc:
            if store is None:
                raise
            save()
            raise RunInterrupted(
                f"run interrupted with {done}/{n_samples} samples "
                f"complete; checkpoint written to {store.path}",
                checkpoint_path=store.path,
                partial_result=assemble(list(completed.values()),
                                        True)) from exc
        except BaseException:
            # Persist whatever finished before propagating the failure —
            # a crashed run resumes from its last good chunk.
            save()
            raise
        save()
        return assemble(list(completed.values()), False)
