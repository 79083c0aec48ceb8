"""Job lifecycle and analysis execution for the serve daemon.

A :class:`Job` is the server-side state of one request: queued →
running → (done | failed | cancelled), with an append-only event list
(the NDJSON stream) and a condition variable for waiters.  The
*result envelope* — the analysis payload a job produces — is a pure
function of the job spec: no timestamps, ids, or scheduling facts ever
enter it, which is what makes the content-addressed result cache
bit-identical by construction.  Wall-clock facts live in the job
snapshot wrapper instead.

:class:`JobRunner` executes one job on the calling worker thread:
each job runs under its own :func:`repro.telemetry.session`, the
engine picks its parallel backend exactly as the CLI would, progress
callbacks become heartbeat events, and the final metrics snapshot is
merged into the server-wide registry (the ``/metrics`` source) and
recorded in the run registry as a ``serve.<analysis>`` record with the
service outcome taxonomy: ``ok`` | ``degraded`` | ``refused`` |
``budget`` | ``interrupted`` | ``error``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.serve.jobspec import JobSpec, JobSpecError
from repro.workloads import WorkloadError

__all__ = ["Job", "JobRunner", "OUTCOME_EXIT_CODES", "TERMINAL_STATES"]

TERMINAL_STATES = ("done", "failed", "cancelled")

#: NDJSON stream framing fields; caller-supplied event fields (engine
#: progress dicts can carry any name) must never overwrite them.
_FRAMING_KEYS = frozenset(("seq", "event", "job_id"))

#: Service outcome → the exit code the same outcome carries in the CLI
#: contract (see ``EXIT_CODE_DOC``): recorded in run records so serve
#: and CLI runs diff cleanly against each other.
OUTCOME_EXIT_CODES = {
    "ok": 0,
    "degraded": 2,
    "refused": 2,
    "budget": 2,
    "interrupted": 130,
    "cancelled": 130,
    "error": 1,
}


class Job:
    """Server-side state of one submitted analysis request."""

    def __init__(self, job_id: str, spec: JobSpec, cache_key: str,
                 capabilities: Optional[dict] = None):
        self.id = job_id
        self.spec = spec
        self.cache_key = cache_key
        #: The capability flags ``cache_key`` was computed under, and
        #: the flags read when the job's analysis finished: a breaker
        #: that trips in between makes them differ.
        self.capabilities = capabilities
        self.ran_under: Optional[dict] = None
        self.state = "queued"
        self.outcome: Optional[str] = None
        self.result: Optional[dict] = None
        self.result_text: Optional[str] = None
        self.error: Optional[str] = None
        self.cached = False
        self.session_reused: Optional[bool] = None
        self.checkpoint_dir: Optional[str] = None
        self.queue_rank: Optional[Tuple[int, int, int]] = None
        self.progress: Dict[str, float] = {}
        self.t_submit = time.time()
        self.t_start: Optional[float] = None
        self.t_end: Optional[float] = None
        self.events: List[dict] = []
        self._cond = threading.Condition()

    # -- events and state ---------------------------------------------
    def add_event(self, kind: str, **fields) -> None:
        with self._cond:
            event = {"seq": len(self.events), "event": kind,
                     "job_id": self.id}
            for key, value in fields.items():
                event[f"x_{key}" if key in _FRAMING_KEYS else key] = value
            self.events.append(event)
            self._cond.notify_all()

    def events_after(self, cursor: int) -> List[dict]:
        with self._cond:
            return list(self.events[cursor:])

    def set_state(self, state: str) -> None:
        with self._cond:
            self.state = state
            self._cond.notify_all()

    def heartbeat(self, state: dict) -> None:
        """Engine progress callback → job progress + NDJSON event."""
        self.progress = dict(state)
        self.add_event("heartbeat", **state)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        with self._cond:
            while self.state not in TERMINAL_STATES:
                left = (None if deadline is None
                        else deadline - time.monotonic())
                if left is not None and left <= 0:
                    return False
                self._cond.wait(left)
            return True

    def finish(self, state: str, outcome: str,
               result: Optional[dict] = None,
               result_text: Optional[str] = None,
               error: Optional[str] = None) -> None:
        self.t_end = time.time()
        self.outcome = outcome
        self.result = result
        self.result_text = result_text
        self.error = error
        self.add_event("finished", state=state, outcome=outcome)
        self.set_state(state)

    def snapshot(self, include_result: bool = True) -> dict:
        """The ``GET /jobs/<id>`` payload."""
        spec = self.spec
        payload = {
            "id": self.id,
            "analysis": spec.analysis,
            "client": spec.client,
            "priority": spec.priority,
            "state": self.state,
            "outcome": self.outcome,
            "cached": self.cached,
            "cache_key": self.cache_key,
            "capabilities": self.capabilities,
            "ran_under": self.ran_under,
            "session_reused": self.session_reused,
            "progress": self.progress,
            "error": self.error,
            "checkpoint_dir": self.checkpoint_dir,
            "resumable": self.checkpoint_dir is not None
            and self.outcome in ("budget", "interrupted"),
            "t_submit": self.t_submit,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "events": len(self.events),
        }
        if include_result and self.terminal:
            payload["result"] = self.result
        return payload


class JobRunner:
    """Executes jobs on worker threads against shared service caches."""

    def __init__(self, sessions, metrics, spool: Optional[str] = None,
                 drain_event: Optional[threading.Event] = None,
                 chaos: bool = False, record_runs: bool = True,
                 goldens_dir: str = "goldens", lanes: int = 1,
                 results=None):
        self.sessions = sessions
        self.metrics = metrics
        self.spool = spool
        self.drain_event = drain_event
        self.chaos = chaos
        self.record_runs = record_runs
        self.goldens_dir = goldens_dir
        self.lanes = max(1, lanes)
        self.results = results

    def _jobs_for(self, spec: JobSpec) -> int:
        """Fair-share worker count: ``lanes`` concurrent jobs split the
        machine; worker count never changes results, so capping is safe."""
        from repro.parallel import fair_share_jobs

        return fair_share_jobs(spec.jobs, self.lanes)

    # -- budgets -------------------------------------------------------
    def _budget(self, spec: JobSpec):
        from repro.resilience import CancellableBudget

        timeout = spec.timeout_s if spec.timeout_s is not None else 3600.0
        return CancellableBudget.after(timeout, self.drain_event,
                                       reason="cancelled by server drain")

    def _interrupt_reason(self, exc) -> str:
        if self.drain_event is not None and self.drain_event.is_set():
            return "interrupted"
        return "budget" if getattr(exc, "reason", "") == "budget" \
            else "interrupted"

    # -- top-level execution ------------------------------------------
    def execute(self, job: Job) -> None:
        from repro import telemetry
        from repro.checkpoint import CheckpointError, RunInterrupted
        from repro.obs.runlog import capability_flags
        from repro.resilience import BudgetExpiredError

        spec = job.spec
        job.t_start = time.time()
        job.set_state("running")
        job.add_event("started", analysis=spec.analysis)
        meta = {"command": f"serve.{spec.analysis}", "job": job.id,
                "tech": spec.tech, "seed": spec.seed,
                "jobs": spec.jobs, "backend": spec.backend}
        outcome, result, error = "error", None, None
        with telemetry.session(meta=meta) as tsession:
            budget = self._budget(spec)
            try:
                with telemetry.span(f"serve.job.{spec.analysis}",
                                    job=job.id):
                    result, outcome = self._dispatch(job, budget)
            except (JobSpecError, WorkloadError) as exc:
                outcome, error = "refused", str(exc)
            except BudgetExpiredError as exc:
                outcome, error = ("interrupted" if self.drain_event
                                  is not None and self.drain_event.is_set()
                                  else "budget"), str(exc)
            except RunInterrupted as exc:
                outcome = self._interrupt_reason(exc)
                error = str(exc)
                result = self._partial_envelope(job, exc)
            except CheckpointError as exc:
                outcome, error = "refused", str(exc)
            except Exception as exc:  # noqa: BLE001 — jobs never kill workers
                outcome, error = "error", f"{type(exc).__name__}: {exc}"
            snapshot = tsession.metrics.snapshot()
        flags = capability_flags()
        job.ran_under = job.capabilities if flags == job.capabilities \
            else flags
        self._account(job, outcome, snapshot)
        self._finalize(job, outcome, result, error)

    def _account(self, job: Job, outcome: str, snapshot: dict) -> None:
        from repro.obs.runlog import record_run
        from repro.telemetry import SERVE_LATENCY_BUCKETS_S

        self.metrics.merge(snapshot)
        self.metrics.inc(f"serve.jobs.{outcome}")
        self.metrics.observe("serve.job.seconds",
                             time.time() - (job.t_start or time.time()),
                             SERVE_LATENCY_BUCKETS_S)
        if self.record_runs:
            record_run(f"serve.{job.spec.analysis}", job.spec.to_config(),
                       outcome=outcome,
                       exit_code=OUTCOME_EXIT_CODES.get(outcome, 1),
                       seed=job.spec.seed, capabilities=job.ran_under,
                       metrics=snapshot, t_start=job.t_start,
                       extra={"job_id": job.id,
                              "cache_key": job.cache_key})

    def _finalize(self, job: Job, outcome: str, result, error) -> None:
        from repro.serve.cache import canonical_json
        from repro.serve.jobspec import UNCACHED_ANALYSES

        if outcome in ("ok", "degraded"):
            text = canonical_json(result)
            # A result is published under the key of the flags it was
            # keyed with only if it ran under the same flags.
            if self.results is not None \
                    and job.spec.analysis not in UNCACHED_ANALYSES \
                    and job.ran_under == job.capabilities:
                # Publish before the job turns terminal: a client that
                # polls "done" and instantly resubmits must hit.
                self.results.put(job.cache_key, text)
            job.finish("done", outcome, result=result, result_text=text)
        elif outcome in ("budget", "interrupted"):
            text = canonical_json(result) if result is not None else None
            job.finish("done", outcome, result=result, result_text=text,
                       error=error)
        else:  # refused | error
            job.finish("failed", outcome, error=error)

    def _partial_envelope(self, job: Job, exc) -> Optional[dict]:
        """Partial-result envelope for an interrupted/budgeted run."""
        partial = getattr(exc, "partial_result", None)
        if exc.checkpoint_path is not None:
            job.checkpoint_dir = str(exc.checkpoint_path)
        if partial is None:
            return None
        if hasattr(partial, "yield_fraction"):
            return self._mc_envelope(job.spec, partial, partial=True)
        if hasattr(partial, "failure_probability"):
            return self._highsigma_envelope(job.spec, partial, partial=True)
        return None

    # -- dispatch ------------------------------------------------------
    def _dispatch(self, job: Job, budget) -> Tuple[dict, str]:
        method = getattr(self, f"_run_{job.spec.analysis}")
        return method(job, budget)

    def _tech(self, spec: JobSpec):
        if spec.tech is None:
            return None  # op on a linear netlist needs no node
        from repro.technology import get_node

        return get_node(spec.tech)

    # -- fixtures through the session cache ---------------------------
    @contextmanager
    def _lease(self, job: Job, shared: bool = False):
        """Lease the compiled fixture for a job's workload (or, for op,
        its netlist), keyed by the workload fingerprint.

        Monte-Carlo and high-sigma treat the fixture as a read-only
        template (every chunk clones it) and take a ``shared`` lease
        held for the whole run, so same-workload read-only jobs overlap
        freely.  Callers that mutate in place (op's warm start, corners'
        serial PVT sweep) take the default exclusive lease, which the
        shared holders exclude — a concurrent mutator can never skew
        the parameters an MC chunk clones from.
        """
        from repro.workloads import netlist_fixture

        spec = job.spec
        if spec.workload is not None:
            key, build = spec.workload.fingerprint, spec.workload.fixture
        else:
            key = ("netlist", spec.netlist_hash, spec.tech)

            def build():
                return netlist_fixture(spec.netlist, self._tech(spec))
        with self.sessions.lease(key, build, shared=shared) \
                as (fixture, reused):
            job.session_reused = reused
            yield fixture, reused

    # -- mc specs ------------------------------------------------------
    def _mc_specs(self, job: Job, fixture):
        """The spec list for an mc/corners job, fault-wrapped if asked."""
        spec = job.spec
        params = spec.params
        workload = spec.workload
        if workload.name == "node":
            node = workload.params["node"]
            if node not in fixture.circuit.node_names:
                raise JobSpecError(f"node {node!r} not in netlist "
                                   f"(nodes: "
                                   f"{sorted(fixture.circuit.node_names)})")
        metric, _text = workload.spec()
        fault = params.get("fault")
        if fault is not None:
            if not self.chaos:
                raise JobSpecError(
                    "fault injection requires the server's --chaos flag")
            if spec.backend == "process":
                raise JobSpecError(
                    "fault injection wraps are not picklable; use the "
                    "serial or thread backend")
            if not isinstance(fault, dict) \
                    or not isinstance(fault.get("kill_on"), list):
                raise JobSpecError(
                    "param fault must be {'kill_on': [sample indices]}")
            from dataclasses import replace

            from repro.faultinject import killing_extractor

            metric = replace(metric, extractor=killing_extractor(
                metric.extractor, kill_on=fault["kill_on"]))
        return [metric]

    # -- analyses ------------------------------------------------------
    def _run_op(self, job: Job, budget) -> Tuple[dict, str]:
        from repro.circuit.dc import dc_operating_point, warm_start

        budget.check("serve.op")
        with self._lease(job) as (fixture, _reused):
            circuit = fixture.circuit
            with warm_start(circuit):
                solution = dc_operating_point(circuit)
            nodes = {name: solution.voltage(name)
                     for name in sorted(circuit.node_names)}
        envelope = {"analysis": "op", "nodes": nodes,
                    "netlist_hash": job.spec.netlist_hash}
        return envelope, "ok"

    def _run_mc(self, job: Job, budget) -> Tuple[dict, str]:
        from repro.core import MonteCarloYield

        spec = job.spec
        tech = self._tech(spec)
        samples = spec.analysis_params["samples"]
        chunk_size = spec.analysis_params["chunk_size"]
        checkpoint = self._checkpoint_dir(job)
        with self._lease(job, shared=True) as (fixture, _reused):
            specs = self._mc_specs(job, fixture)
            engine = MonteCarloYield(fixture, specs, tech)
            result = engine.run(
                samples, seed=spec.seed, jobs=self._jobs_for(spec),
                backend=spec.backend, batch_size=spec.batch_size,
                checkpoint=checkpoint, progress=job.heartbeat,
                budget=budget, chunk_size=chunk_size)
        envelope = self._mc_envelope(spec, result)
        if result.n_evaluated < result.n_samples:
            return envelope, "budget"
        return envelope, "degraded" if result.is_degraded else "ok"

    def _mc_envelope(self, spec: JobSpec, result,
                     partial: bool = False) -> dict:
        from repro.obs.runlog import ledger_digest

        lo, hi = result.confidence_interval()
        metrics = {}
        for name in sorted(result.values):
            stats = {}
            for stat in ("mean", "sigma"):
                try:
                    stats[stat] = float(getattr(result, stat)(name))
                except ValueError:
                    stats[stat] = None
            metrics[name] = stats
        return {
            "analysis": "mc",
            "n_samples": int(result.n_samples),
            "n_evaluated": int(result.n_evaluated),
            "yield_fraction": float(result.yield_fraction),
            "ci95": [float(lo), float(hi)],
            "metrics": metrics,
            "failure_counts": {k: int(v) for k, v in sorted(
                result.failure_counts.items())},
            "ledger": ledger_digest(result.ledger),
            "degraded": bool(result.is_degraded),
            "partial": bool(partial
                            or result.n_evaluated < result.n_samples),
        }

    def _run_corners(self, job: Job, budget) -> Tuple[dict, str]:
        from repro.core import CornerAnalysis

        spec = job.spec
        tech = self._tech(spec)
        budget.check("serve.corners")
        vdd_source = spec.analysis_params["vdd_source"]
        with self._lease(job) as (fixture, _reused):
            specs = self._mc_specs(job, fixture)
            try:
                analysis = CornerAnalysis(fixture, specs, tech,
                                          vdd_source_name=vdd_source)
            except (KeyError, TypeError) as exc:
                raise JobSpecError(
                    f"corners needs a vdd voltage source "
                    f"(param vdd_source): {exc}") from exc
            result = analysis.run(jobs=self._jobs_for(spec),
                                  backend=spec.backend)
        budget.check("serve.corners")
        values = {name: dict(sorted(per.items()))
                  for name, per in sorted(result.values.items())}
        worst = {}
        for metric in specs:
            label, value = result.worst_case(metric)
            worst[metric.name] = {"point": label, "value": value,
                                  "passes": result.all_pass(metric)}
        envelope = {
            "analysis": "corners",
            "n_points": len(result.points),
            "values": values,
            "worst_case": worst,
            "degraded": result.is_degraded,
        }
        return envelope, "degraded" if result.is_degraded else "ok"

    def _run_aging(self, job: Job, budget) -> Tuple[dict, str]:
        from repro.aging import degradation_outlook

        spec = job.spec
        budget.check("serve.aging")
        years = spec.analysis_params["years"]
        temp_c = spec.analysis_params["temp_c"]
        envelope = {"analysis": "aging", "years": years, "temp_c": temp_c,
                    **degradation_outlook(self._tech(spec), years, temp_c)}
        return envelope, "ok"

    def _run_highsigma(self, job: Job, budget) -> Tuple[dict, str]:
        from repro.core import HighSigmaYield

        spec = job.spec
        tech = self._tech(spec)
        checked = spec.analysis_params
        samples = checked["samples"]
        shift_sigma = checked["shift_sigma"]
        surrogate = checked["surrogate"]
        metric, _text = spec.workload.spec()
        checkpoint = self._checkpoint_dir(job)
        with self._lease(job, shared=True) as (fixture, _reused):
            engine = HighSigmaYield(fixture, metric, tech)
            result = engine.run(
                samples, shift_sigma=shift_sigma, seed=spec.seed,
                jobs=self._jobs_for(spec), backend=spec.backend,
                batch_size=spec.batch_size, surrogate=surrogate,
                checkpoint=checkpoint, progress=job.heartbeat,
                budget=budget)
        envelope = self._highsigma_envelope(spec, result)
        if result.n_evaluated < samples:
            return envelope, "budget"
        return envelope, "degraded" if result.is_degraded else "ok"

    def _highsigma_envelope(self, spec: JobSpec, result,
                            partial: bool = False) -> dict:
        return {
            "analysis": "highsigma",
            "n_samples": int(result.n_samples),
            "n_evaluated": int(result.n_evaluated),
            "failure_probability": float(result.failure_probability),
            "standard_error": float(result.standard_error),
            "sigma_level": float(result.sigma_level),
            "full_solver_calls": int(result.full_solver_calls),
            "degraded": bool(result.is_degraded),
            "partial": bool(partial),
        }

    def _run_verify(self, job: Job, budget) -> Tuple[dict, str]:
        from repro.verify import diff_goldens, load_goldens, run_experiments

        spec = job.spec
        ids = spec.params.get("ids")
        include_slow = spec.analysis_params["include_slow"]
        goldens_dir = spec.analysis_params["goldens"]
        if goldens_dir is None:
            goldens_dir = self.goldens_dir
        budget.check("serve.verify")
        try:
            results = run_experiments(include_slow=bool(include_slow),
                                      ids=ids)
        except KeyError as exc:
            raise JobSpecError(str(exc)) from exc
        budget.check("serve.verify")
        try:
            goldens = load_goldens(goldens_dir)
        except (OSError, ValueError) as exc:
            raise JobSpecError(
                f"cannot load goldens from {goldens_dir!r}: {exc}") from exc
        drifts = diff_goldens(results, goldens)
        envelope = {
            "analysis": "verify",
            "experiments": sorted(results),
            "drifts": [{"kind": d.kind, "experiment": d.experiment,
                        "quantity": d.quantity}
                       for d in drifts],
            "passed": not drifts,
        }
        return envelope, "ok" if not drifts else "degraded"

    # -- helpers -------------------------------------------------------
    def _checkpoint_dir(self, job: Job) -> Optional[str]:
        if not job.spec.checkpoint:
            return None
        if not self.spool:
            raise JobSpecError(
                "checkpoint:true needs the server started with --spool")
        import os

        path = os.path.join(self.spool, job.id)
        job.checkpoint_dir = path
        return path
