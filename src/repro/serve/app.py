"""The ``repro serve`` daemon: analyses as a long-lived HTTP service.

Pure-stdlib asyncio HTTP/1.1 (``Connection: close`` per request — no
keep-alive state machine to get wrong), with the blocking analysis work
on a dedicated worker-thread pool fed by the priority
:class:`~repro.serve.queue.JobQueue`.  The asyncio loop only parses
requests, consults the result cache, and streams job events; every
engine invocation happens on a worker thread under its own telemetry
session.

Endpoints::

    POST /jobs              submit a job spec (JSON body)
                            → 200 cached result | 202 accepted
                            | 400 refused | 429 backpressure
                            | 503 draining
    GET  /jobs              recent job snapshots
    GET  /jobs/<id>         one job's snapshot (result when terminal)
    GET  /jobs/<id>/events  NDJSON stream of job events (heartbeats…)
    GET  /results/<key>     raw canonical result text for a cache key
    GET  /metrics           Prometheus text 0.0.4 (obs.promexp)
    GET  /healthz           liveness + queue/drain state

Graceful drain (SIGTERM/SIGINT or :meth:`ServeApp.request_stop`):
stop accepting (503), cancel queued jobs, trip every running job's
:class:`~repro.resilience.CancellableBudget` so the engines stop at the
next chunk boundary — checkpointing jobs write a final resumable
checkpoint and return partial results — then join the workers within
``drain_grace_s`` and exit 0.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import re
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.obs.runlog import capability_flags
from repro.serve.cache import EngineSessionCache, ResultCache
from repro.serve.jobs import Job, JobRunner
from repro.serve.jobspec import (
    CACHE_KEY_LENGTH,
    UNCACHED_ANALYSES,
    JobSpecError,
    cache_key,
    parse_job_spec,
)
from repro.serve.queue import Backpressure, JobQueue

__all__ = ["ServeApp", "ServeConfig"]

#: ``GET /results/<key>`` is raw client input; only keys in the
#: generated format may reach the cache (the disk tier opens files
#: named after the key, so anything else is a traversal attempt).
_RESULT_KEY = re.compile(r"[0-9a-f]{%d}" % CACHE_KEY_LENGTH)

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

JSON_TYPE = "application/json; charset=utf-8"
NDJSON_TYPE = "application/x-ndjson; charset=utf-8"


@dataclass
class ServeConfig:
    """Knobs for one daemon instance (all CLI-exposed)."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_depth: int = 16
    cache_entries: int = 256
    session_entries: int = 8
    drain_grace_s: float = 10.0
    cache_dir: Optional[str] = None
    spool: Optional[str] = None
    record_runs: bool = True
    chaos: bool = False
    goldens_dir: str = "goldens"
    max_body_bytes: int = 4 << 20
    max_jobs_tracked: int = 1024
    meta: dict = field(default_factory=dict)


class _PayloadTooLarge(ValueError):
    pass


class ServeApp:
    """One daemon instance; also drivable in-process by tests."""

    def __init__(self, config: Optional[ServeConfig] = None):
        from repro.telemetry import MetricsRegistry

        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry()
        self.cache = ResultCache(self.config.cache_entries,
                                 root=self.config.cache_dir,
                                 metrics=self.metrics)
        self.sessions = EngineSessionCache(self.config.session_entries,
                                           metrics=self.metrics)
        self.queue = JobQueue(self.config.queue_depth)
        self.drain_event = threading.Event()
        self.runner = JobRunner(self.sessions, self.metrics,
                                spool=self.config.spool,
                                drain_event=self.drain_event,
                                chaos=self.config.chaos,
                                record_runs=self.config.record_runs,
                                goldens_dir=self.config.goldens_dir,
                                lanes=self.config.workers,
                                results=self.cache)
        #: The capability flags every submit is keyed under.  A probe's
        #: verdict holds for the life of the process, so one read at
        #: start-up serves every job; jobs share this read-only dict.
        #: The read probes every capability: do it here, on the
        #: constructing thread, not in the first submit's executor
        #: thread, whose malloc arena would keep the probe's allocations
        #: (about 0.5 MB more peak RSS in a daemon).
        self.capabilities = capability_flags()
        self.t_start = time.time()
        self.port: Optional[int] = None
        self._ids = itertools.count(1)
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._jobs_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._running = 0
        self._state_lock = threading.Lock()
        self._draining = False
        self._drain_source: Optional[str] = None
        self._stop_workers = False
        self._worker_threads: List[threading.Thread] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_future: Optional[asyncio.Future] = None
        self._ready = threading.Event()

    # ------------------------------------------------------------------
    # Synchronous core (worker/test facing)
    # ------------------------------------------------------------------
    def submit(self, payload) -> Tuple[int, dict]:
        """Handle one ``POST /jobs`` body; returns (status, response)."""
        if self._draining:
            return 503, {"error": "server is draining",
                         "outcome": "refused"}
        try:
            spec = parse_job_spec(payload)
        except JobSpecError as exc:
            self.metrics.inc("serve.requests.refused")
            return 400, {"error": str(exc), "outcome": "refused"}
        key = cache_key(spec, self.capabilities)
        if spec.analysis not in UNCACHED_ANALYSES:
            text = self.cache.get(key)
            if text is not None:
                result = json.loads(text)
                outcome = ("degraded" if isinstance(result, dict)
                           and result.get("degraded") else "ok")
                return 200, {"cached": True, "cache_key": key,
                             "outcome": outcome, "result": result}
        job = Job(f"j{next(self._ids):06d}", spec, key, self.capabilities)
        # The draining re-check and the enqueue share the state lock:
        # begin_drain flips the flag under the same lock before it
        # drains the queue, so a job either lands before the sweep
        # (and is cancelled by it) or is refused here — never enqueued
        # into a queue no worker will read again.
        with self._state_lock:
            if self._draining:
                return 503, {"error": "server is draining",
                             "outcome": "refused"}
            try:
                job.queue_rank = self.queue.put(job, spec.priority,
                                                spec.client)
            except Backpressure as exc:
                self.metrics.inc("serve.backpressure.rejections")
                return 429, {"error": str(exc),
                             "retry_after_s": exc.retry_after_s}
            self._submitted += 1
        with self._jobs_lock:
            self._jobs[job.id] = job
            self._evict_jobs_locked()
        self.metrics.inc("serve.jobs.submitted")
        job.add_event("queued", priority=spec.priority,
                      rank=list(job.queue_rank))
        return 202, {"cached": False, "job_id": job.id, "cache_key": key,
                     "state": "queued"}

    def _evict_jobs_locked(self) -> None:
        while len(self._jobs) > self.config.max_jobs_tracked:
            victim = next((jid for jid, j in self._jobs.items()
                           if j.terminal), None)
            if victim is None:
                break
            del self._jobs[victim]

    def get_job(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def job_payload(self, job_id: str) -> Tuple[int, dict]:
        job = self.get_job(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        return 200, job.snapshot()

    def jobs_payload(self, limit: int = 200) -> Tuple[int, dict]:
        with self._jobs_lock:
            jobs = list(self._jobs.values())[-limit:]
        return 200, {"jobs": [j.snapshot(include_result=False)
                              for j in jobs]}

    def healthz_payload(self) -> dict:
        with self._state_lock:
            running, completed, submitted = (self._running,
                                             self._completed,
                                             self._submitted)
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": time.time() - self.t_start,
            "queued": self.queue.depth,
            "running": running,
            "submitted": submitted,
            "completed": completed,
            "workers": self.config.workers,
        }

    def metrics_text(self) -> str:
        from repro.obs.promexp import render_exposition

        with self._state_lock:
            completed, submitted = self._completed, self._submitted
        meta = {"command": "serve", "host": self.config.host,
                "port": str(self.port or self.config.port),
                "workers": str(self.config.workers)}
        meta.update({k: str(v) for k, v in self.config.meta.items()})
        heartbeat = {"done": completed, "total": submitted,
                     "elapsed_s": time.time() - self.t_start}
        return render_exposition(self.metrics.snapshot(), meta=meta,
                                 heartbeat=heartbeat)

    def result_text(self, key: str) -> Optional[str]:
        if _RESULT_KEY.fullmatch(key) is None:
            return None  # not a generated key: a miss, never a path
        return self.cache.get(key)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def start_workers(self) -> None:
        for index in range(self.config.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"serve-worker-{index}",
                                      daemon=True)
            thread.start()
            self._worker_threads.append(thread)

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.get(timeout=0.2)
            if job is None:
                if self._stop_workers:
                    return
                continue
            if self._draining:
                job.finish("cancelled", "cancelled",
                           error="server draining")
                continue
            with self._state_lock:
                self._running += 1
            try:
                self.runner.execute(job)
            finally:
                with self._state_lock:
                    self._running -= 1
                    self._completed += 1

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------
    def begin_drain(self, source: str = "request") -> None:
        """Stop accepting, cancel queued jobs, interrupt running ones."""
        with self._state_lock:
            if self._draining:
                return
            self._draining = True
            self._drain_source = source
        self.metrics.gauge("serve.draining", 1)
        self.metrics.inc("serve.drains")
        for job in self.queue.drain_pending():
            job.finish("cancelled", "cancelled",
                       error=f"cancelled by server drain ({source})")
            self.metrics.inc("serve.jobs.cancelled")
        self.drain_event.set()

    def _finish_drain(self) -> bool:
        """Join workers within the grace period; True = clean exit."""
        deadline = time.monotonic() + self.config.drain_grace_s
        self._stop_workers = True
        self.queue.close()
        for thread in self._worker_threads:
            left = max(0.05, deadline - time.monotonic())
            thread.join(left)
        return not any(t.is_alive() for t in self._worker_threads)

    def request_stop(self) -> None:
        """Thread-safe programmatic SIGTERM equivalent."""
        self.begin_drain("request")
        loop, future = self._loop, self._stop_future
        if loop is not None and future is not None:
            def _set():
                if not future.done():
                    future.set_result(None)
            loop.call_soon_threadsafe(_set)

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until the listening socket is bound (test harnesses)."""
        return self._ready.wait(timeout)

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    async def run_async(self, announce=None) -> int:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop_future = loop.create_future()
        self.start_workers()
        server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        self.port = server.sockets[0].getsockname()[1]
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self._on_signal,
                                        signal.Signals(signum).name)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # not the main thread: tests drive request_stop()
        if announce is not None:
            announce(f"serving on http://{self.config.host}:{self.port} "
                     f"({self.config.workers} workers, queue depth "
                     f"{self.config.queue_depth})")
        self._ready.set()
        try:
            await self._stop_future
        finally:
            server.close()
            await server.wait_closed()
        clean = await loop.run_in_executor(None, self._finish_drain)
        return 0 if clean else 1

    def run(self, announce=None) -> int:
        return asyncio.run(self.run_async(announce=announce))

    def _on_signal(self, name: str) -> None:
        self.begin_drain(name)
        if self._stop_future is not None and not self._stop_future.done():
            self._stop_future.set_result(None)

    # -- request plumbing ---------------------------------------------
    async def _read_request(self, reader):
        # The caller's one deadline covers every read here.  A line may
        # end in a bare LF, and a head may end at EOF; a line over the
        # stream limit makes readline raise ValueError.
        line = await reader.readline()
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > self.config.max_body_bytes:
            raise _PayloadTooLarge(
                f"body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    def _response(code: int, body: bytes, content_type: str = JSON_TYPE,
                  extra: Tuple[Tuple[str, str], ...] = ()) -> bytes:
        head = [f"HTTP/1.1 {code} {_REASONS.get(code, 'OK')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        head.extend(f"{k}: {v}" for k, v in extra)
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body

    def _json_response(self, code: int, payload: dict,
                       extra: Tuple[Tuple[str, str], ...] = ()) -> bytes:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return self._response(code, body, JSON_TYPE, extra)

    async def _handle(self, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        try:
            try:
                # One deadline covers the whole request, head and body.
                method, target, _headers, body = await asyncio.wait_for(
                    self._read_request(reader), timeout=30.0)
            except _PayloadTooLarge as exc:
                writer.write(self._json_response(413, {"error": str(exc)}))
                return
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    ValueError, ConnectionError):
                return
            path = target.split("?", 1)[0].rstrip("/") or "/"
            self.metrics.inc("serve.http.requests")
            if method == "POST" and path == "/jobs":
                try:
                    payload = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    writer.write(self._json_response(
                        400, {"error": f"body is not JSON: {exc}",
                              "outcome": "refused"}))
                    return
                code, response = await loop.run_in_executor(
                    None, self.submit, payload)
                extra = ()
                if code == 429:
                    extra = (("Retry-After",
                              str(int(response["retry_after_s"]))),)
                writer.write(self._json_response(code, response, extra))
                return
            if method != "GET":
                writer.write(self._json_response(
                    405, {"error": f"{method} not supported"}))
                return
            if path == "/healthz":
                writer.write(self._json_response(
                    200, self.healthz_payload()))
                return
            if path == "/metrics":
                from repro.obs.promexp import CONTENT_TYPE

                text = await loop.run_in_executor(None, self.metrics_text)
                writer.write(self._response(
                    200, text.encode("utf-8"), CONTENT_TYPE))
                return
            if path == "/jobs":
                code, response = self.jobs_payload()
                writer.write(self._json_response(code, response))
                return
            if path.startswith("/results/"):
                key = path[len("/results/"):]
                text = await loop.run_in_executor(
                    None, self.result_text, key)
                if text is None:
                    writer.write(self._json_response(
                        404, {"error": f"no cached result {key!r}"}))
                else:
                    writer.write(self._response(
                        200, text.encode("utf-8"), JSON_TYPE))
                return
            if path.startswith("/jobs/") and path.endswith("/events"):
                job_id = path[len("/jobs/"):-len("/events")]
                await self._stream_events(writer, job_id)
                return
            if path.startswith("/jobs/"):
                code, response = self.job_payload(path[len("/jobs/"):])
                writer.write(self._json_response(code, response))
                return
            writer.write(self._json_response(
                404, {"error": f"no route {path!r}"}))
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    async def _stream_events(self, writer, job_id: str) -> None:
        job = self.get_job(job_id)
        if job is None:
            writer.write(self._json_response(
                404, {"error": f"no job {job_id!r}"}))
            return
        head = ["HTTP/1.1 200 OK", f"Content-Type: {NDJSON_TYPE}",
                "Connection: close"]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        cursor = 0
        deadline = time.monotonic() + 3600.0
        while time.monotonic() < deadline:
            events = job.events_after(cursor)
            for event in events:
                writer.write((json.dumps(event, sort_keys=True)
                              + "\n").encode("utf-8"))
            cursor += len(events)
            await writer.drain()
            if job.terminal and not job.events_after(cursor):
                return
            await asyncio.sleep(0.05)
