"""Thread-based sampling profiler with flamegraph-ready output.

Spans (PR 3) answer *which phase* is slow; this profiler answers *which
code* — without instrumenting anything.  A daemon thread wakes every
``interval_s`` seconds, snapshots every Python thread's stack via
``sys._current_frames()``, and accumulates collapsed call stacks
(``module:function;module:function;... count``), the format flamegraph
tooling ingests directly.

Design constraints, in order:

* **Bit-identity** — sampling only *reads* frames; it never touches the
  solver state, so results with ``--profile`` on and off are identical
  to the last bit (asserted in the test suite and the bench gate).
* **Bounded overhead** — the sampler costs one stack walk per interval
  per thread (default 5 ms → ≲1 % on solver workloads; the bench suite
  enforces ≤5 % on ``mc_yield_sample``).
* **Process-backend merging** — a worker process is invisible to the
  parent's sampler, so ``MonteCarloYield`` chunks run their own
  profiler when one is :func:`active` in the parent and ship the
  snapshot home *with the chunk results* (the same transport telemetry
  uses); :meth:`SamplingProfiler.absorb` folds them in.

Attribution: :func:`top_sinks` ranks ``module:function`` frames by self
samples; :func:`phase_breakdown` maps leaf modules onto the span-phase
vocabulary (``solve.dc``, ``model-eval``, …) so the profiler's view and
``repro trace``'s span view line up in one report.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Tuple

#: Profiler payload schema (rides inside traces and run records).
PROFILE_SCHEMA = 1

#: Default sampling interval [s].
DEFAULT_INTERVAL_S = 0.005

#: Deepest stack recorded per sample (frames beyond are dropped at the
#: root end — the leaf, which carries the attribution, always stays).
MAX_DEPTH = 64

#: Leaf-module → phase attribution table (first prefix match wins,
#: scanning from the leaf inward).  Mirrors the span vocabulary in
#: ``docs/observability.md`` so profiler and trace reports agree.
PHASE_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.circuit.dc", "solve.dc"),
    ("repro.circuit.mna", "linear-algebra"),
    ("repro.circuit.transient", "solve.transient"),
    ("repro.circuit.batch", "solve.dc.batch"),
    ("repro.circuit.mosfet", "model-eval"),
    ("repro.circuit._ckernel", "model-eval"),
    ("repro.circuit", "circuit"),
    ("repro.variability", "sampling"),
    ("repro.checkpoint", "checkpointing"),
    ("repro.parallel", "parallel-overhead"),
    ("repro.telemetry", "telemetry-overhead"),
    ("repro.obs", "observability-overhead"),
    ("numpy", "numpy"),
    ("scipy", "scipy"),
)


class SamplingProfiler:
    """Wall-clock stack sampler for every thread of this process.

    Collects ``{collapsed_stack: sample_count}`` where a collapsed
    stack is root-to-leaf ``module:function`` frames joined by ``;``.
    Start/stop explicitly or use the :func:`profiling` context manager.
    """

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self._lock = threading.Lock()
        self._samples: Dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._n_samples = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Launch the sampler thread (idempotent while running)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-profiler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling and join the sampler thread."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def _loop(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self._sample_once(skip={me})

    def _sample_once(self, skip=frozenset()) -> None:
        frames = sys._current_frames()
        with self._lock:
            for thread_id, frame in frames.items():
                if thread_id in skip:
                    continue
                stack = []
                depth = 0
                while frame is not None and depth < MAX_DEPTH:
                    module = frame.f_globals.get("__name__", "?")
                    stack.append(f"{module}:{frame.f_code.co_name}")
                    frame = frame.f_back
                    depth += 1
                if not stack:
                    continue
                key = ";".join(reversed(stack))
                self._samples[key] = self._samples.get(key, 0) + 1
                self._n_samples += 1

    # -- payloads ------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON/pickle-ready payload (merge with :meth:`absorb`)."""
        with self._lock:
            return {"schema": PROFILE_SCHEMA,
                    "interval_s": self.interval_s,
                    "n_samples": self._n_samples,
                    "samples": dict(self._samples)}

    def absorb(self, payload: Optional[dict]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        Sample counts add; the payload's interval may differ (the
        counts stay counts — attribution is by *share*, which is
        interval-independent within one payload's worth of noise).
        """
        if not payload:
            return
        with self._lock:
            for key, count in payload.get("samples", {}).items():
                self._samples[key] = self._samples.get(key, 0) + count
            self._n_samples += payload.get("n_samples", 0)


#: Ambient profiler of the current context (None = profiling off).
_ACTIVE_PROFILER: ContextVar[Optional[SamplingProfiler]] = ContextVar(
    "repro_obs_profiler", default=None)


def active() -> Optional[SamplingProfiler]:
    """The ambient profiler, or None when profiling is off.

    The engines consult this exactly once per run (a cold seam), so
    the disabled path costs one ContextVar read per *run*, not per
    sample — profiling off means profiling free.
    """
    return _ACTIVE_PROFILER.get()


@contextmanager
def profiling(interval_s: float = DEFAULT_INTERVAL_S
              ) -> Iterator[SamplingProfiler]:
    """Run the enclosed block under an ambient sampling profiler."""
    prof = SamplingProfiler(interval_s)
    token = _ACTIVE_PROFILER.set(prof)
    prof.start()
    try:
        yield prof
    finally:
        prof.stop()
        _ACTIVE_PROFILER.reset(token)


@contextmanager
def worker_profile(enabled: bool,
                   interval_s: float = DEFAULT_INTERVAL_S
                   ) -> Iterator[Optional[SamplingProfiler]]:
    """Per-chunk profiler for process-backend workers.

    With ``enabled=False`` yields ``None`` at zero cost.  With
    ``enabled=True`` a private profiler samples for the duration of the
    chunk; the caller ships ``profiler.snapshot()`` home with the chunk
    results, mirroring :func:`repro.telemetry.worker_session`.
    """
    if not enabled:
        yield None
        return
    prof = SamplingProfiler(interval_s)
    prof.start()
    try:
        yield prof
    finally:
        prof.stop()


# ----------------------------------------------------------------------
# Aggregation / rendering
# ----------------------------------------------------------------------
def collapsed_lines(payload: dict) -> List[str]:
    """``stack count`` lines in the flamegraph collapsed-stack format."""
    samples = payload.get("samples", {})
    return [f"{stack} {count}"
            for stack, count in sorted(samples.items(),
                                       key=lambda kv: (-kv[1], kv[0]))]


def write_collapsed(payload: dict, path) -> int:
    """Atomically write the collapsed-stack file; returns line count.

    The output feeds ``flamegraph.pl`` / speedscope / inferno as-is.
    """
    from repro.checkpoint import atomic_write_text

    lines = collapsed_lines(payload)
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def top_sinks(payload: dict, top: int = 10) -> List[dict]:
    """Rank frames by self samples: ``{frame, self, total, share}``.

    *Self* counts samples whose **leaf** is the frame; *total* counts
    samples with the frame anywhere on the stack (once per stack, so
    recursion does not double-bill).  ``share`` is self over all
    samples — the honest "where is wall time going" number.
    """
    samples = payload.get("samples", {})
    grand_total = sum(samples.values()) or 1
    self_counts: Dict[str, int] = {}
    total_counts: Dict[str, int] = {}
    for stack, count in samples.items():
        frames = stack.split(";")
        self_counts[frames[-1]] = self_counts.get(frames[-1], 0) + count
        for frame in set(frames):
            total_counts[frame] = total_counts.get(frame, 0) + count
    ranked = sorted(self_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [{"frame": frame, "self": self_count,
             "total": total_counts.get(frame, self_count),
             "share": self_count / grand_total}
            for frame, self_count in ranked[:top]]


def phase_of_stack(stack: str) -> str:
    """Attribute one collapsed stack to a phase (leaf-inward scan)."""
    for entry in reversed(stack.split(";")):
        module = entry.split(":", 1)[0]
        for prefix, phase in PHASE_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return phase
    return "other"


def phase_breakdown(payload: dict) -> Dict[str, dict]:
    """``{phase: {samples, share}}`` over the whole profile.

    The cross-run-comparable reduction stored in run records: two runs
    profiled at different intervals still diff cleanly because shares,
    not raw counts, carry the signal.
    """
    samples = payload.get("samples", {})
    grand_total = sum(samples.values())
    counts: Dict[str, int] = {}
    for stack, count in samples.items():
        phase = phase_of_stack(stack)
        counts[phase] = counts.get(phase, 0) + count
    return {phase: {"samples": count,
                    "share": count / grand_total if grand_total else 0.0}
            for phase, count in sorted(counts.items(),
                                       key=lambda kv: -kv[1])}
