"""Cross-run observability: run registry, exposition, profiling, diffing.

:mod:`repro.telemetry` (PR 3) made a *single process* observable —
spans, metrics, traces that die with the run.  This package is the
layer above, making runs observable *across* time and processes:

* :mod:`repro.obs.runlog` — every analysis invocation leaves a
  schema-versioned, content-addressed run record (config hash, seed,
  capability snapshot, metrics, phase totals, outcome) in
  ``.repro/runs/``; browsed with ``repro runs``.
* :mod:`repro.obs.promexp` — Prometheus text exposition of the live
  :class:`~repro.telemetry.MetricsRegistry` plus heartbeat progress,
  served stdlib-only at ``/metrics`` via ``repro mc --metrics-port``;
  zero overhead when off.
* :mod:`repro.obs.profiler` — thread-based sampling profiler
  (``--profile``) attributing solver wall time to modules and phases,
  with worker-sample merging under the process backend and
  flamegraph-ready collapsed-stack output; bit-identical results
  guaranteed (sampling only reads frames).
* :mod:`repro.obs.diff` — structural diffing of two runs or traces:
  capability/config/phase/metric deltas and regression attribution
  (``repro trace --diff``), consumed by the bench regression gate.

Everything here is stdlib-only and best-effort: a broken registry
disk, occupied port, or dead sampler degrades observability, never
the analysis.  Exports resolve lazily (:mod:`repro._lazy`), so a run
without ``--metrics-port`` never loads the HTTP exposition server.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "diff": ("attribute_regression", "diff_phases", "diff_runs"),
    "profiler": ("SamplingProfiler", "phase_breakdown", "profiling",
                 "top_sinks"),
    "promexp": ("MetricsExporter", "parse_exposition", "render_exposition"),
    "runlog": ("RunLogError", "RunRegistry", "capability_flags",
               "record_run", "runs_enabled"),
})

__all__ = [
    "MetricsExporter",
    "RunLogError",
    "RunRegistry",
    "SamplingProfiler",
    "attribute_regression",
    "capability_flags",
    "diff_phases",
    "diff_runs",
    "parse_exposition",
    "phase_breakdown",
    "profiling",
    "record_run",
    "render_exposition",
    "runs_enabled",
    "top_sinks",
]
