"""Structural diffing of runs and traces for regression triage.

"Why is this run slower?" has three usual answers — the environment
changed (an accelerator was switched off or failed its probe),
the workload changed (different config/seed), or the code changed
(one phase genuinely regressed).  This module answers all three
mechanically by diffing two run records (:mod:`repro.obs.runlog`) or
two trace files:

* **capability deltas** — accelerators that flipped between available
  and unavailable; any flip makes a wall-time comparison apples-to-oranges
  and the report says so first;
* **config deltas** — keys whose values differ (plus a config-hash
  compare for the fast path);
* **phase deltas** — per-span-name self-time changes with absolute and
  relative magnitude, worst offenders first;
* **metric deltas** — counter/gauge changes (quarantines, fallbacks,
  residual failures) that explain *why* a phase moved.

The output is a plain dict so ``repro trace --diff`` can render it and
``scripts/check_regression.py`` can attribute a bench regression to
the phase that caused it without re-parsing anything.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Relative self-time change below which a phase delta is noise.
DEFAULT_REL_THRESHOLD = 0.05

#: Absolute self-time change [s] below which a phase delta is noise.
DEFAULT_ABS_THRESHOLD_S = 0.001


def diff_capabilities(a: Optional[dict], b: Optional[dict]) -> List[dict]:
    """Capability flags that changed between two runs.

    Inputs are :func:`repro.obs.runlog.capability_flags` payloads
    (``{name: available?}``).  A capability present in only one run also
    counts as changed — the other run predates the probe or ran a
    different build.
    """
    a, b = dict(a or {}), dict(b or {})
    changes = []
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        if va != vb:
            changes.append({"capability": name, "a": va, "b": vb})
    return changes


def diff_config(a: Optional[dict], b: Optional[dict]) -> List[dict]:
    """Config keys whose values differ (missing keys included)."""
    a, b = dict(a or {}), dict(b or {})
    changes = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            changes.append({"key": key, "a": va, "b": vb})
    return changes


def diff_phases(a: Optional[dict], b: Optional[dict], *,
                rel_threshold: float = DEFAULT_REL_THRESHOLD,
                abs_threshold_s: float = DEFAULT_ABS_THRESHOLD_S
                ) -> List[dict]:
    """Per-phase self-time deltas, biggest absolute change first.

    Inputs are :func:`repro.telemetry.aggregate_spans` payloads
    (``{name: {count, total_s, self_s, max_s}}``).  Deltas under both
    thresholds are dropped; a phase present in only one run always
    survives (appearing/disappearing phases are the loudest signal).
    """
    a, b = dict(a or {}), dict(b or {})
    deltas = []
    for name in sorted(set(a) | set(b)):
        ea, eb = a.get(name), b.get(name)
        self_a = float((ea or {}).get("self_s", 0.0))
        self_b = float((eb or {}).get("self_s", 0.0))
        delta = self_b - self_a
        rel = delta / self_a if self_a > 0 else (float("inf")
                                                if delta > 0 else 0.0)
        if ea is not None and eb is not None \
                and abs(delta) < abs_threshold_s \
                and abs(rel) < rel_threshold:
            continue
        deltas.append({
            "phase": name,
            "self_a_s": self_a,
            "self_b_s": self_b,
            "delta_s": delta,
            "rel": rel,
            "count_a": int((ea or {}).get("count", 0)),
            "count_b": int((eb or {}).get("count", 0)),
            "only_in": "a" if eb is None else ("b" if ea is None else None),
        })
    deltas.sort(key=lambda d: (-abs(d["delta_s"]), d["phase"]))
    return deltas


def _scalar_metrics(metrics: Optional[dict]) -> Dict[str, float]:
    """Flatten a MetricsRegistry snapshot to comparable scalars.

    Counters and gauges compare directly; histograms contribute their
    ``count`` and ``sum`` (bucket-by-bucket diffs are noise at this
    altitude).
    """
    metrics = metrics or {}
    flat: Dict[str, float] = {}
    for name, value in metrics.get("counters", {}).items():
        flat[name] = float(value)
    for name, value in metrics.get("gauges", {}).items():
        flat[name] = float(value)
    for name, hist in metrics.get("histograms", {}).items():
        flat[f"{name}.count"] = float(hist.get("count", 0))
        flat[f"{name}.sum"] = float(hist.get("sum", 0.0))
    return flat


def diff_metrics(a: Optional[dict], b: Optional[dict]) -> List[dict]:
    """Metric scalars that changed, biggest absolute change first."""
    fa, fb = _scalar_metrics(a), _scalar_metrics(b)
    deltas = []
    for name in sorted(set(fa) | set(fb)):
        va, vb = fa.get(name, 0.0), fb.get(name, 0.0)
        if va == vb:
            continue
        deltas.append({"metric": name, "a": va, "b": vb, "delta": vb - va})
    deltas.sort(key=lambda d: (-abs(d["delta"]), d["metric"]))
    return deltas


def diff_runs(record_a: dict, record_b: dict, *,
              rel_threshold: float = DEFAULT_REL_THRESHOLD) -> dict:
    """Full structural diff of two run records.

    The ``comparable`` flag is the headline: False whenever the
    capability sets or config hashes differ, meaning wall-time deltas
    measure the *environment*, not the code, and any regression verdict
    built on them is suspect.
    """
    caps = diff_capabilities(record_a.get("capabilities"),
                             record_b.get("capabilities"))
    config = diff_config(record_a.get("config"), record_b.get("config"))
    wall_a = float(record_a.get("wall_s") or 0.0)
    wall_b = float(record_b.get("wall_s") or 0.0)
    return {
        "run_a": record_a.get("run_id", "?"),
        "run_b": record_b.get("run_id", "?"),
        "comparable": not caps and not config,
        "capability_deltas": caps,
        "config_deltas": config,
        "wall_a_s": wall_a,
        "wall_b_s": wall_b,
        "wall_delta_s": wall_b - wall_a,
        "phase_deltas": diff_phases(record_a.get("phases"),
                                    record_b.get("phases"),
                                    rel_threshold=rel_threshold),
        "metric_deltas": diff_metrics(record_a.get("metrics"),
                                      record_b.get("metrics")),
        "outcome_a": record_a.get("outcome", "?"),
        "outcome_b": record_b.get("outcome", "?"),
    }


def attribute_regression(diff: dict, *, top: int = 3) -> dict:
    """One-paragraph verdict for the regression gate.

    Picks the dominant cause in priority order: environment change
    (capability flips) > workload change (config deltas) > the top
    phase deltas.  Returns ``{cause, detail, phases}`` where ``cause``
    is one of ``environment`` / ``workload`` / ``code`` / ``none``.
    """
    if diff.get("capability_deltas"):
        flips = ", ".join(
            f"{c['capability']} ({c['a']} -> {c['b']})"
            for c in diff["capability_deltas"])
        return {"cause": "environment",
                "detail": f"capability set changed: {flips}",
                "phases": []}
    if diff.get("config_deltas"):
        keys = ", ".join(c["key"] for c in diff["config_deltas"])
        return {"cause": "workload",
                "detail": f"config changed on: {keys}",
                "phases": []}
    phases = [d for d in diff.get("phase_deltas", []) if d["delta_s"] > 0]
    if not phases:
        return {"cause": "none", "detail": "no phase grew", "phases": []}
    worst = phases[:top]
    detail = "; ".join(
        f"{d['phase']} +{d['delta_s']:.3f}s"
        + (f" ({d['rel'] * 100:+.0f}%)" if d["rel"] != float("inf")
           else " (new)")
        for d in worst)
    return {"cause": "code", "detail": detail, "phases": worst}
