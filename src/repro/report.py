"""Plain-text report rendering.

Small, dependency-free table/section formatting shared by the CLI, the
examples and the benchmark harness.  Everything returns strings so the
callers decide where output goes.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_cell(value) -> str:
    """Compact cell formatting: floats get 4 significant digits."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        if value == 0.0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def render_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned ASCII table."""
    formatted = [[format_cell(c) for c in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in formatted:
        if len(row) != len(widths):
            raise ValueError(
                f"row width {len(row)} != header width {len(widths)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(str(h).rjust(w) for h, w in zip(headers, widths))]
    lines.append("-" * len(lines[0]))
    for row in formatted:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_section(title: str, body: str) -> str:
    """A titled section with an underline."""
    bar = "=" * len(title)
    return f"{title}\n{bar}\n{body}\n"


def render_key_values(pairs: Sequence[tuple], indent: int = 2) -> str:
    """Aligned ``key: value`` lines."""
    if not pairs:
        return ""
    width = max(len(str(k)) for k, _ in pairs)
    pad = " " * indent
    return "\n".join(f"{pad}{str(k).ljust(width)} : {format_cell(v)}"
                     for k, v in pairs)


def render_failure_ledger(ledger, max_rows: int = 10) -> str:
    """Summarise a :class:`~repro.parallel.FailureLedger` for a report.

    One line per exception type with its count, then up to ``max_rows``
    individual quarantine records (sample index, label, attempts, and
    the solver's one-line convergence digest when present).  Returns an
    empty string for an empty ledger so callers can append the result
    unconditionally.
    """
    if not ledger:
        return ""
    counts = ledger.counts_by_type()
    lines = ["quarantined evaluations: "
             + ", ".join(f"{name} x{count}"
                         for name, count in sorted(counts.items()))]
    rows = []
    for record in ledger.records[:max_rows]:
        diagnosis = record.message
        if record.convergence_report:
            diagnosis = record.convergence_report.get("message", diagnosis) \
                or diagnosis
        if len(diagnosis) > 60:
            diagnosis = diagnosis[:57] + "..."
        rows.append([record.index, record.label, record.exception_type,
                     record.attempts, diagnosis])
    lines.append(render_table(
        ["sample", "label", "exception", "attempts", "diagnosis"], rows))
    hidden = len(ledger.records) - max_rows
    if hidden > 0:
        lines.append(f"... and {hidden} more record(s)")
    return "\n".join(lines)


def render_highsigma_result(result, spec_text: str = "") -> str:
    """Key-value body for a :class:`~repro.core.HighSigmaResult`.

    Shows both estimators with their standard errors, the Kish
    effective sample size, the solver-call accounting (the quantity the
    surrogate exists to reduce) and the surrogate's own diagnostics.
    The failure ledger is appended when non-empty.
    """
    import math

    p = result.failure_probability
    se = result.standard_error
    p_sn = result.failure_probability_self_normalized
    se_sn = result.standard_error_self_normalized
    partial = result.n_evaluated < result.n_samples
    rows: List[tuple] = [("samples", result.n_samples)]
    if partial:
        rows.append(("evaluated", f"{result.n_evaluated} of "
                                  f"{result.n_samples} (PARTIAL)"))
    if spec_text:
        rows.append(("spec", spec_text))
    shift = f"{result.shift_sigma:.3g} sigma"
    if result.two_sided:
        shift += " (two-sided mixture)"
    rows += [
        ("proposal shift", shift),
        ("pilot samples", f"{result.n_pilot} (always fully solved)"),
        ("P(fail)", f"{p:.4e} +/- {se:.2e}"),
        ("sigma level", f"{result.sigma_level:.3f} sigma"
         if math.isfinite(result.sigma_level) else "n/a"),
        ("relative SE", f"{result.relative_standard_error:.3f}"
         if math.isfinite(result.relative_standard_error) else "inf"),
        ("self-normalized", f"{p_sn:.4e} +/- {se_sn:.2e}"
         + ("" if result.estimators_agree() else "  [DISAGREES]")),
        ("effective samples", f"{result.effective_samples:.1f} (Kish)"),
        ("failing draws", result.n_failures_observed),
        ("full solver calls", f"{result.full_solver_calls} of "
                              f"{result.n_evaluated}"),
    ]
    if result.surrogate_info is not None:
        info = result.surrogate_info
        factor = result.screening_factor
        rows += [
            ("screened", f"{result.screened_samples} "
                         f"({factor:.1f}x fewer solves)"
             if math.isfinite(factor) else str(result.screened_samples)),
            ("audits", f"{result.audit_count} "
                       f"({result.audit_mismatches} mismatched)"),
            ("surrogate", f"{info.get('kind')} "
                          f"({info.get('n_features')} features, "
                          f"resid sigma {info.get('residual_sigma'):.3e})"),
        ]
    else:
        rows.append(("surrogate", "off (every sample fully solved)"))
    if result.failure_counts:
        failed = ", ".join(f"{name}: {count}" for name, count
                           in sorted(result.failure_counts.items()))
        rows.append(("failed evaluations", failed))
    body = render_key_values(rows)
    ledger_text = render_failure_ledger(result.ledger)
    if ledger_text:
        body = body + "\n\n" + ledger_text
    return body


def _loop_tally(counters: dict, prefix: str) -> str:
    """``"compiled 12, python 3"`` from the ``<prefix><loop>`` counters
    (empty when there are none)."""
    return ", ".join(f"{name[len(prefix):]} {int(count)}"
                     for name, count in sorted(counters.items())
                     if name.startswith(prefix))


def render_trace_summary(trace, top: int = 8) -> str:
    """Render a :class:`~repro.telemetry.TraceData` into the ``repro
    trace`` report.

    Sections: run overview, top time sinks (per-span-name totals with
    *self* time, so nested spans don't double-bill), the DC convergence
    strategy breakdown, slowest samples, and failed/quarantined samples
    with their :class:`~repro.circuit.mna.ConvergenceReport` one-liners.
    """
    from repro.telemetry import aggregate_spans

    sections: List[str] = []
    spans = trace.spans
    counters = trace.metrics.get("counters", {})
    histograms = trace.metrics.get("histograms", {})

    # -- overview ------------------------------------------------------
    overview = []
    for key in ("command", "tech", "samples", "seed", "jobs"):
        if key in trace.meta:
            overview.append((key, trace.meta[key]))
    if spans:
        t0 = min(s.get("t0", 0.0) for s in spans)
        t1 = max(s.get("t1") or 0.0 for s in spans)
        overview.append(("wall time", f"{t1 - t0:.3f} s"))
    overview.append(("records", f"{len(spans)} spans, "
                                f"{len(trace.events)} events"))
    if getattr(trace, "corrupt_lines", 0):
        overview.append(("WARNING",
                         f"{trace.corrupt_lines} corrupt line(s) skipped "
                         f"(truncated write?)"))
    workers = sorted({s["attrs"]["worker"] for s in spans
                      if "worker" in s.get("attrs", {})})
    if workers:
        overview.append(("workers", f"{len(workers)} "
                                    f"({', '.join(workers[:4])}"
                                    + (", ..." if len(workers) > 4 else "")
                                    + ")"))
    sections.append(render_section("trace summary",
                                   render_key_values(overview)))

    # -- top time sinks ------------------------------------------------
    if spans:
        stats = aggregate_spans(spans)
        ranked = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])
        rows = [[name, s["count"], s["total_s"], s["self_s"], s["max_s"]]
                for name, s in ranked[:top]]
        sections.append(render_section(
            "top time sinks (by self time)",
            render_table(["span", "count", "total [s]", "self [s]",
                          "max [s]"], rows)))

    # -- convergence strategies ----------------------------------------
    strategies = {name: count for name, count in counters.items()
                  if name.startswith("solver.dc.strategy.")}
    if strategies:
        solves = counters.get("solver.dc.solves", 0)
        rows = []
        for name, count in sorted(strategies.items(), key=lambda kv: -kv[1]):
            share = count / solves if solves else 0.0
            rows.append([name[len("solver.dc.strategy."):], int(count),
                         f"{share * 100:.1f} %"])
        failures = counters.get("solver.dc.failures", 0)
        if failures:
            rows.append(["(failed)", int(failures),
                         f"{failures / solves * 100:.1f} %" if solves
                         else "-"])
        body = render_table(["strategy", "solves", "share"], rows)
        extra = []
        hist = histograms.get("solver.dc.newton_iterations")
        if hist and hist.get("count"):
            extra.append(("newton iterations / solve",
                          f"mean {hist['sum'] / hist['count']:.1f}, "
                          f"max {hist['max']:.0f}"))
        loops = _loop_tally(counters, "solver.dc.kernel.")
        if loops:
            extra.append(("newton loop", loops))
        if counters.get("solver.factorizations"):
            extra.append(("matrix factorizations",
                          int(counters["solver.factorizations"])))
        if counters.get("solver.singular_matrices"):
            extra.append(("singular matrices",
                          int(counters["solver.singular_matrices"])))
        if extra:
            body += "\n" + render_key_values(extra)
        sections.append(render_section("DC convergence", body))

    # -- transient -----------------------------------------------------
    if counters.get("solver.transient.solves"):
        pairs = [("solves", int(counters["solver.transient.solves"])),
                 ("steps", int(counters.get("solver.transient.steps", 0))),
                 ("step rejections",
                  int(counters.get("solver.transient.step_rejections", 0))),
                 ("LTE rejections",
                  int(counters.get("solver.transient.lte_rejections", 0)))]
        loops = _loop_tally(counters, "solver.transient.kernel.")
        if loops:
            pairs.append(("step loop", loops))
        sections.append(render_section("transient",
                                       render_key_values(pairs)))

    # -- slowest samples -----------------------------------------------
    by_id = {s.get("id"): s for s in spans}
    samples = [s for s in spans if s.get("name") == "sample"]
    if samples:
        slowest = sorted(
            samples,
            key=lambda s: -((s.get("t1") or 0) - (s.get("t0") or 0)))
        rows = []
        for record in slowest[:5]:
            parent = by_id.get(record.get("parent"), {})
            rows.append([record["attrs"].get("index", "-"),
                         (record.get("t1") or 0) - (record.get("t0") or 0),
                         parent.get("attrs", {}).get("worker", "-")])
        sections.append(render_section(
            "slowest samples",
            render_table(["sample", "duration [s]", "worker"], rows)))

    # -- failures / quarantines ----------------------------------------
    quarantines = [e for e in trace.events
                   if e.get("name") == "quarantine"]
    if quarantines:
        rows = []
        for event in quarantines[:10]:
            attrs = event.get("attrs", {})
            summary = attrs.get("summary", "") or ""
            if len(summary) > 60:
                summary = summary[:57] + "..."
            rows.append([attrs.get("index", "-"), attrs.get("label", "-"),
                         attrs.get("exception", "-"), summary])
        body = render_table(["sample", "label", "exception", "diagnosis"],
                            rows)
        hidden = len(quarantines) - 10
        if hidden > 0:
            body += f"\n... and {hidden} more"
        sections.append(render_section(
            f"quarantined samples ({len(quarantines)})", body))

    # -- engine counters -----------------------------------------------
    engine = [(name, int(value)) for name, value in sorted(counters.items())
              if name.startswith(("engine.", "faults."))]
    for hname, label in (("engine.sample_duration_s", "sample duration"),
                         ("engine.queue_wait_s", "chunk queue wait")):
        hist = histograms.get(hname)
        if hist and hist.get("count"):
            engine.append((label, f"mean {hist['sum'] / hist['count']:.4f} s,"
                                  f" max {hist['max']:.4f} s"))
    if engine:
        sections.append(render_section("engine",
                                       render_key_values(engine)))

    # -- sampling profile ----------------------------------------------
    profile = getattr(trace, "profile", None)
    if profile and profile.get("samples"):
        sections.append(render_profile_summary(profile, top=top))
    return "\n".join(sections)


def render_profile_summary(profile: dict, top: int = 8) -> str:
    """Top-sinks table + phase breakdown for a sampling-profiler payload.

    ``profile`` is a :meth:`SamplingProfiler.snapshot
    <repro.obs.profiler.SamplingProfiler.snapshot>`: self/total sample
    counts per ``module:function`` frame and the phase attribution —
    the profiler's companion view to the span-based time sinks above
    it in ``repro trace``.
    """
    from repro.obs.profiler import phase_breakdown, top_sinks

    n = profile.get("n_samples", 0)
    interval = profile.get("interval_s", 0.0)
    head = render_key_values([
        ("stack samples", n),
        ("interval", f"{interval * 1e3:.1f} ms"),
        ("approx. sampled wall", f"{n * interval:.2f} s"),
    ])
    rows = [[s["frame"], s["self"], s["total"], f"{s['share'] * 100:.1f} %"]
            for s in top_sinks(profile, top)]
    body = head + "\n\n" + render_table(
        ["frame", "self", "total", "share"], rows)
    phases = phase_breakdown(profile)
    if phases:
        phase_rows = [[name, entry["samples"],
                       f"{entry['share'] * 100:.1f} %"]
                      for name, entry in phases.items()]
        body += "\n\n" + render_table(["phase", "samples", "share"],
                                      phase_rows)
    return render_section(f"sampling profile ({n} samples)", body)


def render_runs_table(records) -> str:
    """``repro runs list`` table: one row per run record, oldest first."""
    import time as _time

    rows = []
    for record in records:
        when = _time.strftime("%Y-%m-%d %H:%M:%S",
                              _time.localtime(record.get("t_start", 0.0)))
        caps = record.get("capabilities", {})
        usable = sum(1 for v in caps.values() if v)
        rows.append([record.get("run_id", "?"), record.get("command", "?"),
                     when, record.get("outcome", "?"),
                     f"{record.get('wall_s', 0.0):.2f}",
                     record.get("config_hash", "?"),
                     f"{usable}/{len(caps)}" if caps else "-"])
    if not rows:
        return ("no run records (runs are recorded automatically; "
                "set REPRO_RUNS_DIR to relocate, REPRO_NO_RUNLOG=1 "
                "to disable)")
    return render_table(["run", "command", "started", "outcome",
                         "wall [s]", "config", "caps"], rows)


def render_run_record(record) -> str:
    """``repro runs show`` detail view of one run record."""
    pairs = [
        ("run", record.get("run_id", "?")),
        ("command", record.get("command", "?")),
        ("outcome", f"{record.get('outcome', '?')} "
                    f"(exit {record.get('exit_code', '?')})"),
        ("wall time", f"{record.get('wall_s', 0.0):.3f} s"),
        ("seed", record.get("seed")),
        ("config hash", record.get("config_hash", "?")),
    ]
    for key, value in sorted(record.get("config", {}).items()):
        pairs.append((f"config.{key}", value))
    caps = record.get("capabilities", {})
    if caps:
        pairs.append(("capabilities",
                      ", ".join(f"{name}={'on' if usable else 'OFF'}"
                                for name, usable in sorted(caps.items()))))
    ledger = record.get("ledger", {})
    if ledger.get("total"):
        pairs.append(("quarantines",
                      f"{ledger['total']} ("
                      + ", ".join(f"{k} x{v}" for k, v
                                  in ledger.get("by_type", {}).items())
                      + ")"))
    body = render_key_values(pairs)
    phases = record.get("phases", {})
    if phases:
        ranked = sorted(phases.items(),
                        key=lambda kv: -kv[1].get("self_s", 0.0))
        rows = [[name, entry.get("count", 0), entry.get("total_s", 0.0),
                 entry.get("self_s", 0.0)] for name, entry in ranked[:10]]
        body += "\n\n" + render_table(
            ["phase", "count", "total [s]", "self [s]"], rows)
    profile = record.get("profile", {})
    if profile:
        rows = [[name, entry.get("samples", 0),
                 f"{entry.get('share', 0.0) * 100:.1f} %"]
                for name, entry in profile.items()]
        body += "\n\n" + render_table(["profiled phase", "samples",
                                       "share"], rows)
    return render_section(f"run {record.get('run_id', '?')}", body)


def render_run_diff(diff: dict) -> str:
    """``repro trace --diff`` report for a :func:`repro.obs.diff.diff_runs`.

    Leads with comparability (capability/config deltas make wall-time
    comparison apples-to-oranges), then per-phase self-time deltas,
    metric deltas, and the regression-attribution verdict.
    """
    from repro.obs.diff import attribute_regression

    sections: List[str] = []
    head = [
        ("run A", f"{diff['run_a']} ({diff.get('outcome_a', '?')}, "
                  f"{diff['wall_a_s']:.3f} s)"),
        ("run B", f"{diff['run_b']} ({diff.get('outcome_b', '?')}, "
                  f"{diff['wall_b_s']:.3f} s)"),
        ("wall delta", f"{diff['wall_delta_s']:+.3f} s"),
        ("comparable", diff["comparable"]),
    ]
    sections.append(render_section("run diff", render_key_values(head)))

    if diff["capability_deltas"]:
        rows = [[c["capability"], c["a"], c["b"]]
                for c in diff["capability_deltas"]]
        sections.append(render_section(
            "CAPABILITY CHANGES (comparison is apples-to-oranges)",
            render_table(["capability", "A", "B"], rows)))
    if diff["config_deltas"]:
        rows = [[c["key"], c["a"], c["b"]] for c in diff["config_deltas"]]
        sections.append(render_section(
            "config changes",
            render_table(["key", "A", "B"], rows)))

    if diff["phase_deltas"]:
        rows = []
        for d in diff["phase_deltas"][:12]:
            rel = ("new" if d["only_in"] == "b" else
                   "gone" if d["only_in"] == "a" else
                   f"{d['rel'] * 100:+.0f} %")
            rows.append([d["phase"], d["self_a_s"], d["self_b_s"],
                         f"{d['delta_s']:+.4f}", rel])
        sections.append(render_section(
            "phase self-time deltas (B - A)",
            render_table(["phase", "A [s]", "B [s]", "delta [s]",
                          "rel"], rows)))
    if diff["metric_deltas"]:
        rows = [[d["metric"], d["a"], d["b"], f"{d['delta']:+g}"]
                for d in diff["metric_deltas"][:12]]
        sections.append(render_section(
            "metric deltas (B - A)",
            render_table(["metric", "A", "B", "delta"], rows)))

    verdict = attribute_regression(diff)
    sections.append(render_section(
        "attribution",
        render_key_values([("cause", verdict["cause"]),
                           ("detail", verdict["detail"])])))
    return "\n".join(sections)


def render_verification_report(report, max_rows: int = 12) -> str:
    """Human-readable summary of a differential :class:`VerificationReport`.

    Shows the verdict, every failure, and the tightest-margin check per
    subject so a passing run still reveals how much headroom each
    solver path has.
    """
    sections: List[str] = []
    verdict = "PASS" if report.passed else "FAIL"
    sections.append(render_section(
        "differential verification",
        render_key_values([
            ("checks", report.n_checks),
            ("failures", len(report.failures)),
            ("verdict", verdict),
        ])))

    if report.failures:
        rows = [[d.subject, d.path, d.quantity, d.reference, d.measured,
                 d.error, d.bound]
                for d in report.failures]
        sections.append(render_section(
            "failed checks",
            render_table(["subject", "path", "quantity", "reference",
                          "measured", "|error|", "bound"], rows)))

    worst = sorted(report.worst_per_subject().items(),
                   key=lambda kv: -kv[1].margin)[:max_rows]
    if worst:
        rows = [[subject, d.path, d.error, d.bound,
                 f"{d.margin:.3g}" if d.bound else "-"]
                for subject, d in worst]
        sections.append(render_section(
            "tightest margin per subject (|error| / bound)",
            render_table(["subject", "path", "|error|", "bound",
                          "margin"], rows)))
    return "\n".join(sections)


def render_golden_drift(drifts, goldens_dir: str) -> str:
    """Drift report for ``repro verify`` against committed goldens.

    Empty drift list renders a one-line clean verdict; otherwise every
    drifted quantity is named with its golden value, fresh value and
    the stored band it escaped.
    """
    if not drifts:
        return render_section(
            "golden artifacts",
            render_key_values([("goldens", goldens_dir),
                               ("verdict", "PASS (no drift)")]))
    lines = [d.describe() for d in drifts]
    body = render_key_values([
        ("goldens", goldens_dir),
        ("drifted", len(lines)),
        ("verdict", "FAIL"),
    ]) + "\n\n" + "\n".join("  " + line for line in lines)
    return render_section("golden artifacts", body)


def render_capabilities(snapshot: dict) -> str:
    """Accelerator health table for ``repro capabilities``.

    ``snapshot`` is :meth:`ResilienceSupervisor.snapshot
    <repro.resilience.ResilienceSupervisor.snapshot>`: per-capability
    availability and the probe's reason string.  ``ANOMALOUS`` flags a
    probe that failed although the environment suggests it should have
    succeeded.
    """
    rows = []
    for name, state in sorted(snapshot.get("capabilities", {}).items()):
        status = "available" if state.get("available") else "unavailable"
        if state.get("anomalous"):
            status += " (ANOMALOUS)"
        rows.append([name, status, state.get("detail", "")])
    body = render_table(["capability", "status", "detail"], rows)
    pending = snapshot.get("pending_events", 0)
    if pending:
        body += f"\n\n  pending supervisor events: {pending}"
    return render_section("accelerator capabilities", body)
