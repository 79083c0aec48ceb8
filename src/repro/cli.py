"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``nodes`` — list the shipped technology nodes with headline numbers;
* ``node <name>`` — one node in full detail (device, mismatch, aging,
  interconnect constants);
* ``op <netlist> [--tech NODE]`` — parse a netlist file and print the DC
  operating point (node voltages, source currents, device bias);
* ``tran <netlist> --tstop T --dt DT [--tech NODE] [--nodes a,b]`` —
  transient analysis; prints summary statistics per requested node;
* ``mc [--workload offset|ring] [--tech NODE] [--samples N] [--jobs J]
  [--batch-size B] [--budget SEC] [--checkpoint DIR [--resume]]
  [--trace FILE] [--quiet]`` — Monte-Carlo yield of a
  differential-pair offset spec (the §2 demo) or a transient ring-
  oscillator swing spec, parallelised over the
  :mod:`repro.parallel` backends, with
  chunk-granular checkpointing, quarantine of failed samples, graceful
  degradation (see ``docs/robustness.md``), a live progress heartbeat
  on stderr and optional JSONL trace export (``docs/observability.md``);
  ``--profile`` adds a sampling stack profiler (bit-identical results),
  ``--metrics-port`` a live Prometheus ``/metrics`` endpoint, and every
  invocation leaves a record in the run registry (``repro runs``);
* ``highsigma [--tech NODE] [--samples N] [--surrogate poly|rbf|off]
  [--sigma-target S] [--jobs J] [--batch-size B] [--checkpoint DIR
  [--resume]] [--budget SEC]`` — rare-event (5–6σ) SRAM read-SNM tail
  yield via mean-shift importance sampling with surrogate
  pre-screening of the full solver (see ``docs/high_sigma.md``); the
  spec bound auto-calibrates from a short Monte-Carlo unless
  ``--snm-min-mv`` pins it;
* ``verify [--goldens DIR] [--update-golden] [--quick]`` — the standing
  correctness gate: differential checks of every solver path against
  analytic oracles plus a tolerance-banded diff of the E1–E15 golden
  artifacts (see ``docs/verification.md``);
* ``trace <file>`` — summarise a JSONL trace written by ``mc --trace``:
  top time sinks, convergence-strategy breakdown, slowest and
  quarantined samples, and the sampling profile when ``--profile`` was
  on; ``trace --diff RUN_A RUN_B`` structurally diffs two recorded runs
  (capability/config/phase/metric deltas plus regression attribution);
* ``runs [list|show|gc]`` — browse the run registry: every ``mc`` /
  ``verify`` / bench invocation writes a content-addressed record into
  ``.repro/runs/`` (``REPRO_RUNS_DIR`` overrides, ``REPRO_NO_RUNLOG=1``
  disables);
* ``aging <name>`` — the degradation outlook of a node: 10-year NBTI/
  HCI shifts, TDDB characteristic life, EM MTTF at J_max;
* ``capabilities`` — probe the optional accelerators (C kernel, scipy
  sparse, LAPACK dgesv, batched ensembles) and print each one's
  availability and why (see ``docs/robustness.md``);
* ``serve [--host H] [--port P] [--workers N] [--queue-depth D]
  [--cache-dir DIR] [--spool DIR]`` — run analyses as a long-lived
  HTTP service: JSON job specs over ``POST /jobs``, NDJSON progress
  streams, a content-addressed result cache (identical requests are
  free), ``/metrics`` + ``/healthz``, priority/fairness queueing with
  backpressure, and graceful checkpoint-backed drain on SIGTERM (see
  ``docs/service.md``).

The CLI is a thin veneer over the library; everything it prints is
available programmatically.
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys
from typing import List, Optional

from repro import units
from repro.report import render_key_values, render_section, render_table


def _cmd_nodes(args: argparse.Namespace) -> int:
    from repro.technology import scaling_trend

    rows = []
    for tech in scaling_trend():
        rows.append([tech.name, tech.tox_nm, tech.vdd, tech.vt0_n,
                     tech.mismatch.a_vt_mv_um,
                     tech.nominal_oxide_field() / 1e8])
    print(render_table(
        ["node", "tox [nm]", "VDD [V]", "VT0n [V]", "A_VT [mV.um]",
         "E_ox [MV/cm]"], rows))
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    from repro.technology import get_node

    tech = get_node(args.name)
    device = [
        ("minimum L", f"{tech.lmin_um} um"),
        ("minimum W", f"{tech.wmin_um:.3f} um"),
        ("tox", f"{tech.tox_nm} nm"),
        ("VDD", f"{tech.vdd} V"),
        ("VT0 n/p", f"{tech.vt0_n} / {tech.vt0_p} V"),
        ("kp n/p", f"{tech.kp_n * 1e6:.0f} / {tech.kp_p * 1e6:.0f} uA/V^2"),
        ("Cox", f"{tech.cox_f_per_m2 * 1e3:.2f} mF/m^2"),
    ]
    mismatch = [
        ("A_VT", f"{tech.mismatch.a_vt_mv_um:.2f} mV.um"),
        ("S_VT", f"{tech.mismatch.s_vt_mv_per_um:.4f} mV/um"),
        ("A_beta", f"{tech.mismatch.a_beta_pct_um:.2f} %.um"),
        ("short-channel L*", f"{tech.mismatch.short_channel_l_um:.3f} um"),
    ]
    aging = [
        ("NBTI n / prefactor", f"{tech.aging.nbti_time_exponent} / "
                               f"{tech.aging.nbti_prefactor_v * 1e3:.1f} mV"),
        ("HCI n / 1s-ref dVT", f"{tech.aging.hci_time_exponent} / "
                               f"{tech.aging.hci_prefactor_v * 1e6:.2f} uV"),
        ("TDDB Weibull beta", f"{tech.aging.tddb_weibull_shape:.2f}"),
        ("EM Ea", f"{tech.aging.em_ea_ev} eV"),
        ("Blech (J.L)crit", f"{tech.aging.em_blech_product_a_per_m:.0f} A/m"),
    ]
    interconnect = [
        ("resistivity", f"{tech.interconnect.resistivity_ohm_m * 1e8:.1f} "
                        f"uOhm.cm"),
        ("thickness", f"{tech.interconnect.thickness_m * 1e9:.0f} nm"),
        ("J_max", f"{tech.interconnect.j_max_a_per_m2 / 1e10:.1f} MA/cm^2"),
    ]
    print(render_section(f"technology node {tech.name}",
                         render_key_values(device)))
    print(render_section("mismatch (Eq 1)", render_key_values(mismatch)))
    print(render_section("degradation (section 3)", render_key_values(aging)))
    print(render_section("interconnect", render_key_values(interconnect)))
    return 0


def _load_circuit(path: str, tech_name: Optional[str]):
    from repro.circuit import parse_netlist
    from repro.technology import get_node

    tech = get_node(tech_name) if tech_name else None
    with open(path, encoding="utf-8") as handle:
        return parse_netlist(handle.read(), tech=tech)


def _cmd_op(args: argparse.Namespace) -> int:
    from repro.circuit import VoltageSource, dc_operating_point

    circuit = _load_circuit(args.netlist, args.tech)
    op = dc_operating_point(circuit)
    volt_rows = [[name, op.voltage(name)] for name in circuit.node_names]
    print(render_section(f"DC operating point: {circuit.title}",
                         render_table(["node", "V"], volt_rows)))
    src_rows = [[e.name, op.source_current(e.name)]
                for e in circuit.elements if isinstance(e, VoltageSource)]
    if src_rows:
        print(render_section("voltage-source currents (n+ -> n-)",
                             render_table(["source", "I [A]"], src_rows)))
    dev_rows = []
    for name, dev in op.all_device_ops().items():
        dev_rows.append([name, dev.region, dev.ids_a, dev.vgs_v, dev.vds_v,
                         dev.gm_s])
    if dev_rows:
        print(render_section(
            "devices",
            render_table(["device", "region", "Ids [A]", "Vgs [V]",
                          "Vds [V]", "gm [S]"], dev_rows)))
    return 0


def _cmd_tran(args: argparse.Namespace) -> int:
    from repro.circuit import transient

    circuit = _load_circuit(args.netlist, args.tech)
    result = transient(circuit, t_stop=args.tstop, dt=args.dt)
    nodes = (args.nodes.split(",") if args.nodes
             else circuit.node_names[:8])
    rows = []
    for node in nodes:
        wave = result.voltage(node.strip())
        rows.append([node.strip(), wave.mean(), wave.rms(), wave.trough(),
                     wave.peak()])
    print(render_section(
        f"transient 0..{args.tstop:g}s (dt={args.dt:g}s): {circuit.title}",
        render_table(["node", "mean", "rms", "min", "max"], rows)))
    return 0


def _workload(name: str, args: argparse.Namespace, tech, **overrides):
    """Resolve registry workload ``name`` from the flags named like its
    params; ``overrides`` replace flag values."""
    from repro import workloads

    params = {key: getattr(args, key)
              for key in workloads.WORKLOADS[name].params
              if hasattr(args, key)}
    params.update(overrides)
    return workloads.resolve(name, params, tech)


def _mc_body(result, args, spec_text: str, partial: bool) -> str:
    """Render a (possibly partial/degraded) yield result."""
    from repro.report import render_failure_ledger

    lo, hi = result.confidence_interval()
    rows = [
        ("samples", f"{result.n_samples} (jobs={args.jobs}, "
                    f"backend={args.backend})"),
        ("spec", spec_text),
    ]
    if partial:
        rows.append(("evaluated", f"{result.n_evaluated} of "
                                  f"{result.n_samples} (PARTIAL)"))
    metric = next(iter(result.values))  # the workload's one spec
    try:
        rows.append((f"{metric} sigma",
                     f"{result.sigma(metric) * 1e3:.2f} mV"))
    except ValueError:
        rows.append((f"{metric} sigma", "n/a (too few valid samples)"))
    rows += [
        ("yield", f"{result.yield_fraction * 100:.1f} %"),
        ("95% CI", f"[{lo * 100:.1f}, {hi * 100:.1f}] %"
                   + (" (widened for unresolved samples)"
                      if result.is_degraded else "")),
    ]
    if result.failure_counts:
        failed = ", ".join(f"{name}: {count}" for name, count
                           in sorted(result.failure_counts.items()))
        rows.append(("failed evaluations", failed))
    body = render_key_values(rows)
    ledger_text = render_failure_ledger(result.ledger)
    if ledger_text:
        body = body + "\n\n" + ledger_text
    return body


def _mc_heartbeat(session, stream, state: Optional[dict] = None,
                  label: str = "mc"):
    """Progress callback printing a live run pulse to ``stream``.

    Rate/ETA come from the engine's progress payload; the quarantine
    count is read live off the session's metrics registry (workers
    merge their counters back with every completed chunk).  When
    ``state`` is given, each beat also copies the progress payload into
    it — the seam the ``/metrics`` exposition endpoint reads.

    Edge cases render as ``--``: before the first completed sample (or
    at zero elapsed time) there is no rate to extrapolate from, and a
    finished run has no ETA — neither may surface ``inf`` or divide by
    zero.
    """

    def beat(p: dict) -> None:
        done, total = p["done"], p["total"]
        elapsed = p["elapsed_s"]
        if state is not None:
            state.update(done=done, total=total, elapsed_s=elapsed)
        if done > 0 and elapsed > 0:
            rate = done / elapsed
            rate_text = f"{rate:.1f}/s"
            eta = f"{(total - done) / rate:.0f}s" if done < total else "0s"
        else:
            rate_text, eta = "--", "--"
        fails = int(session.metrics.counter("engine.quarantines"))
        stream.write(f"\r[{label}] {done}/{total} samples  {rate_text}  "
                     f"ETA {eta}  fail={fails}")
        if done >= total:
            stream.write("\n")
        stream.flush()

    return beat


def _run_recorded(args, command: str, workload, config: dict, session,
                  t_start: float, run, body, finish) -> int:
    """Run an engine (``run()``) under the exit-code contract; return
    the exit code.  ``body(result, partial)`` renders a result (a
    stopped run's before the stop reason and resume hint), ``finish()``
    writes the trace; every outcome leaves a run-registry record whose
    ``config`` is the command's knobs plus the shared ones below."""
    from repro.checkpoint import CheckpointError, RunInterrupted
    from repro.obs.runlog import capability_flags, ledger_digest, record_run
    from repro.runner import accel_manifest

    config = {"tech": args.tech, "workload": workload.fingerprint,
              "samples": args.samples, "jobs": args.jobs,
              "backend": args.backend, "batch_size": args.batch_size,
              **config}

    def show(result, partial: bool) -> None:
        title = f"{workload.title}, {workload.tech.name}"
        partial = partial or result.n_evaluated < result.n_samples
        print(render_section(title + (" [INTERRUPTED]" if partial else ""),
                             body(result, partial)))

    def record(outcome: str, code: int, ledger=None) -> None:
        profile = None
        if session.profile:
            from repro.obs.profiler import phase_breakdown

            profile = phase_breakdown(session.profile)
        record_run(command, config, outcome=outcome, exit_code=code,
                   seed=args.seed, capabilities=capability_flags(),
                   metrics=session.metrics.snapshot(),
                   phases=session.tracer.totals(),
                   ledger=ledger_digest(ledger), profile=profile,
                   t_start=t_start, accel=accel)

    # The accelerator configuration the run starts under (what its
    # checkpoint manifest carries too) goes into the record's hash.
    accel = accel_manifest(args.batch_size)
    try:
        result = run()
    except CheckpointError as exc:
        # Refused resume (identity or accelerator-config mismatch):
        # nothing has been computed; exit degraded with the reason.
        if not args.quiet:
            sys.stderr.write("\n")
        print(f"checkpoint refused: {exc}", file=sys.stderr)
        record("refused", 2)
        return 2
    except RunInterrupted as exc:
        # The engine has already written the final checkpoint; report
        # the partial result.  Exit 130 for SIGINT, 2 for a clean
        # degraded stop on an expired --budget.
        if not args.quiet:
            sys.stderr.write("\n")
        finish()
        if exc.partial_result is not None:
            show(exc.partial_result, True)
        budgeted = getattr(exc, "reason", "interrupt") == "budget"
        label = "budget expired" if budgeted else "interrupted"
        print(f"{label}: {exc}", file=sys.stderr)
        print(f"resume with: repro {command} --checkpoint "
              f"{exc.checkpoint_path} --resume --samples "
              f"{args.samples} --seed {args.seed}", file=sys.stderr)
        code = 2 if budgeted else 130
        record("budget" if budgeted else "interrupted", code,
               getattr(exc.partial_result, "ledger", None))
        return code
    finish()
    code = 2 if result.is_degraded else 0
    record("degraded" if result.is_degraded else "ok", code, result.ledger)
    show(result, False)
    return code


def _cmd_mc(args: argparse.Namespace) -> int:
    import contextlib
    import time

    from repro import telemetry
    from repro.core import MonteCarloYield
    from repro.technology import get_node

    tech = get_node(args.tech)
    workload = _workload(args.workload, args, tech)
    fx = workload.fixture()
    spec, spec_text = workload.spec()
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 1
    # The mc command always runs under a telemetry session: the
    # heartbeat reads its metrics registry, the run record its span
    # totals, and --trace serialises it (the only reason to keep span
    # records).  Library callers without a session keep the
    # zero-overhead path.
    meta = {"command": "mc", "tech": args.tech, "samples": args.samples,
            "seed": args.seed, "jobs": args.jobs, "backend": args.backend,
            "workload": args.workload}
    t_start = time.time()
    with contextlib.ExitStack() as stack:
        session = stack.enter_context(
            telemetry.session(meta=meta, records=bool(args.trace)))
        hb_state: dict = {"done": 0, "total": args.samples, "elapsed_s": 0.0}
        if args.quiet:
            # No terminal pulse, but /metrics (when on) still needs the
            # live progress payload.
            progress = hb_state.update if args.metrics_port is not None \
                else None
        else:
            progress = _mc_heartbeat(session, sys.stderr, state=hb_state)
        if args.metrics_port is not None:
            from repro.obs.promexp import MetricsExporter, render_exposition

            exporter = MetricsExporter(
                lambda: render_exposition(session.metrics.snapshot(),
                                          meta=meta, heartbeat=hb_state),
                host=args.metrics_host, port=args.metrics_port)
            try:
                port = exporter.start()
                stack.callback(exporter.stop)
                if not args.quiet:
                    print(f"metrics: http://{args.metrics_host}:{port}"
                          f"/metrics", file=sys.stderr)
            except OSError as exc:
                # Observability must not kill the analysis: an occupied
                # port degrades to "no endpoint", loudly.
                print(f"metrics endpoint disabled: {exc}", file=sys.stderr)
        profiler = None
        if args.profile:
            from repro.obs import profiler as _prof

            profiler = stack.enter_context(
                _prof.profiling(args.profile_interval))

        def finish_observability() -> None:
            """Trace + collapsed stacks, shared by all exit paths."""
            if profiler is not None:
                session.profile = profiler.snapshot()
                if args.profile_out:
                    from repro.obs.profiler import write_collapsed

                    count = write_collapsed(session.profile,
                                            args.profile_out)
                    if not args.quiet:
                        print(f"profile: {count} stacks -> "
                              f"{args.profile_out}", file=sys.stderr)
            _write_trace(args, session)

        def run():
            return MonteCarloYield(fx, [spec], tech).run(
                n_samples=args.samples, seed=args.seed, jobs=args.jobs,
                backend=args.backend,
                checkpoint=args.checkpoint, resume=args.resume,
                progress=progress, batch_size=args.batch_size,
                budget=args.budget)

        return _run_recorded(
            args, "mc", workload,
            {"limit_mv": args.limit_mv},
            session, t_start, run,
            lambda r, partial: _mc_body(r, args, spec_text, partial),
            finish_observability)


def _write_trace(args, session) -> None:
    if args.trace:
        count = session.write_trace(args.trace)
        if not args.quiet:
            print(f"trace: {count} records -> {args.trace}",
                  file=sys.stderr)


def _highsigma_workload(args, tech):
    """The ``sram`` workload for ``highsigma`` and its fixture.  The
    spec bound is ``--snm-min-mv``, or, without it, a short
    nominal-seed Monte-Carlo places it ``--sigma-target`` fitted sigmas
    below the fitted mean, so the true failure rate lands near the
    sigma level the run is meant to resolve."""
    workload = _workload("sram", args, tech)
    fx = workload.fixture()
    if args.snm_min_mv is None:
        from repro.core import MonteCarloYield, Specification

        # Calibrate on a decoupled seed so the bound is not fitted to
        # the very variates the estimate will reuse.
        spec, _ = workload.spec()
        probe_spec = Specification(spec.name, spec.extractor, lower=-1.0)
        cal = MonteCarloYield(fx, [probe_spec], tech).run(
            n_samples=args.calibrate_samples, seed=args.seed + 7919)
        mean = cal.mean("read_snm")
        sigma = cal.sigma("read_snm")
        lower = mean - args.sigma_target * sigma
        if not args.quiet:
            print(f"calibrated spec: SNM mean {mean * 1e3:.1f} mV, "
                  f"sigma {sigma * 1e3:.2f} mV over "
                  f"{args.calibrate_samples} samples -> bound "
                  f"{lower * 1e3:.1f} mV "
                  f"({args.sigma_target:g} sigma)", file=sys.stderr)
        workload = _workload("sram", args, tech,
                             snm_min_mv=lower / units.MILLI)
    return workload, fx


def _cmd_highsigma(args: argparse.Namespace) -> int:
    import time

    from repro import telemetry
    from repro.core import HighSigmaYield, SurrogateConfig
    from repro.report import render_highsigma_result
    from repro.technology import get_node

    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 1
    tech = get_node(args.tech)
    if args.surrogate == "off":
        surrogate = None
    else:
        surrogate = SurrogateConfig(
            kind=args.surrogate, train_samples=args.train_samples,
            k_sigma=args.k_sigma, audit_every=args.audit_every)
    meta = {"command": "highsigma", "tech": args.tech,
            "samples": args.samples, "seed": args.seed, "jobs": args.jobs,
            "backend": args.backend,
            "surrogate": args.surrogate}
    t_start = time.time()
    with telemetry.session(meta=meta,
                           records=bool(args.trace)) as session:
        # The calibration MC (when it runs) shares the session so its
        # solver activity lands in the same trace.
        workload, fx = _highsigma_workload(args, tech)
        spec, spec_text = workload.spec()
        progress = None if args.quiet else \
            _mc_heartbeat(session, sys.stderr, label="hs")
        config = {"surrogate": args.surrogate,
                  "shift_sigma": args.shift_sigma,
                  "sigma_target": args.sigma_target}

        def run():
            return HighSigmaYield(fx, spec, tech).run(
                n_samples=args.samples, shift_sigma=args.shift_sigma,
                seed=args.seed, jobs=args.jobs, backend=args.backend,
                chunk_size=args.chunk_size, batch_size=args.batch_size,
                surrogate=surrogate, checkpoint=args.checkpoint,
                resume=args.resume, progress=progress,
                budget=args.budget)

        return _run_recorded(
            args, "highsigma", workload, config, session, t_start, run,
            lambda r, partial: render_highsigma_result(r, spec_text),
            lambda: _write_trace(args, session))


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.report import render_golden_drift, render_verification_report
    from repro.runner import accel_manifest
    from repro.verify import (
        diff_goldens,
        load_goldens,
        run_differential,
        run_experiments,
        write_goldens,
    )

    import time

    sections: List[str] = []
    failed = False
    meta = {"command": "verify", "quick": args.quick,
            "update_golden": args.update_golden}
    t_start = time.time()
    accel = accel_manifest(None)
    with telemetry.session(meta=meta,
                           records=bool(args.trace)) as session:
        if not args.skip_differential:
            report = run_differential(quick=args.quick)
            sections.append(render_verification_report(report))
            failed = failed or not report.passed

        results = run_experiments(include_slow=not args.quick)
        if args.update_golden:
            written = write_goldens(results, args.goldens)
            sections.append(render_section(
                "golden artifacts",
                render_key_values(
                    [("updated", len(written) - 1),
                     ("manifest", written[-1])]
                    + [(path.rsplit("/", 1)[-1], "written")
                       for path in written[:-1]])))
        else:
            drifts = diff_goldens(results, load_goldens(args.goldens))
            sections.append(render_golden_drift(drifts, args.goldens))
            failed = failed or bool(drifts)

        if args.trace:
            count = session.write_trace(args.trace)
            print(f"trace: {count} records -> {args.trace}",
                  file=sys.stderr)

        from repro.obs.runlog import capability_flags, record_run

        record_run("verify",
                   {"quick": args.quick, "goldens": args.goldens,
                    "update_golden": args.update_golden,
                    "skip_differential": args.skip_differential},
                   outcome="fail" if failed else "ok",
                   exit_code=2 if failed else 0,
                   capabilities=capability_flags(),
                   metrics=session.metrics.snapshot(),
                   phases=session.tracer.totals(), t_start=t_start,
                   accel=accel)

    text = "\n".join(sections)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 2 if failed else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.report import render_trace_summary

    if args.diff:
        from repro.obs.diff import diff_runs
        from repro.obs.runlog import RunLogError, RunRegistry
        from repro.report import render_run_diff

        registry = RunRegistry(args.runs_dir)
        try:
            record_a = registry.load(args.diff[0])
            record_b = registry.load(args.diff[1])
        except (OSError, RunLogError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        diff = diff_runs(record_a, record_b)
        print(render_run_diff(diff))
        return 0 if diff["comparable"] else 2
    if not args.file:
        print("error: trace needs a FILE argument (or --diff A B)",
              file=sys.stderr)
        return 1
    try:
        trace = telemetry.read_trace(args.file)
        trace.validate()
    except (OSError, telemetry.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if trace.corrupt_lines:
        print(f"warning: skipped {trace.corrupt_lines} corrupt line(s) "
              f"in {args.file}", file=sys.stderr)
    print(render_trace_summary(trace))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.runlog import RunLogError, RunRegistry
    from repro.report import render_run_record, render_runs_table

    registry = RunRegistry(args.runs_dir)
    action = args.runs_command or "list"
    if action == "list":
        records = registry.list()
        if getattr(args, "ids", False):
            for record in records:
                print(record["run_id"])
        else:
            print(render_runs_table(records))
        return 0
    if action == "show":
        try:
            record = registry.load(args.run_id)
        except (OSError, RunLogError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(render_run_record(record))
        return 0
    # gc
    removed = registry.gc(args.keep)
    print(f"removed {len(removed)} record(s), kept newest {args.keep}")
    return 0


def _cmd_aging(args: argparse.Namespace) -> int:
    from repro.aging import degradation_outlook
    from repro.technology import get_node

    tech = get_node(args.name)
    out = degradation_outlook(tech)
    rows = [
        ("NBTI dVT, 10yr DC @105C", f"{out['nbti_dvt_v'] * 1e3:.1f} mV"),
        ("HCI dVT, 10yr worst-case DC", f"{out['hci_dvt_v'] * 1e3:.1f} mV"),
        ("TDDB eta @ nominal field", f"{out['tddb_eta_years']:.1f} years"),
        ("EM MTTF @ J_max, 105C", f"{out['em_mttf_years']:.1f} years"),
    ]
    print(render_section(f"10-year degradation outlook: {tech.name}",
                         render_key_values(rows)))
    return 0


def _cmd_capabilities(args: argparse.Namespace) -> int:
    from repro import resilience
    from repro.report import render_capabilities

    print(render_capabilities(resilience.supervisor().snapshot()))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeApp, ServeConfig

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth, cache_entries=args.cache_entries,
        session_entries=args.session_entries,
        drain_grace_s=args.drain_grace, cache_dir=args.cache_dir,
        spool=args.spool, chaos=args.chaos)
    app = ServeApp(config)
    try:
        return app.run(announce=lambda line: print(line,
                                                   file=sys.stderr))
    except OSError as exc:
        # A taken port (or un-bindable host) is an operator error, not
        # a crash: exit 1 with the reason, nothing half-started.
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1


#: Exit-code contract, shown in ``--help`` (main parser and ``mc``).
EXIT_CODE_DOC = """\
exit codes:
  0    success — every evaluation completed cleanly
  2    partial/degraded — the run completed, but some samples were
       quarantined or skipped, a --budget expired mid-run (a final
       checkpoint is written first when --checkpoint is given), or a
       --resume was refused because the checkpoint's run identity or
       accelerator configuration does not match; results carry widened
       confidence intervals and a failure ledger
  1    hard failure (bad arguments, unreadable netlist, engine bug)
  130  interrupted (Ctrl-C); with --checkpoint, a final checkpoint is
       written first so the run can be resumed with --resume
"""


def _args_nodes(p: argparse.ArgumentParser) -> None:
    p.set_defaults(func=_cmd_nodes)


def _args_node(p: argparse.ArgumentParser) -> None:
    p.add_argument("name")
    p.set_defaults(func=_cmd_node)


def _args_op(p: argparse.ArgumentParser) -> None:
    p.add_argument("netlist")
    p.add_argument("--tech", default=None,
                   help="technology node for MOSFET cards")
    p.set_defaults(func=_cmd_op)


def _args_tran(p: argparse.ArgumentParser) -> None:
    p.add_argument("netlist")
    p.add_argument("--tstop", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--tech", default=None)
    p.add_argument("--nodes", default=None,
                   help="comma-separated nodes to report")
    p.set_defaults(func=_cmd_tran)


def _args_mc(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tech", default="90nm",
                   help="technology node (default 90nm)")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker count (0 or -1 = all cores)")
    p.add_argument("--backend", default="auto",
                   choices=("auto", "serial", "thread", "process"))
    p.add_argument("--batch-size", type=int, default=None, metavar="B",
                   help="solve up to B sweep points as lanes of one "
                        "batched Newton ensemble (DC sweeps; transient "
                        "specs run the scalar integrator); sampled "
                        "variates and pass/fail verdicts are unchanged")
    p.add_argument("--workload", default="offset",
                   choices=("offset", "ring"),
                   help="offset: DC input-referred offset of a "
                        "differential pair (default); ring: transient "
                        "stage-1 swing of a 3-stage ring oscillator")
    p.add_argument("--ring-tstop", type=float, default=0.3e-9,
                   metavar="SEC",
                   help="ring workload transient stop time "
                        "(default 0.3 ns)")
    p.add_argument("--ring-dt", type=float, default=5e-12, metavar="SEC",
                   help="ring workload time step (default 5 ps)")
    p.add_argument("--swing-min-v", type=float, default=None, metavar="V",
                   help="ring workload swing spec lower bound "
                        "(default 0.5*VDD)")
    p.add_argument("--limit-mv", type=float, default=5.0,
                   help="offset spec window [mV]")
    p.add_argument("--w-um", type=float, default=4.0,
                   help="input-pair width [um]")
    p.add_argument("--l-um", type=float, default=0.4,
                   help="input-pair length [um]")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="checkpoint directory; completed chunks are "
                        "persisted atomically, Ctrl-C writes a final "
                        "checkpoint before exiting")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint (bit-identical to an "
                        "uninterrupted run under the same seed)")
    p.add_argument("--budget", type=float, default=None, metavar="SEC",
                   help="wall-clock budget [s]; when it expires the "
                        "run stops cooperatively with a partial "
                        "result (and, with --checkpoint, a final "
                        "resumable checkpoint) instead of running on")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a JSONL telemetry trace (inspect with "
                        "'repro trace FILE')")
    p.add_argument("--profile", action="store_true",
                   help="sample stack profiles during the run "
                        "(embedded in --trace, summarised by 'repro "
                        "trace'); numeric results are bit-identical "
                        "with or without this flag")
    p.add_argument("--profile-out", default=None, metavar="FILE",
                   help="also write collapsed stacks (flamegraph.pl/"
                        "speedscope input) to FILE")
    p.add_argument("--profile-interval", type=float, default=0.005,
                   metavar="SEC",
                   help="sampling interval [s] (default 0.005)")
    p.add_argument("--metrics-port", type=int, default=None,
                   metavar="PORT",
                   help="serve live Prometheus metrics at "
                        "http://HOST:PORT/metrics while the run is "
                        "active (0 = ephemeral port; off by default, "
                        "zero overhead when absent)")
    p.add_argument("--metrics-host", default="127.0.0.1",
                   metavar="HOST",
                   help="bind address for --metrics-port "
                        "(default 127.0.0.1)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the stderr progress heartbeat")
    p.set_defaults(func=_cmd_mc)


def _args_highsigma(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tech", default="65nm",
                   help="technology node (default 65nm)")
    p.add_argument("--samples", type=int, default=4096,
                   help="importance-sampled draws (default 4096)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker count (0 or -1 = all cores)")
    p.add_argument("--backend", default="auto",
                   choices=("auto", "serial", "thread", "process"))
    p.add_argument("--batch-size", type=int, default=None, metavar="B",
                   help="solve up to B sweep points as lanes of one "
                        "batched Newton ensemble (DC sweeps; transient "
                        "specs run the scalar integrator); variates, "
                        "weights and verdicts are unchanged")
    p.add_argument("--chunk-size", type=int, default=32, metavar="N",
                   help="samples per work chunk (default 32)")
    p.add_argument("--shift-sigma", type=float, default=None,
                   metavar="S",
                   help="mean-shift magnitude [sigma]; default: start "
                        "at 4 and let the pilot refine it")
    p.add_argument("--surrogate", default="poly",
                   choices=("poly", "rbf", "off"),
                   help="screening surrogate (default poly); 'off' "
                        "sends every sample to the full solver")
    p.add_argument("--train-samples", type=int, default=128,
                   metavar="N",
                   help="fully-solved pilot samples the surrogate "
                        "trains on (default 128)")
    p.add_argument("--k-sigma", type=float, default=3.0, metavar="K",
                   help="screening band half-width in residual "
                        "sigmas (default 3)")
    p.add_argument("--audit-every", type=int, default=16, metavar="N",
                   help="re-solve every N-th screened sample as a "
                        "cross-check (default 16)")
    p.add_argument("--sigma-target", type=float, default=5.0,
                   metavar="S",
                   help="calibrated spec placement [sigma] when "
                        "--snm-min-mv is not given (default 5)")
    p.add_argument("--snm-min-mv", type=float, default=None,
                   metavar="MV",
                   help="fixed read-SNM spec lower bound [mV] "
                        "(default: calibrate from a short MC)")
    p.add_argument("--calibrate-samples", type=int, default=64,
                   metavar="N",
                   help="Monte-Carlo samples for spec calibration "
                        "(default 64)")
    p.add_argument("--snm-points", type=int, default=41, metavar="N",
                   help="butterfly sweep points per solve "
                        "(default 41)")
    p.add_argument("--cell-ratio", type=float, default=1.2,
                   help="SRAM pull-down/access width ratio "
                        "(default 1.2 - read-marginal on purpose)")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="checkpoint directory; completed chunks are "
                        "persisted atomically")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint (bit-identical to "
                        "an uninterrupted run under the same seed)")
    p.add_argument("--budget", type=float, default=None, metavar="SEC",
                   help="wall-clock budget [s]; expiry stops the run "
                        "cooperatively with a partial result")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a JSONL telemetry trace")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the stderr progress heartbeat and "
                        "calibration chatter")
    p.set_defaults(func=_cmd_highsigma)


def _args_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--goldens", default="goldens", metavar="DIR",
                   help="golden artifact directory "
                        "(default: goldens)")
    p.add_argument("--update-golden", action="store_true",
                   help="regenerate golden files from this run "
                        "instead of diffing against them")
    p.add_argument("--quick", action="store_true",
                   help="skip the slow experiment tier and the "
                        "process-backend MC check")
    p.add_argument("--skip-differential", action="store_true",
                   help="golden diff only (no oracle/cross-path "
                        "checks)")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="also write the report text to FILE")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a JSONL telemetry trace")
    p.set_defaults(func=_cmd_verify)


def _args_trace(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", default=None,
                   help="trace written by 'mc --trace'")
    p.add_argument("--diff", nargs=2, default=None,
                   metavar=("RUN_A", "RUN_B"),
                   help="diff two run-registry records (ids or "
                        "unambiguous prefixes from 'repro runs'): "
                        "capability/config changes, per-phase "
                        "self-time deltas, metric deltas and a "
                        "regression-attribution verdict; exits 2 "
                        "when the runs are not comparable")
    p.add_argument("--runs-dir", default=None, metavar="DIR",
                   help="run-registry directory (default "
                        ".repro/runs or REPRO_RUNS_DIR)")
    p.set_defaults(func=_cmd_trace)


def _args_runs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--runs-dir", default=None, metavar="DIR",
                   help="registry directory (default .repro/runs "
                        "or REPRO_RUNS_DIR)")
    runs_sub = p.add_subparsers(dest="runs_command")
    p_runs_list = runs_sub.add_parser("list",
                                      help="list records, oldest first "
                                           "(default action)")
    p_runs_list.add_argument("--ids", action="store_true",
                             help="print bare run ids, one per line "
                                  "(for scripting)")
    p_runs_show = runs_sub.add_parser("show", help="one record in full")
    p_runs_show.add_argument("run_id",
                             help="run id or unambiguous prefix")
    p_runs_gc = runs_sub.add_parser("gc",
                                    help="delete all but the newest "
                                         "records")
    p_runs_gc.add_argument("--keep", type=int, default=50,
                           help="records to keep (default 50)")
    p.set_defaults(func=_cmd_runs)


def _args_aging(p: argparse.ArgumentParser) -> None:
    p.add_argument("name")
    p.set_defaults(func=_cmd_aging)


def _args_capabilities(p: argparse.ArgumentParser) -> None:
    p.set_defaults(func=_cmd_capabilities)


def _args_serve(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8040,
                   help="bind port; 0 picks an ephemeral port "
                        "(default 8040)")
    p.add_argument("--workers", type=int, default=2,
                   help="analysis worker threads (default 2); "
                        "each job may additionally parallelise "
                        "internally via its spec's jobs/backend")
    p.add_argument("--queue-depth", type=int, default=16,
                   metavar="N",
                   help="queued-job bound before submits get "
                        "429 + Retry-After (default 16)")
    p.add_argument("--cache-entries", type=int, default=256,
                   metavar="N",
                   help="result-cache LRU capacity (default 256)")
    p.add_argument("--session-entries", type=int, default=8,
                   metavar="N",
                   help="compiled-engine session LRU capacity "
                        "(default 8)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist cached results to DIR "
                        "(memory-only by default)")
    p.add_argument("--spool", default=None, metavar="DIR",
                   help="checkpoint spool for checkpoint:true "
                        "jobs (required for resumable drains)")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   metavar="SEC",
                   help="seconds to wait for running jobs to "
                        "stop at a chunk boundary on drain "
                        "(default 10)")
    p.add_argument("--chaos", action="store_true",
                   help="honor fault-injection job params "
                        "(testing only)")
    p.set_defaults(func=_cmd_serve)


#: The subcommands in ``repro --help`` order: name, the ``add_parser``
#: keywords (the ``help=`` line ``repro --help`` lists, and the layout
#: of the subcommand's own help) and the function adding its arguments.
_COMMANDS = (
    ("nodes", {"help": "list technology nodes"}, _args_nodes),
    ("node", {"help": "describe one technology node"}, _args_node),
    ("op", {"help": "DC operating point of a netlist"}, _args_op),
    ("tran", {"help": "transient analysis of a netlist"}, _args_tran),
    ("mc", {"help": "Monte-Carlo yield: differential-pair offset or "
                    "transient ring swing",
            "formatter_class": argparse.RawDescriptionHelpFormatter,
            "epilog": EXIT_CODE_DOC}, _args_mc),
    ("highsigma", {"help": "rare-event (5-6 sigma) SRAM read-SNM yield via "
                           "importance sampling with surrogate "
                           "pre-screening",
                   "formatter_class": argparse.RawDescriptionHelpFormatter,
                   "epilog": EXIT_CODE_DOC}, _args_highsigma),
    ("verify", {"help": "differential verification against analytic "
                        "oracles and committed golden artifacts",
                "formatter_class": argparse.RawDescriptionHelpFormatter,
                "epilog": "exit codes:\n"
                          "  0    all checks pass and no golden drift\n"
                          "  2    a differential check failed or a golden "
                          "quantity drifted\n"
                          "  1    hard failure (missing/corrupt goldens, "
                          "bad arguments)\n"}, _args_verify),
    ("trace", {"help": "summarise a JSONL telemetry trace, or diff two "
                       "recorded runs"}, _args_trace),
    ("runs", {"help": "browse the run registry (.repro/runs): every mc/"
                      "verify/bench invocation leaves a content-addressed "
                      "record"}, _args_runs),
    ("aging", {"help": "degradation outlook of a node"}, _args_aging),
    ("capabilities", {"help": "probe and report optional accelerators "
                              "(ckernel, scipy sparse, LAPACK dgesv, "
                              "batched ensembles)"}, _args_capabilities),
    ("serve", {"help": "long-lived analysis service: JSON job specs over "
                       "HTTP, content-addressed result cache, NDJSON "
                       "progress, /metrics, graceful drain (see "
                       "docs/service.md)"}, _args_serve),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing).

    Every subcommand is registered, so ``repro --help`` and the error
    for an unknown command list them all.  With ``command`` given, only
    that subcommand gets its arguments: :func:`main` parses one
    command, and building all of them costs a few milliseconds.
    """
    # argparse builds a help formatter for every argument it adds, and
    # each reads the terminal size: read it once, as each would.
    width = shutil.get_terminal_size().columns - 2
    parser = argparse.ArgumentParser(
        prog="repro",
        description="yield & reliability analysis for nanometer CMOS "
                    "(DATE 2008 reproduction)",
        formatter_class=functools.partial(
            argparse.RawDescriptionHelpFormatter, width=width),
        epilog=EXIT_CODE_DOC)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keywords, add_arguments in _COMMANDS:
        formatter = keywords.get("formatter_class", argparse.HelpFormatter)
        p = sub.add_parser(name, **{**keywords, "formatter_class":
                                    functools.partial(formatter,
                                                      width=width)})
        if command is None or command == name:
            add_arguments(p)
    return parser


def _named_command(argv: List[str]) -> Optional[str]:
    """The subcommand ``argv`` names: its first token that is not an
    option (the top-level parser has no option that takes a value)."""
    for token in argv:
        if not token.startswith("-"):
            return token
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes follow the contract in :data:`EXIT_CODE_DOC`: 0 clean
    success, 2 completed-but-degraded, 1 hard failure, 130 interrupt.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(_named_command(argv)).parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
