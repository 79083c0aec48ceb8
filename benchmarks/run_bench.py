#!/usr/bin/env python
"""Run the pytest-benchmark suite and record a trajectory snapshot.

Each invocation runs the simulator performance benchmarks (by default
``benchmarks/test_bench_simulator_perf.py``), extracts the per-bench
median/mean/rounds from pytest-benchmark's JSON output, and writes the
next ``BENCH_<n>.json`` snapshot in the repository root:

    python benchmarks/run_bench.py              # writes BENCH_<n+1>.json
    python benchmarks/run_bench.py --all        # run every benchmark file
    python benchmarks/run_bench.py --dry-run    # print, write nothing

The snapshots form the performance trajectory of the repository; see
``scripts/check_regression.py`` for the comparison step and
``docs/performance.md`` for how to read the files.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")

#: Schema version of the snapshot files (bump when the layout changes).
SCHEMA = 1


def existing_snapshots(directory: Path):
    """Sorted ``[(index, path), ...]`` of BENCH_<n>.json files."""
    found = []
    for entry in directory.iterdir():
        match = SNAPSHOT_PATTERN.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return sorted(found)


def next_snapshot_path(directory: Path) -> Path:
    """Path of the next BENCH_<n>.json in the trajectory."""
    snapshots = existing_snapshots(directory)
    index = snapshots[-1][0] + 1 if snapshots else 0
    return directory / f"BENCH_{index}.json"


def run_pytest_benchmark(target: str, max_time_s: float,
                         min_rounds: int) -> dict:
    """Run pytest-benchmark on ``target`` and return its parsed JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        cmd = [
            sys.executable, "-m", "pytest", *target.split(),
            "--benchmark-only",
            f"--benchmark-json={json_path}",
            f"--benchmark-max-time={max_time_s}",
            f"--benchmark-min-rounds={min_rounds}",
            "-q", "-p", "no:cacheprovider",
        ]
        result = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if result.returncode != 0:
            raise SystemExit(
                f"pytest-benchmark run failed (exit {result.returncode})")
        with open(json_path, encoding="utf-8") as handle:
            return json.load(handle)


def summarize(raw: dict) -> dict:
    """Reduce pytest-benchmark JSON to ``{bench name: stats}``."""
    benches = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        benches[bench["name"]] = {
            "median_s": stats["median"],
            "mean_s": stats["mean"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
        }
    return benches


def collect_phase_breakdowns(repeats: int = 3) -> dict:
    """Span-level phase breakdowns for the headline workloads.

    Runs each workload in-process under
    :func:`repro.telemetry.profile_phases` and records per-span-name
    total/self/count averages, so a snapshot says *where* the time went
    (``solve.dc`` vs ``solve.transient`` vs overhead), not just how
    much there was.  ``scripts/check_regression.py`` only compares the
    ``benchmarks`` key, so the breakdown rides along without affecting
    the gate.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import numpy as np

    from repro import telemetry
    from repro.circuit import dc_operating_point, transient
    from repro.circuits import (
        differential_pair,
        input_referred_offset_v,
        ring_oscillator,
        simple_current_mirror,
    )
    from repro.technology import get_node
    from repro.variability import MismatchSampler

    tech = get_node("90nm")
    mirror = simple_current_mirror(tech)
    ring = ring_oscillator(tech, n_stages=3)
    pair = differential_pair(tech, w_m=4e-6, l_m=0.4e-6)
    sampler = MismatchSampler(tech, np.random.default_rng(1))

    def mc_sample():
        sampler.assign(pair.circuit)
        input_referred_offset_v(pair)

    def mc_sample_batched():
        from repro.circuit import batched_sweeps

        sampler.assign(pair.circuit)
        with batched_sweeps():
            input_referred_offset_v(pair)

    def verify_oracles():
        from repro.verify import default_oracles, run_oracles

        run_oracles(default_oracles())

    def highsigma_screened():
        # Linear tail oracle (no MNA): the breakdown isolates the
        # engine's own spans (chunks, surrogate routing) from solver
        # time, which the SRAM quality collection below measures.
        from repro.verify.oracles import HighSigmaLinearOracle

        HighSigmaLinearOracle().run("is.screened")

    def dc_sweep_sparse():
        from repro.circuit import dc_sweep

        dc_sweep(ladder, "vdd", sweep_values, batch=False)

    from repro.circuit import Circuit

    ladder = Circuit("bench-ladder-96")
    ladder.voltage_source("vdd", "n0", "0", 1.2)
    for k in range(96):
        lower = f"n{k + 1}" if k < 95 else "0"
        ladder.resistor(f"r{k}", f"n{k}", lower, 1e3)
    sweep_values = np.linspace(0.6, tech.vdd, 13)

    workloads = {
        "dc_operating_point": lambda: dc_operating_point(mirror.circuit),
        "transient_ring": lambda: transient(ring.circuit,
                                            t_stop=0.5e-9, dt=5e-12),
        "dc_sweep_sparse": dc_sweep_sparse,
        "mc_yield_sample": mc_sample,
        "mc_yield_batched": mc_sample_batched,
        "verify_oracles": verify_oracles,
        "highsigma_screened": highsigma_screened,
    }
    breakdowns = {}
    for name, fn in workloads.items():
        breakdowns[name] = telemetry.profile_phases(fn, repeats=repeats)
    sampler.clear(pair.circuit)
    return breakdowns


def collect_highsigma_quality(n_samples: int = 4096) -> dict:
    """Acceptance-scale high-sigma quality numbers for the snapshot.

    Runs the 6T SRAM read-SNM tail estimate (the PR-9 perf target) at
    sigma >= 5 with surrogate screening on AND off, and records the
    deterministic solver-call accounting plus estimate quality.
    ``scripts/check_regression.py`` gates on these: the screened run
    must resolve the tail (RSE <= 0.2) in at most 10^4 full solver
    calls while saving at least 3x the calls of the unscreened run.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import functools

    from repro.circuits import sram_cell
    from repro.core import (
        HighSigmaYield,
        MonteCarloYield,
        Specification,
        SurrogateConfig,
    )
    from repro.technology import get_node
    from repro.workloads import sram_snm

    tech = get_node("65nm")
    fixture = sram_cell(tech, cell_ratio=1.2)
    extractor = functools.partial(sram_snm)
    # Place the bound 5 fitted sigmas below the fitted mean (decoupled
    # calibration seed), mirroring `repro highsigma --sigma-target 5`.
    cal = MonteCarloYield(
        fixture, [Specification("read_snm", extractor, lower=-1.0)],
        tech).run(n_samples=64, seed=7919)
    bound = cal.mean("read_snm") - 5.0 * cal.sigma("read_snm")
    spec = Specification("read_snm", extractor, lower=bound)
    engine = HighSigmaYield(fixture, spec, tech)

    screened = engine.run(n_samples=n_samples, seed=0,
                          surrogate=SurrogateConfig())
    plain = engine.run(n_samples=n_samples, seed=0, surrogate=None)
    return {
        "workload": "sram_read_snm_65nm",
        "n_samples": n_samples,
        "sigma_target": 5.0,
        "snm_bound_v": bound,
        "p_fail": screened.failure_probability,
        "p_fail_off": plain.failure_probability,
        "rse": screened.relative_standard_error,
        "rse_off": plain.relative_standard_error,
        "sigma_level": screened.sigma_level,
        "full_solver_calls": screened.full_solver_calls,
        "solver_calls_off": plain.full_solver_calls,
        "reduction": (plain.full_solver_calls
                      / max(1, screened.full_solver_calls)),
        "audit_count": screened.audit_count,
        "audit_mismatches": screened.audit_mismatches,
    }


def collect_capabilities() -> dict:
    """``{capability: usable?}`` flags of the benching environment.

    Stored in the snapshot so ``scripts/check_regression.py`` can refuse
    to compare runs benched under different accelerator sets — a
    "regression" that is really the C kernel (or sparse path) being
    absent on one side is an environment diff, not a code diff.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs.runlog import capability_flags

    return capability_flags()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--target",
        default="benchmarks/test_bench_simulator_perf.py "
                "benchmarks/test_bench_highsigma.py",
        help="pytest target(s) to benchmark, space-separated (default: "
             "the simulator perf suite plus the high-sigma SRAM bench)")
    parser.add_argument(
        "--all", action="store_true",
        help="benchmark the whole benchmarks/ directory instead")
    parser.add_argument(
        "--dir", type=Path, default=REPO_ROOT,
        help="directory holding the BENCH_<n>.json trajectory")
    parser.add_argument(
        "--max-time", type=float, default=1.0,
        help="pytest-benchmark --benchmark-max-time per bench [s]")
    parser.add_argument(
        "--min-rounds", type=int, default=5,
        help="pytest-benchmark --benchmark-min-rounds per bench")
    parser.add_argument(
        "--dry-run", action="store_true",
        help="run and print the summary without writing a snapshot")
    parser.add_argument(
        "--no-phases", action="store_true",
        help="skip the telemetry phase-breakdown collection")
    parser.add_argument(
        "--no-highsigma", action="store_true",
        help="skip the acceptance-scale high-sigma quality collection")
    parser.add_argument(
        "--highsigma-samples", type=int, default=4096,
        help="sample count for the high-sigma quality collection "
             "(default 4096)")
    args = parser.parse_args(argv)

    target = "benchmarks" if args.all else args.target
    raw = run_pytest_benchmark(target, args.max_time, args.min_rounds)
    benches = summarize(raw)
    if not benches:
        raise SystemExit("no benchmarks collected — nothing to record")

    snapshot = {
        "schema": SCHEMA,
        "target": target,
        "machine": raw.get("machine_info", {}).get("node", "unknown"),
        "python": raw.get("machine_info", {}).get("python_version", ""),
        "benchmarks": benches,
        "capabilities": collect_capabilities(),
    }
    if not args.no_phases:
        snapshot["phases"] = collect_phase_breakdowns()
    if not args.no_highsigma:
        snapshot["highsigma"] = collect_highsigma_quality(
            args.highsigma_samples)

    width = max(len(name) for name in benches)
    print(f"\n{'benchmark'.ljust(width)}  median [ms]  rounds")
    for name, stats in sorted(benches.items()):
        print(f"{name.ljust(width)}  {stats['median_s'] * 1e3:11.3f}  "
              f"{stats['rounds']:6d}")
    for name, phases in sorted(snapshot.get("phases", {}).items()):
        parts = ", ".join(
            f"{span} {entry['total_s'] * 1e3:.2f}ms"
            for span, entry in sorted(phases.items(),
                                      key=lambda kv: -kv[1]["total_s"])[:3])
        print(f"phases {name}: {parts or '(no spans)'}")
    quality = snapshot.get("highsigma")
    if quality:
        print(f"highsigma {quality['workload']}: "
              f"p_fail {quality['p_fail']:.3e} "
              f"(rse {quality['rse']:.3f}), "
              f"{quality['full_solver_calls']} of {quality['n_samples']} "
              f"full solves ({quality['reduction']:.2f}x fewer than "
              f"screening off)")

    if args.dry_run:
        return 0
    out_path = next_snapshot_path(args.dir)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {out_path.relative_to(REPO_ROOT)}")

    # Leave a run-registry record too: benches are runs like any other
    # and `repro trace --diff` can compare them across days.
    from repro.obs.runlog import record_run

    record_run("bench", {"target": target},
               capabilities=snapshot["capabilities"],
               extra={"snapshot": out_path.name,
                      "benchmarks": benches})
    return 0


if __name__ == "__main__":
    sys.exit(main())
