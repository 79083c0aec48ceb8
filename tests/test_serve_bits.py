"""Bit identity of the serve path for netlist ``mc`` jobs.

``tests/data/serve_mc_reference.json`` holds, for three of the twelve
common-source netlists the serve benchmark draws from and two seeds
each, the ``canonical_json`` envelope of a 32-sample ``mc`` job and the
parts of its run record that do not depend on timing: the counters, the
``solver.dc.newton_iterations`` histogram and the span counts of
``phases``.  The reference was written by the code before the lean
operating-point path, record-less spans and the one-pass run record;
a change to any of them must reproduce it byte for byte.

Regenerate (only for an intended change of bits or counters) with::

    PYTHONPATH=src python tests/test_serve_bits.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.circuit import _ckernel

REFERENCE = Path(__file__).resolve().parent / "data" / \
    "serve_mc_reference.json"

#: The (variant, seed) pairs of the reference.
CASES = [(0, 1), (0, 2), (5, 1), (5, 2), (11, 1), (11, 2)]
SAMPLES = 32
#: The ``phases`` entries whose counts the reference holds.
PHASES = ("serve.job.mc", "run", "chunk", "sample", "analysis", "solve.dc")
HISTOGRAM = "solver.dc.newton_iterations"


def netlist(variant: int) -> str:
    """A resistively loaded common-source stage; ``variant`` sets W, R
    (the serve benchmark's job netlists)."""
    return (f"common-source stage {variant}\n"
            "vdd vdd 0 dc 1.2\n"
            "vg g 0 dc 0.6\n"
            f"rl vdd out {10 + variant}k\n"
            f"m1 out g 0 0 n w={1.0 + 0.25 * variant:g}u l=0.1u\n"
            ".end\n")


def job_spec(variant: int, seed: int) -> dict:
    return {"analysis": "mc", "tech": "90nm", "netlist": netlist(variant),
            "params": {"samples": SAMPLES, "node": "out",
                       "lower": 0.05, "upper": 1.15},
            "seed": seed}


def run_job(variant: int, seed: int, runs_dir: Path) -> dict:
    """Run one job to its end on a fresh in-process daemon (no socket)
    and return its envelope text and the timing-free run-record parts."""
    from repro.obs.runlog import RunRegistry
    from repro.serve import ServeApp, ServeConfig

    app = ServeApp(ServeConfig(port=0, workers=1, record_runs=True))
    status, payload = app.submit(job_spec(variant, seed))
    assert status == 202, payload
    job = app.queue.get(timeout=5)
    app.runner.execute(job)
    assert job.outcome == "ok", (job.outcome, job.error)
    (record,) = RunRegistry(runs_dir).list()
    metrics = record["metrics"]
    return {"envelope": job.result_text,
            "counters": metrics["counters"],
            "histogram": metrics["histograms"][HISTOGRAM],
            "phases": {name: record["phases"][name]["count"]
                       for name in PHASES}}


def _key(variant: int, seed: int) -> str:
    return f"variant {variant} seed {seed}"


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


@pytest.mark.skipif(not _ckernel.available(),
                    reason="the reference was written on the compiled "
                           "kernel path")
@pytest.mark.parametrize("variant,seed", CASES)
def test_job_matches_reference(variant, seed, reference, tmp_path,
                               monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_RUNLOG", raising=False)
    got = run_job(variant, seed, tmp_path)
    want = reference[_key(variant, seed)]
    assert got["envelope"] == want["envelope"]
    assert got["counters"] == want["counters"]
    assert got["histogram"] == want["histogram"]
    assert got["phases"] == want["phases"]
    assert got["phases"]["solve.dc"] == SAMPLES
    assert got["counters"]["solver.dc.solves"] == SAMPLES


def _write() -> None:
    import os
    import tempfile

    out = {}
    for variant, seed in CASES:
        with tempfile.TemporaryDirectory() as runs:
            os.environ["REPRO_RUNS_DIR"] = runs
            out[_key(variant, seed)] = run_job(variant, seed, Path(runs))
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    _write()
