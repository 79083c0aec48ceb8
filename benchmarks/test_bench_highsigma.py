"""High-sigma SRAM read-margin benchmark (the PR-9 perf target).

Times one full :class:`repro.core.HighSigmaYield` estimate of the 6T
SRAM read-SNM tail with surrogate pre-screening on — the workload the
engine exists to accelerate: every skipped full solve is a butterfly
sweep (two 41-point DC continuation sweeps) that never runs.

The pass/fail shape assertions are deterministic (solver-call
accounting, not wall-clock): screening must actually route most
post-pilot samples around the solver while still resolving the tail.
With ``--require-speedup`` the bench additionally runs the
screening-off reference and FAILS unless the surrogate cuts full
solver calls by at least 3x — the gate ``scripts/check_regression.py``
enforces on snapshot trajectories.

The bench is sized small-but-real (1024 samples, default 128-sample
pilot) so a pytest-benchmark round stays around two seconds; the
acceptance-scale numbers (4096 samples at sigma >= 5) are collected by
``run_bench.py`` into the snapshot's ``highsigma`` key.
"""

import functools

from repro.core import HighSigmaYield, Specification, SurrogateConfig
from repro.workloads import sram_snm

from conftest import fmt, print_table

#: Fixed spec bound [V] — calibrated once offline (65 nm, cell_ratio
#: 1.2: read-SNM mean ~127 mV, sigma ~12 mV, so 70 mV sits near the
#: 4.7-sigma tail; see docs/high_sigma.md) so the bench never spends
#: rounds re-calibrating.
SNM_MIN_V = 0.070

N_SAMPLES = 1024
TRAIN_SAMPLES = 128
SNM_POINTS = 41


def _engine(tech65):
    from repro.circuits import sram_cell

    fixture = sram_cell(tech65, cell_ratio=1.2)
    spec = Specification("read_snm",
                         functools.partial(sram_snm,
                                           n_points=SNM_POINTS),
                         lower=SNM_MIN_V)
    return HighSigmaYield(fixture, spec, tech65)


def test_perf_highsigma_sram(benchmark, tech65, request):
    engine = _engine(tech65)
    config = SurrogateConfig(train_samples=TRAIN_SAMPLES)

    def run():
        return engine.run(n_samples=N_SAMPLES, seed=0, surrogate=config)

    result = benchmark(run)

    # Shape: the tail is resolved and screening actually screens.
    assert result.n_failures_observed > 10
    assert result.full_solver_calls < N_SAMPLES
    assert result.screened_samples > 0
    assert result.failure_probability > 0.0

    rows = [
        ["P(fail)", fmt(result.failure_probability)],
        ["sigma level", fmt(result.sigma_level)],
        ["relative SE", fmt(result.relative_standard_error)],
        ["full solver calls", f"{result.full_solver_calls}/{N_SAMPLES}"],
        ["screening factor", fmt(result.screening_factor) + "x"],
        ["audit mismatches",
         f"{result.audit_mismatches}/{result.audit_count}"],
    ]

    if request.config.getoption("--require-speedup"):
        reference = engine.run(n_samples=N_SAMPLES, seed=0, surrogate=None)
        reduction = (reference.full_solver_calls
                     / max(1, result.full_solver_calls))
        rows.append(["call reduction vs off", fmt(reduction) + "x"])
        assert reduction >= 3.0, (
            f"surrogate screening saved only {reduction:.2f}x solver "
            f"calls (< 3x gate)")

    print_table("High-sigma SRAM read-SNM (1024 samples, surrogate on)",
                ["quantity", "value"], rows)
