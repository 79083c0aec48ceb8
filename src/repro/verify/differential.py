"""Differential harness: every solver path against every oracle.

Two layers of checks feed one structured :class:`VerificationReport`:

* **oracle checks** — each oracle in :mod:`repro.verify.oracles` is
  measured through every solver path it advertises and compared against
  its closed form within the oracle's documented :class:`Tolerance`;
* **cross-path checks** — a corpus of paper circuits is pushed through
  redundant solver paths that must agree with *each other*: scalar vs
  batched DC sweeps (within the per-circuit-class factors below),
  sparse-vs-dense factorisation on the OTA operating point (within the
  Newton stopping band), backward-Euler vs trapezoidal transient
  (within the BE band), and serial/thread/process Monte-Carlo with
  identical seeds (bit-identical by the repo's determinism contract;
  ``batch_size=`` within Newton tolerance).

Deviations are ULP-aware: every record carries the distance in
representable doubles alongside the absolute error, so "equal",
"arithmetic noise" and "genuinely different fixed point" are
distinguishable in the report.

Telemetry: the harness opens ``verify.differential`` /
``verify.oracle`` / ``verify.corpus`` spans and counts
``verify.checks`` / ``verify.failures`` when a session is active, so a
traced `repro verify --trace` run slots into the standard span tree.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.circuit import NewtonOptions, dc_sweep, transient
from repro.verify.oracles import Oracle, RcStepOracle, Tolerance, default_oracles

#: Residual batched-vs-scalar gap per circuit class, in multiples of the
#: Newton stopping criterion ``vtol + reltol·max(|x|, 1)`` per unknown.
#: Both paths iterate to the same fixed point with the same criterion,
#: so each can stop anywhere inside one stopping-band of it; the sum of
#: two such stops plus the damped-path difference is what these factors
#: bound.  Measured worst cases (see docs/verification.md): linear
#: circuits agree to machine epsilon; mirrors/references land well under
#: 1x; the differential pair and OTA need the pilot-seeded lanes a bit
#: more slack; the inverter VTC's high-gain transition region is the
#: worst measured case.  The old blanket 10x bound in tests/test_batch.py
#: is replaced by these.
BATCH_AGREEMENT_FACTORS: Dict[str, float] = {
    "linear": 0.1,
    "simple_current_mirror": 1.0,
    "beta_multiplier_reference": 1.0,
    "differential_pair": 2.0,
    "five_transistor_ota": 2.0,
    "inverter_vtc": 4.0,
}


def ulp_diff(a: float, b: float) -> float:
    """Distance between two doubles in units of representable values.

    0 for exact equality (including two zeros of different sign);
    ``inf`` when either value is NaN/inf.
    """
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return float(abs(_ordinal(a) - _ordinal(b)))


def _ordinal(x: float) -> int:
    """Map a finite double onto the integer line, order-preserving."""
    (n,) = struct.unpack("<q", struct.pack("<d", x))
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class Deviation:
    """One measured-vs-reference comparison."""

    subject: str
    """Oracle or corpus-circuit name."""

    path: str
    """Solver path that produced ``measured``."""

    quantity: str
    reference: float
    measured: float
    bound: float
    """Absolute acceptance bound at ``reference``."""

    note: str = ""

    @property
    def error(self) -> float:
        return abs(self.measured - self.reference)

    @property
    def ulp(self) -> float:
        return ulp_diff(self.measured, self.reference)

    @property
    def passed(self) -> bool:
        return self.error <= self.bound

    @property
    def margin(self) -> float:
        """error/bound — < 1 passes; ``inf`` for a zero bound miss."""
        if self.bound > 0.0:
            return self.error / self.bound
        return 0.0 if self.error == 0.0 else math.inf

    def to_dict(self) -> dict:
        return {
            "subject": self.subject, "path": self.path,
            "quantity": self.quantity, "reference": self.reference,
            "measured": self.measured, "bound": self.bound,
            "error": self.error, "ulp": self.ulp, "passed": self.passed,
            "note": self.note,
        }


@dataclass
class VerificationReport:
    """Structured outcome of a differential (or golden-diff) run."""

    deviations: List[Deviation] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def n_checks(self) -> int:
        return len(self.deviations)

    @property
    def failures(self) -> List[Deviation]:
        return [d for d in self.deviations if not d.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def worst_per_subject(self) -> Dict[str, Deviation]:
        """The largest error/bound ratio seen per subject."""
        worst: Dict[str, Deviation] = {}
        for dev in self.deviations:
            key = f"{dev.subject}:{dev.path}"
            if key not in worst or dev.margin > worst[key].margin:
                worst[key] = dev
        return worst

    def extend(self, deviations: Sequence[Deviation]) -> None:
        self.deviations.extend(deviations)

    def to_dict(self) -> dict:
        return {"meta": dict(self.meta), "passed": self.passed,
                "n_checks": self.n_checks,
                "deviations": [d.to_dict() for d in self.deviations]}


def _count(metric: str, value: float = 1.0) -> None:
    session = telemetry.active()
    if session is not None:
        session.metrics.inc(metric, value)


def check_oracle(oracle: Oracle,
                 paths: Optional[Sequence[str]] = None) -> List[Deviation]:
    """Measure ``oracle`` through each path and compare to its closed form."""
    reference = oracle.analytic()
    out: List[Deviation] = []
    for path in (paths if paths is not None else oracle.paths()):
        with telemetry.span("verify.oracle", oracle=oracle.name, path=path):
            measured = oracle.measure(path)
            tol = oracle.tolerance(path)
            for quantity, ref in reference.items():
                got = measured[quantity]
                bound = tol.bound(ref)
                dev = Deviation(subject=oracle.name, path=path,
                                quantity=quantity, reference=ref,
                                measured=got, bound=bound, note=tol.note)
                if not dev.passed and tol.ulps and dev.ulp <= tol.ulps:
                    dev = Deviation(subject=oracle.name, path=path,
                                    quantity=quantity, reference=ref,
                                    measured=got, bound=max(bound, dev.error),
                                    note=tol.note + " (ulp-accepted)")
                out.append(dev)
                _count("verify.checks")
                if not dev.passed:
                    _count("verify.failures")
    return out


def run_oracles(oracles: Optional[Sequence[Oracle]] = None
                ) -> VerificationReport:
    """Run the full oracle library (or a custom list)."""
    report = VerificationReport(meta={"kind": "oracles"})
    for oracle in (oracles if oracles is not None else default_oracles()):
        report.extend(check_oracle(oracle))
    return report


# ----------------------------------------------------------------------
# Cross-path corpus checks
# ----------------------------------------------------------------------
def _batch_corpus(tech) -> list:
    """(class key, circuit, swept source, values) corpus rows."""
    from repro.circuits import (
        beta_multiplier_reference,
        differential_pair,
        five_transistor_ota,
        inverter,
        simple_current_mirror,
    )

    pair = differential_pair(tech)
    vcm = pair.circuit["vinp"].spec.dc_value()
    ota = five_transistor_ota(tech)
    vcm_ota = ota.circuit["vinp"].spec.dc_value()
    return [
        ("differential_pair", pair.circuit, "vinp",
         np.linspace(vcm - 0.2, vcm + 0.2, 21)),
        ("five_transistor_ota", ota.circuit, "vinp",
         np.linspace(vcm_ota - 0.1, vcm_ota + 0.1, 11)),
        ("simple_current_mirror", simple_current_mirror(tech).circuit,
         "vout", np.linspace(0.05, tech.vdd, 17)),
        ("inverter_vtc", inverter(tech).circuit, "vin",
         np.linspace(0.0, tech.vdd, 21)),
        ("beta_multiplier_reference",
         beta_multiplier_reference(tech).circuit, "vdd",
         np.linspace(0.8 * tech.vdd, 1.1 * tech.vdd, 9)),
    ]


def batch_state_bound(x_scalar: np.ndarray, factor: float,
                      options: Optional[NewtonOptions] = None) -> np.ndarray:
    """Per-unknown agreement bound: ``factor·(vtol + reltol·scale)``."""
    opts = options if options is not None else NewtonOptions()
    scale = np.maximum(np.abs(np.asarray(x_scalar)), 1.0)
    return factor * (opts.vtol + opts.reltol * scale)


def _check_batch_vs_scalar(name, circuit, source, values) -> Deviation:
    factor = BATCH_AGREEMENT_FACTORS[name]
    scalar = dc_sweep(circuit, source, values, batch=False)
    batched = dc_sweep(circuit, source, values, batch=True)
    worst = None
    for sol_s, sol_b in zip(scalar, batched):
        bound = batch_state_bound(sol_s.x, factor)
        ratio = np.abs(sol_b.x - sol_s.x) / bound
        i = int(np.argmax(ratio))
        if worst is None or ratio[i] > worst[0]:
            worst = (float(ratio[i]), float(sol_s.x[i]), float(sol_b.x[i]),
                     float(bound[i]))
    _, ref, got, bound = worst
    return Deviation(
        subject=name, path="dc.batch-vs-scalar",
        quantity="worst_state_delta", reference=ref, measured=got,
        bound=bound,
        note=f"per-class factor {factor:g}x Newton stopping criterion")


def _check_solver_variants(tech) -> List[Deviation]:
    """The linear-solver variants must share the fixed point.

    The sparse (CSC/``splu``) factorisation runs the same Newton loop
    with the same residual and stopping criterion as the default dense
    path, so on the five-transistor OTA it must land within the
    stopping band of the dense solution.
    """
    from repro.circuit import dc_operating_point, sparse_mode
    from repro.circuits import five_transistor_ota

    fx = five_transistor_ota(tech)
    base = dc_operating_point(fx.circuit)
    # The threshold is read at engine *build* time and engines are
    # cached per circuit object, so the sparse leg needs a fresh build.
    with sparse_mode(1):
        fx_sparse = five_transistor_ota(tech)
        sparse = dc_operating_point(fx_sparse.circuit)
    bound = batch_state_bound(base.x, 1.0)
    ratio = np.abs(sparse.x - base.x) / bound
    i = int(np.argmax(ratio))
    return [Deviation(
        subject="five_transistor_ota", path="dc.sparse-vs-dense",
        quantity="worst_state_delta", reference=float(base.x[i]),
        measured=float(sparse.x[i]), bound=float(bound[i]),
        note="1x Newton stopping criterion")]


def _check_transient_cross() -> Deviation:
    """BE vs trapezoidal on the RC oracle — must agree within BE's band."""
    oracle = RcStepOracle()
    be = oracle.measure("tran.be")
    trap = oracle.measure("tran.trap")
    quantity = f"v_at_{oracle.n_tau}tau_v"
    return Deviation(
        subject=oracle.name, path="tran.be-vs-trap", quantity=quantity,
        reference=trap[quantity], measured=be[quantity],
        bound=oracle.tolerance("tran.be").bound(trap[quantity]),
        note="methods differ by at most the lower-order (BE) band")


def _check_mc_backends(tech, quick: bool) -> List[Deviation]:
    """Identical seeds across MC backends: bit-identical metric arrays."""
    from repro.circuits import differential_pair, input_referred_offset_v
    from repro.core import MonteCarloYield, Specification

    fx = differential_pair(tech)
    spec = Specification("offset", input_referred_offset_v,
                         lower=-5e-3, upper=5e-3)
    mc = MonteCarloYield(fx, [spec], tech)
    n = 16
    baseline = mc.run(n_samples=n, seed=11)
    backends = [("mc.thread", {"jobs": 2, "backend": "thread"})]
    if not quick:
        backends.append(("mc.process", {"jobs": 2, "backend": "process"}))
    out = []
    for path, kwargs in backends:
        result = mc.run(n_samples=n, seed=11, **kwargs)
        delta = np.abs(result.values["offset"] - baseline.values["offset"])
        i = int(np.argmax(delta))
        out.append(Deviation(
            subject="differential_pair.mc", path=path,
            quantity="offset_values",
            reference=float(baseline.values["offset"][i]),
            measured=float(result.values["offset"][i]), bound=0.0,
            note="SeedSequence-per-chunk contract: bit-identical"))
    batched = mc.run(n_samples=n, seed=11, batch_size=32)
    delta = np.abs(batched.values["offset"] - baseline.values["offset"])
    i = int(np.argmax(delta))
    out.append(Deviation(
        subject="differential_pair.mc", path="mc.batch",
        quantity="offset_values",
        reference=float(baseline.values["offset"][i]),
        measured=float(batched.values["offset"][i]), bound=1e-7,
        note="batched lanes within Newton tolerance on the metric"))
    return out


def _check_highsigma(quick: bool) -> List[Deviation]:
    """Cross-path contracts of the high-sigma engine on the linear oracle.

    Three properties the estimator math depends on, checked against the
    engine itself rather than the closed form (which the oracle layer
    already gates):

    * importance *weights* are identical with screening on and off —
      screening only chooses who gets a full solve, never touches the
      density ratio (bound 0.0, bit-identical);
    * parallel chunks are bit-identical to serial ones (the same
      SeedSequence-per-chunk contract the MC engine carries);
    * the self-normalized estimate agrees with the unnormalized one
      within their combined (realized) standard errors — the standing
      diagnostic for a mis-weighted proposal.
    """
    from repro.verify.oracles import HighSigmaLinearOracle

    n = 1024 if quick else 2048
    oracle = HighSigmaLinearOracle(n_samples=n)
    engine = oracle._engine()
    kwargs = dict(shift_sigma=oracle.k_sigma, seed=oracle.seed,
                  adapt=False)
    plain = engine.run(n, surrogate=None, **kwargs)
    screened = engine.run(n, surrogate="poly", **kwargs)
    threaded = engine.run(n, surrogate=None, jobs=2, backend="thread",
                          **kwargs)
    out = []
    delta = np.abs(screened.weights - plain.weights)
    i = int(np.argmax(delta))
    out.append(Deviation(
        subject=oracle.name, path="is.weights-screened-vs-plain",
        quantity="weights", reference=float(plain.weights[i]),
        measured=float(screened.weights[i]), bound=0.0,
        note="screening reorders solves, never reweights: bit-identical"))
    delta = np.abs(threaded.weights - plain.weights)
    i = int(np.argmax(delta))
    out.append(Deviation(
        subject=oracle.name, path="is.thread-vs-serial",
        quantity="weights", reference=float(plain.weights[i]),
        measured=float(threaded.weights[i]), bound=0.0,
        note="SeedSequence-per-chunk contract: bit-identical"))
    combined_se = math.hypot(plain.standard_error,
                             plain.standard_error_self_normalized)
    out.append(Deviation(
        subject=oracle.name, path="is.selfnorm-vs-unnorm",
        quantity="p_fail", reference=plain.failure_probability,
        measured=plain.failure_probability_self_normalized,
        bound=5.0 * combined_se,
        note="estimators agree within 5 combined standard errors"))
    return out


def run_corpus(quick: bool = False) -> List[Deviation]:
    """Cross-path agreement checks over the paper-circuit corpus."""
    from repro.technology import get_node

    tech = get_node("90nm")
    out: List[Deviation] = []
    with telemetry.span("verify.corpus", quick=quick):
        for name, circuit, source, values in _batch_corpus(tech):
            with telemetry.span("verify.corpus.batch", circuit=name):
                out.append(_check_batch_vs_scalar(name, circuit, source,
                                                 values))
        out.extend(_check_solver_variants(tech))
        out.append(_check_transient_cross())
        out.extend(_check_mc_backends(tech, quick))
        with telemetry.span("verify.corpus.highsigma", quick=quick):
            out.extend(_check_highsigma(quick))
    for dev in out:
        _count("verify.checks")
        if not dev.passed:
            _count("verify.failures")
    return out


def run_differential(quick: bool = False,
                     oracles: Optional[Sequence[Oracle]] = None
                     ) -> VerificationReport:
    """The full differential harness: oracles + cross-path corpus."""
    with telemetry.span("verify.differential", quick=quick):
        report = run_oracles(oracles)
        report.meta = {"kind": "differential", "quick": quick}
        report.extend(run_corpus(quick=quick))
    return report
