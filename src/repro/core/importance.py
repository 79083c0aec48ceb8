"""High-sigma yield estimation: importance sampling + surrogate screening.

Plain Monte-Carlo needs ~100/P samples to resolve a failure probability
P — hopeless for the 5–6 σ failure rates of large memory/DAC arrays
(10⁹ dies to see a handful of 5 σ failures).  This module promotes the
standard EDA answer into a first-class engine, :class:`HighSigmaYield`,
with four layers:

**Estimator core.**  Mean-shift importance sampling over the per-device
ΔV_T space: draw from a proposal ``q`` centred inside the failure
region and re-weight by the density ratio ``w = p(x)/q(x)``.  Two
estimators are reported side by side:

* *unnormalized* (exact, unbiased):   ``p̂ = (1/n) Σ w_i · 1_fail(x_i)``
* *self-normalized* (biased O(1/n), often lower variance):
  ``p̃ = Σ w_i · 1_fail(x_i) / Σ w_i``

together with the Kish effective sample size ``(Σw)²/Σw²`` — the
standing diagnostic for a badly placed shift.  The shift direction is
coordinate-probed (each device perturbed by +kσ in turn, sensitivity
toward the nearest failing bound kept) and then *adaptively refined*:
the pilot chunks' failing draws are folded onto the current direction
and their mean becomes the refined direction (and, when no explicit
``shift_sigma`` was given, their median projection becomes the refined
magnitude).  Symmetric two-bound specs use the two-component mixture
proposal ``q = ½N(+μ) + ½N(−μ)`` so both failure lobes are seen.

**Throughput.**  Samples are evaluated in seed-deterministic chunks
by the shared :func:`repro.runner.run_chunks` driver (serial/thread/
process backends, bit-identical for any ``jobs``; checkpoint/resume,
deadline budgets and telemetry, with ``highsigma.*`` spans and
metrics) — the pilot and main stages are two stages of one driver
run.  A chunk draws its variates up front in one generator call, and
its full solves run through
:func:`repro.core.yield_analysis.evaluate_dies`, the die loop
Monte-Carlo chunks run: the compiled loop
(:func:`repro.circuit.dc.operating_point_dies`) when the spec's
extractor declares its solves, as the ``sram`` workload's does;
otherwise one extractor call per die, under
:func:`repro.circuit.batch.batched_sweeps` with ``batch_size=``.

**Surrogate screening.**  A numpy-only polynomial/RBF ridge regressor
(:class:`Surrogate`) is trained on the fully-solved pilot chunks and
pre-screens every later sample: predictions within ``k·σ_resid`` of a
spec bound (plus a deterministic audit slice) are routed to the full
solver, confident ones are accepted from the surrogate.  The
importance *weights* are always exact — computed from the drawn
variates, never predicted — so screening only decides which samples
get full solves; a solved sample always contributes its solver value.
``surrogate=None`` disables screening for verification
(`repro verify` checks both paths against a closed-form oracle).

**Surface.**  ``repro highsigma`` (CLI), a
:class:`~repro.verify.oracles.HighSigmaLinearOracle` with an exactly
known tail probability *and* an exactly derived estimator variance
(``Var[p̂] = (e^{s²}·Φ(−(k+s)) − p²)/n`` for a one-sided linear metric
at shift ``s``), and the ``test_perf_highsigma_sram`` benchmark gated
on full-solver-calls-per-estimate in ``scripts/check_regression.py``.

Only the ΔV_T coordinates are shifted; current-factor and body-factor
variations are drawn from their NOMINAL distribution, so they need no
weight term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import telemetry
from repro.circuit.mna import ConvergenceError, SingularCircuitError
from repro.circuit.mosfet import DeviceVariation
from repro.circuits.references import CircuitFixture
from repro.core.yield_analysis import Specification, evaluate_dies
from repro.parallel import (
    FailureLedger,
    chunk_ranges,
    clone_fixture,
    spawn_seed_sequences,
)
from repro.resilience import DeadlineBudget
from repro.runner import (
    DEFAULT_CHUNK_SIZE,
    accel_manifest,
    run_chunks,
    run_identity,
)
from repro.technology.node import TechnologyNode
from repro.variability.sampler import MismatchSampler

#: Mean-shift magnitude used when the caller does not supply one (the
#: adaptive pilot refines it toward the observed failure boundary).
DEFAULT_SHIFT_SIGMA = 4.0

#: Failing pilot draws needed before the direction refinement engages.
MIN_REFINE_FAILURES = 4


# ----------------------------------------------------------------------
# Normal-distribution helpers (stdlib only)
# ----------------------------------------------------------------------
def normal_sf(x: float) -> float:
    """Standard-normal survival function Φ(−x), via ``math.erfc``."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def normal_ppf(p: float) -> float:
    """Inverse standard-normal CDF, via :meth:`statistics.NormalDist.inv_cdf`.

    Within a few ulps of ``scipy.stats.norm.ppf`` over (0, 1), and the
    same on every install: a sigma level never costs the ``scipy.stats``
    import (about a second and 55 MB).  Raises ``ValueError`` outside
    the open interval (0, 1).
    """
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


def sigma_level_from_probability(p_fail: float) -> float:
    """Equivalent one-sided Gaussian sigma of a failure rate."""
    if not math.isfinite(p_fail) or p_fail <= 0.0:
        return math.inf
    if p_fail >= 1.0:
        return -math.inf
    return -normal_ppf(p_fail)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class HighSigmaResult:
    """Outcome of a :class:`HighSigmaYield` run.

    Carries the full per-sample record (importance weights, metric
    values, fail flags and the solved/screened split) so both
    estimators, their standard errors and the solver-call accounting
    are derivable after the fact.
    """

    n_samples: int
    spec_name: str

    values: np.ndarray
    """Per-sample metric values — solver values for solved samples,
    surrogate predictions for screened ones (NaN = quarantined)."""

    weights: np.ndarray
    """Per-sample importance weights p(x)/q(x) — always exact, always
    computed from the drawn variates, never predicted."""

    fails: np.ndarray
    """Per-sample failure indicator (quarantined samples count as
    failing — a die that cannot be verified cannot ship)."""

    solved: np.ndarray
    """True where the full solver produced the verdict, False where the
    surrogate screened it."""

    shift_sigma: float
    """Mean-shift magnitude of the main (post-pilot) stage [σ]."""

    direction: Dict[str, float]
    """Final unit shift direction (device name → component)."""

    two_sided: bool
    n_pilot: int
    """Samples in the always-fully-solved pilot/training stage."""

    audit_count: int = 0
    """Screened-stage samples re-solved as a deterministic audit."""

    audit_mismatches: int = 0
    """Audited samples whose surrogate verdict disagreed with the
    solver — non-zero values widen ``k_sigma`` candidates."""

    surrogate_info: Optional[dict] = None
    """Frozen surrogate diagnostics (kind, features, residual sigma),
    None when screening was off or could not be trained."""

    failure_counts: Dict[str, int] = field(default_factory=dict)
    ledger: FailureLedger = field(default_factory=FailureLedger)

    evaluated: Optional[np.ndarray] = None
    """Per-sample evaluation mask; None means every sample ran.
    Partial (budget-expired) results mark unevaluated samples False."""

    # -- estimators ----------------------------------------------------
    def _mask(self) -> np.ndarray:
        if self.evaluated is None:
            return np.ones(self.n_samples, dtype=bool)
        return self.evaluated

    @property
    def n_evaluated(self) -> int:
        """Samples actually evaluated (< ``n_samples`` after a budget)."""
        return int(np.sum(self._mask()))

    @property
    def failure_probability(self) -> float:
        """Unnormalized estimate ``(1/n) Σ w·1_fail`` (exact, unbiased)."""
        m = self._mask()
        if not m.any():
            return float("nan")
        return float(np.mean(self.weights[m] * self.fails[m]))

    @property
    def standard_error(self) -> float:
        """Standard error of the unnormalized estimator."""
        m = self._mask()
        n = int(np.sum(m))
        if n < 2:
            return float("nan")
        contributions = self.weights[m] * self.fails[m]
        return float(np.std(contributions, ddof=1) / math.sqrt(n))

    @property
    def failure_probability_self_normalized(self) -> float:
        """Self-normalized estimate ``Σ w·1_fail / Σ w``."""
        m = self._mask()
        sum_w = float(np.sum(self.weights[m]))
        if sum_w <= 0.0:
            return float("nan")
        return float(np.sum(self.weights[m] * self.fails[m]) / sum_w)

    @property
    def standard_error_self_normalized(self) -> float:
        """Delta-method standard error of the self-normalized estimate."""
        m = self._mask()
        w = self.weights[m]
        sum_w = float(np.sum(w))
        if sum_w <= 0.0 or int(np.sum(m)) < 2:
            return float("nan")
        p = self.failure_probability_self_normalized
        resid = self.fails[m].astype(float) - p
        return float(math.sqrt(np.sum((w * resid) ** 2)) / sum_w)

    @property
    def effective_samples(self) -> float:
        """Kish effective sample size of the weight population."""
        m = self._mask()
        sum_w = float(np.sum(self.weights[m]))
        sum_w2 = float(np.sum(self.weights[m] ** 2))
        if sum_w2 <= 0.0:
            return 0.0
        return sum_w * sum_w / sum_w2

    @property
    def n_failures_observed(self) -> int:
        """Raw failing-draw count under the shifted proposal."""
        return int(np.sum(self.fails[self._mask()]))

    @property
    def relative_standard_error(self) -> float:
        """Standard error over the (unnormalized) estimate."""
        p = self.failure_probability
        if not math.isfinite(p) or p <= 0.0:
            return math.inf
        return self.standard_error / p

    @property
    def sigma_level(self) -> float:
        """Equivalent one-sided Gaussian sigma of the failure rate."""
        return sigma_level_from_probability(self.failure_probability)

    # -- solver-call accounting ----------------------------------------
    @property
    def full_solver_calls(self) -> int:
        """Samples that went through the full solver (pilot + routed)."""
        return int(np.sum(self.solved[self._mask()]))

    @property
    def screened_samples(self) -> int:
        """Samples whose verdict came from the surrogate."""
        m = self._mask()
        return int(np.sum(m)) - self.full_solver_calls

    @property
    def screening_factor(self) -> float:
        """Evaluated samples per full solver call (1.0 = no screening)."""
        calls = self.full_solver_calls
        if calls <= 0:
            return float("nan")
        return self.n_evaluated / calls

    @property
    def n_quarantined(self) -> int:
        """Samples quarantined into the failure ledger."""
        return len(self.ledger.quarantined_indices())

    @property
    def is_degraded(self) -> bool:
        """True when anything was quarantined or left unevaluated."""
        return bool(self.ledger) or self.n_evaluated < self.n_samples

    def estimators_agree(self, z: float = 3.0) -> bool:
        """Whether the two estimators agree within ``z`` combined SEs."""
        se = math.hypot(self.standard_error,
                        self.standard_error_self_normalized)
        if not math.isfinite(se):
            return False
        gap = abs(self.failure_probability
                  - self.failure_probability_self_normalized)
        return gap <= z * max(se, 1e-300)


# ----------------------------------------------------------------------
# Surrogate: numpy-only polynomial / RBF ridge regression
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SurrogateConfig:
    """Screening-surrogate configuration (all knobs picklable)."""

    kind: str = "poly"
    """``poly`` (degree-``degree`` polynomial features) or ``rbf``
    (Gaussian kernel ridge on the training points)."""

    degree: int = 2
    """Polynomial degree (``poly`` only)."""

    ridge_lambda: float = 1e-6
    """Tikhonov regularisation of the normal equations."""

    train_samples: int = 128
    """Fully-solved pilot samples the model is fitted on (rounded up to
    the chunk grid)."""

    k_sigma: float = 3.0
    """Screening band half-width in residual sigmas: predictions within
    ``k_sigma·σ_resid`` of a spec bound go to the full solver."""

    audit_every: int = 16
    """Deterministic audit stride: every ``audit_every``-th screened
    sample (by global index) is solved anyway and cross-checked."""

    residual_floor: float = 0.0
    """Lower clamp on the fitted residual sigma (0 = auto: 1e-12 of the
    training-value span)."""

    def __post_init__(self) -> None:
        if self.kind not in ("poly", "rbf"):
            raise ValueError(f"surrogate kind must be poly|rbf, "
                             f"got {self.kind!r}")
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if self.train_samples < 8:
            raise ValueError("train_samples must be at least 8")
        if self.k_sigma <= 0.0:
            raise ValueError("k_sigma must be positive")
        if self.audit_every < 2:
            raise ValueError("audit_every must be at least 2")

    def to_dict(self) -> dict:
        """Plain-dict form for checkpoints and run records."""
        return {"kind": self.kind, "degree": self.degree,
                "ridge_lambda": self.ridge_lambda,
                "train_samples": self.train_samples,
                "k_sigma": self.k_sigma, "audit_every": self.audit_every,
                "residual_floor": self.residual_floor}


def _poly_features(Z: np.ndarray, degree: int) -> np.ndarray:
    """[1, z_i, z_i·z_j (i≤j), …] feature matrix of (n, d) inputs."""
    n, d = Z.shape
    columns = [np.ones(n)]
    columns.extend(Z[:, i] for i in range(d))
    if degree >= 2:
        for i in range(d):
            for j in range(i, d):
                columns.append(Z[:, i] * Z[:, j])
    if degree >= 3:
        for i in range(d):
            columns.append(Z[:, i] ** 3)
    return np.column_stack(columns)


class Surrogate:
    """A frozen, picklable cheap regressor ``(z, β, γ) → metric``.

    The per-device ΔV_T draws in sigma units (the shifted coordinates —
    the dominant axis of any V_T-driven failure) get the full polynomial
    or RBF treatment; the nominal-drawn β/γ factors enter as LINEAR
    extra columns.  On current-factor-sensitive metrics (SRAM read SNM)
    the β draws carry roughly half the metric variance — leaving them
    out of the model would push that variance into the residual sigma
    and widen the screening band until screening stops screening.
    Their higher-order interactions still land in the residual, which
    keeps the band conservative.
    """

    def __init__(self, config: SurrogateConfig, theta: np.ndarray,
                 residual_sigma: float, n_train: int,
                 centers: Optional[np.ndarray] = None,
                 rbf_gamma: float = 0.0, with_bg: bool = False):
        self.config = config
        self.theta = theta
        self.residual_sigma = float(residual_sigma)
        self.n_train = int(n_train)
        self.centers = centers
        self.rbf_gamma = float(rbf_gamma)
        self.with_bg = bool(with_bg)

    @property
    def n_features(self) -> int:
        """Design-matrix columns the fitted coefficients span."""
        return int(self.theta.size)

    def info(self) -> dict:
        """Diagnostics for results/telemetry/reports."""
        return {"kind": self.config.kind, "n_train": self.n_train,
                "n_features": self.n_features,
                "residual_sigma": self.residual_sigma,
                "k_sigma": self.config.k_sigma,
                "audit_every": self.config.audit_every}

    @classmethod
    def fit(cls, config: SurrogateConfig, Z: np.ndarray,
            y: np.ndarray, B: Optional[np.ndarray] = None,
            G: Optional[np.ndarray] = None) -> Optional["Surrogate"]:
        """Ridge-fit on finite training rows; None when underdetermined.

        ``B``/``G`` are the per-device β/γ factor draws; when given
        they join the design matrix as linear ``(factor − 1)`` columns.
        A pilot too small to support the extra columns falls back to
        the z-only design (the wider residual band keeps screening
        honest) before giving up entirely.  Training is a pure function
        of its inputs (no RNG), so a checkpoint resume that replays the
        same pilot chunks rebuilds the identical surrogate — the
        property that keeps resumed runs bit-identical to
        uninterrupted ones.
        """
        finite = np.isfinite(y)
        Z, y = np.asarray(Z, dtype=float)[finite], np.asarray(
            y, dtype=float)[finite]
        with_bg = B is not None and G is not None
        if with_bg:
            B = np.asarray(B, dtype=float)[finite]
            G = np.asarray(G, dtype=float)[finite]
        if config.kind == "rbf":
            F, centers, gamma = cls._rbf_design(config, Z)
        else:
            F, centers, gamma = _poly_features(Z, config.degree), None, 0.0
        if with_bg:
            full = np.column_stack([F, B - 1.0, G - 1.0])
            if len(full) >= 2 * full.shape[1]:
                F = full
            else:
                with_bg = False  # pilot too small for β/γ — z-only
        n, k = F.shape
        if n < 2 * k or n < 8:
            return None  # underdetermined — screening stays off
        gram = F.T @ F + config.ridge_lambda * n * np.eye(k)
        try:
            theta = np.linalg.solve(gram, F.T @ y)
        except np.linalg.LinAlgError:
            return None
        resid = y - F @ theta
        # ddof=k: the model consumed k degrees of freedom; the band must
        # reflect out-of-sample spread, not the optimistic training fit.
        sigma = float(math.sqrt(np.sum(resid ** 2) / max(1, n - k)))
        floor = config.residual_floor
        if floor <= 0.0:
            floor = 1e-12 * float(np.ptp(y)) if y.size else 1e-12
        return cls(config, theta, max(sigma, floor), n,
                   centers=centers, rbf_gamma=gamma, with_bg=with_bg)

    @staticmethod
    def _rbf_design(config: SurrogateConfig, Z: np.ndarray,
                    centers: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, np.ndarray, float]:
        if centers is None:
            # Few enough centers that the ridge fit stays determined
            # (fit requires n >= 2·(n_centers + 1) training rows).
            centers = Z[:min(max(1, len(Z) // 4), 64)]
        d2 = np.sum((Z[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        if centers.shape[0] > 1:
            off = d2[d2 > 0.0]
            scale = float(np.median(off)) if off.size else 1.0
        else:
            scale = 1.0
        gamma = 1.0 / max(scale, 1e-12)
        K = np.exp(-gamma * d2)
        F = np.column_stack([np.ones(len(Z)), K])
        return F, centers, gamma

    def predict(self, Z: np.ndarray, B: Optional[np.ndarray] = None,
                G: Optional[np.ndarray] = None) -> np.ndarray:
        """Predicted metric values for ``(n, d)`` draws.

        ``B``/``G`` are required iff the model was trained with the
        β/γ feature columns (``with_bg``).
        """
        Z = np.asarray(Z, dtype=float)
        if self.config.kind == "rbf":
            d2 = np.sum((Z[:, None, :] - self.centers[None, :, :]) ** 2,
                        axis=2)
            F = np.column_stack([np.ones(len(Z)),
                                 np.exp(-self.rbf_gamma * d2)])
        else:
            F = _poly_features(Z, self.config.degree)
        if self.with_bg:
            if B is None or G is None:
                raise ValueError("surrogate was trained with beta/gamma "
                                 "features — predict needs B and G")
            F = np.column_stack([F, np.asarray(B, dtype=float) - 1.0,
                                 np.asarray(G, dtype=float) - 1.0])
        return F @ self.theta

    def uncertain(self, predictions: np.ndarray,
                  spec: Specification) -> np.ndarray:
        """True where a prediction is within ``k·σ_resid`` of a bound."""
        band = self.config.k_sigma * self.residual_sigma
        unsure = np.zeros(len(predictions), dtype=bool)
        for bound in (spec.lower, spec.upper):
            if bound is not None:
                unsure |= np.abs(predictions - bound) <= band
        unsure |= ~np.isfinite(predictions)
        return unsure


# ----------------------------------------------------------------------
# The high-sigma engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Proposal:
    """Picklable per-stage proposal: shifted means + drawing contract.

    A chunk task carries its own proposal, so every chunk stays a pure
    function of (bounds, seed, proposal, surrogate) — the property that
    makes ``jobs=N`` bit-identical to ``jobs=1`` and checkpoint resumes
    bit-identical to uninterrupted runs even though the pilot refines
    the proposal mid-run.
    """

    names: Tuple[str, ...]
    sigmas: Tuple[float, ...]
    mus: Tuple[float, ...]
    two_sided: bool


def _draw_variates(sampler: MismatchSampler, devices,
                   proposal: _Proposal, n: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(z, beta, gamma)``, each ``(n, devices)``: the ΔV_T of ``n``
    samples from ``proposal`` in sigma units, and their β/γ factors.

    Per sample, a two-sided proposal first draws its lobe (one uniform);
    then, per device, four normals: the shifted ΔV_T, then the
    (ΔV_T, β, γ) draws of :meth:`MismatchSampler.sample_device`, whose
    ΔV_T is not used.  A one-sided chunk is one generator call, a
    two-sided one two calls per sample; either consumes the generator
    as those draws made one at a time do.
    """
    rng = sampler.rng
    d = len(devices)
    sig = np.asarray(proposal.sigmas)
    scale = np.column_stack([sig, np.reshape(
        sampler.device_sigmas(devices), (d, 3))]).ravel()
    lobes = np.zeros((2, d, 4))
    lobes[0, :, 0] = proposal.mus
    lobes[1, :, 0] = np.negative(proposal.mus)
    lobes = lobes.reshape(2, 4 * d)
    if proposal.two_sided:
        raw = np.empty((n, 4 * d))
        for k in range(n):
            raw[k] = rng.normal(lobes[int(rng.random() < 0.5)], scale)
    else:
        raw = rng.normal(lobes[0], scale, size=(n, 4 * d))
    return (raw[:, 0::4] / sig, np.maximum(1.0 + raw[:, 2::4], 0.05),
            np.maximum(1.0 + raw[:, 3::4], 0.05))


class HighSigmaYield:
    """Batched, parallel, surrogate-accelerated high-sigma yield engine.

    One spec per engine — a high-sigma study targets one tail metric
    (read margin, offset, …).  See the module docstring for the
    estimator math and :meth:`run` for the knobs.
    """

    def __init__(self, fixture: CircuitFixture, spec: Specification,
                 tech: TechnologyNode, include_ler: bool = False):
        self.fixture = fixture
        self.spec = spec
        self.tech = tech
        self.include_ler = include_ler
        if not fixture.circuit.mosfets:
            raise ValueError("fixture has no MOSFETs to vary")

    # -- shared helpers ------------------------------------------------
    def _sigmas(self) -> Dict[str, float]:
        sampler = MismatchSampler(self.tech, np.random.default_rng(0),
                                  include_ler=self.include_ler)
        return {d.name: sampler.sigma_single_vt_v(d.params.w_m,
                                                  d.params.l_m)
                for d in self.fixture.circuit.mosfets}

    def probe_direction(self, probe_sigma: float = 3.0) -> Dict[str, float]:
        """Coordinate-probe a unit shift direction toward failure.

        Perturbs each device's ΔV_T by ``probe_sigma``·σ in turn and
        keeps the normalized sensitivity of the metric toward the
        NEAREST failing bound.  Deterministic (no RNG).  Probing runs on
        a private replica of the engine's fixture: the fixture may be a
        template shared with concurrent runs (serve jobs), which must
        never see each other's ΔV_T.
        """
        spec, fixture = self.spec, clone_fixture(self.fixture)
        sigmas = self._sigmas()
        devices = fixture.circuit.mosfets

        def evaluate() -> float:
            try:
                return float(spec.extractor(fixture))
            except (ConvergenceError, SingularCircuitError, ValueError):
                return float("nan")

        def clear() -> None:
            for device in devices:
                device.variation = DeviceVariation()

        clear()
        nominal = evaluate()
        if math.isnan(nominal):
            raise ValueError("nominal evaluation failed — fixture broken?")
        # Which bound is closest to the nominal value?
        candidates = []
        if spec.upper is not None:
            candidates.append((abs(spec.upper - nominal), +1.0))
        if spec.lower is not None:
            candidates.append((abs(nominal - spec.lower), -1.0))
        _, toward = min(candidates)

        direction: Dict[str, float] = {}
        for device in devices:
            clear()
            device.variation = DeviceVariation(
                delta_vt_v=probe_sigma * sigmas[device.name])
            moved = evaluate()
            if math.isnan(moved):
                sensitivity = 0.0
            else:
                sensitivity = (moved - nominal) / probe_sigma
            direction[device.name] = toward * sensitivity
        norm = math.sqrt(sum(v * v for v in direction.values()))
        if norm == 0.0:
            raise ValueError("metric insensitive to every device — "
                             "cannot find a shift direction")
        return {k: v / norm for k, v in direction.items()}

    def _proposal(self, direction: Dict[str, float], shift_sigma: float,
                  two_sided: bool) -> _Proposal:
        sigmas = self._sigmas()
        names = tuple(d.name for d in self.fixture.circuit.mosfets)
        return _Proposal(
            names=names,
            sigmas=tuple(sigmas[n] for n in names),
            mus=tuple(shift_sigma * direction.get(n, 0.0) * sigmas[n]
                      for n in names),
            two_sided=two_sided)

    # -- chunk evaluation ----------------------------------------------
    def _evaluate_chunk(self, task: tuple) -> dict:
        """Evaluate one chunk on a private fixture replica.

        Draw contract (fixed, shared by every evaluation path): per
        sample, one uniform side draw (two-sided proposals only), then
        per device — in ``circuit.mosfets`` order — one shifted-normal
        ΔV_T draw followed by one nominal :meth:`MismatchSampler.
        sample_device` draw for the β/γ factors.  The chunk makes these
        draws up front, in one generator call (one uniform and one row
        call per sample when two-sided) that consumes the generator as
        the draws made one at a time do (:func:`_draw_variates`).
        Evaluation never consumes the generator, so every evaluation
        path (the die loop, per die, ``batched_sweeps``) sees
        bit-identical variates and weights.
        """
        (start, stop), seed_seq, batch_size, budget, proposal, surrogate = task
        n = stop - start
        fixture = clone_fixture(self.fixture)
        devices = fixture.circuit.mosfets
        sampler = MismatchSampler(self.tech, np.random.default_rng(seed_seq),
                                  include_ler=self.include_ler)
        d = len(devices)
        sig = np.asarray(proposal.sigmas)
        mus = np.asarray(proposal.mus)
        z, beta, gamma = _draw_variates(sampler, devices, proposal, n)

        # --- exact importance weights (vectorized) -------------------
        x_v = z * sig                    # volts
        inv2s2 = 1.0 / (2.0 * sig * sig)
        log_p = -np.sum(x_v ** 2 * inv2s2, axis=1)
        log_q_pos = -np.sum((x_v - mus) ** 2 * inv2s2, axis=1)
        if proposal.two_sided:
            log_q_neg = -np.sum((x_v + mus) ** 2 * inv2s2, axis=1)
            m = np.maximum(log_q_pos, log_q_neg)
            log_q = m + np.log(0.5 * np.exp(log_q_pos - m)
                               + 0.5 * np.exp(log_q_neg - m))
        else:
            log_q = log_q_pos
        weights = np.exp(log_p - log_q)

        # --- screening: who gets a full solve? -----------------------
        values = np.full(n, np.nan)
        if surrogate is not None:
            predictions = surrogate.predict(z, beta, gamma)
            unsure = surrogate.uncertain(predictions, self.spec)
            audit = (start + np.arange(n)) \
                % surrogate.config.audit_every == 0
            solve_mask = unsure | audit
            values[~solve_mask] = predictions[~solve_mask]
        else:
            predictions = None
            audit = np.zeros(n, dtype=bool)
            solve_mask = np.ones(n, dtype=bool)

        tsession = telemetry.active()
        if tsession is not None:
            tsession.metrics.inc("highsigma.chunks")
            tsession.metrics.inc("highsigma.samples", n)
            tsession.metrics.inc("highsigma.full_solves",
                                 int(np.sum(solve_mask)))
            tsession.metrics.inc("highsigma.screened",
                                 int(n - np.sum(solve_mask)))
            tsession.metrics.inc("highsigma.audits", int(np.sum(audit)))
        picks = np.flatnonzero(solve_mask)

        def assign(i: int) -> None:
            k = picks[i]
            for j, device in enumerate(devices):
                device.variation = DeviceVariation(
                    delta_vt_v=float(x_v[k, j]),
                    beta_factor=float(beta[k, j]),
                    gamma_factor=float(gamma[k, j]))

        solved, failure_counts, ledger, _durations = evaluate_dies(
            fixture, [self.spec], (start + picks).tolist(), assign,
            batch_size, budget, "highsigma-chunk", kind="highsigma")
        values[picks] = solved[0]
        if surrogate is not None and tsession is not None:
            audit_mismatches = sum(
                1 for k in np.flatnonzero(audit & np.isfinite(values))
                if self.spec.passes(float(predictions[k]))
                != self.spec.passes(float(values[k])))
            if audit_mismatches:
                tsession.metrics.inc("highsigma.audit_mismatches",
                                     audit_mismatches)
                telemetry.event("highsigma.audit_mismatch",
                                chunk_start=start, count=audit_mismatches)
        fails = np.array([not self.spec.passes(float(v)) for v in values])
        return {
            "start": start, "stop": stop,
            "values": {"value": values, "weight": weights,
                       "solved": solve_mask.astype(float),
                       **{f"z{j}": z[:, j].copy() for j in range(d)},
                       **{f"b{j}": beta[:, j].copy() for j in range(d)},
                       **{f"g{j}": gamma[:, j].copy() for j in range(d)}},
            "spec_passes": {"value": ~fails,
                            "weight": np.ones(n, dtype=bool),
                            "solved": solve_mask.copy(),
                            **{f"{ch}{j}": np.ones(n, dtype=bool)
                               for ch in ("z", "b", "g")
                               for j in range(d)}},
            "passes": ~fails,
            "failure_counts": failure_counts,
            "ledger": ledger.to_list(),
        }

    # -- adaptive refinement -------------------------------------------
    @staticmethod
    def _refine(pilot_chunks: List[dict], proposal: _Proposal,
                shift_sigma: float, refine_magnitude: bool
                ) -> Tuple[Optional[Dict[str, float]], float]:
        """Refined (direction, shift) from the pilot's failing draws.

        Failing draws are folded onto the current direction (two-sided
        lobes are mirror images) and their mean becomes the refined
        unit direction.  When the caller left the magnitude automatic,
        the shift moves to the 10th-percentile failing projection — an
        estimate of the distance to the failure BOUNDARY (the
        dominating point), which is where mean-shift IS wants its
        proposal.  Centering on the failing mass instead (the median)
        overshoots the boundary and inflates the weight variance.
        Pure function of the pilot chunks: resumes re-derive it
        exactly.
        """
        d = len(proposal.names)
        e0 = np.asarray(proposal.mus) / np.asarray(proposal.sigmas)
        norm0 = float(np.linalg.norm(e0))
        if norm0 > 0.0:
            e0 = e0 / norm0
        z_rows = []
        for chunk in sorted(pilot_chunks, key=lambda c: c["start"]):
            fails = ~chunk["passes"]
            finite = np.isfinite(chunk["values"]["value"])
            mask = fails & finite
            if not mask.any():
                continue
            Z = np.column_stack([chunk["values"][f"z{j}"]
                                 for j in range(d)])
            z_rows.append(Z[mask])
        if not z_rows:
            return None, shift_sigma
        Z = np.vstack(z_rows)
        if len(Z) < MIN_REFINE_FAILURES:
            return None, shift_sigma
        proj = Z @ e0
        folded = Z * np.where(proj >= 0.0, 1.0, -1.0)[:, None]
        mean = folded.mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if norm == 0.0:
            return None, shift_sigma
        e1 = mean / norm
        direction = {name: float(e1[j])
                     for j, name in enumerate(proposal.names)}
        if refine_magnitude:
            shift_sigma = float(np.clip(np.quantile(folded @ e1, 0.1),
                                        1.0, 8.0))
        return direction, shift_sigma

    # -- assembly ------------------------------------------------------
    def _assemble(self, n_samples: int, chunks: List[dict],
                  shift_sigma: float, direction: Dict[str, float],
                  two_sided: bool, n_pilot: int,
                  surrogate: Optional[Surrogate],
                  partial: bool = False) -> HighSigmaResult:
        values = np.full(n_samples, np.nan)
        weights = np.zeros(n_samples)
        solved = np.zeros(n_samples, dtype=bool)
        fails = np.zeros(n_samples, dtype=bool)
        failure_counts: Dict[str, int] = {}
        ledger = FailureLedger()
        evaluated = np.zeros(n_samples, dtype=bool) if partial else None
        d = len(self.fixture.circuit.mosfets)
        audit_rows: List[Tuple[np.ndarray, ...]] = []
        for chunk in sorted(chunks, key=lambda c: c["start"]):
            sl = slice(chunk["start"], chunk["stop"])
            values[sl] = chunk["values"]["value"]
            weights[sl] = chunk["values"]["weight"]
            solved[sl] = chunk["values"]["solved"] > 0.5
            fails[sl] = ~chunk["passes"]
            if evaluated is not None:
                evaluated[sl] = True
            for name, count in chunk["failure_counts"].items():
                failure_counts[name] = failure_counts.get(name, 0) + count
            ledger.merge(FailureLedger.from_list(chunk.get("ledger", [])))
            if surrogate is not None:
                idx = np.arange(chunk["start"], chunk["stop"])
                amask = ((idx >= n_pilot)
                         & (idx % surrogate.config.audit_every == 0)
                         & (chunk["values"]["solved"] > 0.5)
                         & np.isfinite(chunk["values"]["value"]))
                if amask.any():
                    audit_rows.append(tuple(
                        np.column_stack([chunk["values"][f"{ch}{j}"]
                                         for j in range(d)])[amask]
                        for ch in ("z", "b", "g"))
                        + (chunk["values"]["value"][amask],))
        # Both the audit slice and the mismatch verdicts are pure
        # functions of the persisted per-sample channels (index grid,
        # draws, solved values) plus the pilot-derived surrogate, so
        # they survive checkpoint resumes bit-identically — chunk-level
        # metadata would not.
        audit_count = 0
        audit_mismatches = 0
        if surrogate is not None:
            idx = np.arange(n_samples)
            audit_mask = ((idx >= n_pilot)
                          & (idx % surrogate.config.audit_every == 0))
            if evaluated is not None:
                audit_mask &= evaluated
            audit_count = int(np.sum(audit_mask))
            if audit_rows:
                Z, B, G, vals = (np.concatenate([rows[i]
                                                 for rows in audit_rows])
                                 for i in range(4))
                predictions = surrogate.predict(Z, B, G)
                audit_mismatches = sum(
                    1 for pv, av in zip(predictions, vals)
                    if self.spec.passes(float(pv))
                    != self.spec.passes(float(av)))
        ledger.dedupe_run_level()
        ledger.sort()
        return HighSigmaResult(
            n_samples=n_samples, spec_name=self.spec.name, values=values,
            weights=weights, fails=fails, solved=solved,
            shift_sigma=shift_sigma, direction=dict(direction),
            two_sided=two_sided, n_pilot=n_pilot,
            audit_count=audit_count, audit_mismatches=audit_mismatches,
            surrogate_info=surrogate.info() if surrogate else None,
            failure_counts=failure_counts, ledger=ledger,
            evaluated=evaluated)

    # -- the run -------------------------------------------------------
    def run(self, n_samples: int, shift_sigma: Optional[float] = None,
            direction: Optional[Dict[str, float]] = None,
            seed: int = 0, jobs: int = 1, backend: str = "auto",
            chunk_size: int = DEFAULT_CHUNK_SIZE,
            batch_size: Optional[int] = None,
            surrogate: Union[SurrogateConfig, str, None] = None,
            adapt: bool = True,
            two_sided: Optional[bool] = None,
            checkpoint: Optional[Union[str, Path]] = None,
            resume: bool = False,
            progress: Optional[Callable[[dict], None]] = None,
            budget: Optional[Union[float, DeadlineBudget]] = None
            ) -> HighSigmaResult:
        """Estimate the spec's tail failure probability.

        The run is two deterministic stages on one fixed chunk grid:

        1. **Pilot** — the first chunks (sized to cover the surrogate's
           ``train_samples``, or a minimum pilot when only ``adapt`` is
           on) are always fully solved under the initial proposal.
        2. **Main** — the remaining chunks run under the (possibly
           refined) proposal, with the surrogate trained on the pilot
           screening their solver calls.

        Both the refinement and the surrogate are pure functions of the
        pilot chunks, and every chunk task carries its stage's proposal
        — so results are bit-identical for any ``jobs``/``backend``
        choice and checkpointed resumes replay exactly.

        ``surrogate`` accepts a :class:`SurrogateConfig`, the strings
        ``"poly"``/``"rbf"`` (defaults for that kind), or ``None``/
        ``"off"`` (no screening — every sample fully solved).

        ``shift_sigma=None`` starts at :data:`DEFAULT_SHIFT_SIGMA` and
        lets the pilot refine the magnitude; an explicit value is kept
        (only the direction refines).  ``two_sided=None`` follows the
        spec: mixtures for two-bound specs, single shift otherwise.

        ``checkpoint``/``resume``/``budget``/
        ``progress`` follow the Monte-Carlo engine's contract — both
        engines run on :func:`repro.runner.run_chunks` (atomic chunk
        persistence, partial results on expiry, ``RunInterrupted``
        carrying the final checkpoint).
        """
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if shift_sigma is not None and shift_sigma < 0.0:
            raise ValueError("shift must be non-negative")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1 (or None)")
        if isinstance(surrogate, str):
            if surrogate in ("off", "none"):
                surrogate = None
            else:
                surrogate = SurrogateConfig(kind=surrogate)
        if budget is not None and not isinstance(budget, DeadlineBudget):
            budget = DeadlineBudget.after(budget)
        if two_sided is None:
            two_sided = (self.spec.lower is not None
                         and self.spec.upper is not None)
        refine_magnitude = shift_sigma is None
        if shift_sigma is None:
            shift_sigma = DEFAULT_SHIFT_SIGMA

        ranges = chunk_ranges(n_samples, chunk_size)
        seeds = spawn_seed_sequences(seed, len(ranges))
        # Pilot size: enough chunks to cover the surrogate's training
        # set (or a one-chunk minimum for adaptive refinement), always
        # leaving at least one main-stage chunk when possible.
        if surrogate is not None:
            want = surrogate.train_samples
        elif adapt:
            want = chunk_size
        else:
            want = 0
        n_pilot_chunks = min(math.ceil(want / chunk_size),
                             max(0, len(ranges) - 1)) if want else 0
        n_pilot = ranges[n_pilot_chunks - 1][1] if n_pilot_chunks else 0

        n_devices = len(self.fixture.circuit.mosfets)
        channel_names = (["value", "weight", "solved"]
                         + [f"{ch}{j}" for ch in ("z", "b", "g")
                            for j in range(n_devices)])
        # What the pilot decides; assemble reads it, so a run stopped
        # at any point reports the proposal it actually sampled.
        final_direction: Dict[str, float] = {}
        final_shift = shift_sigma
        frozen: Optional[Surrogate] = None
        proposal0: Optional[_Proposal] = None

        def identity() -> Optional[dict]:
            # Runs inside the run span: the direction probe is part of
            # the run, in a span of its own.  Returns the identity a
            # checkpoint must match (only a checkpoint reads it).
            nonlocal direction, final_direction, proposal0
            if direction is None:
                with telemetry.span("highsigma.probe"):
                    direction = self.probe_direction()
            final_direction = dict(direction)
            proposal0 = self._proposal(direction, shift_sigma, two_sided)
            if checkpoint is None:
                return None
            return {
                "kind": "high-sigma", "seed": seed, "n_samples": n_samples,
                "chunk_size": chunk_size, "spec_names": channel_names,
                "two_sided": two_sided, "adapt": adapt,
                "refine_magnitude": refine_magnitude,
                "shift_sigma": shift_sigma,
                "direction": {k: float(v)
                              for k, v in sorted(direction.items())},
                "surrogate": surrogate.to_dict() if surrogate else None,
                "n_pilot_chunks": n_pilot_chunks,
                "accel": accel_manifest(batch_size),
                **run_identity(self.fixture, [self.spec], self.tech,
                               self.include_ler),
            }

        def tasks(chunk_ids: range, proposal: _Proposal) -> dict:
            return {cid: (ranges[cid], seeds[cid], batch_size, budget,
                          proposal, frozen) for cid in chunk_ids}

        def stages():
            nonlocal final_direction, final_shift, frozen
            # Stage 1: pilot (always fully solved).
            with telemetry.span("highsigma.pilot", chunks=n_pilot_chunks):
                pilot = yield tasks(range(n_pilot_chunks), proposal0)
            proposal1 = proposal0
            if pilot and adapt:
                refined, final_shift = self._refine(
                    pilot, proposal0, shift_sigma, refine_magnitude)
                if refined is not None:
                    final_direction = refined
                    proposal1 = self._proposal(refined, final_shift,
                                               two_sided)
                    telemetry.event("highsigma.direction_refined",
                                    shift_sigma=round(final_shift, 4))
            if pilot and surrogate is not None:
                def stack(prefix: str) -> np.ndarray:
                    return np.vstack([
                        np.column_stack([c["values"][f"{prefix}{j}"]
                                         for j in range(n_devices)])
                        for c in pilot])

                y = np.concatenate([c["values"]["value"] for c in pilot])
                frozen = Surrogate.fit(surrogate, stack("z"), y,
                                       B=stack("b"), G=stack("g"))
                if frozen is not None:
                    telemetry.event(
                        "highsigma.surrogate_trained",
                        **{k: (round(v, 8) if isinstance(v, float) else v)
                           for k, v in frozen.info().items()})
                else:
                    telemetry.event("highsigma.surrogate_underdetermined")
            # Stage 2: main, under the refined proposal + surrogate.
            yield tasks(range(n_pilot_chunks, len(ranges)), proposal1)

        def assemble(chunks: List[dict], partial: bool) -> HighSigmaResult:
            return self._assemble(n_samples, chunks, final_shift,
                                  final_direction, two_sided, n_pilot,
                                  frozen, partial=partial)

        return run_chunks(
            self._evaluate_chunk, stages(), assemble, kind="high-sigma",
            n_samples=n_samples, run_params=identity, jobs=jobs,
            backend=backend, checkpoint=checkpoint, resume=resume,
            budget=budget, progress=progress,
            span_attrs={"chunk_size": chunk_size, "seed": seed,
                        "batch_size": batch_size, "shift_sigma": shift_sigma,
                        "surrogate": surrogate.kind if surrogate
                        else "off"})
