"""Monte-Carlo yield estimation (paper §2 / §5 intro).

"Yield can be described as the proportion of fabricated circuits which
meet the design specifications once the production process has been
completed."  The engine samples intra-die mismatch (and optionally LER)
with :class:`repro.variability.MismatchSampler`, evaluates user
specifications on each virtual die, and reports the pass fraction with a
Wilson confidence interval.

Example::

    fx = differential_pair(tech)
    spec = Specification("offset", lambda f: input_referred_offset_v(f),
                         lower=-5e-3, upper=5e-3)
    result = MonteCarloYield(fx, [spec], tech).run(n_samples=500, seed=1)
    print(result.yield_fraction, result.wilson_interval())
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import resilience, telemetry
from repro.circuit.batch import batched_sweeps
from repro.circuit.dc import operating_point_dies, warm_start
from repro.circuit.mna import ConvergenceError, SingularCircuitError
from repro.circuit.transient import TransientResult, transient
from repro.circuits.references import CircuitFixture
from repro.faultinject import WorkerKilledError, set_current_sample
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
from repro.variability.sampler import MismatchSampler, Placement
from repro.workloads import (
    NodeVoltageExtractor,
    OffsetExtractor,
    SnmExtractor,
)

#: Exception types that mean "this die could not be evaluated" — they
#: are recorded as NaN (and counted) rather than aborting the run.
EXPECTED_EVALUATION_ERRORS = (ConvergenceError, SingularCircuitError,
                              ValueError)

#: The full quarantine set: expected evaluation failures plus a
#: simulated worker death.
QUARANTINE_ERRORS = EXPECTED_EVALUATION_ERRORS + (WorkerKilledError,)


class SampleEvaluationError(RuntimeError):
    """An *unexpected* exception escaped a spec extractor.

    Convergence failures are part of normal Monte-Carlo life and become
    NaN samples; anything else (a bug in the extractor, a typo'd node
    name) is re-raised wrapped with the global sample index so the
    failing die can be reproduced in isolation.
    """

    def __init__(self, sample_index: int, spec_name: str,
                 original: BaseException):
        super().__init__(
            f"sample {sample_index} failed evaluating spec {spec_name!r}: "
            f"{type(original).__name__}: {original}")
        self.sample_index = sample_index
        self.spec_name = spec_name
        self.original = original

    def __reduce__(self):
        # The three-arg __init__ defeats default exception pickling;
        # rebuild from the constructor arguments (process-pool workers
        # must be able to ship this back to the parent).
        return type(self), (self.sample_index, self.spec_name, self.original)


@dataclass(frozen=True)
class Specification:
    """One pass/fail criterion on a scalar circuit metric."""

    name: str
    extractor: Callable[[CircuitFixture], float]
    """Maps the (variation-laden) fixture to the metric value."""

    lower: Optional[float] = None
    """Lower acceptance bound (None = unbounded)."""

    upper: Optional[float] = None
    """Upper acceptance bound (None = unbounded)."""

    def __post_init__(self) -> None:
        if self.lower is None and self.upper is None:
            raise ValueError(f"spec {self.name!r} has no bounds")
        if (self.lower is not None and self.upper is not None
                and self.lower >= self.upper):
            raise ValueError(f"spec {self.name!r}: lower >= upper")

    def passes(self, value: float) -> bool:
        """Whether ``value`` meets the spec (non-finite always fails)."""
        if not math.isfinite(value):
            return False
        if self.lower is not None and value < self.lower:
            return False
        if self.upper is not None and value > self.upper:
            return False
        return True


@dataclass(frozen=True)
class _TransientExtractor:
    """Picklable extractor of a :func:`transient_specification`: one
    :func:`~repro.circuit.transient.transient` per die, then the metric.

    A plain dataclass (not a closure) so the ``process`` backend can
    ship chunks containing transient specs to workers.
    """

    metric: Callable[[TransientResult, CircuitFixture], float]
    t_stop_s: float
    dt_s: float
    method: str
    lte_rtol: Optional[float]

    def __post_init__(self) -> None:
        if self.t_stop_s <= 0.0 or self.dt_s <= 0.0:
            raise ValueError("t_stop_s and dt_s must be positive")

    def __call__(self, fixture: CircuitFixture) -> float:
        result = transient(fixture.circuit, self.t_stop_s, self.dt_s,
                           method=self.method, lte_rtol=self.lte_rtol)
        return float(self.metric(result, fixture))

    def die_plan(self, fixture: CircuitFixture):
        """The :class:`~repro.circuit.dc.TransientPlan` of
        :func:`~repro.circuit.dc.operating_point_dies` that computes
        what :meth:`__call__` does, from the metric's own ``die_plan``
        (such as :class:`repro.workloads.RingSwing`'s); None for a
        metric that declares none (a closure)."""
        die_plan = getattr(self.metric, "die_plan", None)
        if die_plan is None:
            return None
        return die_plan(fixture, self.t_stop_s, self.dt_s, self.method,
                        self.lte_rtol)


def transient_specification(
        name: str,
        metric: Callable[[TransientResult, CircuitFixture], float],
        *, t_stop_s: float, dt_s: float, method: str = "trapezoidal",
        lte_rtol: Optional[float] = None,
        lower: Optional[float] = None,
        upper: Optional[float] = None) -> Specification:
    """A pass/fail criterion computed from a transient record.

    The metric maps ``(TransientResult, fixture) → float``; every die
    runs one scalar :func:`~repro.circuit.transient.transient`, with or
    without ``batch_size`` (which batches DC sweeps only), so a
    transient spec gives the same bits either way.  A metric with a
    ``die_plan`` (:class:`repro.workloads.RingSwing`) declares that
    transient as a :class:`~repro.circuit.dc.TransientPlan`, and
    :func:`evaluate_dies` runs the chunk's dies in the die loop; a
    closure metric takes the per-die path.
    """
    return Specification(name, _TransientExtractor(
        metric, t_stop_s, dt_s, method, lte_rtol), lower, upper)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class YieldResult:
    """Outcome of a Monte-Carlo yield run."""

    n_samples: int
    values: Dict[str, np.ndarray]
    """Spec name → sampled metric values (NaN = evaluation failed)."""

    passes: np.ndarray
    """Per-sample overall pass flags."""

    spec_passes: Dict[str, np.ndarray] = field(default_factory=dict)
    """Spec name → per-sample pass flags."""

    failure_counts: Dict[str, int] = field(default_factory=dict)
    """Exception type name → number of NaN samples it caused."""

    ledger: FailureLedger = field(default_factory=FailureLedger)
    """Quarantined evaluations with full diagnostics (sample index,
    exception, solver :class:`~repro.circuit.mna.ConvergenceReport`)."""

    evaluated: Optional[np.ndarray] = None
    """Per-sample evaluation mask; ``None`` means every sample ran.
    Partial (interrupted) results mark unevaluated samples False."""

    @property
    def yield_fraction(self) -> float:
        """Estimated yield (all specs met)."""
        return float(np.mean(self.passes))

    @property
    def n_evaluated(self) -> int:
        """Samples actually evaluated (== ``n_samples`` unless partial)."""
        if self.evaluated is None:
            return self.n_samples
        return int(np.sum(self.evaluated))

    @property
    def n_quarantined(self) -> int:
        """Samples with at least one quarantined evaluation."""
        return len(self.ledger.quarantined_indices())

    @property
    def is_degraded(self) -> bool:
        """Whether the run completed with quarantined or missing samples."""
        return bool(self.ledger) or self.n_evaluated < self.n_samples

    def spec_yield(self, name: str) -> float:
        """Per-spec yield (other specs ignored)."""
        return float(np.mean(self.spec_passes[name]))

    def wilson_interval(self, z: float = 1.96) -> tuple:
        """Confidence interval on the overall yield."""
        return wilson_interval(int(np.sum(self.passes)), self.n_samples, z)

    def confidence_interval(self, z: float = 1.96) -> tuple:
        """Yield CI, widened for unresolved (quarantined/missing) samples.

        A die the harness could not evaluate is *unknown*, not known-
        bad: the point estimate counts it as a failure (conservative),
        but the interval must admit both extremes.  The lower bound
        treats every unresolved sample as failing, the upper bound as
        passing — so the interval widens by exactly the unresolved
        mass, degrading gracefully instead of lying confidently.
        """
        successes = int(np.sum(self.passes))
        unresolved = set(self.ledger.quarantined_indices())
        if self.evaluated is not None:
            unresolved.update(np.flatnonzero(~self.evaluated).tolist())
        n_unresolved = len(unresolved)
        lo = wilson_interval(successes, self.n_samples, z)[0]
        hi = wilson_interval(min(successes + n_unresolved, self.n_samples),
                             self.n_samples, z)[1]
        return lo, hi

    def sigma(self, name: str) -> float:
        """Standard deviation of a metric across good evaluations."""
        vals = self.values[name]
        finite = vals[np.isfinite(vals)]
        if finite.size < 2:
            raise ValueError(f"not enough valid samples for {name!r}")
        return float(np.std(finite, ddof=1))

    def mean(self, name: str) -> float:
        """Mean of a metric across good evaluations."""
        vals = self.values[name]
        finite = vals[np.isfinite(vals)]
        if finite.size == 0:
            raise ValueError(f"no valid samples for {name!r}")
        return float(np.mean(finite))


#: Extractors that declare their solves as a plan of
#: :func:`~repro.circuit.dc.operating_point_dies`: one operating point,
#: one transient (when the metric declares its reading), or one sweep
#: (which ``batch_size`` batches instead).
_OP_EXTRACTORS = (NodeVoltageExtractor, _TransientExtractor)
_SWEEP_EXTRACTORS = (OffsetExtractor, SnmExtractor)


def evaluate_dies(fixture: CircuitFixture, specs: List[Specification],
                  indices: Sequence[int], assign: Callable[[int], None],
                  batch_size: Optional[int],
                  budget: Optional[DeadlineBudget], where: str,
                  **sample_attrs
                  ) -> Tuple[np.ndarray, Dict[str, int], FailureLedger,
                             List[float]]:
    """Evaluate every spec on a chunk's dies: the loop both engines run.

    Die ``i`` is global sample ``indices[i]``; ``assign(i)`` gives the
    fixture's circuit its variation, after the budget check.  Returns
    ``(values, failure_counts, ledger, durations)``: ``values[j, i]``
    is spec ``j`` on die ``i`` (NaN where quarantined), the failure
    bookkeeping of the dies, and each die's wall time [s].  A failure
    in :data:`QUARANTINE_ERRORS` is quarantined with the solver's
    convergence report; any other exception is raised as a
    :class:`SampleEvaluationError`.

    The dies run through :func:`~repro.circuit.dc.operating_point_dies`,
    one loop around the compiled kernel with the same bits,
    quarantines, metrics and phase counts, when every spec's extractor
    declares its plan (a wrapped or closure extractor, or a transient
    spec's closure metric, does not), none sweeps under
    ``batch_size``, and the plans share one circuit: the fixture's, or
    the one probe circuit they name.  A transient plan takes the loop
    with or without ``batch_size``, which never batched transients.
    The loop declines, having run nothing, on an unknown node or
    source, transient settings :func:`transient` refuses, a session
    that keeps span records (``--trace``) or a circuit the compiled
    kernel cannot serve.  Otherwise each die is a ``sample`` span (with
    ``sample_attrs``) holding one ``analysis`` span per spec, inside
    :func:`warm_start`; with ``batch_size`` every ``dc_sweep`` an
    extractor makes solves its points as lanes of one
    :func:`batched_sweeps` ensemble, in slabs
    :func:`resilience.admit_lanes` fits to the memory ceiling (labelled
    ``where``), and a transient runs the scalar integrator.
    """
    n = len(indices)
    values = np.full((len(specs), n), np.nan)
    failure_counts: Dict[str, int] = {}
    ledger = FailureLedger()
    if not n:
        return values, failure_counts, ledger, []
    circuit = fixture.circuit
    if batch_size:
        # Slab partitioning does not change per-die math.
        circuit.compile()
        batch_size = resilience.admit_lanes(min(batch_size, n),
                                            circuit.n_unknowns, where=where)

    def prepare(i: int) -> None:
        if budget is not None:
            budget.check("sample %d" % indices[i])
        set_current_sample(indices[i])
        assign(i)

    def quarantine(i: int, j: int, exc: Exception) -> str:
        """NaN bookkeeping of a failed evaluation; re-raises what is not
        a quarantine error.  Returns the exception's type name."""
        if not isinstance(exc, QUARANTINE_ERRORS):
            raise SampleEvaluationError(indices[i], specs[j].name,
                                        exc) from exc
        name = type(exc).__name__
        failure_counts[name] = failure_counts.get(name, 0) + 1
        ledger.add(indices[i], exc, label=specs[j].name)
        return name

    declared = _OP_EXTRACTORS if batch_size else \
        _OP_EXTRACTORS + _SWEEP_EXTRACTORS
    if all(type(s.extractor) in declared for s in specs):
        try:
            plans = [s.extractor.die_plan(fixture) for s in specs]
        except KeyError:
            plans = None  # the per-die path reports it per sample
        if plans is not None and any(plan is None for plan in plans):
            plans = None
        circuits = set() if plans is None else {
            circuit if getattr(plan, "circuit", None) is None
            else plan.circuit for plan in plans}
        if len(circuits) == 1:
            lean = operating_point_dies(circuits.pop(), n, prepare, plans,
                                        quarantine)
            if lean is not None:
                return lean[0], failure_counts, ledger, lean[1]
    durations = []
    sweep_ctx = batched_sweeps(batch_size) if batch_size else \
        telemetry.NULL_SPAN
    with warm_start(circuit), sweep_ctx:
        for i in range(n):
            t_sample = time.perf_counter()
            with telemetry.span("sample", index=indices[i], **sample_attrs):
                prepare(i)
                for j, spec in enumerate(specs):
                    with telemetry.span("analysis", spec=spec.name) as a_sp:
                        try:
                            values[j, i] = float(spec.extractor(fixture))
                        except Exception as exc:
                            a_sp.set(quarantined=quarantine(i, j, exc))
            durations.append(time.perf_counter() - t_sample)
    return values, failure_counts, ledger, durations


class MonteCarloYield:
    """Monte-Carlo yield engine over intra-die variability."""

    def __init__(self, fixture: CircuitFixture, specs: List[Specification],
                 tech: TechnologyNode,
                 placements: Optional[Dict[str, Placement]] = None,
                 include_ler: bool = False):
        if not specs:
            raise ValueError("at least one specification is required")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate specification names")
        self.fixture = fixture
        self.specs = list(specs)
        self.tech = tech
        self.placements = placements
        self.include_ler = include_ler

    def _evaluate_chunk(self, task: Tuple[Tuple[int, int],
                                          np.random.SeedSequence,
                                          Optional[int],
                                          Optional[DeadlineBudget]]) -> dict:
        """Evaluate one chunk of samples on a private fixture replica.

        The chunk is fully self-contained: it clones the fixture, seeds
        its own sampler from the chunk's ``SeedSequence`` child and
        warm-starts Newton from a fresh state, so the result depends
        only on (chunk bounds, chunk seed) — not on the worker that ran
        it or on any other chunk.  That is what makes ``jobs=N``
        bit-identical to ``jobs=1`` and checkpointed resumes
        bit-identical to uninterrupted runs.  It runs inside
        :func:`repro.runner.run_chunks`, which adds the telemetry,
        profiling and checkpoint plumbing.

        The dies are evaluated by :func:`evaluate_dies` (the die loop
        or the per-die path, quarantines, ``batch_size``).  The sampler
        draw order is untouched by either path, so variates are
        bit-identical; batched solves agree within Newton tolerance.
        """
        (start, stop), seed_seq, batch_size, budget = task
        n = stop - start
        fixture = clone_fixture(self.fixture)
        circuit = fixture.circuit
        rng = np.random.default_rng(seed_seq)
        sampler = MismatchSampler(self.tech, rng, include_ler=self.include_ler)
        tsession = telemetry.active()
        if tsession is not None:
            tsession.metrics.inc("engine.chunks")
            tsession.metrics.inc("engine.samples", n)
        # One generator call draws every die of the chunk, bit-identical
        # to drawing die by die (MismatchSampler.draw).
        variates = sampler.draw(circuit, self.placements, n)
        solved, failure_counts, ledger, durations = evaluate_dies(
            fixture, self.specs, range(start, stop),
            lambda k: sampler.assign(circuit, self.placements, variates[k]),
            batch_size, budget, "mc-chunk")
        values = {s.name: row for s, row in zip(self.specs, solved)}
        spec_passes = {s.name: np.array([s.passes(v)
                                         for v in values[s.name].tolist()],
                                        dtype=bool)
                       for s in self.specs}
        passes = np.logical_and.reduce(list(spec_passes.values()))
        if tsession is not None:
            tsession.metrics.observe_many("engine.sample_duration_s",
                                          durations)
        return {"start": start, "stop": stop, "values": values,
                "spec_passes": spec_passes, "passes": passes,
                "failure_counts": failure_counts,
                "ledger": ledger.to_list()}

    def _assemble(self, n_samples: int, chunks: List[dict],
                  partial: bool = False) -> YieldResult:
        """Combine chunk payloads into a :class:`YieldResult`.

        Chunks are aggregated in ascending start order, so the result
        is independent of completion order — the property that makes
        checkpointed resumes bit-identical.
        """
        values = {s.name: np.full(n_samples, np.nan) for s in self.specs}
        spec_passes = {s.name: np.zeros(n_samples, dtype=bool)
                       for s in self.specs}
        passes = np.zeros(n_samples, dtype=bool)
        failure_counts: Dict[str, int] = {}
        ledger = FailureLedger()
        evaluated = np.zeros(n_samples, dtype=bool) if partial else None
        for chunk in sorted(chunks, key=lambda c: c["start"]):
            sl = slice(chunk["start"], chunk["stop"])
            for name in values:
                values[name][sl] = chunk["values"][name]
                spec_passes[name][sl] = chunk["spec_passes"][name]
            passes[sl] = chunk["passes"]
            if evaluated is not None:
                evaluated[sl] = True
            for name, count in chunk["failure_counts"].items():
                failure_counts[name] = failure_counts.get(name, 0) + count
            ledger.merge(FailureLedger.from_list(chunk.get("ledger", [])))
        ledger.dedupe_run_level()
        ledger.sort()
        return YieldResult(n_samples=n_samples, values=values,
                           passes=passes, spec_passes=spec_passes,
                           failure_counts=failure_counts,
                           ledger=ledger, evaluated=evaluated)

    def run(self, n_samples: int, seed: int = 0, jobs: int = 1,
            backend: str = "auto",
            chunk_size: int = DEFAULT_CHUNK_SIZE,
            checkpoint: Optional[Union[str, Path]] = None,
            resume: bool = False,
            progress: Optional[Callable[[dict], None]] = None,
            batch_size: Optional[int] = None,
            budget: Optional[Union[float, DeadlineBudget]] = None
            ) -> YieldResult:
        """Sample ``n_samples`` virtual dies and evaluate every spec.

        A sample whose evaluation does not converge is recorded as NaN
        and counted as a FAIL (a die you cannot verify is a die you
        cannot ship); :attr:`YieldResult.failure_counts` records which
        exception type caused each NaN and :attr:`YieldResult.ledger`
        quarantines it with full solver diagnostics.  The fixture
        itself is never mutated — every chunk of ``chunk_size`` samples
        runs on a private replica with its own ``SeedSequence.spawn``
        child, so results are bit-identical for any ``jobs``/``backend``
        choice (``chunk_size`` and ``seed`` are the reproducibility
        knobs).

        ``checkpoint`` names a directory where every chunk is persisted
        atomically as it completes; with
        ``resume=True`` an existing checkpoint's chunks are restored
        and only the remainder is evaluated — the final result is
        bit-identical to an uninterrupted run under the same seed.  An
        interrupt (Ctrl-C / injected) writes a final checkpoint and
        raises :class:`~repro.checkpoint.RunInterrupted` carrying the
        partial result.

        ``progress`` (when given) is invoked after every completed
        chunk with ``{"done", "total", "elapsed_s"}`` — the CLI
        heartbeat hangs off this.  With an active
        :func:`telemetry.session <repro.telemetry.session>` each
        chunk's telemetry rides back with its results and is merged
        under the ``run`` span; neither feature perturbs the sampled
        values (results stay bit-identical with telemetry on or off).

        ``batch_size`` (when set) evaluates each chunk under
        :func:`~repro.circuit.batch.batched_sweeps`: every ``dc_sweep``
        a spec extractor performs solves up to ``batch_size`` sweep
        points as lanes of one batched Newton ensemble instead of
        point-by-point.  Sampler draws are untouched (variates stay
        bit-identical for the same ``seed``/``chunk_size``), and solved
        metrics agree with a scalar run within Newton tolerance — the
        per-die pass/fail verdicts match.  Transient specs always run
        the scalar integrator, bit-identical with or without
        ``batch_size``.  Composes with any ``jobs``/``backend`` choice.

        ``budget`` (seconds, or a prepared
        :class:`~repro.resilience.DeadlineBudget`) bounds the run's
        wall clock.  Workers check the deadline cooperatively between
        samples and the pool wait enforces it coercively (hung process
        workers are terminated).  A checkpointed run that hits the
        deadline writes a final checkpoint and raises
        :class:`~repro.checkpoint.RunInterrupted` with
        ``reason="budget"`` — its resume is bit-identical to an
        uninterrupted run; a non-checkpointed run returns the partial
        :class:`YieldResult` (``evaluated`` marks what finished, and
        the result reports itself degraded).
        """
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1 (or None)")
        if budget is not None and not isinstance(budget, DeadlineBudget):
            budget = DeadlineBudget.after(budget)
        ranges = chunk_ranges(n_samples, chunk_size)
        seeds = spawn_seed_sequences(seed, len(ranges))
        tasks = {cid: (bounds, seed_seq, batch_size, budget)
                 for cid, (bounds, seed_seq) in enumerate(zip(ranges, seeds))}
        # The identity a checkpoint must match (only a checkpoint reads it).
        run_params = None if checkpoint is None else {
            "kind": "mc-yield", "seed": seed, "n_samples": n_samples,
            "chunk_size": chunk_size,
            "spec_names": [s.name for s in self.specs],
            "accel": accel_manifest(batch_size),
            **run_identity(self.fixture, self.specs, self.tech,
                           self.include_ler, self.placements)}
        return run_chunks(
            self._evaluate_chunk, tasks,
            lambda chunks, partial: self._assemble(n_samples, chunks,
                                                   partial),
            kind="mc-yield", n_samples=n_samples, run_params=run_params,
            jobs=jobs, backend=backend, checkpoint=checkpoint,
            resume=resume, budget=budget, progress=progress,
            span_attrs={"chunk_size": chunk_size, "seed": seed,
                        "batch_size": batch_size})
