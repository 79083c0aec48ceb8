"""Analysis engines — the paper's "proper analysis tools at design time".

* :class:`MonteCarloYield` / :class:`Specification` — §2 yield under
  sampled variability;
* :class:`HighSigmaYield` — §2 rare-event (5–6σ) tail yield via
  importance sampling with surrogate pre-screening;
* :class:`ReliabilitySimulator` / :class:`MissionProfile` — §3 circuit
  aging over a mission (simulate → stress-extract → degrade loop);
* :mod:`repro.core.lifetime` — parametric + TDDB competing-risk
  lifetime estimation;
* :class:`EmcAnalyzer` — §4 susceptibility scans and immunity curves.
"""

from repro.core.aging_simulator import (
    AgingReport,
    MissionPhase,
    MissionProfile,
    ReliabilitySimulator,
    aging_ensemble,
)
from repro.core.breakdown_sim import (
    BreakdownSample,
    BreakdownSimulator,
    BreakdownSurvival,
)
from repro.core.corners import CornerAnalysis, CornerResult, PvtPoint
from repro.core.guardband import GuardbandReport, guardband_analysis
from repro.core.sweeps import SweepResult, crossover, sweep
from repro.core.emc_analysis import EmcAnalyzer, SusceptibilityMap
from repro.core.importance import (
    HighSigmaResult,
    HighSigmaYield,
    Surrogate,
    SurrogateConfig,
    normal_ppf,
    normal_sf,
    sigma_level_from_probability,
)
from repro.core.lifetime import (
    LifetimeEstimator,
    LifetimeSummary,
    combined_survival,
    mission_survival_probability,
    reliability_yield,
    tddb_survival_fn,
    time_to_spec_violation,
)
from repro.core.yield_analysis import (
    QUARANTINE_ERRORS,
    MonteCarloYield,
    SampleEvaluationError,
    Specification,
    TransientSpecification,
    YieldResult,
    transient_specification,
    wilson_interval,
)

__all__ = [
    "AgingReport",
    "BreakdownSample",
    "BreakdownSimulator",
    "BreakdownSurvival",
    "GuardbandReport",
    "guardband_analysis",
    "CornerAnalysis",
    "CornerResult",
    "PvtPoint",
    "EmcAnalyzer",
    "HighSigmaResult",
    "HighSigmaYield",
    "Surrogate",
    "SurrogateConfig",
    "normal_ppf",
    "normal_sf",
    "sigma_level_from_probability",
    "LifetimeEstimator",
    "LifetimeSummary",
    "MissionPhase",
    "MissionProfile",
    "MonteCarloYield",
    "QUARANTINE_ERRORS",
    "ReliabilitySimulator",
    "SampleEvaluationError",
    "Specification",
    "TransientSpecification",
    "SusceptibilityMap",
    "SweepResult",
    "YieldResult",
    "aging_ensemble",
    "combined_survival",
    "crossover",
    "mission_survival_probability",
    "reliability_yield",
    "sweep",
    "tddb_survival_fn",
    "time_to_spec_violation",
    "transient_specification",
    "wilson_interval",
]
