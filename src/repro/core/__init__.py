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

Exports resolve lazily (:mod:`repro._lazy`): importing the package runs
no engine module, and ``from repro.core import MonteCarloYield`` loads
the yield engine alone.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "aging_simulator": ("AgingReport", "MissionPhase", "MissionProfile",
                        "ReliabilitySimulator", "aging_ensemble"),
    "breakdown_sim": ("BreakdownSample", "BreakdownSimulator",
                      "BreakdownSurvival"),
    "corners": ("CornerAnalysis", "CornerResult", "PvtPoint"),
    "guardband": ("GuardbandReport", "guardband_analysis"),
    "sweeps": ("SweepResult", "crossover", "sweep"),
    "emc_analysis": ("EmcAnalyzer", "SusceptibilityMap"),
    "importance": ("HighSigmaResult", "HighSigmaYield", "Surrogate",
                   "SurrogateConfig", "normal_ppf", "normal_sf",
                   "sigma_level_from_probability"),
    "lifetime": ("LifetimeEstimator", "LifetimeSummary", "combined_survival",
                 "mission_survival_probability", "reliability_yield",
                 "tddb_survival_fn", "time_to_spec_violation"),
    "yield_analysis": ("QUARANTINE_ERRORS", "MonteCarloYield",
                       "SampleEvaluationError", "Specification",
                       "YieldResult", "transient_specification",
                       "wilson_interval"),
})

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
