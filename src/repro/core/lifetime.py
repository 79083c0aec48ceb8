"""Lifetime estimation: when does an aging circuit leave its spec?

Combines the drift trajectories of
:class:`~repro.core.aging_simulator.ReliabilitySimulator` with spec
bounds to get parametric failure times, and folds in the *catastrophic*
TDDB Weibull statistics (a breakdown is an event, not a drift) via the
competing-risk product

    R_sys(t) = R_parametric(t) · Π_i R_TDDB,i(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import units
from repro.aging.tddb import TddbModel
from repro.circuit.mosfet import Mosfet


def time_to_spec_violation(times_s: np.ndarray, values: np.ndarray,
                           lower: Optional[float] = None,
                           upper: Optional[float] = None) -> float:
    """First time a drifting metric leaves ``[lower, upper]`` [s].

    Interpolates the crossing in log-time between epochs (degradation
    laws are power laws, so log-time interpolation is the natural one).
    Returns ``inf`` when the metric stays in spec over the whole record.
    """
    if lower is None and upper is None:
        raise ValueError("need at least one bound")
    times_s = np.asarray(times_s, dtype=float)
    values = np.asarray(values, dtype=float)
    if times_s.shape != values.shape:
        raise ValueError("times and values must have equal length")

    def violates(v: float) -> bool:
        if not math.isfinite(v):
            return True
        if lower is not None and v < lower:
            return True
        if upper is not None and v > upper:
            return True
        return False

    flags = [violates(v) for v in values]
    if flags[0]:
        return 0.0
    for k in range(1, len(flags)):
        if not flags[k]:
            continue
        bound = lower if (lower is not None and values[k] < lower) else upper
        v0, v1 = values[k - 1], values[k]
        if bound is None or v1 == v0:
            return float(times_s[k])
        frac = (bound - v0) / (v1 - v0)
        frac = min(max(frac, 0.0), 1.0)
        t0 = max(times_s[k - 1], 1e-12)
        t1 = max(times_s[k], t0 * (1 + 1e-12))
        return float(t0 * (t1 / t0) ** frac)
    return math.inf


@dataclass(frozen=True)
class LifetimeSummary:
    """Distribution summary of sampled failure times."""

    failure_times_s: np.ndarray

    @property
    def mttf_s(self) -> float:
        """Mean time to failure [s] (inf if any sample never fails)."""
        return float(np.mean(self.failure_times_s))

    @property
    def mttf_years(self) -> float:
        """MTTF in years."""
        return units.seconds_to_years(self.mttf_s)

    def quantile_s(self, q: float) -> float:
        """Failure-time quantile (e.g. q=0.01 for the 1 % early life)."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        return float(np.quantile(self.failure_times_s, q))

    def surviving_fraction(self, t_s: float) -> float:
        """Fraction of samples still alive at time ``t_s``."""
        return float(np.mean(self.failure_times_s > t_s))


class LifetimeEstimator:
    """Monte-Carlo failure-time distribution: variability × aging.

    Each sample draws a fresh set of device mismatches, runs the full
    aging mission, and records when the metric leaves its spec window.
    The resulting :class:`LifetimeSummary` gives MTTF, early-life
    quantiles and survival curves — the §5-intro "analysis tools at
    design time" applied statistically.
    """

    def __init__(self, fixture, mechanisms, tech, metric, lower=None,
                 upper=None, include_ler: bool = False):
        if lower is None and upper is None:
            raise ValueError("need at least one spec bound")
        if not mechanisms:
            raise ValueError("at least one aging mechanism is required")
        self.fixture = fixture
        self.mechanisms = list(mechanisms)
        self.tech = tech
        self.metric = metric
        self.lower = lower
        self.upper = upper
        self.include_ler = include_ler

    def run(self, profile, n_samples: int, seed: int = 0) -> LifetimeSummary:
        """Sample ``n_samples`` dies; returns their failure times.

        A die whose metric stays in spec for the whole mission records
        an infinite failure time (visible in ``surviving_fraction``).
        The dies are :func:`~repro.core.aging_simulator.aging_ensemble`'s
        (one seed stream per die); the caller's fixture is never
        modified.
        """
        from repro.core.aging_simulator import aging_ensemble

        reports = aging_ensemble(self.fixture, self.mechanisms, profile,
                                 {"lifetime_metric": self.metric}, self.tech,
                                 n_samples, seed=seed,
                                 include_ler=self.include_ler)
        return LifetimeSummary(failure_times_s=np.array([
            time_to_spec_violation(report.times_s,
                                   report.metric("lifetime_metric"),
                                   lower=self.lower, upper=self.upper)
            for report in reports]))


def reliability_yield(fixture, mechanisms, tech, metric, profile,
                      n_samples: int, lower=None, upper=None,
                      seed: int = 0) -> float:
    """End-of-life yield: fraction of dies still in spec after the mission.

    The §5 figure of merit that combines the two halves of the paper:
    *yield* (time-zero variability) and *reliability* (drift).  A die
    counts only if its metric is inside the spec window at t = 0 AND at
    every epoch through the mission end.
    """
    estimator = LifetimeEstimator(fixture, mechanisms, tech, metric,
                                  lower=lower, upper=upper)
    summary = estimator.run(profile, n_samples=n_samples, seed=seed)
    return summary.surviving_fraction(profile.duration_s * (1.0 - 1e-12))


def tddb_survival_fn(devices: Sequence[Mosfet], model: TddbModel,
                     vgs_by_device: dict,
                     temperature_k: float = units.T_ROOM
                     ) -> Callable[[float], float]:
    """Joint TDDB survival probability of a set of gate oxides.

    ``vgs_by_device`` maps device names to their (DC) gate stress — the
    oxide field driver.  Oxides fail independently (Poisson), so the
    system survival is the product of per-device Weibull survivals.
    """
    params: List[tuple] = []
    for device in devices:
        vgs = vgs_by_device[device.name]
        eox = device.oxide_field(vgs)
        if eox <= 0.0:
            continue
        eta = model.characteristic_life_s(eox, device.params.area_um2,
                                          temperature_k)
        params.append((eta, model.coeffs.tddb_weibull_shape))

    def survival(t_s: float) -> float:
        if t_s <= 0.0:
            return 1.0
        log_r = 0.0
        for eta, shape in params:
            log_r -= (t_s / eta) ** shape
        return math.exp(log_r)

    return survival


def combined_survival(parametric_failure_time_s: float,
                      tddb_survival: Callable[[float], float],
                      t_s: float) -> float:
    """Competing-risk survival: parametric drift is treated as a
    deterministic wear-out wall, TDDB as a random process."""
    if t_s >= parametric_failure_time_s:
        return 0.0
    return tddb_survival(t_s)


def mission_survival_probability(parametric_failure_time_s: float,
                                 tddb_survival: Callable[[float], float],
                                 mission_s: float = units.years_to_seconds(10.0)
                                 ) -> float:
    """Probability of surviving the full mission under both risks."""
    return combined_survival(parametric_failure_time_s, tddb_survival,
                             mission_s)
