"""Design guardbands: the cost of NOT being adaptive.

The paper's §5 argument starts from the cost side: "the classical
approaches, intrinsic robustness by overdesign or use of redundancy,
introduce an unacceptable power and area penalty."  This module
quantifies that penalty for a performance metric: how much margin a
fixed (non-adaptive) design must reserve so the WORST die at the WORST
corner at END OF LIFE still meets spec:

    guardband = (nominal − worst_case) / nominal

decomposed into its three contributors — time-zero variability (k·σ of
the MC distribution), environment (worst PVT corner), and aging (EOL
drift) — combined linearly, the standard pessimistic sign-off stack-up.
The knobs-and-monitors bench (E10) shows what the adaptive alternative
saves against exactly this number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.circuits.references import CircuitFixture
from repro.core.aging_simulator import MissionProfile, ReliabilitySimulator
from repro.core.yield_analysis import MonteCarloYield, Specification
from repro.parallel import clone_fixture
from repro.technology.node import TechnologyNode

MetricFn = Callable[[CircuitFixture], float]


@dataclass(frozen=True)
class GuardbandReport:
    """The margin stack-up for one metric (all signed fractions of
    nominal; positive = the metric DEGRADES by that much)."""

    nominal: float
    variability_fraction: float
    """k·σ/µ of the time-zero MC distribution."""

    corner_fraction: float
    """Relative loss at the worst PVT corner (0 when corners skipped)."""

    aging_fraction: float
    """Relative end-of-life drift (0 when aging skipped)."""

    sigma_level: float
    """The k used for the variability term."""

    @property
    def total_fraction(self) -> float:
        """Linear (pessimistic) stack-up of the three contributors."""
        return (self.variability_fraction + self.corner_fraction
                + self.aging_fraction)

    @property
    def design_target(self) -> float:
        """What the fresh nominal must deliver so the worst case still
        meets the nominal spec: ``nominal / (1 − guardband)``."""
        if self.total_fraction >= 1.0:
            return math.inf
        return self.nominal / (1.0 - self.total_fraction)


def guardband_analysis(fixture: CircuitFixture, metric: MetricFn,
                       tech: TechnologyNode,
                       mechanisms: Optional[Sequence] = None,
                       profile: Optional[MissionProfile] = None,
                       n_mc_samples: int = 60,
                       sigma_level: float = 3.0,
                       corner_fractions: Optional[Sequence[float]] = None,
                       seed: int = 0) -> GuardbandReport:
    """Compute the fixed-design guardband stack-up for ``metric``.

    * variability: MC over mismatch, k·σ/µ at ``sigma_level``;
    * corners: pass precomputed relative losses via ``corner_fractions``
      (e.g. from :class:`~repro.core.corners.CornerAnalysis`) — the
      worst one enters the stack; omit to skip;
    * aging: runs the reliability simulator over ``profile`` with
      ``mechanisms`` on a replica of ``fixture`` and takes the
      end-of-life drift; omit to skip.

    ``fixture`` itself is never modified.

    The metric is assumed "bigger is better" (frequency, current,
    gain); for smaller-is-better metrics negate it.
    """
    if n_mc_samples < 2:
        raise ValueError("need at least two MC samples")
    if sigma_level <= 0.0:
        raise ValueError("sigma level must be positive")

    nominal = float(metric(fixture))
    if nominal == 0.0:
        raise ValueError("nominal metric is zero — cannot normalize")

    # --- variability ----------------------------------------------------
    spec = Specification("gb_metric", metric, lower=-math.inf if nominal > 0
                         else None, upper=None if nominal > 0 else math.inf)
    mc = MonteCarloYield(fixture, [spec], tech).run(n_samples=n_mc_samples,
                                                    seed=seed)
    sigma = mc.sigma("gb_metric")
    variability = sigma_level * sigma / abs(nominal)

    # --- corners ---------------------------------------------------------
    corner = 0.0
    if corner_fractions is not None:
        losses = [f for f in corner_fractions]
        if losses:
            corner = max(0.0, max(losses))

    # --- aging -----------------------------------------------------------
    aging = 0.0
    if mechanisms:
        mission = profile if profile is not None else MissionProfile()
        simulator = ReliabilitySimulator(clone_fixture(fixture),
                                         list(mechanisms))
        report = simulator.run(mission, metrics={"gb_metric": metric})
        drift = report.drift("gb_metric")
        aging = max(0.0, -drift if nominal > 0 else drift)

    return GuardbandReport(nominal=nominal,
                           variability_fraction=variability,
                           corner_fraction=corner,
                           aging_fraction=aging,
                           sigma_level=sigma_level)
