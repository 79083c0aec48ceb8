"""Event-driven multi-device TDDB circuit simulation (§3.1, ref [20]).

The Weibull statistics of :mod:`repro.aging.tddb` say WHEN each oxide
breaks; whether the CIRCUIT dies is a separate question — "one BD does
not necessarily imply circuit failure."  This engine answers it
statistically: for each Monte-Carlo sample it draws a breakdown history
for every device, walks the events forward in time, injects each
post-BD model (mode per the device's oxide thickness, random spot), and
re-tests a user-supplied functionality predicate after every event.
The sample's circuit failure time is the first event that breaks the
predicate — possibly never, possibly only after the second or third
breakdown.

Output: the circuit-level survival curve, the distribution of
*breakdowns survived before failure*, and the gap between first-BD time
and circuit-failure time — the quantitative form of the ref [20] claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import units
from repro.aging.tddb import BreakdownMode, TddbModel
from repro.circuit.dc import dc_operating_point
from repro.circuit.mna import ConvergenceError, SingularCircuitError
from repro.circuits.references import CircuitFixture
from repro.parallel import clone_fixture

FunctionalFn = Callable[[CircuitFixture], bool]


@dataclass
class BreakdownSample:
    """One Monte-Carlo die's breakdown history."""

    t_first_bd_s: float
    """Earliest device breakdown in this die."""

    t_circuit_failure_s: float
    """When the functionality predicate first failed (inf = survived)."""

    breakdowns_survived: int
    """Events absorbed before (excluding) the fatal one."""

    fatal_device: Optional[str]
    """Device whose breakdown killed the circuit (None = survived)."""


@dataclass
class BreakdownSurvival:
    """Aggregated results of a breakdown Monte-Carlo run."""

    samples: List[BreakdownSample]
    horizon_s: float

    def survival_fraction(self, t_s: float) -> float:
        """Fraction of dies functional at time ``t_s``."""
        return float(np.mean([s.t_circuit_failure_s > t_s
                              for s in self.samples]))

    def first_bd_fraction(self, t_s: float) -> float:
        """Fraction of dies with at least one broken oxide by ``t_s``."""
        return float(np.mean([s.t_first_bd_s <= t_s for s in self.samples]))

    def mean_breakdowns_survived(self) -> float:
        """Average number of breakdowns absorbed before failure."""
        return float(np.mean([s.breakdowns_survived for s in self.samples]))

    def immunity_gap_years(self) -> float:
        """Median gap between first BD and circuit failure [years].

        Infinite when more than half the dies never fail in-horizon —
        the strongest form of the ref [20] claim.
        """
        gaps = [s.t_circuit_failure_s - s.t_first_bd_s
                for s in self.samples if s.t_first_bd_s <= self.horizon_s]
        if not gaps:
            return math.inf
        return units.seconds_to_years(float(np.median(gaps)))


class BreakdownSimulator:
    """Monte-Carlo event-driven TDDB over a whole circuit."""

    def __init__(self, fixture: CircuitFixture, tddb: TddbModel,
                 functional: Optional[FunctionalFn] = None,
                 temperature_k: float = units.T_ROOM):
        self.fixture = fixture
        self.tddb = tddb
        self.temperature_k = temperature_k
        self.functional = (functional if functional is not None
                           else self._default_functional)

    # ------------------------------------------------------------------
    def _default_functional(self, fixture: CircuitFixture) -> bool:
        """Fallback predicate: the DC operating point still solves."""
        try:
            dc_operating_point(fixture.circuit)
            return True
        except (ConvergenceError, SingularCircuitError):
            return False

    @staticmethod
    def _gate_stresses(fixture: CircuitFixture) -> Dict[str, float]:
        """|V_GS| of every device at the fixture's operating point."""
        op = dc_operating_point(fixture.circuit)
        return {m.name: abs(m.operating_point(op.x).vgs_v)
                for m in fixture.circuit.mosfets}

    # ------------------------------------------------------------------
    def run(self, n_samples: int, horizon_s: float,
            seed: int = 0) -> BreakdownSurvival:
        """Simulate ``n_samples`` dies over ``horizon_s`` seconds.

        Devices whose gate sees no stress (|V_GS| ≈ 0) never break.
        Each die's events are processed chronologically; the mode at the
        event time follows each device's SBD/PBD/HBD progression.  The
        dies run in turn on one replica of the fixture, fresh at the
        start of each die; the caller's fixture is never modified.  The
        gate stresses come from the replica's operating point before
        the first die, so every run sees the fixture as it is then.
        """
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if horizon_s <= 0.0:
            raise ValueError("horizon must be positive")
        rng = np.random.default_rng(seed)
        replica = clone_fixture(self.fixture)
        stresses = self._gate_stresses(replica)
        devices = replica.circuit.mosfets
        samples: List[BreakdownSample] = []
        for _ in range(n_samples):
            for device in devices:
                device.degradation.reset()
            events = []
            for device in devices:
                vgs = stresses[device.name]
                if vgs < 0.05:
                    continue
                eox = device.oxide_field(vgs)
                event = self.tddb.sample_breakdown(
                    rng, device.params.tox_m / units.NANO, eox,
                    device.params.area_um2, self.temperature_k)
                if event.t_first_bd_s <= horizon_s:
                    events.append((event.t_first_bd_s, device, event))
            events.sort(key=lambda item: item[0])
            t_first = events[0][0] if events else math.inf
            t_failure = math.inf
            fatal = None
            survived = 0
            for t_event, device, event in events:
                mode = event.mode_at(t_event)
                self.tddb.apply_breakdown(
                    device, mode if mode else BreakdownMode.SOFT,
                    spot_position=event.spot_position,
                    t_since_first_bd_s=0.0)
                if not self.functional(replica):
                    t_failure = t_event
                    fatal = device.name
                    break
                survived += 1
            samples.append(BreakdownSample(
                t_first_bd_s=t_first,
                t_circuit_failure_s=t_failure,
                breakdowns_survived=survived,
                fatal_device=fatal))
        return BreakdownSurvival(samples=samples, horizon_s=horizon_s)
