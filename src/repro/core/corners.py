"""Corner analysis: the systematic (inter-die) side of §2 yield.

Intra-die mismatch is sampled by :class:`~repro.core.MonteCarloYield`;
the *systematic* component — wafer-to-wafer and lot-to-lot shifts — is
traditionally bounded by evaluating the design at the process corners
(TT/FF/SS/FS/SF), optionally crossed with supply and temperature
extremes (the full PVT matrix).  This engine runs a metric over that
matrix and reports the worst case per spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.circuit.elements import DcSpec, VoltageSource
from repro.circuits.references import CircuitFixture
from repro.core.yield_analysis import QUARANTINE_ERRORS, Specification
from repro.parallel import FailureLedger, ParallelMap, clone_fixture
from repro.technology.node import TechnologyNode
from repro.variability.sampler import ProcessCorner, standard_corners

MetricFn = Callable[[CircuitFixture], float]


@dataclass(frozen=True)
class PvtPoint:
    """One process/voltage/temperature combination."""

    corner: str
    vdd_scale: float
    temperature_k: float

    @property
    def label(self) -> str:
        """Compact identifier, e.g. ``SS/0.9V/398K``."""
        return f"{self.corner}/{self.vdd_scale:g}x/{self.temperature_k:g}K"


@dataclass
class CornerResult:
    """Metric values over the PVT matrix."""

    values: Dict[str, Dict[str, float]]
    """spec name → point label → value (NaN = failed evaluation)."""

    points: List[PvtPoint]

    ledger: FailureLedger = field(default_factory=FailureLedger)
    """Failed PVT evaluations with diagnostics.  Record ``index`` is the
    point's position in :attr:`points`; ``label`` is
    ``"<spec>@<point label>"``; solver failures carry their
    :class:`~repro.circuit.mna.ConvergenceReport`."""

    @property
    def is_degraded(self) -> bool:
        """Whether any PVT evaluation failed (its value is NaN)."""
        return bool(self.ledger)

    def worst_case(self, spec: Specification) -> tuple:
        """``(point_label, value)`` of the worst excursion for a spec.

        "Worst" = smallest margin to the nearest bound; NaN evaluations
        dominate (a corner you cannot evaluate is the worst corner).
        """
        per_point = self.values[spec.name]

        def margin(value: float) -> float:
            if math.isnan(value):
                return -math.inf
            margins = []
            if spec.lower is not None:
                margins.append(value - spec.lower)
            if spec.upper is not None:
                margins.append(spec.upper - value)
            return min(margins)

        label = min(per_point, key=lambda lbl: margin(per_point[lbl]))
        return label, per_point[label]

    def all_pass(self, spec: Specification) -> bool:
        """Whether the spec holds at EVERY PVT point."""
        return all(spec.passes(v) for v in self.values[spec.name].values())


class CornerAnalysis:
    """Runs metrics across corners × supply scales × temperatures."""

    def __init__(self, fixture: CircuitFixture, specs: Sequence[Specification],
                 tech: TechnologyNode,
                 vdd_source_name: str = "vdd",
                 corners: Optional[Dict[str, ProcessCorner]] = None,
                 vdd_scales: Sequence[float] = (0.9, 1.0, 1.1),
                 temperatures_k: Sequence[float] = (233.15, 300.0, 398.15)):
        if not specs:
            raise ValueError("at least one specification is required")
        self.fixture = fixture
        self.specs = list(specs)
        self.tech = tech
        self.vdd_source_name = vdd_source_name
        self.corners = corners if corners is not None else standard_corners(tech)
        self.vdd_scales = list(vdd_scales)
        self.temperatures_k = list(temperatures_k)
        source = fixture.circuit[vdd_source_name]
        if not isinstance(source, VoltageSource):
            raise TypeError(f"{vdd_source_name!r} is not a voltage source")

    @staticmethod
    def _set_temperature(circuit, temperature_k: float) -> None:
        for device in circuit.mosfets:
            # MosfetParams is frozen; swap a copy with the new temperature.
            device.params = replace(device.params,
                                    temperature_k=temperature_k)

    def _pvt_points(self) -> List[PvtPoint]:
        """The PVT matrix in its canonical (corner, vdd, T) nest order."""
        return [PvtPoint(corner=corner, vdd_scale=scale,
                         temperature_k=temperature)
                for corner in self.corners for scale in self.vdd_scales
                for temperature in self.temperatures_k]

    def _evaluate_group(self, task: Tuple[int, List[PvtPoint], float, bool,
                                          bool]) -> dict:
        """Evaluate every spec at a group of PVT points on one replica.

        The group's points run in order on a private clone of the
        template, each configuring its corner, supply and temperature
        afresh, so the caller's fixture is never written.  Metric
        extraction has no randomness and every solve starts cold, hence
        the values do not depend on how the matrix is grouped.  Failed
        evaluations (non-convergence, singular systems) become NaN and
        are quarantined in the returned ledger — one bad corner never
        aborts the matrix.

        With ``trace`` set the group collects telemetry into a private
        worker session (``point → analysis → solve.*``, span records
        kept when ``records`` is set) shipped back under the
        ``"telemetry"`` key, exactly like the Monte-Carlo chunks.
        """
        start, points, nominal_vdd, trace, records = task
        with telemetry.worker_session(trace, f"p{start}.",
                                      records) as tsession:
            fixture = clone_fixture(self.fixture)
            circuit = fixture.circuit
            source = circuit[self.vdd_source_name]
            values = []
            ledger = FailureLedger()
            for index, point in enumerate(points, start):
                self.corners[point.corner].apply(circuit)
                source.spec = DcSpec(point.vdd_scale * nominal_vdd)
                self._set_temperature(circuit, point.temperature_k)
                if tsession is not None:
                    tsession.metrics.inc("engine.corner_points")
                out = {}
                with telemetry.span("point", label=point.label,
                                    worker=telemetry.worker_label()):
                    for spec in self.specs:
                        with telemetry.span("analysis",
                                            spec=spec.name) as a_sp:
                            try:
                                out[spec.name] = float(
                                    spec.extractor(fixture))
                            except QUARANTINE_ERRORS as exc:
                                out[spec.name] = float("nan")
                                ledger.add(
                                    index, exc,
                                    label=f"{spec.name}@{point.label}")
                                a_sp.set(quarantined=type(exc).__name__)
                values.append(out)
            from repro import resilience

            resilience.supervisor().drain_into(ledger)
            payload = {"values": values, "ledger": ledger.to_list()}
            if tsession is not None:
                payload["telemetry"] = tsession.export()
            return payload

    def run(self, jobs: int = 1, backend: str = "auto") -> CornerResult:
        """Evaluate every spec at every PVT point.

        The matrix is split into one contiguous group of points per
        worker (a serial run is one group), and each group runs on its
        own replica of the fixture through
        :class:`repro.parallel.ParallelMap`; the caller's fixture is
        never modified, and ``jobs``/``backend`` never change values.

        Degrades gracefully: a PVT point whose evaluation fails is NaN
        in :attr:`CornerResult.values` (and therefore the worst case for
        its spec) and carries a diagnostic record in
        :attr:`CornerResult.ledger`; the run always completes.
        """
        session = telemetry.active()
        records = session is not None and session.tracer.keeps_records
        points = self._pvt_points()
        nominal_vdd = \
            self.fixture.circuit[self.vdd_source_name].spec.dc_value()
        mapper = ParallelMap(backend=backend, n_jobs=jobs)
        n_groups = 1 if mapper.backend == "serial" else mapper.n_jobs
        size = max(1, -(-len(points) // n_groups))
        tasks = [(start, points[start:start + size], nominal_vdd,
                  session is not None, records)
                 for start in range(0, len(points), size)]
        values: Dict[str, Dict[str, float]] = {s.name: {} for s in self.specs}
        ledger = FailureLedger()
        run_ctx = telemetry.NULL_SPAN if session is None else \
            session.tracer.span("run", kind="corner-matrix",
                                n_points=len(points), jobs=jobs,
                                backend=backend)
        with run_ctx as run_span:
            for task, out in zip(tasks,
                                 mapper.map(self._evaluate_group, tasks)):
                if session is not None:
                    session.merge_worker(out.pop("telemetry", None),
                                         run_span)
                for point, per_spec in zip(task[1], out["values"]):
                    for name, value in per_spec.items():
                        values[name][point.label] = value
                ledger.merge(FailureLedger.from_list(out["ledger"]))
        ledger.dedupe_run_level()
        ledger.sort()
        return CornerResult(values=values, points=points, ledger=ledger)
