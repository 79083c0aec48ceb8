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

    def _pvt_points(self) -> List[Tuple[str, PvtPoint]]:
        """The PVT matrix in its canonical (corner, vdd, T) nest order."""
        points = []
        for corner_name in self.corners:
            for scale in self.vdd_scales:
                for temperature in self.temperatures_k:
                    points.append((corner_name,
                                   PvtPoint(corner=corner_name,
                                            vdd_scale=scale,
                                            temperature_k=temperature)))
        return points

    def _evaluate_point(self, task: Tuple[int, str, PvtPoint, bool, bool]
                        ) -> dict:
        """Evaluate every spec at one PVT point on a fixture replica.

        Used by the parallel path: each point configures a private
        clone, so nothing shared is mutated and no restoration is
        needed.  Metric extraction has no randomness, hence the result
        is identical to the serial in-place path.  Failed evaluations
        (non-convergence, timeouts, singular systems) become NaN and are
        quarantined in the returned ledger — one bad corner never aborts
        the matrix.

        With ``trace`` set the point collects telemetry into a private
        worker session (``point → analysis → solve.*``, span records
        kept when ``records`` is set) shipped back under the
        ``"telemetry"`` key, exactly like the Monte-Carlo chunks.
        """
        index, corner_name, point, trace, records = task
        with telemetry.worker_session(trace, f"p{index}.",
                                      records) as tsession:
            fixture = clone_fixture(self.fixture)
            circuit = fixture.circuit
            source = circuit[self.vdd_source_name]
            nominal_vdd = source.spec.dc_value()
            self.corners[corner_name].apply(circuit)
            source.spec = DcSpec(point.vdd_scale * nominal_vdd)
            self._set_temperature(circuit, point.temperature_k)
            out = {}
            ledger = FailureLedger()
            if tsession is not None:
                tsession.metrics.inc("engine.corner_points")
                point_ctx = tsession.tracer.span(
                    "point", label=point.label,
                    worker=telemetry.worker_label())
            else:
                point_ctx = telemetry.NULL_SPAN
            with point_ctx:
                for spec in self.specs:
                    with telemetry.span("analysis", spec=spec.name) as a_sp:
                        try:
                            out[spec.name] = float(spec.extractor(fixture))
                        except QUARANTINE_ERRORS as exc:
                            out[spec.name] = float("nan")
                            ledger.add(index, exc,
                                       label=f"{spec.name}@{point.label}")
                            a_sp.set(quarantined=type(exc).__name__)
            from repro import resilience

            resilience.supervisor().drain_into(ledger)
            payload = {"values": out, "ledger": ledger.to_list()}
            if tsession is not None:
                payload["telemetry"] = tsession.export()
            return payload

    def run(self, jobs: int = 1, backend: str = "auto") -> CornerResult:
        """Evaluate every spec at every PVT point; restores the fixture.

        ``jobs > 1`` fans the PVT matrix out over
        :class:`repro.parallel.ParallelMap` workers, each configuring a
        private fixture replica; the original fixture is untouched.

        Degrades gracefully: a PVT point whose evaluation fails is NaN
        in :attr:`CornerResult.values` (and therefore the worst case for
        its spec) and carries a diagnostic record in
        :attr:`CornerResult.ledger`; the run always completes.
        """
        session = telemetry.active()
        records = session is not None and session.tracer.keeps_records
        tasks = [(index, corner_name, point, session is not None, records)
                 for index, (corner_name, point)
                 in enumerate(self._pvt_points())]
        points = [task[2] for task in tasks]
        values: Dict[str, Dict[str, float]] = {s.name: {} for s in self.specs}
        ledger = FailureLedger()
        run_ctx = telemetry.NULL_SPAN if session is None else \
            session.tracer.span("run", kind="corner-matrix",
                                n_points=len(tasks), jobs=jobs,
                                backend=backend)
        with run_ctx as run_span:
            if jobs != 1 or backend not in ("auto", "serial"):
                mapper = ParallelMap(backend=backend, n_jobs=jobs)
                for (_, _, point, _, _), out in zip(
                        tasks, mapper.map(self._evaluate_point, tasks)):
                    if session is not None:
                        session.merge_worker(out.pop("telemetry", None),
                                             run_span)
                    for name, value in out["values"].items():
                        values[name][point.label] = value
                    ledger.merge(FailureLedger.from_list(out["ledger"]))
                ledger.dedupe_run_level()
                ledger.sort()
                return CornerResult(values=values, points=points,
                                    ledger=ledger)

            circuit = self.fixture.circuit
            source = circuit[self.vdd_source_name]
            nominal_spec = source.spec
            nominal_vdd = nominal_spec.dc_value()
            try:
                for index, corner_name, point, _, _ in tasks:
                    if session is not None:
                        session.metrics.inc("engine.corner_points")
                    with telemetry.span("point", label=point.label):
                        self.corners[corner_name].apply(circuit)
                        source.spec = DcSpec(point.vdd_scale * nominal_vdd)
                        self._set_temperature(circuit, point.temperature_k)
                        for spec in self.specs:
                            with telemetry.span("analysis",
                                                spec=spec.name) as a_sp:
                                try:
                                    value = float(
                                        spec.extractor(self.fixture))
                                except QUARANTINE_ERRORS as exc:
                                    value = float("nan")
                                    ledger.add(
                                        index, exc,
                                        label=f"{spec.name}@{point.label}")
                                    a_sp.set(
                                        quarantined=type(exc).__name__)
                            values[spec.name][point.label] = value
            finally:
                source.spec = nominal_spec
                self._set_temperature(circuit, 300.0)
                for device in circuit.mosfets:
                    from repro.circuit.mosfet import DeviceVariation

                    device.variation = DeviceVariation()
            from repro import resilience

            resilience.supervisor().drain_into(ledger)
            ledger.dedupe_run_level()
            ledger.sort()
            return CornerResult(values=values, points=points, ledger=ledger)
