"""The named yield workloads that ``repro mc``/``repro highsigma`` and
the serve daemon's ``mc``/``corners``/``highsigma`` jobs run.

:data:`WORKLOADS` is a literal table: ``offset`` (§2 differential-pair
offset under Pelgrom mismatch), ``ring`` (ring-oscillator stage-1
swing), ``sram`` (6T SRAM read SNM, the high-sigma tail) and ``node``
(a DC node voltage of a caller's netlist).  Each entry declares its
params once (type, default, minimum), the analyses it serves, fixture
and spec builders, and its report title.  :func:`resolve` checks a
request without building anything; the fingerprint of the
:class:`ResolvedWorkload` it returns hashes (name, resolved params,
tech), so equal requests from either front end match.  Builders import
circuits and engines inside the function, and the extractors are
module-level so the ``process`` backend can pickle them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro import units

__all__ = [
    "NodeVoltageExtractor",
    "OffsetExtractor",
    "Param",
    "ResolvedWorkload",
    "RingSwing",
    "SnmExtractor",
    "WORKLOADS",
    "Workload",
    "WorkloadError",
    "netlist_fixture",
    "offset_extractor",
    "resolve",
    "ring_swing",
    "sram_snm",
]


class WorkloadError(ValueError):
    """Unknown workload, an analysis it does not serve, or a bad param."""


@dataclass(frozen=True)
class RingSwing:
    """Output swing (peak minus trough) of one ring-oscillator stage
    [V], a transient metric: ``stage`` names the fixture node read."""

    stage: str = "stage1"

    def __call__(self, result, fixture) -> float:
        return float(result.voltage(fixture.nodes[self.stage])
                     .peak_to_peak())

    def die_plan(self, fixture, t_stop: float, dt: float,
                 method: str = "trapezoidal",
                 lte_rtol: Optional[float] = None):
        """The :class:`~repro.circuit.dc.TransientPlan` of
        :func:`repro.circuit.dc.operating_point_dies` that computes what
        :meth:`__call__` does on the record of a
        :func:`~repro.circuit.transient.transient` with these settings:
        the stage's node, reduced to its peak-to-peak."""
        from repro.circuit.dc import TransientPlan
        from repro.circuit.transient import DEFAULT_MAX_STEP_HALVINGS

        return TransientPlan(t_stop, dt, method, lte_rtol,
                             DEFAULT_MAX_STEP_HALVINGS,
                             (fixture.nodes[self.stage],), _peak_to_peak)


def _peak_to_peak(voltages) -> float:
    """Peak minus trough of the first row of ``voltages``, as
    :meth:`~repro.circuit.waveform.Waveform.peak_to_peak` takes them."""
    wave = voltages[0]
    return float(wave.max()) - float(wave.min())


#: The ring workload's metric: stage-1 swing.
ring_swing = RingSwing()


def sram_snm(fixture, n_points: int = 41) -> float:
    """Read static-noise margin of an SRAM-cell fixture [V]."""
    from repro.circuits import sram_read_butterfly, static_noise_margin

    return static_noise_margin(*sram_read_butterfly(fixture,
                                                    n_points=n_points))


@dataclass(frozen=True)
class NodeVoltageExtractor:
    """DC voltage of one node of an arbitrary netlist [V]."""

    node: str

    def __call__(self, fixture) -> float:
        from repro.circuit.dc import dc_operating_point

        return dc_operating_point(fixture.circuit).voltage(self.node)

    def die_plan(self, fixture) -> str:
        """The plan of :func:`repro.circuit.dc.operating_point_dies`
        that computes what :meth:`__call__` does: this node."""
        return self.node


@dataclass(frozen=True)
class OffsetExtractor:
    """Input-referred offset of a differential fixture [V]
    (:func:`repro.circuits.analog.input_referred_offset_v`): a sweep of
    the positive input over ``n_points`` values within
    ``search_range_v`` of the common mode."""

    search_range_v: float = 0.2
    n_points: int = 81

    def __call__(self, fixture) -> float:
        from repro.circuits.analog import input_referred_offset_v

        return input_referred_offset_v(fixture, self.search_range_v,
                                       self.n_points)

    def die_plan(self, fixture):
        """The :class:`~repro.circuit.dc.SweepPlan` of
        :func:`repro.circuit.dc.operating_point_dies` that computes
        what :meth:`__call__` does: the swept source, the grid, the two
        balance nodes and the crossing reduction."""
        from repro.circuit.dc import SweepPlan
        from repro.circuits import analog

        values = analog.offset_grid(fixture, self.search_range_v,
                                    self.n_points)
        return SweepPlan(analog.OFFSET_SOURCE, values,
                         analog.offset_balance_nodes(fixture),
                         functools.partial(analog.balance_offset_v, values,
                                           fixture.meta["vcm_v"]))


#: The offset workload's extractor.
offset_extractor = OffsetExtractor()


@dataclass(frozen=True)
class SnmExtractor:
    """Read static-noise margin of an SRAM-cell fixture [V]
    (:func:`sram_snm`): a butterfly sweep over ``n_points`` probe
    values."""

    n_points: int = 41

    def __call__(self, fixture) -> float:
        return sram_snm(fixture, self.n_points)

    def die_plan(self, fixture):
        """The :class:`~repro.circuit.dc.SweepPlan` of
        :func:`repro.circuit.dc.operating_point_dies` that computes
        what :meth:`__call__` does
        (:func:`repro.circuits.digital.read_snm_plan`)."""
        from repro.circuits.digital import read_snm_plan

        return read_snm_plan(fixture, self.n_points)


def netlist_fixture(netlist: str, tech):
    """A circuit fixture parsed from netlist text."""
    from repro.circuit.parser import parse_netlist
    from repro.circuits.references import CircuitFixture

    return CircuitFixture(circuit=parse_netlist(netlist, tech))


@dataclass(frozen=True)
class Param:
    """One request param: type, default, inclusive bounds and, for a
    string, the values it may take."""

    kind: type
    default: Any = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Tuple[str, ...] = ()

    def check(self, key: str, value: Any) -> Any:
        """``value`` checked (None → default; an int passes as float)."""
        if value is None:
            return self.default
        if self.kind is float and isinstance(value, int) \
                and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, self.kind) or \
                (self.kind is not bool and isinstance(value, bool)):
            raise WorkloadError(f"param {key!r} must be "
                                f"{self.kind.__name__}")
        if self.minimum is not None and value < self.minimum:
            raise WorkloadError(f"param {key!r} must be >= {self.minimum}")
        if self.maximum is not None and value > self.maximum:
            raise WorkloadError(f"param {key!r} must be <= {self.maximum}")
        if self.choices and value not in self.choices:
            raise WorkloadError(f"param {key!r} must be one of "
                                f"{', '.join(self.choices)}")
        return value


@dataclass(frozen=True)
class Workload:
    """One named workload (see the module docstring)."""

    params: Mapping[str, Param]
    analyses: Tuple[str, ...]
    fixture: Callable[["ResolvedWorkload"], Any]
    spec: Callable[["ResolvedWorkload"], Tuple[Any, str]]
    title: str  # str.format-ed with the resolved params
    netlist: bool = False
    check: Optional[Callable[[Dict[str, Any]], None]] = None


@dataclass(frozen=True)
class ResolvedWorkload:
    """A workload with checked params on one technology node."""

    name: str
    params: Dict[str, Any]
    tech: Any
    netlist: Optional[str] = None
    netlist_hash: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Content hash of (name, resolved params, tech[, netlist])."""
        from repro.obs.runlog import content_hash

        return content_hash({"workload": self.name, "params": self.params,
                             "tech": self.tech.name,
                             "netlist": self.netlist_hash})

    @property
    def title(self) -> str:
        """The report title, without the technology node."""
        return WORKLOADS[self.name].title.format(**self.params)

    def fixture(self):
        """Build the circuit fixture."""
        return WORKLOADS[self.name].fixture(self)

    def spec(self) -> Tuple[Any, str]:
        """Build ``(Specification, spec text)``."""
        return WORKLOADS[self.name].spec(self)


def _offset_fixture(w: ResolvedWorkload):
    from repro.circuits import differential_pair

    return differential_pair(w.tech, w_m=w.params["w_um"] * units.MICRO,
                             l_m=w.params["l_um"] * units.MICRO)


def _offset_spec(w: ResolvedWorkload):
    from repro.core import Specification

    limit_v = w.params["limit_mv"] * units.MILLI
    return (Specification("offset", offset_extractor, lower=-limit_v,
                          upper=limit_v),
            f"|offset| < {w.params['limit_mv']:g} mV")


def _ring_fixture(w: ResolvedWorkload):
    from repro.circuits import ring_oscillator

    return ring_oscillator(w.tech, n_stages=w.params["n_stages"])


def _ring_spec(w: ResolvedWorkload):
    from repro.core import transient_specification

    lower = w.params["swing_min_v"]
    if lower is None:
        lower = 0.5 * w.tech.vdd
    return (transient_specification(
        "swing", ring_swing, t_stop_s=w.params["ring_tstop"],
        dt_s=w.params["ring_dt"], lower=lower),
        f"stage-1 swing > {lower:g} V")


def _sram_fixture(w: ResolvedWorkload):
    from repro.circuits import sram_cell

    return sram_cell(w.tech, cell_ratio=w.params["cell_ratio"])


def _sram_spec(w: ResolvedWorkload):
    from repro.core import Specification

    lower = w.params["snm_min_mv"] * units.MILLI
    extractor = SnmExtractor(w.params["snm_points"])
    return (Specification("read_snm", extractor, lower=lower),
            f"read SNM > {lower * 1e3:.1f} mV")


def _node_spec(w: ResolvedWorkload):
    from repro.core import Specification

    node, lower, upper = (w.params[k] for k in ("node", "lower", "upper"))
    return (Specification(f"v({node})", NodeVoltageExtractor(node),
                          lower=lower, upper=upper),
            f"{lower} <= v({node}) <= {upper} V")


def _node_check(params: Dict[str, Any]) -> None:
    lower, upper = params["lower"], params["upper"]
    if not params["node"]:
        raise WorkloadError("the node workload needs params.node")
    if lower is None and upper is None:
        raise WorkloadError("the node workload needs params.lower "
                            "and/or params.upper bounds")
    if lower is not None and upper is not None and lower >= upper:
        raise WorkloadError("params.lower must be below params.upper")


#: Every workload, by name.
WORKLOADS: Dict[str, Workload] = {
    "offset": Workload(
        params={"w_um": Param(float, 4.0, minimum=0.01),
                "l_um": Param(float, 0.4, minimum=0.01),
                "limit_mv": Param(float, 5.0, minimum=0.01)},
        analyses=("mc", "corners"),
        fixture=_offset_fixture, spec=_offset_spec,
        title="Monte-Carlo offset yield: differential pair"),
    "ring": Workload(
        params={"n_stages": Param(int, 3, minimum=3),
                "ring_tstop": Param(float, 0.3e-9, minimum=1e-15),
                "ring_dt": Param(float, 5e-12, minimum=1e-15),
                "swing_min_v": Param(float)},
        analyses=("mc",),
        fixture=_ring_fixture, spec=_ring_spec,
        title="Monte-Carlo swing yield: {n_stages}-stage ring oscillator"),
    "sram": Workload(
        params={"cell_ratio": Param(float, 1.2, minimum=0.1),
                "snm_points": Param(int, 41, minimum=5),
                "snm_min_mv": Param(float, 80.0)},
        analyses=("highsigma",),
        fixture=_sram_fixture, spec=_sram_spec,
        title="High-sigma read-SNM yield: 6T SRAM cell"),
    "node": Workload(
        params={"node": Param(str, ""), "lower": Param(float),
                "upper": Param(float)},
        analyses=("mc", "corners"),
        fixture=lambda w: netlist_fixture(w.netlist, w.tech),
        spec=_node_spec, title="Monte-Carlo node-voltage yield: netlist",
        netlist=True, check=_node_check),
}


def resolve(name: Any, params: Mapping[str, Any], tech,
            analysis: Optional[str] = None, netlist: Optional[str] = None,
            netlist_hash: Optional[str] = None) -> ResolvedWorkload:
    """Check a request against :data:`WORKLOADS`; builds nothing.

    Keys the workload does not declare are ignored (serve params also
    carry analysis knobs such as ``samples``); a declared key that is
    absent or None takes its default.  Raises :class:`WorkloadError`.
    """
    workload = WORKLOADS.get(name) if isinstance(name, str) else None
    if workload is None:
        raise WorkloadError(f"unknown workload {name!r} (expected "
                            f"{', '.join(WORKLOADS)})")
    if analysis is not None and analysis not in workload.analyses:
        raise WorkloadError(
            f"workload {name!r} does not serve {analysis} (it serves "
            f"{', '.join(workload.analyses)})")
    if workload.netlist != (netlist is not None):
        raise WorkloadError(f"workload {name!r} needs a netlist"
                            if workload.netlist else
                            f"workload {name!r} takes no netlist")
    resolved = {key: param.check(key, params.get(key))
                for key, param in workload.params.items()}
    if workload.check is not None:
        workload.check(resolved)
    return ResolvedWorkload(name, resolved, tech, netlist, netlist_hash)
