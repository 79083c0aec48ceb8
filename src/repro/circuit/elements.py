"""Circuit elements and their MNA stamps.

Every element knows how to *stamp* itself into a modified-nodal-analysis
system (see :mod:`repro.circuit.mna`).  Three stamping entry points exist,
one per analysis:

* :meth:`Element.stamp_dc` — large-signal Newton–Raphson iteration: the
  element adds the Jacobian entries and residual currents of its
  linearized companion model at the current solution guess;
* :meth:`Element.stamp_transient` — like DC but with the charge-storage
  companion models (trapezoidal / backward-Euler);
* :meth:`Element.stamp_ac` — complex small-signal stamps around a DC
  operating point.

Node indices are resolved once by :meth:`Element.bind`; index ``-1``
denotes ground and is absorbed by the :class:`~repro.circuit.mna.Stamper`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import units
from repro.circuit.mna import Stamper

# ---------------------------------------------------------------------------
# Time-dependent source specifications (SPICE-like)
# ---------------------------------------------------------------------------


class SourceSpec:
    """Base class of time-dependent source value specifications."""

    def value(self, t: float) -> float:
        """Source value at time ``t`` [s]."""
        raise NotImplementedError

    def dc_value(self) -> float:
        """Value used for the DC operating point (t = 0 convention)."""
        return self.value(0.0)


@dataclass(frozen=True)
class DcSpec(SourceSpec):
    """A constant source."""

    level: float

    def value(self, t: float) -> float:
        return self.level


@dataclass(frozen=True)
class SineSpec(SourceSpec):
    """``offset + amplitude·sin(2πf(t-delay) + phase)`` for ``t ≥ delay``.

    The workhorse of the EMC experiments: an interference tone riding on
    a bias (paper §4).
    """

    offset: float
    amplitude: float
    frequency_hz: float
    delay_s: float = 0.0
    phase_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0.0:
            raise ValueError(f"frequency must be positive, got {self.frequency_hz}")

    def value(self, t: float) -> float:
        if t < self.delay_s:
            return self.offset
        angle = 2.0 * math.pi * self.frequency_hz * (t - self.delay_s) + self.phase_rad
        return self.offset + self.amplitude * math.sin(angle)

    def dc_value(self) -> float:
        return self.offset

    @property
    def period_s(self) -> float:
        """One period of the tone [s]."""
        return 1.0 / self.frequency_hz


@dataclass(frozen=True)
class PulseSpec(SourceSpec):
    """SPICE PULSE(v1 v2 delay rise fall width period)."""

    v1: float
    v2: float
    delay_s: float = 0.0
    rise_s: float = 1e-12
    fall_s: float = 1e-12
    width_s: float = 1e-9
    period_s: float = 2e-9

    def __post_init__(self) -> None:
        if self.rise_s <= 0.0 or self.fall_s <= 0.0:
            raise ValueError("rise/fall times must be positive")
        if self.period_s < self.rise_s + self.width_s + self.fall_s:
            raise ValueError("pulse period shorter than rise+width+fall")

    def value(self, t: float) -> float:
        if t < self.delay_s:
            return self.v1
        tau = (t - self.delay_s) % self.period_s
        if tau < self.rise_s:
            return self.v1 + (self.v2 - self.v1) * tau / self.rise_s
        tau -= self.rise_s
        if tau < self.width_s:
            return self.v2
        tau -= self.width_s
        if tau < self.fall_s:
            return self.v2 + (self.v1 - self.v2) * tau / self.fall_s
        return self.v1

    def dc_value(self) -> float:
        return self.v1


@dataclass(frozen=True)
class PwlSpec(SourceSpec):
    """Piecewise-linear source through ``(time, value)`` points."""

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("PWL needs at least two points")
        times = [p[0] for p in self.points]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("PWL times must be strictly increasing")
        # The interpolation tables, built once (the dataclass is frozen;
        # not fields, so equality, hashing and repr ignore them).
        object.__setattr__(self, "_times", np.array(times, dtype=float))
        object.__setattr__(self, "_values", np.array(
            [p[1] for p in self.points], dtype=float))

    def value(self, t: float) -> float:
        return float(np.interp(t, self._times, self._values))


def _as_spec(value: Union[float, SourceSpec]) -> SourceSpec:
    if isinstance(value, SourceSpec):
        return value
    return DcSpec(float(value))


# ---------------------------------------------------------------------------
# Element base class
# ---------------------------------------------------------------------------


class Element:
    """Base class of all netlist elements.

    Subclasses declare ``node_names`` (resolved to indices by ``bind``)
    and how many extra MNA branch unknowns they need (``n_branches``).
    """

    n_branches = 0

    #: Whether the DC/transient stamp depends on the solution guess ``x``
    #: (within one Newton solve).  Linear elements are stamped once per
    #: solve into a constant base system instead of every NR iteration.
    nonlinear = False

    def __init__(self, name: str, node_names: Sequence[str]):
        if not name:
            raise ValueError("element name must be non-empty")
        self.name = name
        self.node_names: Tuple[str, ...] = tuple(node_names)
        self.nodes: Tuple[int, ...] = ()
        self.branches: Tuple[int, ...] = ()
        #: Binding token of the circuit that last bound this element
        #: (set by ``Circuit.compile``); lets shared elements detect
        #: re-binding.  A token, not the circuit: solver engines cached
        #: weakly per circuit hold the elements, and a reference back to
        #: the circuit would keep every cached engine alive forever.
        self.bound_by = None

    def bind(self, node_indices: Sequence[int], branch_indices: Sequence[int]) -> None:
        """Attach resolved matrix indices (called by ``Circuit.compile``)."""
        if len(node_indices) != len(self.node_names):
            raise ValueError(f"{self.name}: node index count mismatch")
        if len(branch_indices) != self.n_branches:
            raise ValueError(f"{self.name}: branch index count mismatch")
        self.nodes = tuple(node_indices)
        self.branches = tuple(branch_indices)
        self.bound_by = None

    # --- stamping interface -------------------------------------------
    def stamp_dc(self, st: Stamper, x: np.ndarray, t: float = 0.0) -> None:
        """Stamp the DC/large-signal companion at solution guess ``x``."""
        raise NotImplementedError

    def stamp_transient(self, st: Stamper, x: np.ndarray, state: dict,
                        t: float, dt: float, method: str) -> None:
        """Stamp the transient companion.  Defaults to the DC stamp.

        ``state`` is this element's private mutable dict, persisted by
        the integrator across timesteps (see ``update_state``).
        """
        self.stamp_dc(st, x, t)

    def update_state(self, x: np.ndarray, state: dict, t: float, dt: float,
                     method: str) -> None:
        """Commit per-step history after a timestep converges."""

    def init_state(self, x: np.ndarray, state: dict) -> None:
        """Initialise transient history from the DC operating point."""

    def stamp_ac(self, st: Stamper, omega: float, op: np.ndarray) -> None:
        """Stamp complex small-signal model at angular frequency ``omega``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        nodes = ",".join(self.node_names)
        return f"<{type(self).__name__} {self.name} ({nodes})>"


class TwoTerminal(Element):
    """Convenience base for two-terminal elements."""

    def __init__(self, name: str, n_plus: str, n_minus: str):
        super().__init__(name, (n_plus, n_minus))

    def voltage(self, x: np.ndarray) -> float:
        """Terminal voltage v(n+) - v(n-) under solution ``x``."""
        a, b = self.nodes
        va = x[a] if a >= 0 else 0.0
        vb = x[b] if b >= 0 else 0.0
        return float(va - vb)


# ---------------------------------------------------------------------------
# Linear elements
# ---------------------------------------------------------------------------


class Resistor(TwoTerminal):
    """An ideal linear resistor."""

    def __init__(self, name: str, n_plus: str, n_minus: str, resistance: float):
        super().__init__(name, n_plus, n_minus)
        if resistance <= 0.0:
            raise ValueError(f"{name}: resistance must be positive, got {resistance}")
        self.resistance = float(resistance)

    @property
    def conductance(self) -> float:
        """1/R [S]."""
        return 1.0 / self.resistance

    def current(self, x: np.ndarray) -> float:
        """Current from n+ to n- [A]."""
        return self.voltage(x) * self.conductance

    def stamp_dc(self, st: Stamper, x: np.ndarray, t: float = 0.0) -> None:
        a, b = self.nodes
        st.conductance(a, b, self.conductance)

    def stamp_ac(self, st: Stamper, omega: float, op: np.ndarray) -> None:
        a, b = self.nodes
        st.conductance(a, b, self.conductance)


class Capacitor(TwoTerminal):
    """An ideal linear capacitor (open at DC; companion model in transient)."""

    def __init__(self, name: str, n_plus: str, n_minus: str, capacitance: float,
                 v_initial: Optional[float] = None):
        super().__init__(name, n_plus, n_minus)
        if capacitance <= 0.0:
            raise ValueError(f"{name}: capacitance must be positive, got {capacitance}")
        self.capacitance = float(capacitance)
        self.v_initial = v_initial

    def stamp_dc(self, st: Stamper, x: np.ndarray, t: float = 0.0) -> None:
        # Open circuit at DC.  A tiny conductance keeps floating nodes
        # well-posed without noticeably loading any realistic circuit.
        a, b = self.nodes
        st.conductance(a, b, 1e-12)

    def init_state(self, x: np.ndarray, state: dict) -> None:
        v0 = self.v_initial if self.v_initial is not None else self.voltage(x)
        state["v"] = v0
        state["i"] = 0.0

    def stamp_transient(self, st: Stamper, x: np.ndarray, state: dict,
                        t: float, dt: float, method: str) -> None:
        c = self.capacitance
        v_prev = state["v"]
        if method == "trapezoidal":
            geq = 2.0 * c / dt
            ieq = geq * v_prev + state["i"]
        else:  # backward euler
            geq = c / dt
            ieq = geq * v_prev
        self._stamp_companion(st, geq, ieq)

    def _stamp_companion(self, st: Stamper, geq, ieq) -> None:
        a, b = self.nodes
        st.conductance(a, b, geq)
        # Companion current source pushing current INTO n+ (history term).
        st.current(a, ieq)
        st.current(b, -ieq)

    def update_state(self, x: np.ndarray, state: dict, t: float, dt: float,
                     method: str) -> None:
        v_new = self.voltage(x)
        c = self.capacitance
        if method == "trapezoidal":
            i_new = (2.0 * c / dt) * (v_new - state["v"]) - state["i"]
        else:
            i_new = (c / dt) * (v_new - state["v"])
        state["v"] = v_new
        state["i"] = i_new

    def stamp_ac(self, st: Stamper, omega: float, op: np.ndarray) -> None:
        a, b = self.nodes
        st.conductance(a, b, 1j * omega * self.capacitance)


class Inductor(TwoTerminal):
    """An ideal linear inductor (short at DC; needs one branch unknown)."""

    n_branches = 1

    def __init__(self, name: str, n_plus: str, n_minus: str, inductance: float):
        super().__init__(name, n_plus, n_minus)
        if inductance <= 0.0:
            raise ValueError(f"{name}: inductance must be positive, got {inductance}")
        self.inductance = float(inductance)

    def stamp_dc(self, st: Stamper, x: np.ndarray, t: float = 0.0) -> None:
        a, b = self.nodes
        k = self.branches[0]
        # Branch equation: v(a) - v(b) = 0 (ideal short), current = x[k].
        st.branch_voltage(a, b, k, rhs=0.0)

    def init_state(self, x: np.ndarray, state: dict) -> None:
        state["i"] = float(x[self.branches[0]])
        state["v"] = self.voltage(x)

    def stamp_transient(self, st: Stamper, x: np.ndarray, state: dict,
                        t: float, dt: float, method: str) -> None:
        a, b = self.nodes
        k = self.branches[0]
        ell = self.inductance
        if method == "trapezoidal":
            req = 2.0 * ell / dt
            veq = req * state["i"] + state["v"]
        else:
            req = ell / dt
            veq = req * state["i"]
        # Branch equation: v(a) - v(b) - req·i = veq  (companion R + V).
        st.matrix(k, a, 1.0)
        st.matrix(k, b, -1.0)
        st.matrix(k, k, -req)
        st.rhs(k, -veq)
        st.matrix(a, k, 1.0)
        st.matrix(b, k, -1.0)

    def update_state(self, x: np.ndarray, state: dict, t: float, dt: float,
                     method: str) -> None:
        state["i"] = float(x[self.branches[0]])
        state["v"] = self.voltage(x)

    def stamp_ac(self, st: Stamper, omega: float, op: np.ndarray) -> None:
        a, b = self.nodes
        k = self.branches[0]
        st.matrix(k, a, 1.0)
        st.matrix(k, b, -1.0)
        st.matrix(k, k, -1j * omega * self.inductance)
        st.matrix(a, k, 1.0)
        st.matrix(b, k, -1.0)


# ---------------------------------------------------------------------------
# Independent sources
# ---------------------------------------------------------------------------


class VoltageSource(TwoTerminal):
    """Independent voltage source with optional time dependence and AC drive.

    Positive branch current flows from n+ through the source to n-.
    """

    n_branches = 1

    def __init__(self, name: str, n_plus: str, n_minus: str,
                 value: Union[float, SourceSpec] = 0.0, ac_mag: float = 0.0):
        super().__init__(name, n_plus, n_minus)
        self.spec = _as_spec(value)
        self.ac_mag = float(ac_mag)
        #: Multiplier applied to the source value — used by source stepping.
        self.scale = 1.0

    def source_value(self, t: float = 0.0) -> float:
        """Instantaneous source voltage at time ``t`` [V]."""
        return self.scale * self.spec.value(t)

    def branch_current(self, x: np.ndarray) -> float:
        """Current through the source from n+ to n- [A]."""
        return float(x[self.branches[0]])

    def _stamp(self, st: Stamper, value: complex) -> None:
        a, b = self.nodes
        k = self.branches[0]
        st.branch_voltage(a, b, k, rhs=value)

    def stamp_dc(self, st: Stamper, x: np.ndarray, t: float = 0.0) -> None:
        self._stamp(st, self.scale * self.spec.dc_value())

    def stamp_transient(self, st: Stamper, x: np.ndarray, state: dict,
                        t: float, dt: float, method: str) -> None:
        self._stamp(st, self.source_value(t))

    def stamp_ac(self, st: Stamper, omega: float, op: np.ndarray) -> None:
        self._stamp(st, self.ac_mag)


class CurrentSource(TwoTerminal):
    """Independent current source; positive current flows n+ → n- inside
    the source (i.e. it is *pulled out of* node n+ and pushed into n-)."""

    def __init__(self, name: str, n_plus: str, n_minus: str,
                 value: Union[float, SourceSpec] = 0.0, ac_mag: float = 0.0):
        super().__init__(name, n_plus, n_minus)
        self.spec = _as_spec(value)
        self.ac_mag = float(ac_mag)
        self.scale = 1.0

    def source_value(self, t: float = 0.0) -> float:
        """Instantaneous source current at time ``t`` [A]."""
        return self.scale * self.spec.value(t)

    def _stamp(self, st: Stamper, value: complex) -> None:
        a, b = self.nodes
        st.current(a, -value)
        st.current(b, value)

    def stamp_dc(self, st: Stamper, x: np.ndarray, t: float = 0.0) -> None:
        self._stamp(st, self.scale * self.spec.dc_value())

    def stamp_transient(self, st: Stamper, x: np.ndarray, state: dict,
                        t: float, dt: float, method: str) -> None:
        self._stamp(st, self.source_value(t))

    def stamp_ac(self, st: Stamper, omega: float, op: np.ndarray) -> None:
        self._stamp(st, self.ac_mag)


# ---------------------------------------------------------------------------
# Controlled sources
# ---------------------------------------------------------------------------


class Vccs(Element):
    """Voltage-controlled current source: ``i(out+ → out-) = gm·v(c+ - c-)``."""

    def __init__(self, name: str, out_plus: str, out_minus: str,
                 ctrl_plus: str, ctrl_minus: str, gm: float):
        super().__init__(name, (out_plus, out_minus, ctrl_plus, ctrl_minus))
        self.gm = float(gm)

    def stamp_dc(self, st: Stamper, x: np.ndarray, t: float = 0.0) -> None:
        op, om, cp, cm = self.nodes
        st.matrix(op, cp, self.gm)
        st.matrix(op, cm, -self.gm)
        st.matrix(om, cp, -self.gm)
        st.matrix(om, cm, self.gm)

    def stamp_ac(self, st: Stamper, omega: float, op_x: np.ndarray) -> None:
        self.stamp_dc(st, op_x)


class Vcvs(Element):
    """Voltage-controlled voltage source: ``v(out+ - out-) = gain·v(c+ - c-)``."""

    n_branches = 1

    def __init__(self, name: str, out_plus: str, out_minus: str,
                 ctrl_plus: str, ctrl_minus: str, gain: float):
        super().__init__(name, (out_plus, out_minus, ctrl_plus, ctrl_minus))
        self.gain = float(gain)

    def stamp_dc(self, st: Stamper, x: np.ndarray, t: float = 0.0) -> None:
        op, om, cp, cm = self.nodes
        k = self.branches[0]
        st.matrix(op, k, 1.0)
        st.matrix(om, k, -1.0)
        st.matrix(k, op, 1.0)
        st.matrix(k, om, -1.0)
        st.matrix(k, cp, -self.gain)
        st.matrix(k, cm, self.gain)

    def stamp_ac(self, st: Stamper, omega: float, op_x: np.ndarray) -> None:
        self.stamp_dc(st, op_x)


# ---------------------------------------------------------------------------
# Diode
# ---------------------------------------------------------------------------


class Diode(TwoTerminal):
    """Shockley diode with junction-voltage limiting for NR robustness."""

    nonlinear = True

    def __init__(self, name: str, anode: str, cathode: str,
                 i_sat: float = 1e-14, ideality: float = 1.0,
                 temperature: float = units.T_ROOM):
        super().__init__(name, anode, cathode)
        if i_sat <= 0.0:
            raise ValueError(f"{name}: saturation current must be positive")
        if ideality <= 0.0:
            raise ValueError(f"{name}: ideality factor must be positive")
        self.i_sat = float(i_sat)
        self.ideality = float(ideality)
        self.temperature = float(temperature)

    @property
    def _nvt(self) -> float:
        return self.ideality * units.thermal_voltage(self.temperature)

    def current(self, v: float) -> float:
        """Diode current for junction voltage ``v`` (with overflow clamp)."""
        arg = min(v / self._nvt, 80.0)
        return self.i_sat * (math.exp(arg) - 1.0)

    def conductance_at(self, v: float) -> float:
        """Small-signal conductance dI/dV at junction voltage ``v``."""
        arg = min(v / self._nvt, 80.0)
        return self.i_sat * math.exp(arg) / self._nvt + 1e-12

    def stamp_dc(self, st: Stamper, x: np.ndarray, t: float = 0.0) -> None:
        a, b = self.nodes
        v = self.voltage(x)
        # Junction-voltage limiting: evaluate the exponential no further
        # than a few nVt beyond the current guess to avoid overflow blowup.
        v_lim = min(v, 0.9)
        g = self.conductance_at(v_lim)
        i = self.current(v_lim)
        ieq = i - g * v_lim
        st.conductance(a, b, g)
        st.current(a, -ieq)
        st.current(b, ieq)

    def stamp_ac(self, st: Stamper, omega: float, op: np.ndarray) -> None:
        a, b = self.nodes
        va = op[a] if a >= 0 else 0.0
        vb = op[b] if b >= 0 else 0.0
        st.conductance(a, b, self.conductance_at(float(va - vb)))
