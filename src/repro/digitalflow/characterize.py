"""Standard-cell timing characterization (NLDM-style lookup tables).

The paper's digital storyline — "digital circuits mostly suffer from a
variable delay" (§2), "in digital electronics this translates to slower
circuits" (§3.2) — is evaluated industrially through *characterized
cell libraries*: per-cell tables of propagation delay and output
transition time over (input slew × output load), measured by transient
simulation.  This module produces exactly those tables from the
simulator, for fresh, varied, or aged devices — so a whole timing flow
(see :mod:`repro.digitalflow.sta`) inherits every effect this library
models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.elements import PwlSpec
from repro.circuit.netlist import Circuit
from repro.circuit.transient import transient
from repro.circuit.waveform import Waveform
from repro.circuits.references import CircuitFixture
from repro.technology.node import TechnologyNode


@dataclass(frozen=True)
class DelayTable:
    """A 2-D NLDM-style table: rows = input slews, cols = output loads."""

    slews_s: np.ndarray
    """Input transition times (10–90 %) [s]."""

    loads_f: np.ndarray
    """Output load capacitances [F]."""

    delay_s: np.ndarray
    """Propagation delay (50 % → 50 %), shape (n_slews, n_loads) [s]."""

    transition_s: np.ndarray
    """Output transition time (10–90 %), same shape [s]."""

    input_cap_f: float
    """Cell input capacitance [F] — the load it presents upstream."""

    def lookup(self, slew_s: float, load_f: float) -> Tuple[float, float]:
        """Bilinear interpolation → ``(delay, output_transition)``.

        Clamped at the table edges, like every timing engine.
        """
        slew = float(np.clip(slew_s, self.slews_s[0], self.slews_s[-1]))
        load = float(np.clip(load_f, self.loads_f[0], self.loads_f[-1]))
        i = int(np.clip(np.searchsorted(self.slews_s, slew) - 1, 0,
                        len(self.slews_s) - 2))
        j = int(np.clip(np.searchsorted(self.loads_f, load) - 1, 0,
                        len(self.loads_f) - 2))
        si0, si1 = self.slews_s[i], self.slews_s[i + 1]
        lj0, lj1 = self.loads_f[j], self.loads_f[j + 1]
        fu = (slew - si0) / (si1 - si0)
        fv = (load - lj0) / (lj1 - lj0)

        def bilerp(table: np.ndarray) -> float:
            return float(
                table[i, j] * (1 - fu) * (1 - fv)
                + table[i + 1, j] * fu * (1 - fv)
                + table[i, j + 1] * (1 - fu) * fv
                + table[i + 1, j + 1] * fu * fv)

        return bilerp(self.delay_s), bilerp(self.transition_s)

    def scaled(self, factor: float) -> "DelayTable":
        """A copy with all delays/transitions scaled (derating)."""
        if factor <= 0.0:
            raise ValueError("derating factor must be positive")
        return DelayTable(slews_s=self.slews_s, loads_f=self.loads_f,
                          delay_s=self.delay_s * factor,
                          transition_s=self.transition_s * factor,
                          input_cap_f=self.input_cap_f)


def measure_edge(wave: Waveform, vdd: float, rising: bool,
                 t_after: float = 0.0) -> Tuple[float, float]:
    """``(t_50, transition_10_90)`` of the first qualifying edge.

    ``rising`` selects the edge direction; only crossings after
    ``t_after`` count.
    """
    lo, mid, hi = 0.1 * vdd, 0.5 * vdd, 0.9 * vdd

    def crossing(level: float, upward: bool, t_from: float) -> float:
        v = wave.values
        t = wave.times
        if upward:
            hits = np.where((v[:-1] < level) & (v[1:] >= level))[0]
        else:
            hits = np.where((v[:-1] > level) & (v[1:] <= level))[0]
        for k in hits:
            if t[k] < t_from:
                continue
            frac = (level - v[k]) / (v[k + 1] - v[k])
            return float(t[k] + frac * (t[k + 1] - t[k]))
        raise ValueError(f"no {'rising' if upward else 'falling'} crossing "
                         f"of {level:.3f} V after {t_from:.3e} s")

    t_mid = crossing(mid, rising, t_after)
    if rising:
        t_lo = crossing(lo, True, t_after)
        t_hi = crossing(hi, True, t_lo)
        return t_mid, t_hi - t_lo
    t_hi = crossing(hi, False, t_after)
    t_lo = crossing(lo, False, t_hi)
    return t_mid, t_lo - t_hi


def _ramp_spec(vdd: float, slew_s: float, rising: bool,
               t_start: float) -> PwlSpec:
    """A 10–90 % controlled input ramp as a PWL source."""
    full_ramp = slew_s / 0.8  # 10-90 % covers 80 % of the swing
    v0, v1 = (0.0, vdd) if rising else (vdd, 0.0)
    return PwlSpec(points=((0.0, v0), (t_start, v0),
                           (t_start + full_ramp, v1),
                           (t_start + full_ramp + 1e-12, v1)))


def characterize_cell(fixture: CircuitFixture, tech: TechnologyNode,
                      slews_s: Sequence[float],
                      loads_f: Sequence[float],
                      input_name: str = "vin",
                      input_node: str = "in",
                      output_node: str = "out",
                      load_name: str = "cload",
                      rising_input: bool = True,
                      sim_window_s: Optional[float] = None) -> DelayTable:
    """Characterize an inverting cell fixture over a slew × load grid.

    The fixture must expose a driving voltage source ``input_name``, the
    output node, and a load capacitor ``load_name`` whose value is swept.
    ``rising_input=True`` measures the output FALLING arc (and vice
    versa).  The cell's devices keep whatever variation/degradation is
    installed — characterizing an aged cell is just characterizing it.
    """
    slews = np.asarray(list(slews_s), dtype=float)
    loads = np.asarray(list(loads_f), dtype=float)
    if slews.size < 2 or loads.size < 2:
        raise ValueError("need at least a 2x2 characterization grid")
    circuit = fixture.circuit
    vdd = circuit["vdd"].spec.dc_value()
    source = circuit[input_name]
    load_cap = circuit[load_name]
    original_spec = source.spec
    original_cap = load_cap.capacitance

    delay = np.empty((slews.size, loads.size))
    transition = np.empty_like(delay)
    t_start = 0.1e-9
    try:
        for i, slew in enumerate(slews):
            for j, load in enumerate(loads):
                load_cap.capacitance = float(load)
                source.spec = _ramp_spec(vdd, float(slew), rising_input,
                                         t_start)
                window = sim_window_s if sim_window_s else max(
                    4e-9, 20.0 * slew + t_start)
                dt = min(slew / 20.0, window / 400.0)
                # End on the grid point nearest the window: transient()
                # takes only whole numbers of steps.
                n_steps = max(1, round(window / dt))
                result = transient(circuit, t_stop=n_steps * dt, dt=dt)
                t_in, _ = measure_edge(result.voltage(input_node), vdd,
                                       rising=rising_input,
                                       t_after=0.5 * t_start)
                t_out, trans = measure_edge(result.voltage(output_node),
                                            vdd, rising=not rising_input,
                                            t_after=0.5 * t_start)
                delay[i, j] = t_out - t_in
                transition[i, j] = trans
    finally:
        source.spec = original_spec
        load_cap.capacitance = original_cap

    input_cap = sum(m.params.cox_total_f for m in circuit.mosfets
                    if input_node in m.node_names)
    return DelayTable(slews_s=slews, loads_f=loads, delay_s=delay,
                      transition_s=transition, input_cap_f=input_cap)
