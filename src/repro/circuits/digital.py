"""Digital cells: inverter, inverter chain / ring oscillator, 6T SRAM.

These are the digital victims of the paper's effects: variability makes
delay variable (§2), NBTI/HCI slow the circuits down over time (§3),
oxide breakdown may or may not kill a gate (§3.1, ref [20]), and EMI
introduces jitter and eats noise margins (§4).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
import weakref
from typing import List, Optional, Sequence

import numpy as np

from repro.circuit.dc import (
    SweepPlan,
    dc_operating_point,
    dc_sweep,
    sweep_voltages,
)
from repro.circuit.elements import DcSpec
from repro.circuit.mosfet import Mosfet
from repro.circuit.netlist import Circuit
from repro.circuit.waveform import Waveform
from repro.circuits.references import CircuitFixture
from repro.technology.node import TechnologyNode

#: Default PMOS/NMOS width ratio compensating the mobility gap.
PN_RATIO = 2.5


def _add_inverter(ckt: Circuit, tag: str, vin: str, vout: str,
                  tech: TechnologyNode, wn_m: float, wp_m: float,
                  l_m: float) -> None:
    ckt.mosfet(Mosfet.from_technology(
        f"mn_{tag}", vout, vin, "0", "0", tech, "n", w_m=wn_m, l_m=l_m))
    ckt.mosfet(Mosfet.from_technology(
        f"mp_{tag}", vout, vin, "vdd", "vdd", tech, "p", w_m=wp_m, l_m=l_m))


def inverter(tech: TechnologyNode, wn_m: Optional[float] = None,
             wp_m: Optional[float] = None, l_m: Optional[float] = None,
             load_c_f: float = 5e-15) -> CircuitFixture:
    """A single CMOS inverter with an input source and output load cap."""
    wn = wn_m if wn_m is not None else 4.0 * tech.wmin_m
    wp = wp_m if wp_m is not None else PN_RATIO * wn
    length = l_m if l_m is not None else tech.lmin_m
    if load_c_f <= 0.0:
        raise ValueError("load capacitance must be positive")
    ckt = Circuit("inverter")
    ckt.voltage_source("vdd", "vdd", "0", tech.vdd)
    ckt.voltage_source("vin", "in", "0", 0.0)
    _add_inverter(ckt, "inv", "in", "out", tech, wn, wp, length)
    ckt.capacitor("cload", "out", "0", load_c_f)
    return CircuitFixture(
        circuit=ckt,
        nodes={"in": "in", "out": "out"},
        devices={"nmos": "mn_inv", "pmos": "mp_inv"},
        meta={"wn_m": wn, "wp_m": wp, "l_m": length, "load_c_f": load_c_f},
    )


def ring_oscillator(tech: TechnologyNode, n_stages: int = 5,
                    wn_m: Optional[float] = None,
                    wp_m: Optional[float] = None,
                    l_m: Optional[float] = None,
                    stage_c_f: float = 5e-15) -> CircuitFixture:
    """An ``n_stages``-inverter ring oscillator (n must be odd ≥ 3).

    Stage capacitors set the period; the first stage capacitor starts at
    0 V, kicking the loop off its metastable DC point — so a plain
    :func:`repro.circuit.transient` call oscillates without extra
    stimulus.  Node names are ``s0 … s{n-1}``.
    """
    if n_stages < 3 or n_stages % 2 == 0:
        raise ValueError(f"n_stages must be odd and >= 3, got {n_stages}")
    wn = wn_m if wn_m is not None else 4.0 * tech.wmin_m
    wp = wp_m if wp_m is not None else PN_RATIO * wn
    length = l_m if l_m is not None else tech.lmin_m
    if stage_c_f <= 0.0:
        raise ValueError("stage capacitance must be positive")
    ckt = Circuit(f"{n_stages}-stage ring oscillator")
    ckt.voltage_source("vdd", "vdd", "0", tech.vdd)
    for stage in range(n_stages):
        vin = f"s{stage}"
        vout = f"s{(stage + 1) % n_stages}"
        _add_inverter(ckt, f"{stage}", vin, vout, tech, wn, wp, length)
        v_init = 0.0 if stage == 0 else None
        ckt.capacitor(f"c{stage}", vin, "0", stage_c_f, v_initial=v_init)
    return CircuitFixture(
        circuit=ckt,
        nodes={f"stage{k}": f"s{k}" for k in range(n_stages)},
        devices={f"nmos{k}": f"mn_{k}" for k in range(n_stages)},
        meta={"n_stages": n_stages, "stage_c_f": stage_c_f,
              "wn_m": wn, "wp_m": wp, "l_m": length},
    )


def sram_cell(tech: TechnologyNode, cell_ratio: float = 2.0,
              pu_ratio: float = 1.0,
              l_m: Optional[float] = None) -> CircuitFixture:
    """A 6T SRAM cell with separately drivable bitlines and wordline.

    ``cell_ratio`` is the pull-down/access width ratio (read stability);
    ``pu_ratio`` the pull-up/access ratio.  Internal nodes ``q``/``qb``,
    bitlines ``bl``/``blb``, wordline ``wl`` — all driven by ideal
    sources so static analyses (butterfly curves, E4's BD injection) are
    straightforward.
    """
    if cell_ratio <= 0.0 or pu_ratio <= 0.0:
        raise ValueError("ratios must be positive")
    length = l_m if l_m is not None else tech.lmin_m
    w_access = 2.0 * tech.wmin_m
    w_pd = cell_ratio * w_access
    w_pu = pu_ratio * w_access
    ckt = Circuit("6T SRAM cell")
    ckt.voltage_source("vdd", "vdd", "0", tech.vdd)
    ckt.voltage_source("vwl", "wl", "0", 0.0)
    ckt.voltage_source("vbl", "bl", "0", tech.vdd)
    ckt.voltage_source("vblb", "blb", "0", tech.vdd)
    # Cross-coupled inverters.
    ckt.mosfet(Mosfet.from_technology(
        "mn_l", "q", "qb", "0", "0", tech, "n", w_m=w_pd, l_m=length))
    ckt.mosfet(Mosfet.from_technology(
        "mp_l", "q", "qb", "vdd", "vdd", tech, "p", w_m=w_pu, l_m=length))
    ckt.mosfet(Mosfet.from_technology(
        "mn_r", "qb", "q", "0", "0", tech, "n", w_m=w_pd, l_m=length))
    ckt.mosfet(Mosfet.from_technology(
        "mp_r", "qb", "q", "vdd", "vdd", tech, "p", w_m=w_pu, l_m=length))
    # Access transistors.
    ckt.mosfet(Mosfet.from_technology(
        "mn_axl", "bl", "wl", "q", "0", tech, "n", w_m=w_access, l_m=length))
    ckt.mosfet(Mosfet.from_technology(
        "mn_axr", "blb", "wl", "qb", "0", tech, "n", w_m=w_access, l_m=length))
    return CircuitFixture(
        circuit=ckt,
        nodes={"q": "q", "qb": "qb", "bl": "bl", "blb": "blb", "wl": "wl"},
        devices={"pd_left": "mn_l", "pu_left": "mp_l",
                 "pd_right": "mn_r", "pu_right": "mp_r",
                 "ax_left": "mn_axl", "ax_right": "mn_axr"},
        meta={"cell_ratio": cell_ratio, "pu_ratio": pu_ratio},
    )


# ---------------------------------------------------------------------------
# Digital metrics
# ---------------------------------------------------------------------------


def vtc(fixture: CircuitFixture, n_points: int = 101) -> tuple:
    """Static voltage-transfer curve of an inverter fixture.

    Returns ``(vin_array, vout_array)``.
    """
    ckt = fixture.circuit
    tech_vdd = ckt["vdd"].spec.dc_value()
    vins = np.linspace(0.0, tech_vdd, n_points)
    sols = dc_sweep(ckt, "vin", vins)
    vouts, = sweep_voltages(sols, (fixture.nodes["out"],))
    return vins, vouts


def switching_threshold(vin: np.ndarray, vout: np.ndarray) -> float:
    """V_M where the VTC crosses ``vout = vin``."""
    diff = vout - vin
    sign_change = np.where(np.diff(np.sign(diff)) != 0)[0]
    if sign_change.size == 0:
        raise ValueError("VTC has no vout = vin crossing")
    k = int(sign_change[0])
    # Linear interpolation inside the crossing interval.
    f = diff[k] / (diff[k] - diff[k + 1])
    return float(vin[k] + f * (vin[k + 1] - vin[k]))


def noise_margins(vin: np.ndarray, vout: np.ndarray) -> tuple:
    """``(NM_L, NM_H)`` from the unity-gain points of the VTC.

    NM_L = V_IL − V_OL and NM_H = V_OH − V_IH, with V_IL/V_IH the inputs
    where the VTC slope first/last crosses −1.
    """
    gain = np.gradient(vout, vin)
    below = np.where(gain <= -1.0)[0]
    if below.size == 0:
        raise ValueError("VTC never reaches |gain| = 1 — not an inverter?")
    v_il = float(vin[below[0]])
    v_ih = float(vin[below[-1]])
    v_oh = float(vout[below[0]])
    v_ol = float(vout[below[-1]])
    return v_il - v_ol, v_oh - v_ih


def oscillation_frequency(waveform: Waveform, threshold: float) -> float:
    """Oscillation frequency from rising-edge crossings of ``threshold``.

    Uses the median period of all full cycles after discarding the first
    crossing (start-up).  Raises if fewer than three rising edges exist.
    """
    return float(1.0 / np.median(cycle_periods(waveform, threshold)))


def cycle_periods(waveform: Waveform, threshold: float) -> np.ndarray:
    """Interpolated rising-edge periods of an oscillating waveform [s]."""
    values = waveform.values
    times = waveform.times
    above = values >= threshold
    rising = np.where(~above[:-1] & above[1:])[0]
    if rising.size < 3:
        raise ValueError(
            f"only {rising.size} rising edges found — simulate longer")
    crossings = []
    for k in rising:
        f = (threshold - values[k]) / (values[k + 1] - values[k])
        crossings.append(times[k] + f * (times[k + 1] - times[k]))
    return np.diff(np.asarray(crossings)[1:])


def cycle_jitter(waveform: Waveform, threshold: float) -> float:
    """RMS cycle-to-cycle jitter of an oscillation [s].

    The §4 digital-EMC observable: "in digital circuits, interference
    can introduce jitter".  Computed as the standard deviation of
    consecutive rising-edge periods (start-up cycle discarded).
    """
    periods = cycle_periods(waveform, threshold)
    if periods.size < 2:
        raise ValueError("need at least two full periods for jitter")
    return float(np.std(periods, ddof=1))


def propagation_delay(vin: Waveform, vout: Waveform, vdd: float) -> float:
    """50 %-to-50 % propagation delay of an inverting stage [s]."""
    half = 0.5 * vdd
    vi, vo, t = vin.values, vout.values, vin.times
    in_rise = np.where((vi[:-1] < half) & (vi[1:] >= half))[0]
    out_fall = np.where((vo[:-1] > half) & (vo[1:] <= half))[0]
    if in_rise.size == 0 or out_fall.size == 0:
        raise ValueError("no 50% crossings found in the waveforms")
    t_in = t[in_rise[0]]
    later = out_fall[out_fall >= in_rise[0]]
    if later.size == 0:
        raise ValueError("output never responds after the input edge")
    t_out = t[later[0]]
    return float(t_out - t_in)


#: Probe circuits per SRAM base circuit: ``(topology_version, {kind:
#: probe})``.  A probe is the base's elements with its own source (and
#: resistor) appended after them, so the shared elements keep their
#: node indices and ``Circuit.compile`` rebinds them to whichever
#: circuit is solved.  Built once per base topology, a probe keeps its
#: DC engine (``dc._ENGINES``) across calls; the engine's MOSFET group
#: re-reads variation, degradation and params on every solve.
_PROBES: "weakref.WeakKeyDictionary[Circuit, tuple]" = \
    weakref.WeakKeyDictionary()
_PROBES_LOCK = threading.Lock()

#: kind → (title, forcing node or None for a source straight on ``q``).
_PROBE_KINDS = {"butterfly": ("sram butterfly probe", None),
                "write": ("write probe", "qf"),
                "bistable": ("sram bistability probe", "qforce")}


def _sram_probe(base: Circuit, kind: str, value: float = 0.0) -> Circuit:
    """The cached ``kind`` probe of ``base``, its source set to ``value``.

    ``butterfly`` drives ``q`` with ``vprobe``; ``write`` and
    ``bistable`` force ``q`` through ``rforce`` (1 Ω) from ``vforce``.
    """
    with _PROBES_LOCK:
        entry = _PROBES.get(base)
        if entry is None or entry[0] != base.topology_version:
            entry = (base.topology_version, {})
            _PROBES[base] = entry
        probe = entry[1].get(kind)
        if probe is None:
            title, node = _PROBE_KINDS[kind]
            probe = Circuit(title)
            for element in base.elements:
                probe.add(element)
            if node is None:
                probe.voltage_source("vprobe", "q", "0", value)
            else:
                probe.voltage_source("vforce", node, "0", value)
                probe.resistor("rforce", node, "q", 1.0)
            entry[1][kind] = probe
    probe["vprobe" if kind == "butterfly" else "vforce"].spec = DcSpec(value)
    return probe


def sram_hold_butterfly(fixture: CircuitFixture,
                        n_points: int = 81) -> tuple:
    """Hold-state butterfly data of the SRAM cell.

    Sweeps an ideal probe source on ``q`` and records the inverter
    response at ``qb``; the other half of the butterfly is the same
    curve with axes swapped (by symmetry).  Returns
    ``(v_probe, vqb_response)``.
    """
    return _butterfly(dataclasses.replace(read_snm_plan(fixture, n_points),
                                          held=()))


def static_noise_margin(v_probe: np.ndarray, v_resp: np.ndarray) -> float:
    """Hold SNM: largest square between the two butterfly lobes [V].

    Uses the classic 45°-rotation construction on the curve and its
    mirror image.
    """
    # Curve 1: (x, f(x)); curve 2 is its transpose (f(x), x).
    # Along the diagonal direction u = (x - y)/√2, the SNM is the largest
    # vertical gap between the curves in rotated coordinates, scaled back.
    u1 = (v_probe - v_resp) / math.sqrt(2.0)
    v1 = (v_probe + v_resp) / math.sqrt(2.0)
    u2 = (v_resp - v_probe) / math.sqrt(2.0)
    v2 = (v_resp + v_probe) / math.sqrt(2.0)
    order1 = np.argsort(u1)
    order2 = np.argsort(u2)
    grid = np.linspace(max(u1.min(), u2.min()), min(u1.max(), u2.max()), 400)
    c1 = np.interp(grid, u1[order1], v1[order1])
    c2 = np.interp(grid, u2[order2], v2[order2])
    gap = np.abs(c1 - c2)
    # The two lobes correspond to gaps on either side of the crossing.
    return float(gap.max() / math.sqrt(2.0))


def sram_read_butterfly(fixture: CircuitFixture,
                        n_points: int = 81) -> tuple:
    """Read-condition butterfly data: wordline HIGH, bitlines precharged.

    The access transistors fight the cross-coupled pair, so the read SNM
    is always smaller than the hold SNM — the classic read-stability
    hazard that mismatch (§2) and NBTI (§3.3) erode further.
    """
    return _butterfly(read_snm_plan(fixture, n_points))


def read_snm_plan(fixture: CircuitFixture, n_points: int) -> SweepPlan:
    """The read butterfly as a :class:`~repro.circuit.dc.SweepPlan`:
    the butterfly probe's ``vprobe`` over ``n_points`` values from 0 to
    VDD, ``qb`` read, the wordline held at VDD, reduced to
    :func:`static_noise_margin`.  :func:`sram_read_butterfly` runs it
    per die; :func:`~repro.circuit.dc.operating_point_dies` runs it
    for a chunk of dies (each sweep cold, as the never warm-started
    probe's own are).  Without ``held`` it is the hold butterfly."""
    base = fixture.circuit
    vdd = base["vdd"].spec.dc_value()
    vins = np.linspace(0.0, vdd, n_points)
    return SweepPlan("vprobe", vins, ("qb",),
                     functools.partial(_butterfly_snm, vins),
                     circuit=_sram_probe(base, "butterfly"),
                     held=(("vwl", vdd),))


def _butterfly(plan: SweepPlan) -> tuple:
    """``(v_probe, vqb_response)`` of one butterfly ``plan``'s sweep,
    its ``held`` sources set around it."""
    probe = plan.circuit
    found = [(probe[name], probe[name].spec) for name, _level in plan.held]
    try:
        for name, level in plan.held:
            probe[name].spec = DcSpec(level)
        sols = dc_sweep(probe, plan.source, plan.values)
    finally:
        for element, spec in found:
            element.spec = spec
    vqb, = sweep_voltages(sols, plan.nodes)
    return plan.values, vqb


def _butterfly_snm(v_probe: np.ndarray, voltages: np.ndarray) -> float:
    """:func:`static_noise_margin` of a butterfly sweep over ``v_probe``
    whose one row of ``voltages`` is the ``qb`` response."""
    return static_noise_margin(v_probe, voltages[0])


def sram_write_trip_voltage(fixture: CircuitFixture,
                            n_points: int = 81) -> float:
    """Bitline voltage at which a write flips the cell [V].

    With the wordline high and the cell holding q = 1, sweep BL downward
    and find where q collapses.  A HIGHER trip voltage means an easier
    write (more write margin); ratio skews and degradation move it.
    """
    base = fixture.circuit
    vdd = base["vdd"].spec.dc_value()
    originals = {name: base[name].spec for name in ("vwl", "vbl", "vblb")}
    try:
        # Hold q = 1 first (wordline low, force then release).
        base["vwl"].spec = DcSpec(0.0)
        forced = dc_operating_point(_sram_probe(base, "write", vdd))
        base.compile()
        x0 = np.zeros(base.n_unknowns)
        for node_name in base.node_names:
            x0[base.node(node_name)] = forced.voltage(node_name)
        # Open the wordline and sweep BL down from VDD.
        base["vwl"].spec = DcSpec(vdd)
        base["vblb"].spec = DcSpec(vdd)
        bl_values = np.linspace(vdd, 0.0, n_points)
        solution = dc_operating_point(base, x0=x0)
        trip = 0.0
        for bl in bl_values:
            base["vbl"].spec = DcSpec(float(bl))
            solution = dc_operating_point(base, x0=solution.x)
            if solution.voltage("q") < vdd / 2.0:
                trip = float(bl)
                break
        return trip
    finally:
        for name, spec in originals.items():
            base[name].spec = spec


def is_bistable(fixture: CircuitFixture, tolerance_v: float = 0.05) -> bool:
    """Whether the SRAM cell still holds both logic states.

    The E4 criterion for "one BD does not necessarily imply circuit
    failure": write each state by forcing ``q``, release, and check the
    cell stays there.
    """
    base = fixture.circuit
    vdd = base["vdd"].spec.dc_value()
    for target in (0.0, vdd):
        # Force q to the target through a strong probe, solve...
        forced = dc_operating_point(_sram_probe(base, "bistable", target))
        # ...then release: re-solve the bare cell seeded from the forced
        # node voltages (copied by name — the probe has extra unknowns).
        base.compile()
        x0 = np.zeros(base.n_unknowns)
        for node_name in base.node_names:
            x0[base.node(node_name)] = forced.voltage(node_name)
        released = dc_operating_point(base, x0=x0)
        if abs(released.voltage("q") - target) > vdd / 2.0 - tolerance_v:
            return False
    return True
