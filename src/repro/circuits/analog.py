"""Analog blocks: differential pair, five-transistor OTA, comparator use.

These are the variability/aging victims on the analog side: "device
mismatch between identically designed devices limits the accuracy of the
circuit" (paper §2), and degradation moves gain and offset over the
lifetime (§3).  The offset-measurement helpers below are what the
Monte-Carlo yield engine (E2/E9-adjacent experiments) and the knobs &
monitors demo consume.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.circuit.ac import ac_analysis
from repro.circuit.dc import dc_operating_point, dc_sweep, sweep_voltages
from repro.circuit.mosfet import Mosfet
from repro.circuit.netlist import Circuit
from repro.circuits.references import CircuitFixture
from repro.technology.node import TechnologyNode


def differential_pair(tech: TechnologyNode, i_tail_a: float = 50e-6,
                      w_m: float = 10e-6, l_m: Optional[float] = None,
                      r_load_ohm: float = 20e3) -> CircuitFixture:
    """A resistively loaded NMOS differential pair with ideal tail source.

    Inputs ``inp``/``inn`` around a common-mode bias; outputs ``outp``/
    ``outn``.  The canonical mismatch victim: input-pair ΔV_T appears
    directly as input-referred offset.
    """
    if i_tail_a <= 0.0 or r_load_ohm <= 0.0:
        raise ValueError("tail current and load must be positive")
    length = l_m if l_m is not None else 4.0 * tech.lmin_m
    vcm = 0.55 * tech.vdd
    ckt = Circuit("differential pair")
    ckt.voltage_source("vdd", "vdd", "0", tech.vdd)
    ckt.voltage_source("vinp", "inp", "0", vcm)
    ckt.voltage_source("vinn", "inn", "0", vcm)
    ckt.resistor("rlp", "vdd", "outn", r_load_ohm)
    ckt.resistor("rln", "vdd", "outp", r_load_ohm)
    ckt.mosfet(Mosfet.from_technology(
        "m1", "outn", "inp", "tail", "0", tech, "n", w_m=w_m, l_m=length))
    ckt.mosfet(Mosfet.from_technology(
        "m2", "outp", "inn", "tail", "0", tech, "n", w_m=w_m, l_m=length))
    ckt.current_source("itail", "tail", "0", i_tail_a)
    return CircuitFixture(
        circuit=ckt,
        nodes={"inp": "inp", "inn": "inn", "outp": "outp", "outn": "outn",
               "tail": "tail"},
        devices={"pair_a": "m1", "pair_b": "m2"},
        meta={"i_tail_a": i_tail_a, "r_load_ohm": r_load_ohm, "vcm_v": vcm},
    )


def five_transistor_ota(tech: TechnologyNode, i_tail_a: float = 50e-6,
                        w_in_m: float = 20e-6, w_load_m: float = 10e-6,
                        l_m: Optional[float] = None) -> CircuitFixture:
    """The classic 5-transistor OTA: NMOS pair, PMOS mirror load,
    single-ended output, ideal tail current sink.

    Output node ``out``; used for gain (AC) and offset studies, and as
    the aging demo where NBTI in the PMOS mirror devices unbalances the
    output over the mission life.
    """
    if i_tail_a <= 0.0:
        raise ValueError("tail current must be positive")
    length = l_m if l_m is not None else 4.0 * tech.lmin_m
    vcm = 0.55 * tech.vdd
    ckt = Circuit("5T OTA")
    ckt.voltage_source("vdd", "vdd", "0", tech.vdd)
    ckt.voltage_source("vinp", "inp", "0", vcm, ac_mag=0.5)
    ckt.voltage_source("vinn", "inn", "0", vcm, ac_mag=-0.5)
    ckt.mosfet(Mosfet.from_technology(
        "m1", "d1", "inp", "tail", "0", tech, "n", w_m=w_in_m, l_m=length))
    ckt.mosfet(Mosfet.from_technology(
        "m2", "out", "inn", "tail", "0", tech, "n", w_m=w_in_m, l_m=length))
    ckt.mosfet(Mosfet.from_technology(
        "m3", "d1", "d1", "vdd", "vdd", tech, "p", w_m=w_load_m, l_m=length))
    ckt.mosfet(Mosfet.from_technology(
        "m4", "out", "d1", "vdd", "vdd", tech, "p", w_m=w_load_m, l_m=length))
    ckt.current_source("itail", "tail", "0", i_tail_a)
    ckt.capacitor("cload", "out", "0", 100e-15)
    return CircuitFixture(
        circuit=ckt,
        nodes={"inp": "inp", "inn": "inn", "out": "out", "tail": "tail",
               "mirror": "d1"},
        devices={"pair_a": "m1", "pair_b": "m2",
                 "load_diode": "m3", "load_mirror": "m4"},
        meta={"i_tail_a": i_tail_a, "vcm_v": vcm},
    )


def comparator(tech: TechnologyNode, i_tail_a: float = 20e-6,
               w_in_m: float = 10e-6,
               l_m: Optional[float] = None) -> CircuitFixture:
    """A continuous-time comparator: 5T input stage + two inverters.

    Output ``dout`` snaps to a rail according to sign(inp − inn + offset);
    the decision threshold (input-referred offset) is the classic §2
    yield metric — it is read out with :func:`comparator_threshold_v`.
    """
    if i_tail_a <= 0.0:
        raise ValueError("tail current must be positive")
    length = l_m if l_m is not None else 2.0 * tech.lmin_m
    vcm = 0.55 * tech.vdd
    ckt = Circuit("comparator")
    ckt.voltage_source("vdd", "vdd", "0", tech.vdd)
    ckt.voltage_source("vinp", "inp", "0", vcm)
    ckt.voltage_source("vinn", "inn", "0", vcm)
    ckt.mosfet(Mosfet.from_technology(
        "m1", "d1", "inp", "tail", "0", tech, "n", w_m=w_in_m, l_m=length))
    ckt.mosfet(Mosfet.from_technology(
        "m2", "pre", "inn", "tail", "0", tech, "n", w_m=w_in_m, l_m=length))
    ckt.mosfet(Mosfet.from_technology(
        "m3", "d1", "d1", "vdd", "vdd", tech, "p", w_m=w_in_m / 2,
        l_m=length))
    ckt.mosfet(Mosfet.from_technology(
        "m4", "pre", "d1", "vdd", "vdd", tech, "p", w_m=w_in_m / 2,
        l_m=length))
    ckt.current_source("itail", "tail", "0", i_tail_a)
    # Two restoring inverters.
    wn = 4.0 * tech.wmin_m
    for tag, vin, vout in (("i1", "pre", "mid"), ("i2", "mid", "dout")):
        ckt.mosfet(Mosfet.from_technology(
            f"mn_{tag}", vout, vin, "0", "0", tech, "n",
            w_m=wn, l_m=tech.lmin_m))
        ckt.mosfet(Mosfet.from_technology(
            f"mp_{tag}", vout, vin, "vdd", "vdd", tech, "p",
            w_m=2.5 * wn, l_m=tech.lmin_m))
    return CircuitFixture(
        circuit=ckt,
        nodes={"inp": "inp", "inn": "inn", "pre": "pre", "dout": "dout"},
        devices={"pair_a": "m1", "pair_b": "m2",
                 "load_diode": "m3", "load_mirror": "m4"},
        meta={"i_tail_a": i_tail_a, "vcm_v": vcm},
    )


def comparator_threshold_v(fixture: CircuitFixture,
                           search_range_v: float = 0.1,
                           n_points: int = 81) -> float:
    """Differential input at which the comparator output flips [V].

    A zero-offset comparator flips at 0; the sampled flip point IS the
    input-referred offset.
    """
    ckt = fixture.circuit
    vcm = fixture.meta["vcm_v"]
    vdd = ckt["vdd"].spec.dc_value()
    vins = np.linspace(vcm - search_range_v, vcm + search_range_v, n_points)
    sols = dc_sweep(ckt, "vinp", vins)
    douts, = sweep_voltages(sols, (fixture.nodes["dout"],))
    above = douts > vdd / 2.0
    flips = np.where(above[:-1] != above[1:])[0]
    if flips.size == 0:
        raise ValueError("comparator never flips in the search range")
    k = int(flips[0])
    return float(0.5 * (vins[k] + vins[k + 1]) - vcm)


# ---------------------------------------------------------------------------
# Analog metrics
# ---------------------------------------------------------------------------


def input_referred_offset_v(fixture: CircuitFixture,
                            search_range_v: float = 0.2,
                            n_points: int = 81) -> float:
    """Input-referred offset of a differential fixture [V].

    Sweeps the positive input around the common mode and interpolates
    the differential input that balances the outputs (diff pair) or
    returns the output to its nominal balance voltage (OTA).
    """
    vins = offset_grid(fixture, search_range_v, n_points)
    sols = dc_sweep(fixture.circuit, OFFSET_SOURCE, vins)
    return balance_offset_v(vins, fixture.meta["vcm_v"], sweep_voltages(
        sols, offset_balance_nodes(fixture)))


#: The voltage source an offset measurement sweeps: the positive input.
OFFSET_SOURCE = "vinp"


def offset_grid(fixture: CircuitFixture, search_range_v: float,
                n_points: int) -> np.ndarray:
    """The ``n_points`` input voltages [V] an offset measurement sweeps,
    within ``search_range_v`` of the fixture's common mode."""
    vcm = fixture.meta["vcm_v"]
    return np.linspace(vcm - search_range_v, vcm + search_range_v, n_points)


def offset_balance_nodes(fixture: CircuitFixture) -> Tuple[str, str]:
    """The two circuit nodes whose voltages balance at the offset: the
    outputs of a diff pair, the output and mirror node of an OTA."""
    if "outn" in fixture.nodes:
        return fixture.nodes["outp"], fixture.nodes["outn"]
    # Balance target: mirror node voltage equals output voltage.
    return fixture.nodes["out"], fixture.nodes["mirror"]


def balance_offset_v(vins: np.ndarray, vcm: float,
                     voltages: np.ndarray) -> float:
    """The offset [V] from ``vcm`` of the input at which the two rows of
    ``voltages`` (a sweep over ``vins``) cross, linearly interpolated
    between the first pair of points where their difference changes
    sign.  Raises ValueError when it never does."""
    v_hi, v_lo = voltages
    errors = v_hi - v_lo
    signs = np.sign(errors)
    sign_change = np.flatnonzero(signs[1:] != signs[:-1])
    if sign_change.size == 0:
        raise ValueError("no balance point within the search range; "
                         "increase search_range_v")
    k = int(sign_change[0])
    f = errors[k] / (errors[k] - errors[k + 1])
    v_balance = vins[k] + f * (vins[k + 1] - vins[k])
    return float(v_balance - vcm)


def dc_gain(fixture: CircuitFixture, frequency_hz: float = 1e3) -> float:
    """Low-frequency differential gain magnitude of the OTA fixture."""
    result = ac_analysis(fixture.circuit, [frequency_hz])
    out = fixture.nodes["out"]
    return float(np.abs(result.voltage(out))[0])


def unity_gain_bandwidth_hz(fixture: CircuitFixture,
                            f_start: float = 1e3,
                            f_stop: float = 10e9) -> float:
        """Frequency where the OTA gain magnitude crosses 1."""
        from repro.circuit.ac import logspace_frequencies

        freqs = logspace_frequencies(f_start, f_stop, points_per_decade=20)
        result = ac_analysis(fixture.circuit, freqs)
        mag = np.abs(result.voltage(fixture.nodes["out"]))
        below = np.where(mag < 1.0)[0]
        if below.size == 0 or below[0] == 0:
            raise ValueError("gain does not cross unity in the given range")
        k = int(below[0])
        # Log-log interpolation of the crossing.
        f1, f2 = freqs[k - 1], freqs[k]
        g1, g2 = mag[k - 1], mag[k]
        frac = np.log(g1) / (np.log(g1) - np.log(g2))
        return float(f1 * (f2 / f1) ** frac)
