"""SPICE-flavoured netlist parsing and writing.

A pragmatic subset of the SPICE netlist language, enough to describe
every circuit in this library as text and to round-trip circuits for
storage/exchange:

* ``R<name> n+ n- value`` — resistor
* ``C<name> n+ n- value [ic=<v0>]`` — capacitor
* ``L<name> n+ n- value`` — inductor
* ``V<name> n+ n- <spec> [ac=<mag>]`` — voltage source
* ``I<name> n+ n- <spec> [ac=<mag>]`` — current source
* ``D<name> anode cathode [is=<isat>] [n=<ideality>]`` — diode
* ``G<name> out+ out- ctrl+ ctrl- gm`` — VCCS
* ``E<name> out+ out- ctrl+ ctrl- gain`` — VCVS
* ``M<name> d g s b <n|p> w=<W> l=<L>`` — MOSFET (device parameters come
  from the technology node passed to :func:`parse_netlist`)

Source ``<spec>`` forms: a plain number (DC), ``dc <v>``,
``sin(<off> <amp> <freq> [delay] [phase])``,
``pulse(<v1> <v2> <delay> <rise> <fall> <width> <period>)``,
``pwl(<t1> <v1> <t2> <v2> ...)``.

Hierarchy is supported through subcircuit definitions and instances::

    .subckt inv in out vdd
    Mn out in 0 0 n w=0.5u l=0.09u
    Mp out in vdd vdd p w=1.25u l=0.09u
    .ends
    X1 a b vdd inv
    X2 b c vdd inv

``X<name> <node...> <subckt-name>`` expands through
:func:`repro.circuit.hierarchy.instantiate`: internal nodes become
``X1.<node>``, elements become ``X1.<element>``.  Definitions may use
other previously-defined subcircuits.

Engineering suffixes are understood: ``f p n u m k meg g t`` (e.g.
``10k``, ``2.5u``, ``100meg``).  ``*`` and ``;`` start comments; the
first line is the title (SPICE convention); ``.end`` stops parsing;
continuation lines start with ``+``.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    DcSpec,
    Diode,
    Inductor,
    PulseSpec,
    PwlSpec,
    Resistor,
    SineSpec,
    SourceSpec,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuit.mosfet import Mosfet
from repro.circuit.netlist import Circuit
from repro.technology.node import TechnologyNode


class NetlistError(ValueError):
    """A netlist line could not be parsed."""

    def __init__(self, line_no: int, line: str, reason: str):
        super().__init__(f"line {line_no}: {reason}: {line!r}")
        self.line_no = line_no
        self.line = line
        self.reason = reason


_SUFFIXES = {
    "t": 1e12, "g": 1e9, "meg": 1e6, "k": 1e3,
    "m": 1e-3, "u": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15,
}

_NUMBER_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(t|g|meg|k|m|u|n|p|f)?$",
    re.IGNORECASE)


def parse_value(token: str) -> float:
    """Parse a SPICE number with optional engineering suffix.

    >>> parse_value("10k")
    10000.0
    >>> parse_value("2.5u")
    2.5e-06
    """
    match = _NUMBER_RE.match(token.strip())
    if not match:
        raise ValueError(f"not a SPICE number: {token!r}")
    base = float(match.group(1))
    suffix = match.group(2)
    if suffix:
        base *= _SUFFIXES[suffix.lower()]
    return base


def format_value(value: float) -> str:
    """Format a number compactly with an engineering suffix when exact."""
    for suffix, scale in (("t", 1e12), ("g", 1e9), ("meg", 1e6), ("k", 1e3)):
        if abs(value) >= scale and value % scale == 0:
            return f"{value / scale:g}{suffix}"
    if value == 0.0 or abs(value) >= 1.0:
        return f"{value:g}"
    for suffix, scale in (("m", 1e-3), ("u", 1e-6), ("n", 1e-9),
                          ("p", 1e-12), ("f", 1e-15)):
        scaled = value / scale
        if abs(scaled) >= 1.0 and abs(scaled) < 1000.0:
            return f"{scaled:g}{suffix}"
    return f"{value:g}"


def _split_keywords(tokens: List[str]) -> Tuple[List[str], dict]:
    """Separate ``key=value`` tokens from positional ones."""
    positional: List[str] = []
    keywords = {}
    for token in tokens:
        if "=" in token:
            key, _, raw = token.partition("=")
            keywords[key.lower()] = raw
        else:
            positional.append(token)
    return positional, keywords


def _parse_source_spec(tokens: List[str], line_no: int,
                       line: str) -> SourceSpec:
    """Parse the value part of a V/I source card."""
    if not tokens:
        raise NetlistError(line_no, line, "missing source value")
    joined = " ".join(tokens).lower()
    func_match = re.match(r"^(sin|pulse|pwl)\s*\((.*)\)$", joined)
    if func_match:
        kind = func_match.group(1)
        args = [parse_value(a) for a in func_match.group(2).split()]
        if kind == "sin":
            if not 3 <= len(args) <= 5:
                raise NetlistError(line_no, line, "sin() takes 3-5 args")
            return SineSpec(offset=args[0], amplitude=args[1],
                            frequency_hz=args[2],
                            delay_s=args[3] if len(args) > 3 else 0.0,
                            phase_rad=args[4] if len(args) > 4 else 0.0)
        if kind == "pulse":
            if len(args) != 7:
                raise NetlistError(line_no, line, "pulse() takes 7 args")
            return PulseSpec(v1=args[0], v2=args[1], delay_s=args[2],
                             rise_s=args[3], fall_s=args[4],
                             width_s=args[5], period_s=args[6])
        if len(args) < 4 or len(args) % 2 != 0:
            raise NetlistError(line_no, line,
                               "pwl() needs an even number (>=4) of args")
        points = tuple(zip(args[0::2], args[1::2]))
        return PwlSpec(points=points)
    if tokens[0].lower() == "dc":
        if len(tokens) != 2:
            raise NetlistError(line_no, line, "dc takes one value")
        return DcSpec(parse_value(tokens[1]))
    if len(tokens) == 1:
        return DcSpec(parse_value(tokens[0]))
    raise NetlistError(line_no, line, f"cannot parse source value {tokens!r}")


def _logical_lines(text: str) -> List[Tuple[int, str]]:
    """Strip comments, join ``+`` continuations, drop the title line."""
    raw_lines = text.splitlines()
    logical: List[Tuple[int, str]] = []
    for idx, raw in enumerate(raw_lines, start=1):
        line = raw.split(";", 1)[0]
        if line.lstrip().startswith("*"):
            continue
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("+"):
            if not logical:
                raise NetlistError(idx, raw, "continuation before any card")
            prev_no, prev = logical[-1]
            logical[-1] = (prev_no, prev + " " + stripped[1:].strip())
        else:
            logical.append((idx, stripped))
    # SPICE convention: the first non-comment line is the title.
    return logical


def parse_netlist(text: str, tech: Optional[TechnologyNode] = None) -> Circuit:
    """Parse a netlist into a :class:`Circuit`.

    ``tech`` is required when the netlist contains MOSFET (``M``) cards.
    Subcircuit definitions (``.subckt``/``.ends``) are collected and
    expanded at each ``X`` instance card.
    """
    logical = _logical_lines(text)
    if not logical:
        raise ValueError("empty netlist")
    title_no, title = logical[0]
    ckt = Circuit(title)
    subckts: dict = {}
    current_sub: Optional[tuple] = None  # (name, ports, Circuit)
    for line_no, line in logical[1:]:
        lower = line.lower()
        tokens = line.split()
        if lower.startswith(".ends"):
            if current_sub is None:
                raise NetlistError(line_no, line, ".ends without .subckt")
            name, ports, sub_circuit = current_sub
            subckts[name] = (ports, sub_circuit)
            current_sub = None
            continue
        if lower.startswith(".subckt"):
            if current_sub is not None:
                raise NetlistError(line_no, line,
                                   "nested .subckt definitions")
            if len(tokens) < 3:
                raise NetlistError(line_no, line,
                                   ".subckt needs a name and ports")
            sub_name = tokens[1].lower()
            ports = tokens[2:]
            current_sub = (sub_name, ports, Circuit(f"subckt {sub_name}"))
            continue
        if lower.startswith(".end"):
            break
        if lower.startswith("."):
            raise NetlistError(line_no, line,
                               f"unsupported directive {line.split()[0]!r}")
        target = current_sub[2] if current_sub is not None else ckt
        card = tokens[0]
        kind = card[0].lower()
        try:
            if kind == "x":
                _instantiate_card(target, card, tokens[1:], subckts,
                                  line_no, line)
            else:
                _dispatch_card(target, kind, card, tokens[1:], tech,
                               line_no, line)
        except NetlistError:
            raise
        except (ValueError, KeyError) as exc:
            raise NetlistError(line_no, line, str(exc)) from exc
    if current_sub is not None:
        raise NetlistError(title_no, title,
                           f"unterminated .subckt {current_sub[0]!r}")
    return ckt


def _instantiate_card(target: Circuit, name: str, rest: List[str],
                      subckts: dict, line_no: int, line: str) -> None:
    """Expand an ``X<name> <nodes...> <subckt>`` instance card."""
    from repro.circuit.hierarchy import instantiate

    if len(rest) < 1:
        raise NetlistError(line_no, line, "X card needs a subckt name")
    sub_name = rest[-1].lower()
    nodes = rest[:-1]
    if sub_name not in subckts:
        raise NetlistError(line_no, line,
                           f"unknown subcircuit {sub_name!r}")
    ports, template = subckts[sub_name]
    if len(nodes) != len(ports):
        raise NetlistError(
            line_no, line,
            f"subckt {sub_name!r} has {len(ports)} ports, got {len(nodes)}")
    connections = dict(zip(ports, nodes))
    instantiate(target, template, name, connections)


def _dispatch_card(ckt: Circuit, kind: str, name: str, rest: List[str],
                   tech: Optional[TechnologyNode], line_no: int,
                   line: str) -> None:
    positional, keywords = _split_keywords(rest)
    if kind == "r":
        _need(positional, 3, line_no, line)
        ckt.add(Resistor(name, positional[0], positional[1],
                         parse_value(positional[2])))
    elif kind == "c":
        _need(positional, 3, line_no, line)
        v_initial = (parse_value(keywords["ic"])
                     if "ic" in keywords else None)
        ckt.add(Capacitor(name, positional[0], positional[1],
                          parse_value(positional[2]), v_initial=v_initial))
    elif kind == "l":
        _need(positional, 3, line_no, line)
        ckt.add(Inductor(name, positional[0], positional[1],
                         parse_value(positional[2])))
    elif kind in ("v", "i"):
        if len(positional) < 3:
            raise NetlistError(line_no, line, "source needs nodes and value")
        spec = _parse_source_spec(positional[2:], line_no, line)
        ac_mag = parse_value(keywords.get("ac", "0"))
        cls = VoltageSource if kind == "v" else CurrentSource
        ckt.add(cls(name, positional[0], positional[1], spec, ac_mag=ac_mag))
    elif kind == "d":
        _need(positional, 2, line_no, line)
        ckt.add(Diode(name, positional[0], positional[1],
                      i_sat=parse_value(keywords.get("is", "1e-14")),
                      ideality=parse_value(keywords.get("n", "1"))))
    elif kind == "g":
        _need(positional, 5, line_no, line)
        ckt.add(Vccs(name, positional[0], positional[1], positional[2],
                     positional[3], parse_value(positional[4])))
    elif kind == "e":
        _need(positional, 5, line_no, line)
        ckt.add(Vcvs(name, positional[0], positional[1], positional[2],
                     positional[3], parse_value(positional[4])))
    elif kind == "m":
        if tech is None:
            raise NetlistError(line_no, line,
                               "MOSFET card needs a technology node")
        _need(positional, 5, line_no, line)
        polarity = positional[4].lower()
        if polarity in ("nmos", "pmos"):
            polarity = polarity[0]
        if "w" not in keywords or "l" not in keywords:
            raise NetlistError(line_no, line, "MOSFET needs w= and l=")
        ckt.add(Mosfet.from_technology(
            name, positional[0], positional[1], positional[2],
            positional[3], tech, polarity,
            w_m=parse_value(keywords["w"]), l_m=parse_value(keywords["l"])))
    else:
        raise NetlistError(line_no, line, f"unknown element type {kind!r}")


def _need(positional: List[str], count: int, line_no: int, line: str) -> None:
    if len(positional) != count:
        raise NetlistError(line_no, line,
                           f"expected {count} fields, got {len(positional)}")


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _spec_to_text(spec: SourceSpec, fmt=format_value) -> str:
    if isinstance(spec, DcSpec):
        return fmt(spec.level)
    if isinstance(spec, SineSpec):
        return (f"sin({fmt(spec.offset)} {fmt(spec.amplitude)} "
                f"{fmt(spec.frequency_hz)} {fmt(spec.delay_s)} "
                f"{fmt(spec.phase_rad)})")
    if isinstance(spec, PulseSpec):
        return (f"pulse({fmt(spec.v1)} {fmt(spec.v2)} {fmt(spec.delay_s)} "
                f"{fmt(spec.rise_s)} {fmt(spec.fall_s)} "
                f"{fmt(spec.width_s)} {fmt(spec.period_s)})")
    if isinstance(spec, PwlSpec):
        flat = " ".join(f"{fmt(t)} {fmt(v)}" for t, v in spec.points)
        return f"pwl({flat})"
    raise TypeError(f"cannot serialize source spec {type(spec).__name__}")


def _card(element, fmt) -> str:
    """An element's netlist card after its name; numbers through ``fmt``."""
    if isinstance(element, Resistor):
        value = fmt(element.resistance)
    elif isinstance(element, Capacitor):
        value = fmt(element.capacitance)
        if element.v_initial is not None:
            value += f" ic={fmt(element.v_initial)}"
    elif isinstance(element, Inductor):
        value = fmt(element.inductance)
    elif isinstance(element, (VoltageSource, CurrentSource)):
        value = _spec_to_text(element.spec, fmt)
        if element.ac_mag:
            value += f" ac={fmt(element.ac_mag)}"
    elif isinstance(element, Diode):
        value = f"is={fmt(element.i_sat)} n={fmt(element.ideality)}"
    elif isinstance(element, Vccs):
        value = fmt(element.gm)
    elif isinstance(element, Vcvs):
        value = fmt(element.gain)
    elif isinstance(element, Mosfet):
        p = element.params
        value = f"{p.polarity} w={fmt(p.w_m)} l={fmt(p.l_m)}"
    else:
        raise TypeError(
            f"cannot serialize element {type(element).__name__}")
    return " ".join([*element.node_names, value])


def write_netlist(circuit: Circuit) -> str:
    """Serialize a circuit to netlist text (inverse of ``parse_netlist``).

    MOSFET cards record polarity and geometry; the technology node is
    NOT embedded (pass the same node back to ``parse_netlist``).
    """
    lines = [circuit.title or "untitled circuit"]
    lines += [f"{e.name} {_card(e, format_value)}" for e in circuit.elements]
    lines.append(".end")
    return "\n".join(lines) + "\n"


def canonical_cards(circuit: Circuit) -> List[str]:
    """One normalised card per element, sorted: a circuit's content.

    A card is the element type, the lowercased name (SPICE element
    cards are case-insensitive) and the writer's card with ``repr``
    numbers (exact, unlike the writer's 6 digits); node names keep
    their case and the title — documentation, not electricity — is out.
    """
    return sorted(f"{type(e).__name__.lower()} {e.name.lower()} "
                  f"{_card(e, lambda v: repr(float(v)))}"
                  for e in circuit.elements)
