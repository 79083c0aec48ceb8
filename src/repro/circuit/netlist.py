"""Netlist container: the :class:`Circuit`.

A :class:`Circuit` is an ordered collection of named elements connected
by named nodes.  Node names are free-form strings; ``"0"`` and ``"gnd"``
(case-insensitive) are ground.  ``compile()`` resolves names to MNA
indices; the analyses in :mod:`repro.circuit.dc`,
:mod:`repro.circuit.transient` and :mod:`repro.circuit.ac` operate on a
compiled circuit.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Diode,
    Element,
    Inductor,
    Resistor,
    SourceSpec,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuit.mosfet import Mosfet

#: Node names treated as ground (compared case-insensitively).
GROUND_NAMES = frozenset({"0", "gnd"})


def is_ground(node_name: str) -> bool:
    """True if ``node_name`` denotes the ground node."""
    return node_name.lower() in GROUND_NAMES


class Circuit:
    """An ordered, named collection of circuit elements."""

    def __init__(self, title: str = ""):
        self.title = title
        self._elements: Dict[str, Element] = {}
        self._node_index: Optional[Dict[str, int]] = None
        self._n_nodes = 0
        self._n_branches = 0
        #: Bumped on every topology change; analysis caches (e.g. the DC
        #: engine in :mod:`repro.circuit.dc`) key their validity on it.
        self.topology_version = 0
        #: Identity token stamped on the elements this circuit binds
        #: (``Element.bound_by``); copies and unpickled replicas get
        #: their own, shared with their own elements.
        self._binding = object()
        #: ``(topology_version, mosfets)`` behind :attr:`mosfets`.
        self._mosfets: Optional[Tuple[int, Tuple[Mosfet, ...]]] = None

    # ------------------------------------------------------------------
    # Element management
    # ------------------------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add ``element``; names must be unique within the circuit."""
        if element.name in self._elements:
            raise ValueError(f"duplicate element name {element.name!r}")
        self._elements[element.name] = element
        self._node_index = None  # invalidate compilation
        self.topology_version += 1
        return element

    def __getitem__(self, name: str) -> Element:
        try:
            return self._elements[name]
        except KeyError:
            raise KeyError(
                f"no element named {name!r} in circuit {self.title!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> List[Element]:
        """All elements in insertion order."""
        return list(self._elements.values())

    @property
    def mosfets(self) -> Tuple[Mosfet, ...]:
        """All MOSFET elements in insertion order (filtered once per
        :attr:`topology_version`)."""
        cached = self._mosfets
        if cached is None or cached[0] != self.topology_version:
            cached = self._mosfets = (self.topology_version, tuple(
                e for e in self._elements.values() if isinstance(e, Mosfet)))
        return cached[1]

    @property
    def node_names(self) -> List[str]:
        """All non-ground node names in first-use order."""
        self.compile()
        assert self._node_index is not None
        return list(self._node_index)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def resistor(self, name: str, n_plus: str, n_minus: str,
                 resistance: float) -> Resistor:
        """Add and return a :class:`Resistor`."""
        return self.add(Resistor(name, n_plus, n_minus, resistance))  # type: ignore[return-value]

    def capacitor(self, name: str, n_plus: str, n_minus: str,
                  capacitance: float, v_initial: Optional[float] = None) -> Capacitor:
        """Add and return a :class:`Capacitor`."""
        return self.add(Capacitor(name, n_plus, n_minus, capacitance, v_initial))  # type: ignore[return-value]

    def inductor(self, name: str, n_plus: str, n_minus: str,
                 inductance: float) -> Inductor:
        """Add and return an :class:`Inductor`."""
        return self.add(Inductor(name, n_plus, n_minus, inductance))  # type: ignore[return-value]

    def voltage_source(self, name: str, n_plus: str, n_minus: str,
                       value: Union[float, SourceSpec] = 0.0,
                       ac_mag: float = 0.0) -> VoltageSource:
        """Add and return a :class:`VoltageSource`."""
        return self.add(VoltageSource(name, n_plus, n_minus, value, ac_mag))  # type: ignore[return-value]

    def current_source(self, name: str, n_plus: str, n_minus: str,
                       value: Union[float, SourceSpec] = 0.0,
                       ac_mag: float = 0.0) -> CurrentSource:
        """Add and return a :class:`CurrentSource`."""
        return self.add(CurrentSource(name, n_plus, n_minus, value, ac_mag))  # type: ignore[return-value]

    def diode(self, name: str, anode: str, cathode: str, **kwargs) -> Diode:
        """Add and return a :class:`Diode`."""
        return self.add(Diode(name, anode, cathode, **kwargs))  # type: ignore[return-value]

    def vccs(self, name: str, out_plus: str, out_minus: str,
             ctrl_plus: str, ctrl_minus: str, gm: float) -> Vccs:
        """Add and return a :class:`Vccs`."""
        return self.add(Vccs(name, out_plus, out_minus, ctrl_plus, ctrl_minus, gm))  # type: ignore[return-value]

    def vcvs(self, name: str, out_plus: str, out_minus: str,
             ctrl_plus: str, ctrl_minus: str, gain: float) -> Vcvs:
        """Add and return a :class:`Vcvs`."""
        return self.add(Vcvs(name, out_plus, out_minus, ctrl_plus, ctrl_minus, gain))  # type: ignore[return-value]

    def mosfet(self, device: Mosfet) -> Mosfet:
        """Add and return a pre-built :class:`Mosfet`."""
        return self.add(device)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self) -> None:
        """Resolve node names and branch unknowns to MNA indices.

        The name → index map is computed once per topology change.  An
        element may be shared by several circuits (e.g. a probe circuit
        wrapping an existing fixture), and whichever circuit is analysed
        must own the bindings at that moment: every analysis entry point
        calls ``compile()`` first.  Re-binding is skipped on the hot path
        when every element is still bound by THIS circuit — only when
        another circuit has stolen an element are the indices rewritten.
        """
        if not self._elements:
            raise ValueError("cannot compile an empty circuit")
        binding = self._binding
        if self._node_index is not None:
            for element in self._elements.values():
                if element.bound_by is not binding:
                    break
            else:
                return
        if self._node_index is None:
            node_index: Dict[str, int] = {}
            for element in self._elements.values():
                for node_name in element.node_names:
                    if is_ground(node_name):
                        continue
                    if node_name not in node_index:
                        node_index[node_name] = len(node_index)
            if not node_index:
                raise ValueError("circuit has no non-ground nodes")
            self._node_index = node_index
            self._n_nodes = len(node_index)
            self._n_branches = sum(
                e.n_branches for e in self._elements.values())
        branch_cursor = self._n_nodes
        for element in self._elements.values():
            indices = [
                -1 if is_ground(nm) else self._node_index[nm]
                for nm in element.node_names
            ]
            branches = list(range(branch_cursor, branch_cursor + element.n_branches))
            branch_cursor += element.n_branches
            element.bind(indices, branches)
            element.bound_by = binding

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        self.compile()
        return self._n_nodes

    @property
    def n_unknowns(self) -> int:
        """Total MNA unknowns (nodes + source/inductor branches)."""
        self.compile()
        return self._n_nodes + self._n_branches

    def node(self, name: str) -> int:
        """MNA index of node ``name`` (-1 for ground)."""
        if is_ground(name):
            return -1
        self.compile()
        assert self._node_index is not None
        try:
            return self._node_index[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}; known: {sorted(self._node_index)}") from None

    def voltage(self, x: Union[np.ndarray, Sequence[float]], name: str) -> float:
        """Voltage of node ``name`` under solution vector ``x``."""
        idx = self.node(name)
        if idx < 0:
            return 0.0
        return float(np.asarray(x)[idx])

    def __repr__(self) -> str:
        return (f"<Circuit {self.title!r}: {len(self._elements)} elements, "
                f"{len(self._node_index) if self._node_index else '?'} nodes>")
