"""DC operating-point and DC-sweep analyses.

The operating point is found by damped Newton–Raphson on the MNA system.
Three industry-standard fallbacks form the convergence ladder when plain
NR stalls:

1. **gmin stepping** — solve with a large shunt conductance from every
   node to ground, then relax it decade by decade, reusing each solution
   as the next initial guess;
2. **source stepping** — ramp all independent sources from 0 to 100 %;
3. **pseudo-transient continuation** — anchor every node to its previous
   pseudo-time value through a conductance that is relaxed geometrically,
   following the circuit's natural settling trajectory toward the OP.

Circuits in this library (references, mirrors, ring oscillators, OTAs)
converge with at most gmin stepping; the deeper rungs absorb the
pathological corners a Monte-Carlo run inevitably draws.  Every failure
carries a :class:`~repro.circuit.mna.ConvergenceReport` recording the
ladder, iteration counts, final residual and worst-device attribution.
"""

from __future__ import annotations

import math
import operator
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.circuit import _ckernel
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    DcSpec,
    Resistor,
    VoltageSource,
)
from repro.circuit.mna import (
    ConvergenceError,
    ConvergenceReport,
    CoordinateRecorder,
    SparsityPlan,
    Stamper,
    StrategyAttempt,
    sparse_available,
    sparse_min_size,
)
from repro.circuit.mosfet import Mosfet, MosfetGroup, OperatingPoint
from repro.circuit.netlist import Circuit

#: Maximum per-iteration node-voltage update [V] (NR damping).
MAX_STEP_V = 0.4

#: Floor shunt conductance always present for numerical robustness [S].
GMIN_FLOOR = 1e-12


@dataclass
class NewtonOptions:
    """Tunables of the Newton–Raphson loop."""

    max_iterations: int = 150
    vtol: float = 1e-9
    """Convergence tolerance on the solution update [V / A]."""

    reltol: float = 1e-6
    """Relative convergence tolerance."""

    damping_v: float = MAX_STEP_V
    """Maximum voltage update per iteration [V]."""

    gmin: float = GMIN_FLOOR
    """Shunt conductance from every node to ground [S]."""


class NewtonStats:
    """Mutable iteration counter threaded through ladder rungs.

    ``newton_solve`` adds the iterations it spent (successful or not)
    so a fallback strategy can report its true total cost.
    """

    __slots__ = ("iterations",)

    def __init__(self) -> None:
        self.iterations = 0


class NewtonWorkspace:
    """Reusable stampers for repeated Newton solves of one system size.

    Allocating the dense ``A``/``b`` pair once per *workspace* instead of
    once per *solve* removes the ``np.zeros`` churn from sweeps, Monte-
    Carlo sampling and transient stepping.  A workspace belongs to one
    solver context at a time — it is NOT safe to share across threads
    (parallel engines clone the circuit, which brings its own workspace).
    """

    def __init__(self, size: int):
        self.size = size
        self.st = Stamper(size)
        self.base = Stamper(size)
        # Scratch vectors for the Newton convergence bookkeeping.
        self.abs_delta = np.empty(size)
        self.scale = np.empty(size)
        # Compiled-loop scratch: the column-major LU copy, the pivots and
        # the solution/update vector handed to LAPACK dgesv.
        self.lu = np.empty((size, size))
        self.ipiv = np.empty(size, dtype=np.intc)
        self.x_new = np.empty(size)


def newton_solve(stamp: Callable[[Stamper, np.ndarray], None], size: int,
                 n_nodes: int, x0: Optional[np.ndarray] = None,
                 options: Optional[NewtonOptions] = None, *,
                 workspace: Optional[NewtonWorkspace] = None,
                 stamp_base: Optional[Callable[[Stamper], None]] = None,
                 stats: Optional[NewtonStats] = None,
                 group: Optional[MosfetGroup] = None,
                 load_base: Optional[Callable[[float], Optional[
                     "_ckernel.NewtonArgs"]]] = None
                 ) -> np.ndarray:
    """Solve the nonlinear MNA system ``F(x) = 0`` by damped NR.

    ``stamp(st, x)`` must assemble the linearized system at guess ``x``.
    Raises :class:`ConvergenceError` if the iteration does not settle or
    the update turns non-finite (NaN/Inf never escapes as a bare
    ``LinAlgError`` or an infinite loop — it is a convergence failure).

    With ``stamp_base`` given, the constant (solution-independent) part
    of the system is assembled ONCE per call into ``workspace.base`` and
    copied into the working stamper each iteration; ``stamp`` then only
    adds the nonlinear companion models.  ``workspace`` recycles the
    dense matrices across calls.  ``stats`` (when given) accumulates the
    iterations spent, converged or not.

    ``group`` declares that ``stamp`` adds nothing but that MOSFET
    group's channels.  With a base system given, the whole iteration
    then runs as one call into the compiled kernel
    (:func:`MosfetGroup.newton_args` says when it can) — bit-identical
    to the Python loop below, which serves every other case.

    ``load_base(gmin)``, when given, may fill ``workspace.base`` from a
    memo instead and hand back the compiled loop's argument block
    (:meth:`DcEngine.load_base`); it returns None when it did not, and
    ``stamp_base`` stamps the base as usual.
    """
    opts = options if options is not None else NewtonOptions()
    x = np.zeros(size) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (size,):
        raise ValueError(f"x0 shape {x.shape} != ({size},)")
    ws = workspace if workspace is not None and workspace.size == size \
        else NewtonWorkspace(size)
    st = ws.st
    base: Optional[Stamper] = None
    if stamp_base is not None:
        base = ws.base
        block = load_base(opts.gmin) if load_base is not None else None
        if block is None:
            base.clear()
            stamp_base(base)
            base.add_gmin(n_nodes, opts.gmin)
            block = group.newton_args(ws) if group is not None else None
        if block is not None:
            return _newton_compiled(block, x, n_nodes, opts, ws, stats)
    iteration = 0
    for iteration in range(1, opts.max_iterations + 1):
        if base is None:
            st.clear()
            stamp(st, x)
            st.add_gmin(n_nodes, opts.gmin)
        else:
            st.load_from(base)
            stamp(st, x)
        x_new = st.solve()
        # st.solve() returns a fresh vector, so it can be consumed as
        # the in-place update buffer.
        delta = np.subtract(x_new, x, out=x_new)
        abs_delta = np.abs(delta, out=ws.abs_delta)
        # Damp node-voltage updates; branch currents follow freely.
        max_dv = float(abs_delta[:n_nodes].max()) if n_nodes else 0.0
        if not math.isfinite(max_dv):
            # NaN/Inf residual guard: a poisoned model parameter or an
            # overflowing companion must fail fast and classified.
            if stats is not None:
                stats.iterations += iteration
            raise _nonfinite_error(ws, iteration, max_dv)
        if max_dv > opts.damping_v:
            factor = opts.damping_v / max_dv
            delta *= factor
            abs_delta *= factor
        x += delta  # x is always an owned copy (np.array/np.zeros above)
        scale = np.abs(x, out=ws.scale)
        np.maximum(scale, 1.0, out=scale)
        scale *= opts.reltol
        scale += opts.vtol
        if (abs_delta <= scale).all():
            if stats is not None:
                stats.iterations += iteration
            return x
    if stats is not None:
        stats.iterations += iteration
    raise _max_iter_error(ws, opts)


def _newton_compiled(block, x: np.ndarray, n_nodes: int,
                     opts: NewtonOptions, ws: NewtonWorkspace,
                     stats: Optional[NewtonStats]) -> np.ndarray:
    """The compiled damped-Newton loop; raises exactly what the Python
    loop of :func:`newton_solve` raises at the same iterate."""
    status = _ckernel.newton_dense(block, x, n_nodes, opts.max_iterations,
                                   opts.damping_v, opts.reltol, opts.vtol)
    if status == _ckernel.NEWTON_SINGULAR:
        raise ws.st.singular_error()
    iteration = block.iterations
    if stats is not None:
        stats.iterations += iteration
    if status == _ckernel.NEWTON_CONVERGED:
        return x
    if status == _ckernel.NEWTON_NONFINITE:
        raise _nonfinite_error(
            ws, iteration, float(ws.abs_delta[:n_nodes].max()))
    raise _max_iter_error(ws, opts)


def _nonfinite_error(ws: NewtonWorkspace, iteration: int,
                     max_dv: float) -> ConvergenceError:
    abs_delta = ws.abs_delta
    return ConvergenceError(
        f"non-finite Newton update at iteration {iteration}",
        iterations=iteration, final_residual=max_dv,
        worst_index=int(np.argmax(np.isnan(abs_delta) |
                                  np.isinf(abs_delta))))


def _max_iter_error(ws: NewtonWorkspace,
                    opts: NewtonOptions) -> ConvergenceError:
    residual = float(ws.abs_delta.max())
    return ConvergenceError(
        f"Newton-Raphson did not converge in {opts.max_iterations} "
        f"iterations (final residual {residual:.3g})",
        iterations=opts.max_iterations,
        final_residual=residual,
        worst_index=int(np.argmax(ws.abs_delta)))


@dataclass
class DcSolution:
    """A solved DC operating point."""

    circuit: Circuit
    x: np.ndarray
    """Full MNA solution vector (node voltages then branch currents)."""

    def voltage(self, node_name: str) -> float:
        """Node voltage [V]."""
        return self.circuit.voltage(self.x, node_name)

    def voltages(self, node_names: Iterable[str]) -> List[float]:
        """Voltages of several nodes."""
        return [self.voltage(n) for n in node_names]

    def source_current(self, source_name: str) -> float:
        """Branch current through a voltage source (n+ → n-) [A]."""
        element = self.circuit[source_name]
        if not isinstance(element, VoltageSource):
            raise TypeError(f"{source_name!r} is not a voltage source")
        return element.branch_current(self.x)

    def device_op(self, device_name: str) -> OperatingPoint:
        """Operating point of a MOSFET."""
        element = self.circuit[device_name]
        if not isinstance(element, Mosfet):
            raise TypeError(f"{device_name!r} is not a MOSFET")
        return element.operating_point(self.x)

    def all_device_ops(self) -> dict:
        """Operating points of every MOSFET, keyed by name."""
        return {m.name: m.operating_point(self.x) for m in self.circuit.mosfets}


class DcSweep(Sequence[DcSolution]):
    """The solutions of a DC sweep as one ``(points, unknowns)`` array.

    Row ``i`` of :attr:`x` is point ``i``'s MNA solution.  Indexing or
    iterating builds a :class:`DcSolution` on that row only when asked;
    :func:`sweep_voltages` reads node columns without building any.
    """

    __slots__ = ("circuit", "x")

    def __init__(self, circuit: Circuit, x: np.ndarray):
        self.circuit = circuit
        self.x = x

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DcSweep(self.circuit, self.x[index])
        return DcSolution(self.circuit, self.x[index])

    def __iter__(self):
        circuit = self.circuit
        return (DcSolution(circuit, x) for x in self.x)


def sweep_voltages(sweep: DcSweep, node_names: Sequence[str]) -> np.ndarray:
    """Voltages [V] of ``node_names`` at every point of a sweep, as a
    ``(len(node_names), len(sweep))`` array — the same floats as
    :meth:`DcSolution.voltage`, read as columns of the sweep's array."""
    if not len(sweep):
        return np.zeros((len(node_names), 0))
    circuit = sweep.circuit
    return _node_columns(sweep.x, [circuit.node(name) for name in node_names])


def _node_columns(X: np.ndarray, index: Sequence[int]) -> np.ndarray:
    """Columns ``index`` of the sweep array ``X`` as rows (zeros for a
    ground index, -1)."""
    out = np.zeros((len(index), len(X)))
    for row, column in enumerate(index):
        if column >= 0:
            out[row] = X[:, column]
    return out


#: The linear element types whose stamps the engine memoizes: exactly
#: these (subclasses may stamp differently), so every value a stamp
#: reads is one :meth:`DcEngine.linear_key` lists.
MEMO_ELEMENTS = (Resistor, Capacitor, VoltageSource, CurrentSource)

#: The readers of the values :meth:`DcEngine.linear_key` lists.
_RESISTANCE = operator.attrgetter("resistance")
_CAPACITANCE = operator.attrgetter("capacitance")
_SPEC = operator.attrgetter("spec")
_SCALE = operator.attrgetter("scale")
_GATE_LEAK = operator.attrgetter("degradation.gate_leak_s")
_BD_SPOT = operator.attrgetter("degradation.bd_spot_position")


class DcEngine:
    """Per-circuit solver state: stamp plans, workspace, warm start.

    Splits the element list into a *linear* part (stamps independent of
    the Newton guess within one solve) and a *nonlinear* part, so the
    linear system can be assembled once per solve and only the devices
    re-stamped each iteration.  Also owns the reusable
    :class:`NewtonWorkspace` and the warm-start seed carried between
    consecutive operating-point solves (Monte-Carlo samples, sweep
    points, transient steps).

    It also memoizes what a Monte-Carlo die that changes only MOSFET
    parameters leaves alone: the stamped base of the compiled
    plain-Newton rung (:meth:`load_base`) and the transient step tape
    (``step_tape``, see :mod:`repro.circuit.transient`).  Both are keyed
    by :meth:`linear_key`, the live values their stamps read, and die
    with the engine.
    """

    def __init__(self, circuit: Circuit):
        circuit.compile()
        # No reference to ``circuit`` is kept: the engine cache is keyed
        # weakly on it, and a back-reference would keep both alive.
        self.topology_version = circuit.topology_version
        self.size = circuit.n_unknowns
        self.n_nodes = circuit.n_nodes
        elements = circuit.elements
        self.linear_elements = [e for e in elements if not e.nonlinear]
        self.nonlinear_elements = [e for e in elements if e.nonlinear]
        mosfets = [e for e in self.nonlinear_elements if isinstance(e, Mosfet)]
        self.other_nonlinear = [e for e in self.nonlinear_elements
                                if not isinstance(e, Mosfet)]
        self.mosfet_group = MosfetGroup(mosfets, self.size) if mosfets else None
        #: The group handed to ``newton_solve`` for the compiled loop:
        #: set when its channels are ALL the nonlinear stamps.
        self.newton_group = None if self.other_nonlinear \
            else self.mosfet_group
        self.workspace = NewtonWorkspace(self.size)
        #: Symbolic sparsity plan for large systems, or None (dense).
        #: Built once per engine — i.e. cached and reused per circuit
        #: ``topology_version``, since ``dc_engine`` rebuilds the engine
        #: exactly when the topology changes.
        self.sparsity_plan: Optional[SparsityPlan] = None
        session = telemetry.active()
        if session is not None:
            session.metrics.inc("solver.dc.engine_builds")
        if sparse_available() and self.size >= sparse_min_size():
            self.sparsity_plan = self._build_sparsity_plan(circuit)
            self.workspace.st.plan = self.sparsity_plan
            if session is not None:
                session.metrics.inc("solver.sparse.plan_builds")
        #: When True, the previous solution seeds the next solve.
        self.warm_start_enabled = False
        self.last_x: Optional[np.ndarray] = None
        # The memo key's inputs, ``(object, getter)`` pairs: None when a
        # linear element is not exactly one of MEMO_ELEMENTS (then
        # nothing is memoized).
        self._memo_parts = None
        if all(type(e) in MEMO_ELEMENTS for e in self.linear_elements):
            linear = self.linear_elements
            self._memo_parts = (
                [(e, _RESISTANCE) for e in linear if type(e) is Resistor]
                + [(e, _CAPACITANCE) for e in linear if type(e) is Capacitor]
                + [(e, get) for e in linear
                   if type(e) in (VoltageSource, CurrentSource)
                   for get in (_SPEC, _SCALE)]
                + [(m, get) for m in mosfets
                   for get in (_GATE_LEAK, _BD_SPOT)])
        #: The memoized base (linear stamps, gate leaks, gmin) of the
        #: compiled plain-Newton rung, and the key it was stamped under.
        self._base_memo: Optional[Stamper] = None
        self._base_key = None
        #: The last transient's step tape, or None (owned by
        #: :mod:`repro.circuit.transient`; carries its own key).
        self.step_tape = None

    def linear_key(self) -> Optional[list]:
        """The live values the linear stamps and gate leaks read — each
        resistance and capacitance, each source's spec object and scale,
        each MOSFET's ``gate_leak_s`` and ``bd_spot_position`` — or None
        when some linear element is not exactly a
        :data:`MEMO_ELEMENTS` type.  Equal keys stamp equal bases."""
        parts = self._memo_parts
        if parts is None:
            return None
        return [get(obj) for obj, get in parts]

    def _build_sparsity_plan(self, circuit: Circuit) -> SparsityPlan:
        """Record the union of every stamp's matrix positions.

        One structural pass over all element stamps — DC *and* transient
        (charge-storage companions only appear in the latter), MOSFET
        scatter plans, unconditional gate-leak paths, and the full
        diagonal (gmin shunts plus pseudo-transient anchors) — so the
        plan covers every position any analysis can write into the
        shared workspace.
        """
        recorder = CoordinateRecorder(self.size)
        x0 = np.zeros(self.size)
        for element in circuit.elements:
            if isinstance(element, Mosfet):
                continue
            element.stamp_dc(recorder, x0)
            state: dict = {}
            element.init_state(x0, state)
            element.stamp_transient(recorder, x0, state, 0.0, 1.0,
                                    "trapezoidal")
        group = self.mosfet_group
        if group is not None:
            recorder.add_flat(group._a_flat)
            for mosfet in group.mosfets:
                d, g, s, b = mosfet.nodes
                recorder.conductance(g, d)
                recorder.conductance(g, s)
        recorder.add_diagonal()
        return SparsityPlan(self.size, recorder.rows, recorder.cols)

    def stamp_base(self, st: Stamper) -> None:
        """Stamp every solution-independent contribution (called once per
        solve).  Source scaling and gate-leak conductances are read at
        call time, so source stepping and aging updates land correctly;
        the MOSFET group re-reads effective parameters here too."""
        self.stamp_linear(st)
        group = self.mosfet_group
        if group is not None:
            group.refresh()

    def stamp_linear(self, st: Stamper) -> None:
        """The linear stamps and the gate leaks of :meth:`stamp_base`."""
        x_unused = _EMPTY_X
        for element in self.linear_elements:
            element.stamp_dc(st, x_unused)
        group = self.mosfet_group
        if group is not None:
            group.stamp_gate_leaks(st)

    def load_base(self, gmin: float) -> Optional["_ckernel.NewtonArgs"]:
        """For the compiled Newton loop: refresh the MOSFET group and
        fill ``workspace.base`` with the base system plus ``gmin`` from
        the memo, stamping the memo first when its key is stale.
        Returns the loop's argument block
        (:meth:`MosfetGroup.newton_args`).

        Returns None, with the base untouched, when the engine
        memoizes nothing (:meth:`linear_key` is None) or the compiled
        loop cannot serve the solve — the Python loop always stamps its
        own base."""
        group = self.newton_group
        if group is None or self._memo_parts is None:
            return None
        group.refresh()
        block = group.newton_args(self.workspace)
        if block is None:
            return None
        key = (self.linear_key(), gmin)
        memo = self._base_memo
        if memo is None or key != self._base_key:
            if memo is None:
                memo = self._base_memo = Stamper(self.size)
            self._base_key = None  # a failed stamp leaves no stale key
            memo.clear()
            self.stamp_linear(memo)
            memo.add_gmin(self.n_nodes, gmin)
            self._base_key = key
            session = telemetry.active()
            if session is not None:
                session.metrics.inc("solver.dc.base_builds")
        self.workspace.base.load_from(memo)
        return block

    def reload_base(self) -> None:
        """Copy the memoized base back into ``workspace.base``, which a
        compiled transient rewrote: what :meth:`load_base` loads when
        nothing its key reads has changed since it last ran."""
        self.workspace.base.load_from(self._base_memo)

    def stamp_nonlinear(self, st: Stamper, x: np.ndarray) -> None:
        """Stamp the guess-dependent part only (called every iteration)."""
        group = self.mosfet_group
        if group is not None:
            group.stamp(st, x)
        for element in self.other_nonlinear:
            element.stamp_dc(st, x)


_EMPTY_X = np.zeros(0)

_ENGINES: "weakref.WeakKeyDictionary[Circuit, DcEngine]" = \
    weakref.WeakKeyDictionary()
_ENGINES_LOCK = threading.Lock()


def dc_engine(circuit: Circuit) -> DcEngine:
    """The cached :class:`DcEngine` for ``circuit`` (rebuilt on topology
    change).  Engines are keyed per circuit object, so cloned circuits
    used by parallel workers each get an independent engine."""
    circuit.compile()
    with _ENGINES_LOCK:
        engine = _ENGINES.get(circuit)
        if engine is None or engine.topology_version != circuit.topology_version:
            engine = DcEngine(circuit)
            _ENGINES[circuit] = engine
        return engine


@contextmanager
def warm_start(circuit: Circuit):
    """Context manager enabling cross-solve warm starting for ``circuit``.

    Inside the block, each successful :func:`dc_operating_point` records
    its solution and the next solve (without an explicit ``x0``) starts
    from it.  The seed is cleared on entry, so results never depend on
    solves performed before the block — the property that keeps chunked
    Monte-Carlo runs bit-identical regardless of worker assignment.
    """
    engine = dc_engine(circuit)
    prev_enabled = engine.warm_start_enabled
    prev_last_x = engine.last_x
    engine.warm_start_enabled = True
    engine.last_x = None
    try:
        yield engine
    finally:
        engine.warm_start_enabled = prev_enabled
        engine.last_x = prev_last_x


def label_unknown(circuit: Circuit, index: Optional[int]
                  ) -> Tuple[Optional[str], Optional[str]]:
    """``(unknown_label, nearest_device)`` for a raw MNA index.

    Nodes map to their netlist names; branch unknowns to
    ``branch[<i>]``.  The device attribution is best-effort: the first
    MOSFET with a terminal on the worst node.
    """
    if index is None or index < 0:
        return None, None
    names = circuit.node_names
    if index >= len(names):
        return f"branch[{index - len(names)}]", None
    label = names[index]
    for device in circuit.mosfets:
        if index in device.nodes:
            return label, device.name
    return label, None


#: Pseudo-transient continuation tuning: initial node anchor [S], the
#: geometric relaxation per accepted pseudo-step, the re-strengthening
#: factor after a rejected step, and the step budget.
PTC_G_INITIAL = 1.0
PTC_G_RELAX = 0.25
PTC_G_GROW = 16.0
PTC_G_FLOOR = 1e-9
PTC_G_CEIL = 1e7
PTC_MAX_STEPS = 40


def _pseudo_transient(stamp: Callable[[Stamper, np.ndarray], None],
                      stamp_base: Callable[[Stamper], None],
                      size: int, n_nodes: int,
                      x0: Optional[np.ndarray],
                      opts: NewtonOptions,
                      ws: NewtonWorkspace,
                      stats: NewtonStats) -> np.ndarray:
    """Pseudo-transient continuation: follow the settling trajectory.

    Every node is anchored to its previous pseudo-time value through a
    conductance ``g`` (the discrete analogue of a node capacitor with
    timestep ``1/g``).  Accepted steps relax ``g`` geometrically —
    growing the pseudo-timestep — until the anchor is negligible and a
    plain Newton solve polishes the result.  Rejected steps (Newton
    failure) re-strengthen the anchor, the switched-evolution rule that
    makes PTC robust where plain continuation cycles.
    """
    x_prev = np.zeros(size) if x0 is None else np.array(x0, dtype=float)
    idx = np.arange(n_nodes)
    g = PTC_G_INITIAL
    for _ in range(PTC_MAX_STEPS):
        anchor = x_prev[:n_nodes].copy()

        def stamp_ptc(st: Stamper, x: np.ndarray,
                      _g: float = g, _anchor: np.ndarray = anchor) -> None:
            stamp(st, x)
            st.a[idx, idx] += _g
            st.b[:n_nodes] += _g * _anchor

        try:
            x_prev = newton_solve(stamp_ptc, size, n_nodes, x_prev, opts,
                                  workspace=ws, stamp_base=stamp_base,
                                  stats=stats)
        except ConvergenceError:
            g *= PTC_G_GROW
            if g > PTC_G_CEIL:
                raise
            continue
        g *= PTC_G_RELAX
        if g < PTC_G_FLOOR:
            break
    return newton_solve(stamp, size, n_nodes, x_prev, opts,
                        workspace=ws, stamp_base=stamp_base, stats=stats)


def _failed_attempt(name: str, exc: ConvergenceError, iterations: int,
                    detail: str = "") -> StrategyAttempt:
    return StrategyAttempt(name=name, iterations=iterations, converged=False,
                           final_residual=exc.final_residual, detail=detail)


def _solve_ladder(circuit: Circuit, x0: Optional[np.ndarray],
                  options: Optional[NewtonOptions],
                  engine: Optional[DcEngine] = None
                  ) -> Tuple[DcSolution, str, int]:
    """The convergence ladder; returns ``(solution, strategy, iters)``.

    Shared by the plain and the telemetry-wrapped entry points of
    :func:`dc_operating_point`; the extra return values feed the
    ``solve.dc`` span attributes and the strategy/iteration metrics.
    ``engine`` is ``circuit``'s :func:`dc_engine`, when the caller has
    looked it up already.
    """
    if engine is None:
        engine = dc_engine(circuit)
    size = engine.size
    n_nodes = engine.n_nodes
    stamp = engine.stamp_nonlinear
    stamp_base = engine.stamp_base
    ws = engine.workspace
    group = engine.newton_group
    opts = options if options is not None else NewtonOptions()
    if x0 is None and engine.warm_start_enabled and engine.last_x is not None:
        x0 = engine.last_x

    stats = NewtonStats()
    try:
        x = newton_solve(stamp, size, n_nodes, x0, opts,
                         workspace=ws, stamp_base=stamp_base, stats=stats,
                         group=group, load_base=engine.load_base)
        if engine.warm_start_enabled:
            engine.last_x = x.copy()
        return DcSolution(circuit, x), "newton", stats.iterations
    except ConvergenceError as exc:
        attempts = [_failed_attempt("newton", exc, exc.iterations)]
        worst_index = exc.worst_index

    # --- Fallback 1: gmin stepping -----------------------------------
    x_guess = x0
    stats = NewtonStats()
    exponent = 3
    try:
        for exponent in range(3, 13):
            stepped = NewtonOptions(
                max_iterations=opts.max_iterations, vtol=opts.vtol,
                reltol=opts.reltol, damping_v=opts.damping_v,
                gmin=10.0 ** (-exponent))
            x_guess = newton_solve(stamp, size, n_nodes, x_guess, stepped,
                                   workspace=ws, stamp_base=stamp_base,
                                   stats=stats, group=group)
        x = newton_solve(stamp, size, n_nodes, x_guess, opts,
                         workspace=ws, stamp_base=stamp_base, stats=stats,
                         group=group)
        if engine.warm_start_enabled:
            engine.last_x = x.copy()
        return DcSolution(circuit, x), "gmin-stepping", stats.iterations
    except ConvergenceError as exc:
        attempts.append(_failed_attempt(
            "gmin-stepping", exc, stats.iterations,
            detail=f"stalled at gmin=1e-{exponent}"))
        worst_index = exc.worst_index

    # --- Fallback 2: source stepping ----------------------------------
    sources = [e for e in circuit.elements
               if isinstance(e, (VoltageSource, CurrentSource))]
    original_scales = [s.scale for s in sources]
    x_guess = None
    stats = NewtonStats()
    fraction = 0.0
    try:
        for fraction in np.linspace(0.05, 1.0, 20):
            for source, scale0 in zip(sources, original_scales):
                source.scale = scale0 * float(fraction)
            # Source scales change between steps, so the base must be
            # re-assembled each time — stamp_base reads them live.
            x_guess = newton_solve(stamp, size, n_nodes, x_guess, opts,
                                   workspace=ws, stamp_base=stamp_base,
                                   stats=stats, group=group)
        assert x_guess is not None
        if engine.warm_start_enabled:
            engine.last_x = x_guess.copy()
        return DcSolution(circuit, x_guess), "source-stepping", \
            stats.iterations
    except ConvergenceError as exc:
        attempts.append(_failed_attempt(
            "source-stepping", exc, stats.iterations,
            detail=f"ramp stalled at {float(fraction):.0%}"))
        worst_index = exc.worst_index
    finally:
        for source, scale0 in zip(sources, original_scales):
            source.scale = scale0

    # --- Fallback 3: pseudo-transient continuation --------------------
    stats = NewtonStats()
    try:
        x = _pseudo_transient(stamp, stamp_base, size, n_nodes, x0, opts,
                              ws, stats)
        if engine.warm_start_enabled:
            engine.last_x = x.copy()
        return DcSolution(circuit, x), "pseudo-transient", stats.iterations
    except ConvergenceError as exc:
        attempts.append(_failed_attempt(
            "pseudo-transient", exc, stats.iterations))
        worst_index = exc.worst_index

    worst_unknown, worst_device = label_unknown(circuit, worst_index)
    report = ConvergenceReport(
        analysis="dc", strategies=attempts,
        worst_unknown=worst_unknown, worst_device=worst_device,
        message="DC operating point not found after full fallback ladder")
    raise ConvergenceError(report.summary(), report=report,
                           iterations=report.total_iterations,
                           final_residual=report.final_residual,
                           worst_index=worst_index)


def dc_operating_point(circuit: Circuit,
                       x0: Optional[np.ndarray] = None,
                       options: Optional[NewtonOptions] = None) -> DcSolution:
    """Find the DC operating point, walking the convergence ladder.

    Ladder: plain Newton → gmin stepping → source stepping →
    pseudo-transient continuation.  A total failure raises
    :class:`ConvergenceError` whose ``report`` records every strategy
    tried, its iteration count, the final residual, and the worst
    node/device — the telemetry the failure ledger and yield reports
    consume.

    With an active :mod:`repro.telemetry` session every solve emits a
    ``solve.dc`` span (strategy, iterations) and feeds the
    ``solver.dc.*`` metrics; without one, the guarded call sites cost a
    single ContextVar read.
    """
    engine = dc_engine(circuit)
    session = telemetry.active()
    if session is None:
        return _solve_ladder(circuit, x0, options, engine)[0]
    # Sparse solves get their own span name so trace reports separate
    # the splu path from the dense LAPACK path at a glance.
    span_name = "solve.dc.sparse" if engine.sparsity_plan is not None \
        else "solve.dc"
    with session.tracer.span(span_name) as sp:
        try:
            solution, strategy, iterations = _recorded_ladder(
                circuit, x0, options, engine, session.metrics)
        except ConvergenceError as exc:
            sp.set(status="failed", iterations=_ladder_iterations(exc),
                   summary=exc.report.summary() if exc.report is not None
                   else str(exc))
            raise
        sp.set(strategy=strategy, iterations=iterations)
        return solution


def _ladder_iterations(exc: ConvergenceError) -> int:
    """The Newton iterations a failed ladder spent, all rungs included."""
    return exc.report.total_iterations if exc.report is not None \
        else exc.iterations


def _recorded_ladder(circuit: Circuit, x0: Optional[np.ndarray],
                     options: Optional[NewtonOptions], engine: DcEngine,
                     metrics: Optional[telemetry.MetricsRegistry]
                     ) -> Tuple[DcSolution, str, int]:
    """:func:`_solve_ladder`, recording the ``solver.dc.*`` metrics of
    its outcome into ``metrics`` (when given)."""
    if metrics is None:
        return _solve_ladder(circuit, x0, options, engine)
    try:
        solution, strategy, iterations = _solve_ladder(
            circuit, x0, options, engine)
    except ConvergenceError as exc:
        metrics.update([("solver.dc.solves", 1), ("solver.dc.failures", 1),
                        ("solver.factorizations", _ladder_iterations(exc))])
        raise
    # Which Newton loop served it (compiled kernel or Python).
    group = engine.newton_group
    compiled = group is not None \
        and group.newton_args(engine.workspace) is not None
    counters = [("solver.dc.solves", 1),
                ("solver.dc.strategy." + strategy, 1),
                ("solver.factorizations", iterations),
                ("solver.dc.kernel." + ("compiled" if compiled
                                        else "python"), 1)]
    if engine.sparsity_plan is not None:
        # Each Newton iteration refactorizes numerically while reusing
        # the cached symbolic plan.
        counters += [("solver.sparse.solves", 1),
                     ("solver.sparse.factorizations", iterations),
                     ("solver.sparse.plan_reuses", iterations)]
    metrics.update(counters, "solver.dc.newton_iterations",
                   ((iterations, 1),), telemetry.ITERATION_BUCKETS)
    return solution, strategy, iterations


def dc_sweep(circuit: Circuit, source_name: str,
             values: Union[Sequence[float], np.ndarray],
             options: Optional[NewtonOptions] = None, *,
             batch: Optional[bool] = None) -> DcSweep:
    """Sweep an independent source and solve the OP at each value.

    Each solution seeds the next (continuation), so sweeps through
    strongly nonlinear regions stay convergent.  The source is restored
    to its original spec afterwards.  Every path returns the solutions
    as one :class:`DcSweep`.

    ``batch`` selects the solver path: ``True`` solves all sweep points
    as lanes of one batched Newton ensemble
    (:mod:`repro.circuit.batch` — answers agree with the scalar path
    within Newton tolerance), ``False`` forces the scalar
    point-by-point loop, and ``None`` (default) batches only inside an
    enclosing :func:`~repro.circuit.batch.batched_sweeps` context.
    Circuits the batched engine does not support (non-MOSFET nonlinear
    elements) silently stay on the scalar path.

    A scalar voltage-source sweep that the compiled Newton loop can
    serve runs all of its points in one call into the compiled kernel
    (see :func:`_compiled_sweep`), bit-identical to the point loop.
    """
    element = circuit[source_name]
    if not isinstance(element, (VoltageSource, CurrentSource)):
        raise TypeError(f"{source_name!r} is not an independent source")
    from repro.circuit import batch as _batch  # deferred: cyclic import
    if batch is None:
        max_lanes = _batch.batched_sweep_lanes()
    elif batch:
        max_lanes = _batch.DEFAULT_MAX_LANES
    else:
        max_lanes = None
    if max_lanes is not None and len(values) > 1 \
            and _batch.can_batch(circuit):
        from repro import resilience  # deferred: cold seam only

        if resilience.allows("batch"):
            return _batch.batched_dc_sweep(circuit, source_name, values,
                                           options, max_lanes=max_lanes)
    original_spec = element.spec
    try:
        if isinstance(element, VoltageSource) and len(values):
            solutions = _compiled_sweep(circuit, element, values, options)
            if solutions is not None:
                return solutions
        return _point_sweep(circuit, element, values, options)
    finally:
        element.spec = original_spec


def _secant_guess(x_guess: Optional[np.ndarray],
                  x_prev: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Initial guess of a sweep point from the solutions of the two
    points before it (``None`` where there is no such point)."""
    if x_prev is None:
        return x_guess
    # Secant predictor: extrapolating the last two solutions lands close
    # enough that Newton typically needs one fewer iteration per point
    # than plain continuation.
    return 2.0 * x_guess - x_prev


def _point_sweep(circuit: Circuit, element, values,
                 options: Optional[NewtonOptions]) -> DcSweep:
    """The sweep as one :func:`dc_operating_point` call per point."""
    circuit.compile()
    X = np.zeros((len(values), circuit.n_unknowns))
    x_guess: Optional[np.ndarray] = None
    x_prev: Optional[np.ndarray] = None
    for i, value in enumerate(values):
        element.spec = DcSpec(float(value))
        X[i] = dc_operating_point(
            circuit, x0=_secant_guess(x_guess, x_prev), options=options).x
        x_prev = x_guess
        x_guess = X[i]
    return DcSweep(circuit, X)


def _compiled_sweep(circuit: Circuit, element: VoltageSource, values,
                    options: Optional[NewtonOptions]
                    ) -> Optional[DcSweep]:
    """The sweep as one call into the compiled kernel, or None when the
    compiled Newton loop cannot serve it (see
    :meth:`MosfetGroup.newton_args`).

    The group's parameters are refreshed once per sweep instead of once
    per point, and the base system comes from the engine's memo
    (:meth:`DcEngine.load_base`), so a Monte-Carlo die that changes only
    MOSFET parameters re-stamps nothing.  The kernel rewrites the
    source's whole branch row of the base RHS per point, which is all
    that stamping the next value would change, so the base is loaded
    under the source's spec as the sweep found it.  A point plain
    Newton cannot solve is replayed through :func:`dc_operating_point`
    (the full ladder) from the same initial guess and warm-start seed
    the point loop gives it, and the kernel resumes at the next point
    (:func:`_sweep_points`, which the die loop shares) — solutions,
    errors, ``engine.last_x`` and every ``solver.dc.*`` metric but
    ``solver.dc.base_builds`` are exactly the point loop's.

    Telemetry: one ``solve.dc.sweep`` span (points, iterations of the
    kernel-solved points, fallback_points); replayed points nest inside
    it as ordinary ``solve.dc`` spans.
    """
    engine = dc_engine(circuit)
    group = engine.newton_group
    vals = np.ascontiguousarray(values, dtype=np.float64)
    if group is None or vals.ndim != 1:
        return None
    opts = options if options is not None else NewtonOptions()
    # Refreshes the group, so the capability check is live.
    _fill_base(engine, opts.gmin)
    block = group.newton_args(engine.workspace)
    if block is None:
        return None
    n = len(vals)
    X = np.zeros((n, engine.size))
    session = telemetry.active()
    span_ctx = telemetry.NULL_SPAN if session is None else \
        session.tracer.span("solve.dc.sweep", points=n)
    fallback_points = 0
    kernel_iterations = 0

    def solved(iterations: np.ndarray) -> None:
        nonlocal kernel_iterations
        if session is not None:
            kernel_iterations += _record_kernel_solves(session.metrics,
                                                       iterations)

    def replay(x0: Optional[np.ndarray]) -> np.ndarray:
        nonlocal fallback_points
        x = dc_operating_point(circuit, x0=x0, options=options).x
        fallback_points += 1
        return x

    with span_ctx as sp:
        try:
            _sweep_points(engine, block, element, X, vals,
                          np.zeros(n, dtype=np.int64), opts, replay, solved)
        finally:
            sp.set(iterations=kernel_iterations,
                   fallback_points=fallback_points)
    return DcSweep(circuit, X)


def _sweep_points(engine: DcEngine, block, element: VoltageSource,
                  X: np.ndarray, vals: np.ndarray, iters: np.ndarray,
                  opts: NewtonOptions,
                  replay: Callable[[Optional[np.ndarray]], np.ndarray],
                  solved: Callable[[np.ndarray], None]) -> None:
    """Solve the points of a sweep of ``element`` over ``vals`` into the
    rows of ``X``, the first from the warm-start seed.

    Runs of points go through ``sweep_dense`` on the kernel's argument
    ``block`` (their Newton iterations, a slice of ``iters``, passed to
    ``solved``) and ``engine.last_x`` follows the last solved point.
    A point plain Newton cannot solve is ``replay(x0)``-ed under its
    own spec of ``element``, from the guess the point loop gives it,
    and the base the ladder's solves overwrote is reloaded.  The caller
    restores ``element.spec``.
    """
    n = len(vals)
    seed = engine.last_x if engine.warm_start_enabled else None
    X[0] = 0.0 if seed is None else seed
    settings = (engine.n_nodes, opts.max_iterations, opts.damping_v,
                opts.reltol, opts.vtol)
    start = 0
    while start < n:
        stop = _ckernel.sweep_dense(block, X, vals, start,
                                    element.branches[0], element.scale,
                                    iters, *settings)
        if stop > start:
            solved(iters[start:stop])
            if engine.warm_start_enabled:
                engine.last_x = X[stop - 1].copy()
        if stop == n:
            return
        element.spec = DcSpec(float(vals[stop]))
        X[stop] = replay(_secant_guess(X[stop - 1] if stop else None,
                                       X[stop - 2] if stop > 1 else None))
        _fill_base(engine, opts.gmin)
        start = stop + 1


def _fill_base(engine: DcEngine, gmin: float) -> None:
    """Fill ``engine.workspace.base`` for the compiled Newton loop: from
    the engine's memo (:meth:`DcEngine.load_base`), else stamped."""
    if engine.load_base(gmin) is None:
        base = engine.workspace.base
        base.clear()
        engine.stamp_base(base)
        base.add_gmin(engine.n_nodes, gmin)


@dataclass(frozen=True)
class SweepPlan:
    """One DC sweep per die for :func:`operating_point_dies`: voltage
    source ``source`` steps through ``values`` as :func:`dc_sweep`
    steps it, and ``reduce`` maps the ``(len(nodes), len(values))``
    voltages of ``nodes`` (what :func:`sweep_voltages` reads) to the
    die's value.

    ``circuit`` is the circuit the sweep runs on when it is not the
    die's own: a probe built on the die's MOSFETs (None: the die's).
    A probe's sweep stays out of the warm-start chain, as a sweep on a
    circuit outside :func:`warm_start` does: every die's first point
    starts from zero, and no solution seeds the next solve.  ``held``
    names sources set to DC levels for the whole loop, as a
    measurement that sets them around each sweep would."""

    source: str
    values: np.ndarray
    nodes: Tuple[str, ...]
    reduce: Callable[[np.ndarray], float]
    circuit: Optional[Circuit] = None
    held: Tuple[Tuple[str, float], ...] = ()


@dataclass(frozen=True)
class TransientPlan:
    """One transient per die for :func:`operating_point_dies`: the
    die's :func:`~repro.circuit.transient.transient` from its operating
    point to ``t_stop`` in grid steps of ``dt``, with ``method``,
    ``lte_rtol`` and ``max_step_halvings`` as that function takes them;
    ``reduce`` maps the ``(len(nodes), steps + 1)`` voltages of
    ``nodes`` over the grid to the die's value."""

    t_stop: float
    dt: float
    method: str
    lte_rtol: Optional[float]
    max_step_halvings: int
    nodes: Tuple[str, ...]
    reduce: Callable[[np.ndarray], float]


class _DieSweep:
    """A :class:`SweepPlan` bound to a circuit: the source, its spec as
    the chunk found it, the node indices and the buffers each die's
    sweep reuses."""

    __slots__ = ("element", "spec", "values", "index", "reduce", "cold",
                 "X", "iters")

    def __init__(self, circuit: Circuit, plan: SweepPlan):
        self.element = circuit[plan.source]
        self.spec = self.element.spec
        self.values = np.ascontiguousarray(plan.values, dtype=np.float64)
        self.index = [circuit.node(name) for name in plan.nodes]
        self.reduce = plan.reduce
        # The per-die path warm-starts only the die's own circuit, so
        # a probe's sweeps start from zero.
        self.cold = plan.circuit is not None
        self.X = np.zeros((len(self.values), circuit.n_unknowns))
        self.iters = np.zeros(len(self.values), dtype=np.int64)


def operating_point_dies(circuit: Circuit, n_dies: int,
                         prepare: Callable[[int], None],
                         plans: Sequence[Union[str, SweepPlan,
                                               TransientPlan]],
                         quarantine: Callable[[int, int, Exception], None]
                         ) -> Optional[Tuple[np.ndarray, List[float]]]:
    """The values of ``n_dies`` dies of ``circuit``, solved in one loop
    around the compiled Newton kernel.

    Each entry of ``plans`` is one spec, of one of three kinds: a node
    name (one operating point, that node's voltage), a
    :class:`SweepPlan` (one DC sweep, reduced to a value) or a
    :class:`TransientPlan` (one transient from the die's operating
    point, reduced to a value), every one solved on ``circuit`` (a
    plan's own ``circuit`` is the caller's to resolve).  The loop gives
    the bits, errors and ``solver.dc.*``/``solver.transient.*`` metrics
    of a per-die loop that, inside :func:`warm_start`, calls
    ``prepare(k)`` and then, per plan,
    ``dc_operating_point(circuit).voltage(node)``,
    ``plan.reduce(sweep_voltages(dc_sweep(circuit, plan.source,
    plan.values), plan.nodes))`` (with the plan's ``held`` sources set
    around it and, for a plan on a probe circuit, warm starting off) or
    ``transient(circuit, plan.t_stop, plan.dt, ...)`` reduced over the
    node voltages of its grid.
    The ``held`` sources are set once, for the whole loop, and
    restored when it ends, whatever ends it.  ``prepare(k)`` turns the circuit
    into die ``k`` and may change only the MOSFETs' variation (what
    :meth:`MosfetGroup.refresh` re-reads): the base system is stamped
    once, not per die.

    Per operating point the loop runs one ``newton_dense`` call from
    the last converged solution; per sweep, one ``sweep_dense`` call
    whose first point starts from it, as :func:`_compiled_sweep` does;
    per transient, that operating point, then one ``transient_dense``
    call from it, on the step tape and grid buffers bound once per
    chunk (:func:`repro.circuit.transient.die_transient`).  The
    transient kernel rewrites the workspace base, so the base is
    reloaded before the next solve.  A solve or point plain Newton
    cannot finish is replayed through the full ladder from the same
    guess, a step the transient kernel rejects through the Python step
    loop (:func:`repro.circuit.transient._kernel_steps`), and the loop
    resumes from the last good solution; an error (a replay that
    raises, a step rejected at the halving limit, a ``reduce`` that
    finds no value) goes to ``quarantine(k, j, exc)`` (plan ``j`` of
    die ``k``), which may raise in turn.  The kernel's argument block
    is fetched once per die, after its refresh: a params swap seen by
    the refresh rebinds it.

    Returns ``(values, durations)``: ``values[j, k]`` is plan ``j``'s
    value on die ``k`` (NaN where quarantined), ``durations`` the wall
    time of each die [s].  Returns None, having run nothing, when the
    compiled loop cannot serve the circuit, a node, a swept voltage
    source or a held source is unknown, a transient plan is one
    :func:`~repro.circuit.transient.transient` refuses or the compiled
    step loop cannot take, or the active telemetry session keeps span
    records (a trace wants each die's spans); the caller's per-die loop
    then serves.

    Telemetry is folded once, at the end: the solver metrics, and the
    span totals a per-die loop's ``sample`` → ``analysis`` →
    ``solve.dc``/``solve.dc.sweep``/``solve.transient`` spans would
    leave, under the current span.
    """
    session = telemetry.active()
    if session is not None and session.tracer.keeps_records:
        return None
    circuit.compile()
    sweep_plans = [plan for plan in plans if type(plan) is SweepPlan]
    try:
        index = [circuit.node(plan) if type(plan) is str else -1
                 for plan in plans]
        if not all(isinstance(circuit[plan.source], VoltageSource)
                   and len(plan.values) for plan in sweep_plans):
            return None
        sweeps = [_DieSweep(circuit, plan) if type(plan) is SweepPlan
                  else None for plan in plans]
        held = [(circuit[name], DcSpec(level)) for plan in sweep_plans
                for name, level in plan.held]
    except KeyError:
        return None
    opts = NewtonOptions()
    gmin = opts.gmin
    with _holding(held), warm_start(circuit) as engine:
        group = engine.newton_group
        if group is None:
            return None
        _fill_base(engine, gmin)
        ws = engine.workspace
        if group.newton_args(ws) is None:
            return None
        transients = [None] * len(plans)
        if any(type(plan) is TransientPlan for plan in plans):
            # deferred: cyclic import
            from repro.circuit.transient import die_transient

            for j, plan in enumerate(plans):
                if type(plan) is TransientPlan:
                    transients[j] = die_transient(circuit, engine, plan,
                                                  opts)
                    if transients[j] is None:
                        return None
        metrics = session.metrics if session is not None else None
        solve = _ckernel.newton_dense
        converged = _ckernel.NEWTON_CONVERGED
        settings = (engine.n_nodes, opts.max_iterations, opts.damping_v,
                    opts.reltol, opts.vtol)
        clock = time.perf_counter
        values = np.full((len(plans), n_dies), np.nan)
        x, spare = np.empty(engine.size), np.empty(engine.size)
        last: Optional[np.ndarray] = None
        # The base must be reloaded before the next kernel solve (a
        # sweep replayed a point under another spec of its source), or
        # before the next operating point (a kernel sweep rewrote the
        # source's row of the base).  A transient rewrites all of it
        # and reloads it at once, from the memo.
        stale = swept = False
        iterations: List[int] = []
        sweep_iterations: List[np.ndarray] = []
        die_s: List[float] = []
        analysis_s: List[float] = []
        solve_s: List[float] = []   # solve.dc spans under analysis
        sweep_s: List[float] = []   # solve.dc.sweep spans
        point_s: List[float] = []   # replayed points, in a sweep span
        transient_s: List[float] = []  # solve.transient spans

        def replay(x0: Optional[np.ndarray]) -> np.ndarray:
            t_point = clock()
            try:
                return _recorded_ladder(circuit, x0, None, engine,
                                        metrics)[0].x
            finally:
                point_s.append(clock() - t_point)

        def keep_iterations(iters: np.ndarray) -> None:
            sweep_iterations.append(iters.copy())

        for k in range(n_dies):
            t_die = clock()
            prepare(k)
            group.refresh()
            # After the refresh, which rebinds the block on a params
            # swap.
            block = group.newton_args(ws)
            t_end = clock()
            for j, sweep in enumerate(sweeps):
                t_start = t_end
                if stale or (swept and sweep is None):
                    _fill_base(engine, gmin)
                    stale = swept = False
                if sweep is not None:
                    element = sweep.element
                    cold = sweep.cold
                    engine.last_x = None if cold else last
                    error = None
                    try:
                        _sweep_points(engine, block, element, sweep.X,
                                      sweep.values, sweep.iters, opts,
                                      replay, keep_iterations)
                    except Exception as exc:
                        error = exc
                    finally:
                        if not cold:
                            last = engine.last_x
                        if element.spec is not sweep.spec:
                            # A replayed point.
                            stale = True
                            element.spec = sweep.spec
                    swept = True
                    sweep_s.append(clock() - t_start)
                    if error is None:
                        try:
                            values[j, k] = sweep.reduce(
                                _node_columns(sweep.X, sweep.index))
                        except Exception as exc:
                            error = exc
                    if error is not None:
                        quarantine(k, j, error)
                    t_end = clock()
                    analysis_s.append(t_end - t_start)
                    continue
                if last is None:
                    x.fill(0.0)
                else:
                    np.copyto(x, last)
                if solve(block, x, *settings) == converged:
                    iterations.append(block.iterations)
                    # Keep the solution; the other buffer is scratch.
                    x, last = (spare if last is None else last), x
                    solved = last
                else:
                    engine.last_x = last
                    try:
                        solved = _recorded_ladder(circuit, None, None,
                                                  engine, metrics)[0].x
                        last = engine.last_x
                    except Exception as exc:
                        solved = None
                        quarantine(k, j, exc)
                    # The ladder's own solves overwrote the base.
                    _fill_base(engine, gmin)
                t_solved = clock()
                solve_s.append(t_solved - t_start)
                die_run = transients[j]
                if solved is None:
                    pass
                elif die_run is None:
                    node_index = index[j]
                    values[j, k] = solved[node_index] \
                        if node_index >= 0 else 0.0
                else:
                    error = None
                    try:
                        die_run.integrate(block, solved)
                    except Exception as exc:
                        error = exc
                    engine.reload_base()
                    transient_s.append(clock() - t_solved)
                    if error is None:
                        try:
                            values[j, k] = die_run.value()
                        except Exception as exc:
                            error = exc
                    if error is not None:
                        quarantine(k, j, error)
                t_end = clock()
                analysis_s.append(t_end - t_start)
            die_s.append(t_end - t_die)
    if session is not None and die_s:
        if iterations or sweep_iterations:
            _record_kernel_solves(metrics, np.concatenate(
                [np.array(iterations, dtype=np.int64)]
                + sweep_iterations))
        for die_run in transients:
            if die_run is not None:
                die_run.record(metrics)
        totals = {"sample": _span_total(die_s, analysis_s),
                  "analysis": _span_total(
                      analysis_s, solve_s + sweep_s + transient_s)}
        if solve_s or point_s:
            totals["solve.dc"] = _span_total(solve_s + point_s, ())
        if sweep_s:
            totals["solve.dc.sweep"] = _span_total(sweep_s, point_s)
        if transient_s:
            totals["solve.transient"] = _span_total(transient_s, ())
        session.tracer.absorb(totals, die_s, telemetry.current_span())
    return values, die_s


@contextmanager
def _holding(held: Sequence[Tuple[VoltageSource, DcSpec]]):
    """Set each ``(source, spec)`` of ``held`` for the block, restoring
    the specs it found when the block ends."""
    found = [(element, element.spec) for element, _spec in held]
    try:
        for element, spec in held:
            element.spec = spec
        yield
    finally:
        for element, spec in reversed(found):
            element.spec = spec


def _span_total(durations: List[float], children: Iterable[float]) -> dict:
    """The :meth:`telemetry.Tracer.totals` entry of spans that lasted
    ``durations`` and had children lasting ``children``."""
    total = sum(durations)
    return {"count": len(durations), "total_s": total,
            "self_s": max(total - sum(children), 0.0),
            "max_s": max(durations)}


def _record_kernel_solves(metrics, iterations: np.ndarray) -> int:
    """The ``solver.dc.*`` metrics :func:`dc_operating_point` records
    for each of these plain-Newton compiled solves, in one go: the
    iteration histogram takes each distinct count once, with its
    multiplicity.  Returns the iterations' total."""
    count = len(iterations)
    tally = np.bincount(iterations)
    distinct = tally.nonzero()[0]
    folded = list(zip(distinct.tolist(), tally[distinct].tolist()))
    total = sum([value * times for value, times in folded])
    metrics.update(
        [("solver.dc.solves", count),
         ("solver.dc.strategy.newton", count),
         ("solver.factorizations", total),
         ("solver.dc.kernel.compiled", count)],
        "solver.dc.newton_iterations", folded, telemetry.ITERATION_BUCKETS)
    return total
