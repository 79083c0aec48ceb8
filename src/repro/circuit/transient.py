"""Fixed-step transient analysis with bounded step recovery.

Integration methods: trapezoidal (default — accurate for the sinusoidal
EMC experiments) and backward Euler (L-stable, useful for stiff switching
circuits).  Each timestep is a damped Newton solve of the companion-model
system; charge-storage elements keep their history in per-element state
dicts managed here.

The output grid is fixed, which keeps results deterministic and
reproducible (the benchmark harness relies on it).  Robustness comes
from *internal* sub-stepping: a grid step whose Newton solve fails — or,
with ``lte_rtol`` set, whose local-truncation-error proxy is too large —
is retried as two half steps, recursively, down to
``dt / 2**max_step_halvings``.  Exhausting the halving budget raises a
:class:`~repro.circuit.mna.ConvergenceError` carrying a transient
:class:`~repro.circuit.mna.ConvergenceReport` (failure time, halving
depth, worst node/device).

Choose ``dt`` ≤ 1/50 of the fastest signal period; the EMC helpers in
:mod:`repro.core.emc_analysis` do this automatically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.circuit import _ckernel
from repro.circuit.dc import (
    DcSolution,
    NewtonOptions,
    NewtonStats,
    TransientPlan,
    _node_columns,
    dc_engine,
    dc_operating_point,
    label_unknown,
    newton_solve,
)
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.circuit.mna import (
    ConvergenceError,
    ConvergenceReport,
    Stamper,
    StrategyAttempt,
)
from repro.circuit.mosfet import Mosfet
from repro.circuit.netlist import Circuit
from repro.circuit.waveform import Waveform

_METHODS = ("trapezoidal", "backward_euler")

#: Default bound on recursive step halvings when a grid step rejects.
DEFAULT_MAX_STEP_HALVINGS = 4


@dataclass
class TransientResult:
    """Sampled node voltages and branch currents over time."""

    circuit: Circuit
    times: np.ndarray
    """Sample instants [s], including t = 0."""

    states: np.ndarray
    """Solution matrix, shape ``(len(times), n_unknowns)``."""

    def voltage(self, node_name: str) -> Waveform:
        """Waveform of a node voltage."""
        idx = self.circuit.node(node_name)
        if idx < 0:
            return Waveform(self.times, np.zeros_like(self.times))
        return Waveform(self.times, self.states[:, idx])

    def differential(self, node_plus: str, node_minus: str) -> Waveform:
        """Waveform of ``v(node_plus) − v(node_minus)``."""
        return self.voltage(node_plus) - self.voltage(node_minus)

    def source_current(self, source_name: str) -> Waveform:
        """Branch-current waveform of a voltage source (n+ → n-)."""
        element = self.circuit[source_name]
        if not isinstance(element, VoltageSource):
            raise TypeError(f"{source_name!r} is not a voltage source")
        return Waveform(self.times, self.states[:, element.branches[0]])

    def device_bias(self, device_name: str) -> Dict[str, Waveform]:
        """``{"vgs", "vds", "vbs", "ids"}`` waveforms of a MOSFET.

        This is the input of the waveform-driven stress extraction
        (paper §3: degradation depends on the applied voltages).
        """
        element = self.circuit[device_name]
        if not isinstance(element, Mosfet):
            raise TypeError(f"{device_name!r} is not a MOSFET")
        d, g, s, b = element.nodes

        def node_col(idx: int) -> np.ndarray:
            if idx < 0:
                return np.zeros(len(self.times))
            return self.states[:, idx]

        vd, vg, vs, vb = (node_col(i) for i in (d, g, s, b))
        vgs, vds, vbs = vg - vs, vd - vs, vb - vs
        # One vectorized model call over the whole record instead of a
        # Python-level evaluation per timestep.
        ids = element.drain_current_batch(vgs, vds, vbs)
        return {
            "vgs": Waveform(self.times, vgs),
            "vds": Waveform(self.times, vds),
            "vbs": Waveform(self.times, vbs),
            "ids": Waveform(self.times, ids),
        }


def _validate_transient_args(t_stop: float, dt: float, method: str,
                             max_step_halvings: int) -> None:
    """Reject bad arguments before any solve work happens.

    Shared by :func:`transient` (which validates *before* solving the
    initial operating point, so argument errors never cost a DC solve)
    and :func:`_transient_impl` (for direct callers).
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if dt <= 0.0 or t_stop <= 0.0:
        raise ValueError("t_stop and dt must be positive")
    if dt > t_stop:
        raise ValueError("dt exceeds t_stop")
    # The output grid is n·dt: a t_stop between grid points would end
    # the run silently at the nearest one instead.
    if abs(round(t_stop / dt) * dt - t_stop) > 1e-9 * t_stop:
        raise ValueError(f"t_stop={t_stop:g}s is not a whole number of "
                         f"dt={dt:g}s steps")
    if max_step_halvings < 0:
        raise ValueError("max_step_halvings must be non-negative")


class _Slot:
    """A per-step value of the stamp tape: value slot ``slot`` times
    ``sign`` (negation flips the sign, as stamps negate values)."""

    __slots__ = ("slot", "sign")

    def __init__(self, slot: int, sign: float = 1.0):
        self.slot = slot
        self.sign = sign

    def __neg__(self) -> "_Slot":
        return _Slot(self.slot, -self.sign)


class _TapeRecorder:
    """Stamper lookalike that records a step's base system as a stamp
    tape: where each stamp lands (a flat index into ``A``, then ``b``),
    which value slot it adds and with which sign.  Plain numbers get a
    constant slot each; :class:`_Slot` values are the per-step ones.
    The composite stamps are :class:`Stamper`'s own, so element stamps
    land exactly where they would in the real base."""

    conductance = Stamper.conductance
    current = Stamper.current
    branch_voltage = Stamper.branch_voltage

    def __init__(self, size: int, n_dynamic: int):
        self.size = size
        self.index: List[int] = []
        self.slot: List[int] = []
        self.sign: List[float] = []
        self.values: List[float] = [0.0] * n_dynamic

    def _add(self, index: int, value) -> None:
        if not isinstance(value, _Slot):
            self.values.append(float(value))
            value = _Slot(len(self.values) - 1)
        self.index.append(index)
        self.slot.append(value.slot)
        self.sign.append(value.sign)

    def matrix(self, row: int, col: int, value) -> None:
        if row >= 0 and col >= 0:
            self._add(row * self.size + col, value)

    def rhs(self, row: int, value) -> None:
        if row >= 0:
            self._add(self.size * self.size + row, value)

    def add_gmin(self, n_nodes: int, gmin: float) -> None:
        for node in range(n_nodes):
            self.matrix(node, node, gmin)


class _StepTape:
    """The per-transient input of the compiled step loop
    (:func:`repro.circuit._ckernel.transient_dense`): the stamp tape of
    the base system, the capacitor history and the source values of
    every grid time.

    The tape records the linear elements in element order, then the
    gate leaks, then gmin — the order in which ``stamp_base`` and
    ``add_gmin`` sum into each base entry.  Source values are
    precomputed with each source's own ``source_value(t)`` at the grid
    times the Python loop stamps them at.

    Only the capacitor history belongs to one transient: the DC engine
    keeps its last tape (``DcEngine.step_tape``) under ``key``, and a
    transient with an equal key rebinds it (:meth:`bind`) instead of
    recording a new one (see :func:`_step_tape`)."""

    def __init__(self, key, linear_pairs, group, size: int, n_nodes: int,
                 gmin: float, n_steps: int, dt: float, method: str,
                 lte_rtol: Optional[float], max_step_halvings: int):
        self.key = key
        self.caps = [(e, s) for e, s in linear_pairs
                     if type(e) is Capacitor]
        sources = [e for e, _ in linear_pairs
                   if type(e) in (VoltageSource, CurrentSource)]
        n_caps = len(self.caps)
        rec = _TapeRecorder(size, 2 * n_caps + len(sources))
        n_cap = n_source = 0
        for element, state in linear_pairs:
            kind = type(element)
            if kind is Capacitor:
                element._stamp_companion(rec, _Slot(2 * n_cap),
                                         _Slot(2 * n_cap + 1))
                n_cap += 1
            elif kind is Resistor:
                element.stamp_transient(rec, _NO_X, state, 0.0, dt, method)
            else:
                element._stamp(rec, _Slot(2 * n_caps + n_source))
                n_source += 1
        if group is not None:
            group.stamp_gate_leaks(rec)
        rec.add_gmin(n_nodes, gmin)
        self.source_values = np.zeros((n_steps + 1, len(sources)))
        for step in range(1, n_steps + 1):
            t = step * dt  # the Python float the step loop stamps at
            self.source_values[step] = [e.source_value(t) for e in sources]
        self.index = np.array(rec.index, dtype=np.int64)
        self.slot = np.array(rec.slot, dtype=np.int64)
        self.sign = np.array(rec.sign)
        self.value = np.array(rec.values)
        nodes = np.array([e.nodes for e, _ in self.caps],
                         dtype=np.int64).reshape(n_caps, 2)
        self.cap_plus = np.ascontiguousarray(nodes[:, 0])
        self.cap_minus = np.ascontiguousarray(nodes[:, 1])
        self.cap_c = np.array([e.capacitance for e, _ in self.caps])
        self.cap_v = np.zeros(n_caps)
        self.cap_i = np.zeros(n_caps)
        self.load()
        check_lte = lte_rtol is not None and max_step_halvings > 0
        tape = (self.index, self.slot, self.sign, self.value)
        caps = (self.cap_plus, self.cap_minus, self.cap_c, self.cap_v,
                self.cap_i)
        self.args = _ckernel.TransientArgs(
            len(self.index), *map(_ckernel.address, tape),
            n_caps, *map(_ckernel.address, caps),
            len(sources), _ckernel.address(self.source_values), dt,
            lte_rtol if check_lte else 0.0, method == "trapezoidal",
            check_lte)

    def bind(self, linear_pairs) -> None:
        """Take the capacitor history of another transient's state
        dicts (same elements, in the same order)."""
        self.caps = [(e, s) for e, s in linear_pairs
                     if type(e) is Capacitor]
        self.load()

    def load(self) -> None:
        """Read the capacitor history from the element state dicts."""
        for k, (_, state) in enumerate(self.caps):
            self.cap_v[k] = state["v"]
            self.cap_i[k] = state["i"]

    def store(self) -> None:
        """Write the capacitor history back into the element state
        dicts, for a step the Python loop replays."""
        for k, (_, state) in enumerate(self.caps):
            state["v"] = float(self.cap_v[k])
            state["i"] = float(self.cap_i[k])

    def seed(self, x: np.ndarray) -> None:
        """Start the capacitor history at the operating point ``x``, as
        a new transient's ``init_state`` calls and :meth:`bind` do.  The
        capacitors are the only elements of a taped transient that keep
        history (the rest are R/V/I elements and MOSFETs)."""
        for element, state in self.caps:
            element.init_state(x, state)
        self.load()


_NO_X = np.zeros(0)


def _step_tape(engine, linear_pairs, group, gmin: float, n_steps: int,
               dt: float, method: str, lte_rtol: Optional[float],
               max_step_halvings: int) -> Optional[_StepTape]:
    """The step tape of this transient, or None when the engine's linear
    elements are not all exactly R/C/V/I (``DcEngine.linear_key``).

    The engine's last tape is rebound when its key — the transient's
    arguments plus the live values the tape reads — is unchanged, as it
    is between Monte-Carlo dies that change only MOSFET parameters;
    otherwise a new tape is recorded and kept."""
    live = engine.linear_key()
    if live is None:
        return None
    key = (n_steps, dt, method, lte_rtol, max_step_halvings, gmin, live)
    tape = engine.step_tape
    if tape is not None and tape.key == key:
        tape.bind(linear_pairs)
        return tape
    engine.step_tape = None  # a failed recording leaves no stale tape
    tape = _StepTape(key, linear_pairs, group, engine.size, engine.n_nodes,
                     gmin, n_steps, dt, method, lte_rtol, max_step_halvings)
    engine.step_tape = tape
    session = telemetry.active()
    if session is not None:
        session.metrics.inc("solver.transient.tape_builds")
    return tape


def _no_rejections() -> Dict[str, int]:
    """A transient's rejection tally before its first step: Newton and
    LTE rejections, and the deepest halving."""
    return {"newton": 0, "lte": 0, "max_depth": 0}


class _StepReplay:
    """The Python step loop of one circuit's transients: a grid step
    through :meth:`advance` (the seeded Newton solve and its unseeded
    retry, the LTE check, recursive halving and the step-failure
    report), on the element state dicts it owns.

    :func:`_transient_impl` runs every grid step through it when the
    compiled step loop cannot serve, and :func:`_kernel_steps` replays
    each step the kernel rejects through it — for :func:`transient` and
    for the die loop of :func:`repro.circuit.dc.operating_point_dies`
    alike.  ``rejections`` tallies the current transient's rejections
    (:func:`_no_rejections` restarts it)."""

    def __init__(self, circuit: Circuit, engine, dt: float, method: str,
                 opts: NewtonOptions, max_step_halvings: int,
                 lte_rtol: Optional[float]):
        self.circuit = circuit
        self.dt = dt
        self.method = method
        self.opts = opts
        self.max_step_halvings = max_step_halvings
        self.lte_rtol = lte_rtol
        self.size = engine.size
        self.n_nodes = engine.n_nodes
        self.ws = engine.workspace
        pairs = [(element, {}) for element in circuit.elements]
        self.pairs = pairs
        # Partition once: solution-independent companions are stamped
        # once per STEP (into the reusable base system), MOSFET channels
        # go through the vectorized group each Newton iteration.  Stamp
        # order inside a step matches the DC engine: linear, gate
        # leaks, channels.
        self.group = engine.mosfet_group
        self.linear_pairs = [(e, s) for e, s in pairs if not e.nonlinear]
        self.other_pairs = [(e, s) for e, s in pairs
                            if e.nonlinear and not isinstance(e, Mosfet)]
        # Set when the channels are the only per-iteration stamps (no
        # other_pairs): the compiled Newton loop then runs each step
        # solve.
        self.newton_group = engine.newton_group
        self.stats = NewtonStats()
        self.rejections = _no_rejections()

    def init(self, x: np.ndarray) -> None:
        """Start every element's history at the operating point ``x``."""
        for element, state in self.pairs:
            element.init_state(x, state)

    def solve_step(self, x_from: np.ndarray, t_to: float, dt_loc: float,
                   x_seed: Optional[np.ndarray] = None) -> np.ndarray:
        """One companion-model Newton solve over [t_to - dt_loc, t_to].

        ``x_seed`` (the two-point extrapolation of the last grid steps)
        starts Newton closer to the solution than ``x_from`` does on
        smooth waveforms — typically saving an iteration per step.  A
        seeded solve that fails retries once from ``x_from`` before the
        step is rejected, so a bad extrapolation can never make a step
        fail that would have converged before.
        """
        linear_pairs, other_pairs = self.linear_pairs, self.other_pairs
        group, method = self.group, self.method

        def stamp_base(st: Stamper) -> None:
            # linear companions read state, never the guess
            for element, state in linear_pairs:
                element.stamp_transient(st, x_from, state, t_to, dt_loc,
                                        method)
            if group is not None:
                group.stamp_gate_leaks(st)

        def stamp(st: Stamper, x_guess: np.ndarray) -> None:
            if group is not None:
                group.stamp(st, x_guess)
            for element, state in other_pairs:
                element.stamp_transient(st, x_guess, state, t_to, dt_loc,
                                        method)

        if x_seed is not None:
            try:
                return newton_solve(stamp, self.size, self.n_nodes,
                                    x0=x_seed, options=self.opts,
                                    workspace=self.ws,
                                    stamp_base=stamp_base, stats=self.stats,
                                    group=self.newton_group)
            except ConvergenceError:
                pass
        return newton_solve(stamp, self.size, self.n_nodes, x0=x_from,
                            options=self.opts, workspace=self.ws,
                            stamp_base=stamp_base, stats=self.stats,
                            group=self.newton_group)

    def step_fail(self, t_at: float, depth: int, exc: ConvergenceError
                  ) -> ConvergenceError:
        """The error of a step rejected ``depth`` halvings deep."""
        halvings = self.max_step_halvings
        iterations = self.stats.iterations
        worst_unknown, worst_device = label_unknown(self.circuit,
                                                    exc.worst_index)
        report = ConvergenceReport(
            analysis="transient",
            strategies=[StrategyAttempt(
                name="step-halving", iterations=iterations,
                converged=False, final_residual=exc.final_residual,
                detail=f"t={t_at:.6g}s, depth {depth}/{halvings}, "
                       f"dt={self.dt / 2 ** depth:.3g}s")],
            worst_unknown=worst_unknown, worst_device=worst_device,
            message=f"transient step at t={t_at:.6g}s rejected "
                    f"{halvings} halvings deep")
        return ConvergenceError(report.summary(), report=report,
                                iterations=iterations,
                                final_residual=exc.final_residual,
                                worst_index=exc.worst_index)

    def advance(self, x_from: np.ndarray, t0: float, t1: float, depth: int,
                check_lte: bool, x_predicted: Optional[np.ndarray]
                ) -> np.ndarray:
        """Advance [t0, t1], halving on rejection; commits element state."""
        rejections = self.rejections
        n_nodes = self.n_nodes
        dt_loc = t1 - t0
        try:
            x_new = self.solve_step(x_from, t1, dt_loc, x_predicted)
        except ConvergenceError as exc:
            if depth >= self.max_step_halvings:
                raise self.step_fail(t1, depth, exc) from exc
            x_new = None
            rejections["newton"] += 1
        if x_new is not None and check_lte and x_predicted is not None \
                and depth < self.max_step_halvings:
            # LTE proxy: deviation of the accepted solution from the
            # two-point linear predictor, relative to the node scale.
            scale = np.maximum(np.abs(x_new[:n_nodes]), 1.0)
            lte = float(np.max(np.abs(x_new[:n_nodes]
                                      - x_predicted[:n_nodes]) / scale))
            if not lte <= self.lte_rtol:  # NaN rejects too
                x_new = None
                rejections["lte"] += 1
        if x_new is None:
            rejections["max_depth"] = max(rejections["max_depth"], depth + 1)
            # Reject: integrate the same interval as two half steps.
            # Sub-steps skip the LTE check — halving is the remedy, and
            # skipping guarantees termination within the depth bound.
            t_mid = 0.5 * (t0 + t1)
            x_mid = self.advance(x_from, t0, t_mid, depth + 1, False, None)
            return self.advance(x_mid, t_mid, t1, depth + 1, False, None)
        for element, state in self.pairs:
            element.update_state(x_new, state, t1, dt_loc, self.method)
        return x_new

    def step(self, states: np.ndarray, iterations: np.ndarray,
             step: int) -> None:
        """Grid step ``step`` through :meth:`advance`, from the rows of
        ``states`` before it; its Newton iterations go to
        ``iterations[step]``."""
        dt = self.dt
        t = step * dt
        x_from = states[step - 1]
        # Two-point linear extrapolation: the Newton seed for the step
        # and (with lte_rtol) the LTE reference.
        predicted = None
        if step >= 2:
            predicted = 2.0 * x_from - states[step - 2]
        self.stats.iterations = 0
        states[step] = self.advance(x_from, t - dt, t, 0,
                                    self.lte_rtol is not None, predicted)
        iterations[step] = self.stats.iterations


def _kernel_steps(block, tape: _StepTape, replay: _StepReplay,
                  states: np.ndarray, iterations: np.ndarray) -> int:
    """Grid steps 1.. of ``states`` in the compiled step loop, from row
    0 and the tape's capacitor history; returns how many steps were
    replayed.

    A step the kernel rejects is replayed through ``replay`` (retries,
    halving, errors) from the kernel's state — the capacitor history
    handed over through the element state dicts — and the kernel
    resumes after it.  :func:`_transient_impl` and the die loop both
    run their kernel transients through here."""
    n_steps = len(states) - 1
    n_nodes = replay.n_nodes
    opts = replay.opts
    fallback_steps = 0
    start = 1
    while start <= n_steps:
        stop = _ckernel.transient_dense(
            block, tape.args, states, start, iterations, n_nodes,
            opts.max_iterations, opts.damping_v, opts.reltol, opts.vtol)
        if stop > n_steps:
            break
        tape.store()
        replay.step(states, iterations, stop)
        tape.load()
        fallback_steps += 1
        start = stop + 1
    return fallback_steps


class _DieTransient:
    """A :class:`~repro.circuit.dc.TransientPlan` bound to a circuit for
    the die loop of :func:`repro.circuit.dc.operating_point_dies`: the
    step replay and tape, the grid buffers every die's transient reuses,
    the node indices, and the chunk's tallies of the
    ``solver.transient.*`` metrics :func:`transient` records per die.
    Build with :func:`die_transient`."""

    def __init__(self, circuit: Circuit, engine, plan: TransientPlan,
                 opts: NewtonOptions):
        _validate_transient_args(plan.t_stop, plan.dt, plan.method,
                                 plan.max_step_halvings)
        self.index = [circuit.node(name) for name in plan.nodes]
        self.reduce = plan.reduce
        n_steps = int(round(plan.t_stop / plan.dt))
        self.replay = _StepReplay(circuit, engine, plan.dt, plan.method,
                                  opts, plan.max_step_halvings,
                                  plan.lte_rtol)
        # The tape reads the history once as it binds; every die seeds
        # its own.
        self.replay.init(np.zeros(engine.size))
        self.tape = None if opts.gmin < 0.0 else _step_tape(
            engine, self.replay.linear_pairs, engine.mosfet_group,
            opts.gmin, n_steps, plan.dt, plan.method, plan.lte_rtol,
            plan.max_step_halvings)
        self.states = np.empty((n_steps + 1, engine.size))
        self.iterations = np.zeros(n_steps + 1, dtype=np.int64)
        self.failures = 0
        self.totals: List[int] = []  # Newton iterations per transient
        self.rejected = self.lte_rejected = 0

    def integrate(self, block, x: np.ndarray) -> None:
        """The die's transient from its operating point ``x`` on the
        kernel's argument ``block``: row 0 and the capacitor history
        from ``x``, one :func:`_kernel_steps`.  Raises what
        :func:`transient` raises; the kernel leaves the workspace base
        rewritten."""
        states = self.states
        states[0] = x
        tape = self.tape
        tape.seed(x)
        replay = self.replay
        replay.rejections = rejections = _no_rejections()
        try:
            _kernel_steps(block, tape, replay, states, self.iterations)
        except ConvergenceError:
            self.failures += 1
            raise
        self.totals.append(int(self.iterations.sum()))
        self.rejected += rejections["newton"] + rejections["lte"]
        self.lte_rejected += rejections["lte"]

    def value(self) -> float:
        """The plan's reduction of the last transient's node voltages."""
        return self.reduce(_node_columns(self.states, self.index))

    def record(self, metrics: telemetry.MetricsRegistry) -> None:
        """The ``solver.transient.*`` metrics (and the transients' share
        of ``solver.factorizations``) of the chunk's transients, in one
        update: what :func:`transient` records per transient."""
        passed = len(self.totals)
        if not passed + self.failures:
            return
        counters = [("solver.transient.solves", passed + self.failures)]
        if self.failures:
            counters.append(("solver.transient.failures", self.failures))
        if not passed:
            metrics.update(counters)
            return
        counters += [
            ("solver.transient.kernel.compiled", passed),
            ("solver.transient.steps", (len(self.states) - 1) * passed),
            ("solver.transient.step_rejections", self.rejected),
            ("solver.transient.lte_rejections", self.lte_rejected),
            ("solver.factorizations", sum(self.totals))]
        folded = sorted(Counter(self.totals).items())
        metrics.update(counters, "solver.transient.newton_iterations",
                       folded, telemetry.ITERATION_BUCKETS)


def die_transient(circuit: Circuit, engine, plan: TransientPlan,
                  opts: NewtonOptions) -> Optional[_DieTransient]:
    """``plan`` bound to ``circuit`` (whose :func:`dc_engine` is
    ``engine``) for the die loop, or None when the loop cannot serve it:
    arguments :func:`transient` refuses, an unknown node, or a circuit
    the compiled step loop does not take (no step tape)."""
    try:
        bound = _DieTransient(circuit, engine, plan, opts)
    except (KeyError, ValueError):
        return None
    return bound if bound.tape is not None else None


def _transient_impl(circuit: Circuit, t_stop: float, dt: float,
                    method: str = "trapezoidal",
                    initial_op: Optional[DcSolution] = None,
                    options: Optional[NewtonOptions] = None,
                    max_step_halvings: int = DEFAULT_MAX_STEP_HALVINGS,
                    lte_rtol: Optional[float] = None):
    """Integrate the circuit from its DC operating point to ``t_stop``.

    Sources follow their time-dependent specs; the t = 0 point is the DC
    solution (sources at their DC value), matching SPICE's default
    (no-UIC) behaviour.

    A grid step whose Newton solve fails is retried as two half steps,
    recursively, at most ``max_step_halvings`` deep; the output grid is
    fixed, so runs are deterministic and reproducible.
    With ``lte_rtol`` set, a step whose local-truncation-error proxy
    (deviation from the linear two-point predictor, relative to the
    solution scale) exceeds the tolerance is also halved — rejection by
    accuracy, not just by convergence.  ``lte_rtol=None`` (default)
    disables the accuracy check.

    The Python step loop is :class:`_StepReplay`.  When the compiled
    Newton loop serves the step solves and every linear element is a
    resistor, capacitor or independent source, the grid steps run in
    one call into the compiled kernel (:class:`_StepTape`),
    bit-identical to that loop; a step the kernel rejects is replayed
    through it (:func:`_kernel_steps`, which the die loop of
    :func:`repro.circuit.dc.operating_point_dies` shares).

    Returns ``(result, rejections, iterations, fallback_steps)``;
    ``fallback_steps`` counts the replayed steps, or is ``None`` when
    the Python step loop ran the whole transient.
    """
    _validate_transient_args(t_stop, dt, method, max_step_halvings)

    engine = dc_engine(circuit)
    opts = options if options is not None else NewtonOptions()

    op = initial_op if initial_op is not None else dc_operating_point(circuit, options=opts)
    x = np.array(op.x, dtype=float)

    replay = _StepReplay(circuit, engine, dt, method, opts,
                         max_step_halvings, lte_rtol)
    replay.init(x)
    group = engine.mosfet_group
    if group is not None:
        group.refresh()

    n_steps = int(round(t_stop / dt))
    times = np.arange(n_steps + 1) * dt  # step * dt, as the loop steps
    states = np.empty((n_steps + 1, engine.size))
    states[0] = x
    iterations = np.zeros(n_steps + 1, dtype=np.int64)

    # The compiled step loop serves what the compiled Newton loop serves
    # when the base system is a stamp tape of R/C/V/I elements; the
    # capability is checked once per transient.
    newton_group = engine.newton_group
    block = newton_group.newton_args(engine.workspace) \
        if newton_group is not None else None
    tape = None
    if block is not None and opts.gmin >= 0.0:
        tape = _step_tape(engine, replay.linear_pairs, group, opts.gmin,
                          n_steps, dt, method, lte_rtol, max_step_halvings)
    if tape is None:
        for step in range(1, n_steps + 1):
            replay.step(states, iterations, step)
        fallback_steps = None
    else:
        fallback_steps = _kernel_steps(block, tape, replay, states,
                                       iterations)

    result = TransientResult(circuit=circuit, times=times, states=states)
    return (result, replay.rejections, int(iterations.sum()),
            fallback_steps)


def transient(circuit: Circuit, t_stop: float, dt: float,
              method: str = "trapezoidal",
              initial_op: Optional[DcSolution] = None,
              options: Optional[NewtonOptions] = None,
              max_step_halvings: int = DEFAULT_MAX_STEP_HALVINGS,
              lte_rtol: Optional[float] = None) -> TransientResult:
    """Public transient entry point (see :func:`_transient_impl`).

    With an active :mod:`repro.telemetry` session the integration is
    wrapped in a ``solve.transient`` span (step count, Newton
    iterations, step rejections, deepest halving) and feeds the
    ``solver.transient.*`` metrics.  The initial operating point is
    solved *before* the span opens, so its ``solve.dc`` span (and
    ladder telemetry) appears as a sibling of ``solve.transient``, not
    a child — phase reports attribute DC time to DC solving instead of
    double-counting it inside the integration.  Disabled, this adds a
    single ContextVar read.
    """
    # Validate before the operating-point solve: bad arguments must not
    # cost a DC solve, and must raise in the same order they did when
    # the checks lived inside the integrator.
    _validate_transient_args(t_stop, dt, method, max_step_halvings)
    if initial_op is None:
        initial_op = dc_operating_point(circuit, options=options)
    session = telemetry.active()
    if session is None:
        return _transient_impl(circuit, t_stop, dt, method, initial_op,
                               options, max_step_halvings, lte_rtol)[0]
    with session.tracer.span("solve.transient", t_stop=t_stop, dt=dt,
                             method=method) as sp:
        metrics = session.metrics
        try:
            result, rejections, iterations, fallback_steps = _transient_impl(
                circuit, t_stop, dt, method, initial_op, options,
                max_step_halvings, lte_rtol)
        except ConvergenceError as exc:
            metrics.inc("solver.transient.solves")
            metrics.inc("solver.transient.failures")
            sp.set(status="failed",
                   summary=exc.report.summary() if exc.report is not None
                   else str(exc))
            raise
        n_steps = len(result.times) - 1
        rejected = rejections["newton"] + rejections["lte"]
        sp.set(steps=n_steps, iterations=iterations,
               step_rejections=rejected,
               max_halving_depth=rejections["max_depth"],
               fallback_steps=fallback_steps or 0)
        metrics.inc("solver.transient.solves")
        metrics.inc("solver.transient.kernel." + (
            "python" if fallback_steps is None else "compiled"))
        metrics.inc("solver.transient.steps", n_steps)
        metrics.inc("solver.transient.step_rejections", rejected)
        metrics.inc("solver.transient.lte_rejections", rejections["lte"])
        metrics.inc("solver.factorizations", iterations)
        metrics.observe("solver.transient.newton_iterations", iterations,
                        telemetry.ITERATION_BUCKETS)
        return result
