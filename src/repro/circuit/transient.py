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

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.circuit.dc import (
    DcSolution,
    NewtonOptions,
    NewtonStats,
    dc_engine,
    dc_operating_point,
    label_unknown,
    newton_solve,
)
from repro.circuit.elements import VoltageSource
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
    if max_step_halvings < 0:
        raise ValueError("max_step_halvings must be non-negative")


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
    """
    _validate_transient_args(t_stop, dt, method, max_step_halvings)

    engine = dc_engine(circuit)
    size = engine.size
    n_nodes = engine.n_nodes
    opts = options if options is not None else NewtonOptions()

    op = initial_op if initial_op is not None else dc_operating_point(circuit, options=opts)
    x = np.array(op.x, dtype=float)

    elements = circuit.elements
    element_states: List[dict] = [dict() for _ in elements]
    for element, state in zip(elements, element_states):
        element.init_state(x, state)

    # Partition once: solution-independent companions are stamped once
    # per STEP (into the reusable base system), MOSFET channels go
    # through the vectorized group each Newton iteration.  Stamp order
    # inside a step matches the DC engine: linear, gate leaks, channels.
    group = engine.mosfet_group
    if group is not None:
        group.refresh()
    linear_pairs = [(e, s) for e, s in zip(elements, element_states)
                    if not e.nonlinear]
    other_pairs = [(e, s) for e, s in zip(elements, element_states)
                   if e.nonlinear and not isinstance(e, Mosfet)]
    ws = engine.workspace
    stats = NewtonStats()
    # Set when the channels are the only per-iteration stamps (no
    # other_pairs): the compiled Newton loop then runs each step solve.
    newton_group = engine.newton_group

    def solve_step(x_from: np.ndarray, t_to: float, dt_loc: float,
                   x_seed: Optional[np.ndarray] = None) -> np.ndarray:
        """One companion-model Newton solve over [t_to - dt_loc, t_to].

        ``x_seed`` (the two-point extrapolation of the last grid steps)
        starts Newton closer to the solution than ``x_from`` does on
        smooth waveforms — typically saving an iteration per step.  A
        seeded solve that fails retries once from ``x_from`` before the
        step is rejected, so a bad extrapolation can never make a step
        fail that would have converged before.
        """

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
                return newton_solve(stamp, size, n_nodes, x0=x_seed,
                                    options=opts, workspace=ws,
                                    stamp_base=stamp_base, stats=stats,
                                    group=newton_group)
            except ConvergenceError:
                pass
        return newton_solve(stamp, size, n_nodes, x0=x_from, options=opts,
                            workspace=ws, stamp_base=stamp_base, stats=stats,
                            group=newton_group)

    def commit_states(x_new: np.ndarray, t_to: float, dt_loc: float) -> None:
        for element, state in zip(elements, element_states):
            element.update_state(x_new, state, t_to, dt_loc, method)

    def step_fail(t_at: float, depth: int, exc: ConvergenceError
                  ) -> ConvergenceError:
        worst_unknown, worst_device = label_unknown(circuit, exc.worst_index)
        report = ConvergenceReport(
            analysis="transient",
            strategies=[StrategyAttempt(
                name="step-halving", iterations=stats.iterations,
                converged=False, final_residual=exc.final_residual,
                detail=f"t={t_at:.6g}s, depth {depth}/{max_step_halvings}, "
                       f"dt={dt / 2 ** depth:.3g}s")],
            worst_unknown=worst_unknown, worst_device=worst_device,
            message=f"transient step at t={t_at:.6g}s rejected "
                    f"{max_step_halvings} halvings deep")
        return ConvergenceError(report.summary(), report=report,
                                iterations=stats.iterations,
                                final_residual=exc.final_residual,
                                worst_index=exc.worst_index)

    # Telemetry: rejection tallies feed the solve.transient span and
    # the solver.transient.* counters; all-zero when stepping is clean.
    rejections = {"newton": 0, "lte": 0, "max_depth": 0}

    def advance(x_from: np.ndarray, t0: float, t1: float, depth: int,
                check_lte: bool, x_predicted: Optional[np.ndarray]
                ) -> np.ndarray:
        """Advance [t0, t1], halving on rejection; commits element state."""
        dt_loc = t1 - t0
        try:
            x_new = solve_step(x_from, t1, dt_loc, x_predicted)
        except ConvergenceError as exc:
            if depth >= max_step_halvings:
                raise step_fail(t1, depth, exc) from exc
            x_new = None
            rejections["newton"] += 1
        if x_new is not None and check_lte and x_predicted is not None \
                and depth < max_step_halvings:
            # LTE proxy: deviation of the accepted solution from the
            # two-point linear predictor, relative to the node scale.
            scale = np.maximum(np.abs(x_new[:n_nodes]), 1.0)
            lte = float(np.max(np.abs(x_new[:n_nodes]
                                      - x_predicted[:n_nodes]) / scale))
            if not lte <= lte_rtol:  # NaN rejects too
                x_new = None
                rejections["lte"] += 1
        if x_new is None:
            rejections["max_depth"] = max(rejections["max_depth"], depth + 1)
            # Reject: integrate the same interval as two half steps.
            # Sub-steps skip the LTE check — halving is the remedy, and
            # skipping guarantees termination within the depth bound.
            t_mid = 0.5 * (t0 + t1)
            x_mid = advance(x_from, t0, t_mid, depth + 1, False, None)
            return advance(x_mid, t_mid, t1, depth + 1, False, None)
        commit_states(x_new, t1, dt_loc)
        return x_new

    n_steps = int(round(t_stop / dt))
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, size))
    times[0] = 0.0
    states[0] = x
    x_prev_grid: Optional[np.ndarray] = None

    iterations_total = 0
    for step in range(1, n_steps + 1):
        t = step * dt
        # Two-point linear extrapolation: the Newton seed for the step
        # and (with lte_rtol) the LTE reference.
        predicted = None
        if x_prev_grid is not None:
            predicted = 2.0 * x - x_prev_grid
        x_prev_grid = x
        stats.iterations = 0
        x = advance(x, t - dt, t, 0, lte_rtol is not None, predicted)
        iterations_total += stats.iterations
        times[step] = t
        states[step] = x

    result = TransientResult(circuit=circuit, times=times, states=states)
    return result, rejections, iterations_total


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
            result, rejections, iterations = _transient_impl(
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
               max_halving_depth=rejections["max_depth"])
        metrics.inc("solver.transient.solves")
        metrics.inc("solver.transient.steps", n_steps)
        metrics.inc("solver.transient.step_rejections", rejected)
        metrics.inc("solver.transient.lte_rejections", rejections["lte"])
        metrics.inc("solver.factorizations", iterations)
        metrics.observe("solver.transient.newton_iterations", iterations,
                        telemetry.ITERATION_BUCKETS)
        return result
