"""Per-lane transient ensembles: many parameter variants of one circuit.

:func:`batched_transient` integrates ``n_lanes`` variants of a circuit
(one per ``configure(lane)`` call) through the scalar
:func:`~repro.circuit.transient.transient`, lane by lane, so every lane
is bit-identical to a plain ``transient()`` under that lane's
configuration.  ``batch_size`` batches DC sweeps only; transient dies
always take the scalar integrator, because a lockstep batched
integrator measured slower per lane than this loop (see
``docs/performance.md``).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.circuit.dc import NewtonOptions
from repro.circuit.mna import ConvergenceError
from repro.circuit.netlist import Circuit
from repro.circuit.transient import (
    DEFAULT_MAX_STEP_HALVINGS,
    TransientResult,
    _validate_transient_args,
    transient,
)

#: ``configure(lane)`` callback: mutate the circuit to lane ``lane``'s
#: per-die parameters (variation/degradation) before it is integrated.
LaneConfigurator = Callable[[int], None]


def batched_transient(circuit: Circuit, n_lanes: int, t_stop: float,
                      dt: float, *,
                      configure: Optional[LaneConfigurator] = None,
                      method: str = "trapezoidal",
                      options: Optional[NewtonOptions] = None,
                      max_step_halvings: int = DEFAULT_MAX_STEP_HALVINGS,
                      lte_rtol: Optional[float] = None,
                      quarantine: bool = False):
    """Integrate ``n_lanes`` parameter variants of ``circuit``.

    ``configure(k)`` (when given) mutates the circuit to lane ``k``'s
    per-die parameters before lane ``k`` is integrated; without it every
    lane integrates the live circuit.  Returns a list of per-lane
    :class:`TransientResult` in lane order; a lane that fails raises its
    :class:`~repro.circuit.mna.ConvergenceError`.

    With ``quarantine=True`` the return value is ``(results, errors)``:
    a failing lane gets ``None`` in ``results`` and its exception in
    ``errors`` instead of aborting the ensemble.
    """
    _validate_transient_args(t_stop, dt, method, max_step_halvings)
    if n_lanes < 1:
        raise ValueError(f"n_lanes must be positive, got {n_lanes}")
    results: List[Optional[TransientResult]] = [None] * n_lanes
    errors: List[Optional[BaseException]] = [None] * n_lanes
    for lane in range(n_lanes):
        if configure is not None:
            configure(lane)
        try:
            results[lane] = transient(
                circuit, t_stop, dt, method=method, options=options,
                max_step_halvings=max_step_halvings, lte_rtol=lte_rtol)
        except ConvergenceError as exc:
            if not quarantine:
                raise
            errors[lane] = exc
    if quarantine:
        return results, errors
    return results
