"""Fault injection: knobs to *prove* the resilience layer works.

The paper's §5 "knobs and monitors" philosophy — build the disturbance
into the system so its compensation can be exercised on demand — applied
to the analysis harness itself.  Tests (and chaos-style soak runs) use
this module to inject the failure modes a production-scale Monte-Carlo
service must absorb:

* **forced non-convergence** — poison a device parameter with NaN so the
  solver's residual guard trips and the full fallback ladder runs;
* **device open / short / stuck parameter** — silicon-style defects
  expressed as parameter rewrites that survive per-sample mismatch
  re-assignment (the sampler only rewrites ``variation``);
* **sample-targeted extractor faults** — wrappers that raise, interrupt
  or "kill the worker" on chosen global sample indices, driven by the
  :func:`current_sample` context the yield engine publishes.  Each sets
  ``__wrapped__``, claiming to compute what it wraps, so a checkpointed
  run under it resumes with the plain extractor.

Everything here is deterministic: faults target explicit sample indices
or named devices, never random draws, so an injected-fault run is as
reproducible as a clean one.
"""

from __future__ import annotations

import functools
import weakref
from contextvars import ContextVar
from dataclasses import replace
from typing import Callable, Iterable, Optional, Sequence, Set

from repro import telemetry
from repro.circuit.mosfet import Mosfet
from repro.circuit.netlist import Circuit

#: Global sample index of the evaluation currently in flight, published
#: by the Monte-Carlo engines around each sample.  ContextVars are
#: per-thread (and per-process), so parallel workers never see each
#: other's index.
_CURRENT_SAMPLE: ContextVar[Optional[int]] = ContextVar(
    "repro_current_sample", default=None)


def current_sample() -> Optional[int]:
    """Global index of the sample being evaluated (None outside a run)."""
    return _CURRENT_SAMPLE.get()


def set_current_sample(index: Optional[int]):
    """Publish the in-flight sample index (engines call this)."""
    return _CURRENT_SAMPLE.set(index)


class WorkerKilledError(RuntimeError):
    """Simulated abrupt worker death.

    Raised by :func:`killing_extractor` to model a worker process that
    disappears mid-sample.  The resilient engines treat it like any
    other quarantinable failure: the sample lands in the
    :class:`~repro.parallel.FailureLedger` and the run completes.
    """


def _device(circuit: Circuit, device_name: str) -> Mosfet:
    element = circuit[device_name]
    if not isinstance(element, Mosfet):
        raise TypeError(f"{device_name!r} is not a MOSFET")
    return element


def _emit_injected(kind: str, **attrs) -> None:
    """Trace a device-level fault injection (setup time)."""
    session = telemetry.active()
    if session is not None:
        session.metrics.inc("faults.injected")
        session.tracer.event("fault.injected", kind=kind, **attrs)


def _emit_activated(kind: str, index: Optional[int], **attrs) -> None:
    """Trace a sample-targeted fault firing (evaluation time).

    Emitted under whatever span is open when the fault fires, so the
    trace attributes the injected failure to its sample — quarantine
    records then corroborate it.
    """
    session = telemetry.active()
    if session is not None:
        session.metrics.inc("faults.activated")
        session.tracer.event("fault.activated", kind=kind, index=index,
                             **attrs)


# ----------------------------------------------------------------------
# Device-level faults (parameter rewrites; survive mismatch sampling)
# ----------------------------------------------------------------------
def force_nonconvergence(circuit: Circuit, device_name: str) -> None:
    """Poison ``device_name`` so every solve fails the NaN guard.

    Sets the threshold voltage to NaN; the first Newton update turns
    non-finite, the residual guard raises ``ConvergenceError``, and the
    whole DC fallback ladder runs (and fails) — the canonical way to
    exercise the complete failure path end-to-end.
    """
    device = _device(circuit, device_name)
    device.params = replace(device.params, vt0_v=float("nan"))
    _emit_injected("force-nonconvergence", device=device_name)


def inject_open(circuit: Circuit, device_name: str,
                kp_factor: float = 1e-12) -> None:
    """Open-circuit defect: the channel loses (almost) all drive."""
    device = _device(circuit, device_name)
    device.params = replace(
        device.params, kp_a_per_v2=device.params.kp_a_per_v2 * kp_factor)
    _emit_injected("open", device=device_name)


def inject_short(circuit: Circuit, device_name: str,
                 conductance_s: float = 10.0) -> None:
    """Gate-oxide short: a hard post-breakdown gate leak (TDDB-style)."""
    device = _device(circuit, device_name)
    device.degradation.gate_leak_s = conductance_s
    _emit_injected("short", device=device_name)


def inject_stuck_parameter(circuit: Circuit, device_name: str,
                           parameter: str, value: float) -> None:
    """Pin one ``MosfetParams`` field to ``value`` (a stuck knob)."""
    device = _device(circuit, device_name)
    if not hasattr(device.params, parameter):
        raise ValueError(f"unknown MOSFET parameter {parameter!r}")
    device.params = replace(device.params, **{parameter: value})
    _emit_injected("stuck-parameter", device=device_name, parameter=parameter)


# ----------------------------------------------------------------------
# Batched-solver faults
# ----------------------------------------------------------------------
#: Circuit → lane indices forced out of batched Newton (per batched
#: solve), so the per-lane scalar-fallback path can be exercised with a
#: perfectly healthy circuit.  Weak keys: a dropped circuit drops its
#: injection.
_BATCH_FALLBACK_LANES: "weakref.WeakKeyDictionary[Circuit, Set[int]]" = \
    weakref.WeakKeyDictionary()


def force_batch_lane_fallback(circuit: Circuit,
                              lanes: Iterable[int]) -> None:
    """Force the given lane indices of every batched DC solve on
    ``circuit`` onto the scalar fallback ladder.

    Unlike :func:`force_nonconvergence` (which poisons a device and so
    fails *every* path), this targets only the batched Newton loop: the
    marked lanes are skipped by the masked iteration and re-solved
    one-by-one through the ordinary convergence ladder — which succeeds,
    because the circuit is healthy.  Lane indices count within each
    batched solve (sweep point ``k`` of a slab is lane ``k``).
    """
    _BATCH_FALLBACK_LANES[circuit] = _as_set(lanes)
    _emit_injected("batch-lane-fallback", lanes=sorted(_as_set(lanes)))


def clear_batch_lane_fallback(circuit: Circuit) -> None:
    """Remove a :func:`force_batch_lane_fallback` injection."""
    _BATCH_FALLBACK_LANES.pop(circuit, None)


def active_batch_fallback_lanes(circuit: Circuit,
                                n_lanes: int) -> Sequence[int]:
    """Forced-fallback lanes applicable to a solve of ``n_lanes`` lanes.

    Called by the batched DC engine at the top of each batched solve;
    emits a ``fault.activated`` trace event when the injection fires.
    """
    lanes = _BATCH_FALLBACK_LANES.get(circuit)
    if not lanes:
        return ()
    hit = sorted(lane for lane in lanes if 0 <= lane < n_lanes)
    if hit:
        _emit_activated("batch-lane-fallback", None, lanes=hit)
    return hit


#: Circuit → lane indices whose batched Newton *seed* is poisoned with
#: NaN — the corrupted-lane chaos scenario.  Unlike the forced fallback
#: above (which marks lanes as skipped before the iteration), corrupted
#: lanes fail organically inside the masked iteration: the engine must
#: detect the non-finite lane, deactivate it and re-solve it through
#: the scalar ladder.
_CORRUPT_BATCH_LANES: "weakref.WeakKeyDictionary[Circuit, Set[int]]" = \
    weakref.WeakKeyDictionary()


def corrupt_batch_lanes(circuit: Circuit, lanes: Iterable[int]) -> None:
    """NaN-poison the given lanes' seed in every batched DC-sweep slab
    solved on ``circuit``."""
    _CORRUPT_BATCH_LANES[circuit] = _as_set(lanes)
    _emit_injected("corrupt-batch-lane", lanes=sorted(_as_set(lanes)))


def clear_corrupt_batch_lanes(circuit: Circuit) -> None:
    """Remove a :func:`corrupt_batch_lanes` injection."""
    _CORRUPT_BATCH_LANES.pop(circuit, None)


def active_corrupt_batch_lanes(circuit: Circuit,
                               n_lanes: int) -> Sequence[int]:
    """Corrupted lanes applicable to a solve of ``n_lanes`` lanes."""
    lanes = _CORRUPT_BATCH_LANES.get(circuit)
    if not lanes:
        return ()
    hit = sorted(lane for lane in lanes if 0 <= lane < n_lanes)
    if hit:
        _emit_activated("corrupt-batch-lane", None, lanes=hit)
    return hit


# ----------------------------------------------------------------------
# Accelerator faults (ckernel / sparse — the PR-6 seams)
# ----------------------------------------------------------------------
def force_ckernel_compile_failure() -> None:
    """Make the C stamp kernel's build fail from now on.

    Resets the kernel's cached build state so the failure is actually
    exercised, then re-probes the capability so the supervisor records
    the anomaly (compiler present, compile failed) as a quarantine
    event.  Stamping transparently continues on the numpy path.
    """
    from repro import resilience
    from repro.circuit import _ckernel

    _ckernel.force_compile_failure(True)
    _emit_injected("ckernel-compile-failure")
    resilience.supervisor().reprobe("ckernel")


def clear_ckernel_compile_failure() -> None:
    """Undo :func:`force_ckernel_compile_failure` (the cached ``.so``
    makes the healthy re-load an instant dlopen)."""
    from repro import resilience
    from repro.circuit import _ckernel

    _ckernel.force_compile_failure(False)
    resilience.supervisor().reprobe("ckernel")


def force_sparse_singular(n_solves: int = 1) -> None:
    """Fail the next ``n_solves`` sparse ``splu`` factorizations.

    Each forced failure falls back to the dense path for that solve
    (the answer stays correct) and is counted in
    ``solver.sparse.fallbacks``; the next solve tries ``splu`` again.
    """
    from repro.circuit import mna

    mna.force_singular_solves(n_solves)
    _emit_injected("sparse-singular", n_solves=n_solves)


def clear_sparse_singular() -> None:
    """Cancel any pending :func:`force_sparse_singular` failures."""
    from repro.circuit import mna

    mna.force_singular_solves(0)


# ----------------------------------------------------------------------
# Sample-targeted extractor faults
# ----------------------------------------------------------------------
def _as_set(samples: Iterable[int]) -> Set[int]:
    return set(int(s) for s in samples)


def _on_samples(base: Callable, targets: Iterable[int], kind: str,
                fault: Callable[[int], BaseException]) -> Callable:
    """``base``, raising ``fault(index)`` on the ``targets`` samples.
    Sets ``__wrapped__``: it computes what ``base`` does."""
    targets = _as_set(targets)

    @functools.wraps(base)
    def wrapped(fixture):
        index = current_sample()
        if index is not None and index in targets:
            _emit_activated(kind, index)
            raise fault(index)
        return base(fixture)

    return wrapped


def failing_extractor(base: Callable, fail_on: Iterable[int],
                      exc_factory: Optional[Callable[[int], BaseException]]
                      = None) -> Callable:
    """Wrap ``base`` to raise on the given global sample indices.

    ``exc_factory`` builds the exception from the sample index; the
    default raises :class:`ValueError`, which the engines classify as a
    quarantinable evaluation failure.
    """
    return _on_samples(base, fail_on, "failing", exc_factory or (
        lambda index: ValueError(
            f"injected evaluation fault on sample {index}")))


def killing_extractor(base: Callable, kill_on: Iterable[int]) -> Callable:
    """Wrap ``base`` to simulate worker death on chosen samples."""
    return _on_samples(base, kill_on, "killing", lambda index: (
        WorkerKilledError(f"worker killed while evaluating sample {index}")))


def interrupting_extractor(base: Callable, interrupt_on: int) -> Callable:
    """Wrap ``base`` to raise ``KeyboardInterrupt`` at one sample.

    Models an operator Ctrl-C (or a SIGTERM from an orchestrator) at a
    deterministic point mid-run — the checkpoint/resume tests interrupt
    a run with this, then resume from the checkpoint with the plain
    extractor and assert bit-identical results.
    """
    return _on_samples(base, [interrupt_on], "interrupting", lambda index: (
        KeyboardInterrupt(f"injected interrupt at sample {index}")))
