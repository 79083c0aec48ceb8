"""Batched ensemble DC engine: one Newton loop for many dies.

A Monte-Carlo yield run (paper §2) or a dense DC sweep solves hundreds
of *nearly identical* MNA systems: same topology, same sparsity, only a
handful of right-hand-side values or device parameters differ.  The
scalar path pays the full per-solve Python dispatch for each of them —
BENCH_2's phase breakdown shows ``mc_yield_sample`` is ~100 %
``solve.dc``.  This module stacks B such systems into ``(B, n, n)`` /
``(B, n)`` arrays ("lanes") and runs a SINGLE damped-Newton iteration
loop over the whole ensemble:

* :class:`BatchStamper` — the lane-axis mirror of
  :class:`~repro.circuit.mna.Stamper`: ground-aware accumulation
  primitives that accept a scalar (same in every lane) or a ``(B,)``
  per-lane value;
* :class:`BatchMosfetGroup` — the lane-axis extension of
  :class:`~repro.circuit.mosfet.MosfetGroup`: every MOSFET of every
  lane is evaluated in ONE analytic model pass, reusing the scalar
  group's folded constants and scatter plans (with per-lane offsets);
  every lane sees the live device parameters, so lanes differ only in
  their sweep-source values;
* :meth:`BatchDcEngine.solve` — batched LAPACK via ``np.linalg.solve``
  on the stacked systems with per-lane convergence masks: converged
  lanes freeze while stragglers iterate, non-finite or singular lanes
  drop out of the batch instead of poisoning it;
* scalar fallback — lanes that exhaust batched Newton are re-solved
  one-by-one through the existing convergence ladder
  (:func:`~repro.circuit.dc.dc_operating_point`: gmin stepping, source
  stepping, pseudo-transient), keeping the scalar path's robustness
  and :class:`~repro.circuit.mna.ConvergenceReport` semantics.

Entry points: ``dc_sweep(..., batch=True)`` solves all sweep points of
one circuit as lanes; :func:`batched_sweeps` turns on batching for
every ``dc_sweep`` in a context (how ``MonteCarloYield(batch_size=)``
accelerates arbitrary extractors without touching their code or the
mismatch draws).  Batched and scalar answers agree within Newton
tolerance — both iterate to the same fixed point with the same
stopping criterion, they just take slightly different damped paths.

Telemetry: each batched solve emits a ``solve.dc.batch`` span (lanes,
iterations, fallback count) and feeds the ``solver.dc.batch.*``
counters; fallback solves nest as ordinary ``solve.dc`` children.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.circuit import _ckernel
from repro.circuit.dc import (
    DcSweep,
    NewtonOptions,
    dc_engine,
    dc_operating_point,
)
from repro.circuit.elements import CurrentSource, DcSpec, VoltageSource
from repro.circuit.mna import Stamper
from repro.circuit.mosfet import _CLM_SMOOTH_V, MosfetGroup
from repro.circuit.netlist import Circuit

#: Default cap on lanes per batched solve.  A (128, n, n) stack of the
#: library's small analog cells is well under a megabyte; the cap
#: bounds memory on huge sweeps, which are solved slab by slab.
DEFAULT_MAX_LANES = 128

_EMPTY_X = np.zeros(0)


class BatchUnsupportedError(TypeError):
    """The circuit cannot be solved on the batched path.

    Raised by :class:`BatchDcEngine` for circuits with non-MOSFET
    nonlinear elements.  ``dc_sweep`` never raises it — it silently
    stays on the scalar path for them (see :func:`can_batch`).
    """


# ----------------------------------------------------------------------
# Batched system assembly
# ----------------------------------------------------------------------
class BatchStamper:
    """Ground-aware dense MNA accumulator with a leading lane axis.

    Mirrors :class:`~repro.circuit.mna.Stamper` over ``(B, size, size)``
    / ``(B, size)`` arrays.  Every primitive accepts a scalar value
    (stamped identically into all lanes) or a ``(B,)`` array (per-lane
    values) — the two cases a batched ensemble needs: shared topology
    stamps and per-lane source / parameter stamps.
    """

    def __init__(self, n_lanes: int, size: int):
        if n_lanes <= 0:
            raise ValueError(f"lane count must be positive, got {n_lanes}")
        if size <= 0:
            raise ValueError(f"system size must be positive, got {size}")
        self.n_lanes = n_lanes
        self.size = size
        self.a = np.zeros((n_lanes, size, size))
        self.b = np.zeros((n_lanes, size))
        self._gmin_idx: Optional[np.ndarray] = None

    def clear(self) -> None:
        """Zero every lane's matrix and RHS."""
        self.a.fill(0)
        self.b.fill(0)

    def load_from(self, other: "BatchStamper") -> None:
        """Overwrite all lanes from another batch stamper (memcpy)."""
        np.copyto(self.a, other.a)
        np.copyto(self.b, other.b)

    def broadcast_from(self, st: Stamper) -> None:
        """Replicate one scalar system into every lane.

        This is how the shared linear base is assembled: stamp it ONCE
        with the scalar :class:`Stamper`, broadcast, then add the
        per-lane contributions on top.
        """
        self.a[:] = st.a
        self.b[:] = st.b

    # -- primitives (value: scalar or (B,) per-lane array) -------------
    def matrix(self, row: int, col: int, value) -> None:
        """Add ``value`` at ``A[:, row, col]`` (ignored on ground)."""
        if row < 0 or col < 0:
            return
        self.a[:, row, col] += value

    def rhs(self, row: int, value) -> None:
        """Add ``value`` to ``b[:, row]`` (ignored for ground)."""
        if row < 0:
            return
        self.b[:, row] += value

    def conductance(self, node_a: int, node_b: int, g) -> None:
        """Stamp conductance ``g`` between two nodes, all lanes."""
        self.matrix(node_a, node_a, g)
        self.matrix(node_b, node_b, g)
        self.matrix(node_a, node_b, -g)
        self.matrix(node_b, node_a, -g)

    def current(self, node: int, value) -> None:
        """Inject current ``value`` INTO ``node`` (RHS contribution)."""
        self.rhs(node, value)

    def transconductance(self, out_a: int, out_b: int,
                         ctrl_a: int, ctrl_b: int, gm) -> None:
        """Stamp ``i(out_a→out_b) = gm · v(ctrl_a - ctrl_b)``."""
        self.matrix(out_a, ctrl_a, gm)
        self.matrix(out_a, ctrl_b, -gm)
        self.matrix(out_b, ctrl_a, -gm)
        self.matrix(out_b, ctrl_b, gm)

    def branch_voltage(self, node_a: int, node_b: int, branch: int,
                       rhs) -> None:
        """Stamp ``v(a) - v(b) = rhs`` with branch-current unknown."""
        self.matrix(node_a, branch, 1.0)
        self.matrix(node_b, branch, -1.0)
        self.matrix(branch, node_a, 1.0)
        self.matrix(branch, node_b, -1.0)
        self.rhs(branch, rhs)

    def add_gmin(self, n_nodes: int, gmin: float) -> None:
        """Add ``gmin`` from every node to ground in every lane."""
        if gmin < 0.0:
            raise ValueError(f"gmin must be non-negative, got {gmin}")
        idx = self._gmin_idx
        if idx is None or idx.size != n_nodes:
            idx = np.arange(n_nodes)
            self._gmin_idx = idx
        self.a[:, idx, idx] += gmin


# ----------------------------------------------------------------------
# Lane-axis MOSFET evaluation
# ----------------------------------------------------------------------
class BatchMosfetGroup:
    """Evaluate ALL MOSFETs of ALL lanes in one model pass.

    Wraps a scalar :class:`MosfetGroup` and extends its precomputed
    machinery with a lane axis:

    * the scatter plans gain a per-lane flat offset (lane k writes at
      ``k·size² + a_flat`` / ``k·size + b_idx``), so one ``np.add.at``
      lands every Jacobian/companion entry of the whole ensemble;
    * the analytic model pass (the compiled lane-batched kernel, else
      numpy on ``(B, 4, n)`` buffers) covers B lanes × n devices in one
      sweep;
    * the *dynamic* per-device parameters (threshold offset, body
      factor, current factor, CLM) broadcast from the scalar group —
      every lane sees the live circuit, the right thing for sweeps
      where only a source value differs.
    """

    def __init__(self, group: MosfetGroup, n_lanes: int):
        self.group = group
        self.n_lanes = n_lanes
        n = len(group.mosfets)
        self.n_devices = n
        size = group.size
        # Lane-extended scatter plans: lane-major to match the ravel of
        # the (B, per-lane values) matrices below.
        lane_a = np.arange(n_lanes, dtype=np.intp) * (size * size)
        self._a_flat = (lane_a[:, None] + group._a_flat[None, :]).ravel()
        lane_b = np.arange(n_lanes, dtype=np.intp) * size
        self._b_idx = (lane_b[:, None] + group._b_idx[None, :]).ravel()
        self._a_keep = group._a_keep
        self._b_keep = group._b_keep
        # Work buffers — the whole iteration runs in these.
        self._xe = np.zeros((n_lanes, size + 1))  # trailing col = ground
        self._V = np.empty((n_lanes, 3, n))
        self._G = np.empty((n_lanes, 3, n))
        self._GV = np.empty((n_lanes, 3, n))
        self._vals8 = np.empty((n_lanes, 8, n))
        self._rhs2 = np.empty((n_lanes, 2, n))
        self._vn = np.empty((n_lanes, n))
        # Fused 4-row transcendental buffers and the (B, n) scratch set,
        # mirroring MosfetGroup._stamp_analytic.
        self._VN = np.empty((n_lanes, 3, n))
        self._A4 = np.empty((n_lanes, 4, n))
        self._L4 = np.empty((n_lanes, 4, n))
        self._P4 = np.empty((n_lanes, 4, n))
        self._mask = np.empty((n_lanes, n), dtype=bool)
        self._wn = [np.empty((n_lanes, n)) for _ in range(5)]
        # Compiled stamp kernel (lane-batched entry point), when built.
        lib = _ckernel.load()
        self._ck_fn = None if lib is None else lib.repro_stamp_mosfets_batch

    def stamp(self, bst: BatchStamper, X: np.ndarray) -> None:
        """Stamp every lane's linearized channels at guesses ``X (B,n)``.

        The arithmetic mirrors :meth:`MosfetGroup.stamp` step for step
        (same folded constants, same closed-form derivatives), just with
        the extra leading lane axis — so batched and scalar solves agree
        to rounding on each Newton iterate.  The compiled lane-batched
        kernel when it is loaded, else the fused numpy pass.
        """
        if self._ck_fn is not None and _ckernel.active() \
                and bst.a.dtype == np.float64:
            self._stamp_ckernel(bst, X)
        else:
            self._stamp_analytic(bst, X)

    def _stamp_ckernel(self, bst: BatchStamper, X: np.ndarray) -> None:
        """One compiled stamp call for every lane × device.

        Same closed forms as :meth:`_stamp_analytic`; the C loop
        replaces ~40 ufunc dispatches on small ``(B, 4, n)`` tensors,
        which dominate the per-iteration cost of small batches.  The
        dynamic parameters are the scalar group's, shared by every
        lane (``dyn_stride`` 0).
        """
        g = self.group
        xe = self._xe
        xe[:, :-1] = X
        vt0p, gamma, c0, lam = g.dynamic_arrays()
        self._ck_fn(
            self.n_lanes, self.n_devices, g.size,
            xe.ctypes.data, g._nodes_c.ctypes.data, g.sign.ctypes.data,
            vt0p.ctypes.data, gamma.ctypes.data,
            g._phi.ctypes.data, g._phi_cap.ctypes.data,
            g._inv_nphit.ctypes.data, g._theta_nphit.ctypes.data,
            g._inv_ns2.ctypes.data, g._inv_s2.ctypes.data,
            g._theta_eff.ctypes.data, c0.ctypes.data, lam.ctypes.data,
            0, _CLM_SMOOTH_V,
            bst.a.ctypes.data, bst.b.ctypes.data)

    def _stamp_analytic(self, bst: BatchStamper, X: np.ndarray) -> None:
        """One fused analytic model pass for every lane × device.

        Lane-axis mirror of :meth:`MosfetGroup._stamp_analytic`: the
        four transcendental arguments stack into one ``(B, 4, n)``
        buffer so a single ``logaddexp`` dispatch covers lf/ln(1+eᵘ)/
        lr/CLM for the whole ensemble; dynamic parameters come from the
        live circuit.
        """
        g = self.group
        xe = self._xe
        xe[:, :-1] = X
        V = self._V
        # Original-frame terminal voltages (for the companion current).
        np.subtract(xe[:, g._gdb], xe[:, g.s][:, None, :], out=V)
        VN = np.multiply(g.sign, V, out=self._VN)  # NMOS frame
        vg_n = VN[:, 0, :]
        vd_n = VN[:, 1, :]
        vb_n = VN[:, 2, :]
        vt0p, gamma, c0, lam = g.dynamic_arrays()
        w = self._wn
        # Body effect: sq = √(φ − clamp(vbs)); gmb vanishes past the clamp.
        unclamped = np.less(vb_n, g._phi_cap, out=self._mask)
        sq = np.minimum(vb_n, g._phi_cap, out=w[0])
        np.subtract(g._phi, sq, out=sq)
        np.sqrt(sq, out=sq)
        ov = np.multiply(gamma, sq, out=w[1])
        np.add(vt0p, ov, out=ov)
        np.subtract(vg_n, ov, out=ov)
        # Stack the four transcendental arguments: xf, u, xr, z.
        A = self._A4
        np.multiply(ov[:, None, :], g._ovd_scale, out=A[:, 0:2, :])
        np.multiply(vd_n[:, None, :], g._vds_scale, out=A[:, 2:4, :])
        np.subtract(A[:, 0, :], A[:, 2, :], out=A[:, 2, :])
        L = np.logaddexp(0.0, A, out=self._L4)
        S = A                                    # reuse as the sigmoids
        np.multiply(S, 0.5, out=S)
        np.tanh(S, out=S)
        np.multiply(S, 0.5, out=S)
        np.add(S, 0.5, out=S)                    # σ(xf), σ(u), σ(xr), σ(z)
        P = np.multiply(L, S, out=self._P4)
        # F-derivatives → G rows 0/1; F, 1/D, c0/D in the (B, n) temps.
        G = self._G
        g0 = G[:, 0, :]
        g1 = G[:, 1, :]
        np.subtract(P[:, 0, :], P[:, 2, :], out=g0)
        np.multiply(g._two_inv_ns2, g0, out=g0)
        np.multiply(g._two_inv_s2, P[:, 2, :], out=g1)
        big_f = np.subtract(L[:, 0, :], L[:, 2, :], out=w[2])
        tmp = np.add(L[:, 0, :], L[:, 2, :], out=w[3])
        np.multiply(big_f, tmp, out=big_f)       # F = (lf−lr)(lf+lr)
        inv_d = np.multiply(g._theta_nphit, L[:, 1, :], out=w[3])
        np.add(1.0, inv_d, out=inv_d)
        np.divide(1.0, inv_d, out=inv_d)
        c0_inv_d = np.multiply(c0, inv_d, out=w[4])
        dden = np.multiply(g._theta_eff, S[:, 1, :], out=L[:, 1, :])
        quot = np.multiply(big_f, inv_d, out=L[:, 0, :])
        np.multiply(quot, dden, out=quot)
        np.subtract(g0, quot, out=g0)
        np.multiply(g0, c0_inv_d, out=g0)
        np.multiply(g1, c0_inv_d, out=g1)
        ids0 = np.multiply(big_f, c0_inv_d, out=w[2])
        # CLM factor and its derivative close out gm/gds/gmb.
        clm = np.multiply(lam, L[:, 3, :], out=L[:, 3, :])
        np.multiply(clm, _CLM_SMOOTH_V, out=clm)
        np.add(1.0, clm, out=clm)
        dclm = np.multiply(lam, S[:, 3, :], out=S[:, 3, :])
        np.multiply(G[:, 0:2, :], clm[:, None, :], out=G[:, 0:2, :])
        np.multiply(ids0, dclm, out=dclm)
        np.add(g1, dclm, out=g1)
        np.divide(gamma, sq, out=sq)
        np.multiply(sq, 0.5, out=sq)
        np.multiply(g0, sq, out=G[:, 2, :])
        np.multiply(G[:, 2, :], unclamped, out=G[:, 2, :])
        ids_n = np.multiply(ids0, clm, out=w[2])
        # Scatter the 8 Jacobian values and the companion currents.
        vals8 = np.matmul(g._pmat, G, out=self._vals8)
        np.add.at(bst.a.reshape(-1), self._a_flat,
                  vals8.reshape(self.n_lanes, -1)[:, self._a_keep].ravel())
        ids = np.multiply(g.sign, ids_n, out=self._vn)
        GV = np.multiply(G, V, out=self._GV)
        ieq = np.sum(GV, axis=1)
        np.subtract(ids, ieq, out=ieq)
        rhs2 = self._rhs2
        np.negative(ieq, out=rhs2[:, 0, :])
        rhs2[:, 1, :] = ieq
        np.add.at(bst.b.reshape(-1), self._b_idx,
                  rhs2.reshape(self.n_lanes, -1)[:, self._b_keep].ravel())


# ----------------------------------------------------------------------
# Batched DC engine
# ----------------------------------------------------------------------
class BatchDcEngine:
    """Per-(circuit, lane count) batched solver state.

    Owns the stacked base/work systems and the lane-axis MOSFET group;
    the scalar :class:`~repro.circuit.dc.DcEngine` stays the source of
    truth for the element partition and the fallback ladder.
    """

    def __init__(self, circuit: Circuit, n_lanes: int):
        circuit.compile()
        scalar = dc_engine(circuit)
        if scalar.other_nonlinear:
            raise BatchUnsupportedError(
                "circuit has non-MOSFET nonlinear elements; "
                "the batched engine only vectorizes MOSFET channels")
        # No reference to ``circuit``: the weakly keyed engine cache
        # must not keep its key alive.
        self.scalar = scalar
        self.topology_version = circuit.topology_version
        self.n_lanes = n_lanes
        self.size = scalar.size
        self.n_nodes = scalar.n_nodes
        self.base = BatchStamper(n_lanes, self.size)
        self.work = BatchStamper(n_lanes, self.size)
        self._scalar_base = Stamper(self.size)
        self.group = (BatchMosfetGroup(scalar.mosfet_group, n_lanes)
                      if scalar.mosfet_group is not None else None)

    def stamp_base(self, gmin: float,
                   lane_sources: Sequence[Tuple[object, np.ndarray]] = ()
                   ) -> None:
        """Assemble the solution-independent part of every lane.

        The shared linear system is stamped once with a scalar stamper
        and broadcast; ``lane_sources`` — ``(element, per-lane values)``
        pairs — then land as vectorized per-lane RHS contributions (a
        source's value only ever enters the RHS, its topology pattern
        is already in the shared base stamped at value 0).
        """
        st = self._scalar_base
        st.clear()
        for element in self.scalar.linear_elements:
            element.stamp_dc(st, _EMPTY_X)
        scalar_group = self.scalar.mosfet_group
        if scalar_group is not None:
            scalar_group.stamp_gate_leaks(st)
            scalar_group.refresh()
        self.base.broadcast_from(st)
        self.base.add_gmin(self.n_nodes, gmin)
        for element, values in lane_sources:
            values = np.asarray(values, dtype=float) * element.scale
            if isinstance(element, VoltageSource):
                self.base.rhs(element.branches[0], values)
            elif isinstance(element, CurrentSource):
                a, b = element.nodes
                self.base.current(a, -values)
                self.base.current(b, values)
            else:
                raise TypeError(
                    f"{element.name!r} is not an independent source")

    def solve(self, X0: np.ndarray, options: Optional[NewtonOptions] = None,
              skip_lanes: Sequence[int] = ()
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Masked batched damped-Newton on the assembled ensemble.

        Returns ``(X, converged, iterations_per_lane, factorizations)``.
        Lanes in ``skip_lanes`` — and lanes that turn non-finite or
        singular — are left unconverged for the caller's scalar
        fallback; they never poison the healthy part of the batch.
        ``converged`` lanes freeze at their solution while the
        remaining ones keep iterating on a shrinking sub-batch.
        """
        opts = options if options is not None else NewtonOptions()
        B, size, n_nodes = self.n_lanes, self.size, self.n_nodes
        X = np.array(X0, dtype=float)
        if X.shape != (B, size):
            raise ValueError(f"X0 shape {X.shape} != ({B}, {size})")
        active = np.ones(B, dtype=bool)
        converged = np.zeros(B, dtype=bool)
        iters = np.zeros(B, dtype=int)
        factorizations = 0
        for lane in skip_lanes:
            if 0 <= lane < B:
                active[lane] = False
        work = self.work
        iteration = 0
        while active.any() and iteration < opts.max_iterations:
            iteration += 1
            work.load_from(self.base)
            if self.group is not None:
                self.group.stamp(work, X)
            idx = np.flatnonzero(active)
            try:
                # Trailing unit axis: a 2-D ``b`` would be read as one
                # matrix RHS, not a stack of per-lane vectors.
                x_new = np.linalg.solve(work.a[idx],
                                        work.b[idx, :, None])[..., 0]
            except np.linalg.LinAlgError:
                # Cold path: isolate the singular lane(s) instead of
                # failing the whole stack; they go to the fallback.
                x_new = np.empty((idx.size, size))
                ok = np.ones(idx.size, dtype=bool)
                for j, lane in enumerate(idx):
                    try:
                        x_new[j] = np.linalg.solve(work.a[lane],
                                                   work.b[lane])
                    except np.linalg.LinAlgError:
                        ok[j] = False
                active[idx[~ok]] = False
                idx, x_new = idx[ok], x_new[ok]
                if idx.size == 0:
                    break
            factorizations += int(idx.size)
            iters[idx] += 1
            delta = x_new - X[idx]
            absd = np.abs(delta)
            if n_nodes:
                max_dv = absd[:, :n_nodes].max(axis=1)
            else:
                max_dv = np.zeros(idx.size)
            finite = np.isfinite(max_dv)
            if not finite.all():
                active[idx[~finite]] = False
                idx = idx[finite]
                if idx.size == 0:
                    continue
                delta, absd, max_dv = (delta[finite], absd[finite],
                                       max_dv[finite])
            # Per-lane damping: each lane limits its own voltage step.
            over = max_dv > opts.damping_v
            if over.any():
                factor = np.ones(idx.size)
                factor[over] = opts.damping_v / max_dv[over]
                delta *= factor[:, None]
                absd *= factor[:, None]
            X[idx] += delta
            scale = np.abs(X[idx])
            np.maximum(scale, 1.0, out=scale)
            scale *= opts.reltol
            scale += opts.vtol
            done = (absd <= scale).all(axis=1)
            converged[idx[done]] = True
            active[idx[done]] = False
        return X, converged, iters, factorizations


_BATCH_ENGINES: "weakref.WeakKeyDictionary[Circuit, dict]" = \
    weakref.WeakKeyDictionary()
_BATCH_ENGINES_LOCK = threading.Lock()


def batch_engine(circuit: Circuit, n_lanes: int) -> BatchDcEngine:
    """The cached :class:`BatchDcEngine` for ``(circuit, n_lanes)``.

    Rebuilt on topology change or when the underlying scalar engine was
    replaced; like the scalar cache, keyed per circuit object so cloned
    worker circuits get independent engines (the buffers are
    single-writer).
    """
    circuit.compile()
    scalar = dc_engine(circuit)
    with _BATCH_ENGINES_LOCK:
        per_size = _BATCH_ENGINES.get(circuit)
        if per_size is None:
            per_size = {}
            _BATCH_ENGINES[circuit] = per_size
        engine = per_size.get(n_lanes)
        if engine is None \
                or engine.topology_version != circuit.topology_version \
                or engine.scalar is not scalar:
            engine = BatchDcEngine(circuit, n_lanes)
            per_size[n_lanes] = engine
        return engine


def can_batch(circuit: Circuit) -> bool:
    """Whether the batched engine supports this circuit's element mix."""
    circuit.compile()
    return not dc_engine(circuit).other_nonlinear


# ----------------------------------------------------------------------
# Context switch: batch every dc_sweep in scope
# ----------------------------------------------------------------------
_BATCH_SWEEP_LANES: ContextVar[Optional[int]] = ContextVar(
    "repro_batch_sweep_lanes", default=None)


@contextmanager
def batched_sweeps(max_lanes: int = DEFAULT_MAX_LANES) -> Iterator[None]:
    """Route every ``dc_sweep`` in this context through the batched
    engine (sweep points become lanes).

    This is the seam ``MonteCarloYield(batch_size=)`` uses: spec
    extractors call :func:`~repro.circuit.dc.dc_sweep` as always, the
    context flips them onto the batched path, and nothing about the
    mismatch draw order changes — the sampled variates are bit-identical
    to a scalar run.  ContextVar scoping keeps thread-backend workers
    independent.
    """
    if max_lanes < 1:
        raise ValueError(f"max_lanes must be positive, got {max_lanes}")
    token = _BATCH_SWEEP_LANES.set(int(max_lanes))
    try:
        yield
    finally:
        _BATCH_SWEEP_LANES.reset(token)


def batched_sweep_lanes() -> Optional[int]:
    """Lane cap of an enclosing :func:`batched_sweeps` (None = off)."""
    return _BATCH_SWEEP_LANES.get()


# ----------------------------------------------------------------------
# Batched DC sweep
# ----------------------------------------------------------------------
def batched_dc_sweep(circuit: Circuit, source_name: str,
                     values: Union[Sequence[float], np.ndarray],
                     options: Optional[NewtonOptions] = None,
                     max_lanes: int = DEFAULT_MAX_LANES
                     ) -> DcSweep:
    """Solve every sweep point as one lane of a batched ensemble.

    Per slab of up to ``max_lanes`` points: the first point is solved
    through the scalar ladder (the *pilot*, which also honours warm
    starting), its solution seeds every lane, and the whole slab then
    iterates in one masked batched Newton loop.  Lanes that do not
    converge fall back one-by-one to the scalar ladder — worst case
    this degenerates to exactly the scalar sweep, with its error
    semantics (:class:`~repro.circuit.mna.ConvergenceError` carrying a
    full :class:`~repro.circuit.mna.ConvergenceReport`).

    Results match the scalar sweep within Newton tolerance: same model,
    same stopping criterion, same fixed points — only the damped
    iteration path differs.
    """
    from repro import faultinject, resilience

    element = circuit[source_name]
    if not isinstance(element, (VoltageSource, CurrentSource)):
        raise TypeError(f"{source_name!r} is not an independent source")
    vals = np.asarray(values, dtype=float)
    opts = options if options is not None else NewtonOptions()
    # Memory guard: shrink the slab (never the point list) so the
    # (B, n, n) stacks fit the ceiling.  Smaller slabs change only the
    # loop partitioning below — per-point results are unchanged.
    circuit.compile()
    max_lanes = resilience.admit_lanes(
        min(max_lanes, max(1, len(vals))), circuit.n_unknowns,
        where="dc_sweep")
    original_spec = element.spec
    slabs: List[np.ndarray] = [np.zeros((0, circuit.n_unknowns))]
    x_carry: Optional[np.ndarray] = None
    try:
        for pos in range(0, len(vals), max_lanes):
            slab = vals[pos:pos + max_lanes]
            X = _solve_slab(
                circuit, element, slab, options, opts, x_carry,
                faultinject.active_batch_fallback_lanes(circuit, len(slab)))
            slabs.append(X)
            x_carry = X[-1]
    finally:
        element.spec = original_spec
    return DcSweep(circuit, np.concatenate(slabs))


def _solve_slab(circuit: Circuit, element, slab: np.ndarray,
                options: Optional[NewtonOptions], opts: NewtonOptions,
                x_carry: Optional[np.ndarray],
                skip_lanes: Sequence[int]
                ) -> np.ndarray:
    """One batched solve of ≤ max_lanes sweep points, with fallback;
    returns the ``(points, unknowns)`` solutions."""
    from repro import faultinject

    B = len(slab)
    engine = batch_engine(circuit, B)
    session = telemetry.active()
    span_ctx = telemetry.NULL_SPAN if session is None else \
        session.tracer.span("solve.dc.batch", lanes=B)
    with span_ctx as sp:
        # Pilot: scalar ladder at the first point (warm-start aware);
        # its solution seeds every lane of the batch.
        element.spec = DcSpec(float(slab[0]))
        pilot = dc_operating_point(circuit, x0=x_carry, options=options)
        # Shared base at source value 0 + per-lane RHS values.
        element.spec = DcSpec(0.0)
        engine.stamp_base(opts.gmin, lane_sources=[(element, slab)])
        X0 = np.tile(pilot.x, (B, 1))
        corrupt = faultinject.active_corrupt_batch_lanes(circuit, B)
        if corrupt:
            # Chaos scenario: poisoned seed lanes go non-finite on the
            # first iteration, get deactivated, and are re-solved start
            # to finish by the scalar fallback below.
            X0[list(corrupt)] = np.nan
        X, converged, iters, factorizations = engine.solve(
            X0, options, skip_lanes=skip_lanes)
        # Scalar-ladder fallback for the stragglers, seeded from the
        # nearest converged lane (or the pilot).
        fallback = np.flatnonzero(~converged)
        ok_lanes = np.flatnonzero(converged)
        for lane in fallback:
            element.spec = DcSpec(float(slab[lane]))
            if ok_lanes.size:
                nearest = int(ok_lanes[np.argmin(np.abs(ok_lanes - lane))])
                x0 = X[nearest].copy()
            else:
                x0 = pilot.x.copy()
            solution = dc_operating_point(circuit, x0=x0, options=options)
            X[lane] = solution.x
        if session is not None:
            sp.set(iterations=int(iters.max(initial=0)),
                   converged_lanes=int(converged.sum()),
                   fallback_lanes=int(fallback.size))
            metrics = session.metrics
            metrics.inc("solver.dc.batch.solves")
            metrics.inc("solver.dc.batch.lanes", B)
            metrics.inc("solver.dc.batch.fallback_lanes", int(fallback.size))
            metrics.inc("solver.factorizations", factorizations)
            metrics.observe("solver.dc.batch.iterations",
                            int(iters.max(initial=0)),
                            telemetry.ITERATION_BUCKETS)
            metrics.observe("solver.dc.batch.lanes_per_solve", B,
                            telemetry.LANE_BUCKETS)
    return X
