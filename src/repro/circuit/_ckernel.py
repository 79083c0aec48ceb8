"""Optional compiled kernels for the analytic MOSFET model and the
dense Newton loop.

The vectorized :class:`~repro.circuit.mosfet.MosfetGroup` pays one numpy
ufunc dispatch (~0.7 µs) per arithmetic step; on the tiny analog cells
this library solves (3–20 devices) that dispatch — not the arithmetic —
is the entire cost of a Newton iteration.  This module compiles four
entry points into a small C shared library at first use:

* ``repro_stamp_mosfets[_batch]`` — the analytic model pass (same
  closed-form equations as ``Mosfet._linearize_nmos``) stamping
  Jacobian + companion entries directly into the dense MNA arrays,
  replacing ~50 ufunc dispatches with one foreign call;
* ``repro_newton_dense`` — the whole damped-Newton iteration of an
  all-MOSFET dense system (see :func:`repro.circuit.dc.newton_solve`):
  per iteration it copies the constant base system, calls the stamp
  pass above, solves with LAPACK ``dgesv`` and applies the damping,
  NaN/Inf guard and convergence test — one foreign call per solve
  instead of ~15 numpy and ctypes calls per iteration;
* ``repro_sweep_dense`` — a whole voltage-source DC sweep (see
  :func:`repro.circuit.dc.dc_sweep`): per point it writes the swept
  value into the base system's branch row, forms the secant predictor
  and runs ``repro_newton_dense`` — one foreign call per sweep;
* ``repro_transient_dense`` — the grid steps of a fixed-step transient
  (see :func:`repro.circuit.transient.transient`): per step it writes
  the capacitor companions and source values, replays the step's base
  system from a stamp tape, forms the two-point predictor, runs
  ``repro_newton_dense``, applies the LTE test and commits the
  capacitor state — one foreign call per transient.

The Newton loop is **bit-identical** to the Python loop it replaces,
not merely close: ``dgesv`` is the very routine scipy's f2py wrapper
reaches (its function pointer comes from
``scipy.linalg.cython_lapack``), fed the same column-major copy of the
same matrix; the update arithmetic runs in numpy's operation order; and
the library is built with ``-ffp-contract=off`` so the compiler never
fuses a multiply-add into an FMA that numpy would round twice.

Design constraints:

* **Optional everywhere.**  No compiler, a failed build, or the
  ``REPRO_NO_CKERNEL=1`` kill switch all degrade silently to the pure
  numpy analytic path — results are identical to rounding (the C and
  numpy passes evaluate the same expressions; Newton converges to the
  same fixed point well inside its 1e-9 tolerance either way).  The
  Newton loop additionally needs scipy's LAPACK (the ``dgesv``
  capability); without it solves run the Python loop.
* **Build once per machine.**  The library is compiled into the system
  temp directory keyed by a hash of the C source and the compiler
  flags, so process-pool workers and repeated test sessions reuse one
  artifact; the build is written to a unique name and atomically
  renamed to survive races.
* **No new dependencies.**  Plain ``gcc -O2 -shared`` + ``ctypes``.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import List, Optional

_C_SOURCE = r"""
#include <math.h>
#include <string.h>

static double log1pexp(double v) {
    if (v > 40.0) return v;
    if (v < -40.0) return 0.0;
    return log1p(exp(v));
}

static double sigmoid(double v) {
    return 0.5 * (1.0 + tanh(0.5 * v));
}

/* Stamp the linearized companion models of B lanes x n devices into B
 * stacked dense MNA systems.  Mirrors Mosfet._linearize_nmos /
 * MosfetGroup._stamp_analytic: NMOS-frame closed-form (ids, gm, gds,
 * gmb), polarity by reflection (conductances frame-invariant, current
 * carries the sign).
 *
 * XE: (B, size+1) solution vectors whose trailing slot is 0 — ground
 * nodes are encoded as index `size`.  A is the row-major dense
 * (B, size, size) stack, BV the (B, size) RHS stack.  The dynamic
 * parameters vt0p/gamma/c0/lam are either shared across lanes
 * (dyn_stride = 0, arrays of length n) or per-lane snapshots
 * (dyn_stride = n, arrays of shape (B, n)); the statics (phi...) are
 * always shared.  clm_v is the CLM softplus scale.
 */
void repro_stamp_mosfets_batch(
    long n_lanes, long n, long size, const double *XE, const long *dgsb,
    const double *sign, const double *vt0p, const double *gamma,
    const double *phi, const double *phi_cap, const double *inv_nphit,
    const double *theta_nphit, const double *inv_ns2, const double *inv_s2,
    const double *theta_eff, const double *c0, const double *lam,
    long dyn_stride, double clm_v, double *A, double *BV)
{
    double inv_clm = 1.0 / clm_v;
    for (long k = 0; k < n_lanes; k++) {
    const double *xe = XE + k * (size + 1);
    const double *vt0p_k = vt0p + k * dyn_stride;
    const double *gamma_k = gamma + k * dyn_stride;
    const double *c0_k = c0 + k * dyn_stride;
    const double *lam_k = lam + k * dyn_stride;
    double *a = A + k * size * size;
    double *bv = BV + k * size;
    for (long i = 0; i < n; i++) {
        long d = dgsb[4 * i], g = dgsb[4 * i + 1];
        long s = dgsb[4 * i + 2], b = dgsb[4 * i + 3];
        double vs = xe[s];
        double vgs_o = xe[g] - vs, vds_o = xe[d] - vs, vbs_o = xe[b] - vs;
        double sgn = sign[i];
        double vgs = sgn * vgs_o, vds = sgn * vds_o, vbs = sgn * vbs_o;
        int clamped = vbs >= phi_cap[i];
        double vbs_c = clamped ? phi_cap[i] : vbs;
        double sq = sqrt(phi[i] - vbs_c);
        double ov = vgs - (vt0p_k[i] + gamma_k[i] * sq);
        double xf = ov * inv_ns2[i];
        double xr = xf - vds * inv_s2[i];
        double lf = log1pexp(xf), lr = log1pexp(xr);
        double sf = sigmoid(xf), sr = sigmoid(xr);
        double den = 1.0 + theta_nphit[i] * log1pexp(ov * inv_nphit[i]);
        double dden = theta_eff[i] * sigmoid(ov * inv_nphit[i]);
        double F = lf * lf - lr * lr;
        double dF_dov = 2.0 * inv_ns2[i] * (lf * sf - lr * sr);
        double dF_dvds = 2.0 * inv_s2[i] * lr * sr;
        double c0invD = c0_k[i] / den;
        double ids0 = F * c0invD;
        double z = vds * inv_clm;
        double clm = 1.0 + lam_k[i] * clm_v * log1pexp(z);
        double dclm = lam_k[i] * sigmoid(z);
        double gm = (dF_dov - F / den * dden) * c0invD * clm;
        double gds = dF_dvds * c0invD * clm + ids0 * dclm;
        double gmb = clamped ? 0.0 : gm * gamma_k[i] / (2.0 * sq);
        double ids = sgn * ids0 * clm;
        double ieq = ids - gm * vgs_o - gds * vds_o - gmb * vbs_o;
        double gsum = gm + gds + gmb;
        if (d < size) {
            if (g < size) a[d * size + g] += gm;
            a[d * size + d] += gds;
            if (b < size) a[d * size + b] += gmb;
            if (s < size) a[d * size + s] -= gsum;
            bv[d] -= ieq;
        }
        if (s < size) {
            if (g < size) a[s * size + g] -= gm;
            if (d < size) a[s * size + d] -= gds;
            if (b < size) a[s * size + b] -= gmb;
            a[s * size + s] += gsum;
            bv[s] += ieq;
        }
    }
    }
}

/* The scalar entry point: one lane, shared dynamic parameters. */
void repro_stamp_mosfets(
    long n, long size, const double *xe, const long *dgsb,
    const double *sign, const double *vt0p, const double *gamma,
    const double *phi, const double *phi_cap, const double *inv_nphit,
    const double *theta_nphit, const double *inv_ns2, const double *inv_s2,
    const double *theta_eff, const double *c0, const double *lam,
    double clm_v, double *a, double *bv)
{
    repro_stamp_mosfets_batch(1, n, size, xe, dgsb, sign, vt0p, gamma,
                              phi, phi_cap, inv_nphit, theta_nphit,
                              inv_ns2, inv_s2, theta_eff, c0, lam,
                              0, clm_v, a, bv);
}

/* LAPACK dgesv as exported by scipy.linalg.cython_lapack (LP64). */
typedef void (*repro_dgesv_fn)(int *n, int *nrhs, double *a, int *lda,
                               int *ipiv, double *b, int *ldb, int *info);

/* Argument block of repro_newton_dense: the MOSFET stamp arguments of
 * one group, the Newton workspace buffers and the dgesv pointer.  Built
 * once per (group, workspace) on the Python side (NewtonArgs there
 * must mirror this layout); `iterations` is written back. */
typedef struct {
    long n, size;
    const long *dgsb;
    const double *sign, *vt0p, *gamma, *phi, *phi_cap, *inv_nphit,
        *theta_nphit, *inv_ns2, *inv_s2, *theta_eff, *c0, *lam;
    double clm_v;
    double *xe, *a, *bv;
    const double *base_a;
    double *base_b;
    double *lu, *x_new, *abs_delta;
    int *ipiv;
    repro_dgesv_fn dgesv;
    long iterations;
} repro_newton_args;

enum {
    REPRO_NEWTON_CONVERGED = 0,
    REPRO_NEWTON_MAX_ITER = 1,
    REPRO_NEWTON_NONFINITE = 2,
    REPRO_NEWTON_SINGULAR = 3
};

/* Damped Newton on a dense all-MOSFET MNA system, updating x in place.
 * Mirrors the Python loop of dc.newton_solve operation for operation so
 * the iterates are bit-identical: base copy, stamp, dgesv on a
 * column-major copy (what scipy's f2py wrapper hands LAPACK), then the
 * node-voltage damping, the NaN/Inf guard on the undamped node update
 * and the |dx| <= max(|x|, 1)*reltol + vtol test.  abs_delta is left
 * holding the last |dx| for the caller's failure diagnostics. */
int repro_newton_dense(repro_newton_args *w, double *x, long n_nodes,
                       long max_iter, double damping_v, double reltol,
                       double vtol)
{
    long size = w->size;
    int n = (int) size, nrhs = 1, info = 0;
    double *a = w->a, *bv = w->bv, *lu = w->lu;
    double *xn = w->x_new, *ad = w->abs_delta;
    w->iterations = 0;
    for (long it = 1; it <= max_iter; it++) {
        w->iterations = it;
        memcpy(a, w->base_a, (size_t) (size * size) * sizeof(double));
        memcpy(bv, w->base_b, (size_t) size * sizeof(double));
        memcpy(w->xe, x, (size_t) size * sizeof(double));
        repro_stamp_mosfets_batch(
            1, w->n, size, w->xe, w->dgsb, w->sign, w->vt0p, w->gamma,
            w->phi, w->phi_cap, w->inv_nphit, w->theta_nphit, w->inv_ns2,
            w->inv_s2, w->theta_eff, w->c0, w->lam, 0, w->clm_v, a, bv);
        for (long i = 0; i < size; i++) {
            xn[i] = bv[i];
            for (long j = 0; j < size; j++)
                lu[j * size + i] = a[i * size + j];
        }
        w->dgesv(&n, &nrhs, lu, &n, w->ipiv, xn, &n, &info);
        if (info != 0)
            return REPRO_NEWTON_SINGULAR;
        for (long i = 0; i < size; i++) {
            xn[i] = xn[i] - x[i];
            ad[i] = fabs(xn[i]);
        }
        double max_dv = 0.0;
        for (long i = 0; i < n_nodes; i++) {
            if (!isfinite(ad[i]))
                return REPRO_NEWTON_NONFINITE;
            if (ad[i] > max_dv)
                max_dv = ad[i];
        }
        if (max_dv > damping_v) {
            double factor = damping_v / max_dv;
            for (long i = 0; i < size; i++) {
                xn[i] *= factor;
                ad[i] *= factor;
            }
        }
        int converged = 1;
        for (long i = 0; i < size; i++) {
            x[i] += xn[i];
            double scale = fabs(x[i]);
            if (scale < 1.0)  /* NaN stays NaN, as np.maximum keeps it */
                scale = 1.0;
            scale *= reltol;
            scale += vtol;
            if (!(ad[i] <= scale))
                converged = 0;
        }
        if (converged)
            return REPRO_NEWTON_CONVERGED;
    }
    return REPRO_NEWTON_MAX_ITER;
}

/* DC sweep of one voltage source over points [start, n_points), row i
 * of the (n_points, size) X receiving point i's solution and iters[i]
 * its Newton iterations.  Mirrors the point loop of dc.dc_sweep: the
 * source's branch row of the base RHS gets 0.0 + scale * values[i]
 * (what stamping it into a cleared base gives; nothing else writes that
 * row), and the initial guess is the secant predictor
 * 2.0 * X[i-1] - X[i-2] as numpy rounds it, X[0] for point 1, and
 * whatever the caller left in X[0] for point 0.  Stops at the first
 * point that does not converge and returns its index (n_points when
 * all converge); the caller replays that point through the fallback
 * ladder and resumes at the next one. */
long repro_sweep_dense(repro_newton_args *w, double *X,
                       const double *values, long start, long n_points,
                       long branch_row, double scale, long *iters,
                       long n_nodes, long max_iter, double damping_v,
                       double reltol, double vtol)
{
    long size = w->size;
    for (long i = start; i < n_points; i++) {
        double *x = X + i * size;
        if (i >= 2) {
            const double *x1 = x - size, *x2 = x - 2 * size;
            for (long j = 0; j < size; j++)
                x[j] = 2.0 * x1[j] - x2[j];
        } else if (i == 1) {
            memcpy(x, X, (size_t) size * sizeof(double));
        }
        w->base_b[branch_row] = 0.0 + scale * values[i];
        int status = repro_newton_dense(w, x, n_nodes, max_iter, damping_v,
                                        reltol, vtol);
        if (status != REPRO_NEWTON_CONVERGED)
            return i;
        iters[i] = w->iterations;
    }
    return n_points;
}

/* The base system and capacitor history of one transient, as
 * repro_transient_dense replays them.  The base is a stamp tape: entry
 * e adds sign[e] * value[slot[e]] to A[index[e]] (index < size*size) or
 * to b[index[e] - size*size], in the order Python stamps the linear
 * companions, the gate leaks and gmin, so every entry sums its terms in
 * the same order.  Slots 2k and 2k+1 hold capacitor k's geq and ieq,
 * the next n_sources slots the source values of the step (row `step` of
 * source_values), the rest constants.  TransientArgs there must mirror
 * this layout. */
typedef struct {
    long n_entries;
    const long *index, *slot;
    const double *sign;
    double *value;
    long n_caps;
    const long *cap_plus, *cap_minus;  /* node index, -1 for ground */
    const double *cap_c;
    double *cap_v, *cap_i;
    long n_sources;
    const double *source_values;
    double dt, lte_rtol;
    long trapezoidal, check_lte;
} repro_transient_args;

/* Grid steps [start, n_steps] of a fixed-step transient, row `step` of
 * the (n_steps + 1, size) X receiving its solution and iters[step] its
 * Newton iterations.  Mirrors a clean step of transient._transient_impl:
 * t = step * dt, dt_loc = t - (t - dt) as `advance` computes it, the
 * capacitor companions (trapezoidal or backward Euler) and source
 * values written into the value slots, the tape replayed into the
 * cleared base, Newton from the two-point predictor 2.0 * X[step-1] -
 * X[step-2] (from X[0] at step 1), the LTE test and the capacitor
 * state commit.  Stops at the first step that does not converge or
 * fails the LTE test and returns its index (n_steps + 1 when all pass),
 * leaving the capacitor state at the end of the step before; the
 * caller replays that step through its halving logic and resumes at
 * the next one. */
long repro_transient_dense(repro_newton_args *w, repro_transient_args *t,
                           double *X, long start, long n_steps, long *iters,
                           long n_nodes, long max_iter, double damping_v,
                           double reltol, double vtol)
{
    long size = w->size, nn = size * size;
    double *base_a = (double *) w->base_a, *base_b = w->base_b;
    double *value = t->value, *source_slots = value + 2 * t->n_caps;
    for (long step = start; step <= n_steps; step++) {
        double time = (double) step * t->dt;
        double dt_loc = time - (time - t->dt);
        double *x = X + step * size;
        const double *x1 = x - size;
        for (long k = 0; k < t->n_caps; k++) {
            double c = t->cap_c[k], geq;
            if (t->trapezoidal) {
                geq = 2.0 * c / dt_loc;
                value[2 * k + 1] = geq * t->cap_v[k] + t->cap_i[k];
            } else {
                geq = c / dt_loc;
                value[2 * k + 1] = geq * t->cap_v[k];
            }
            value[2 * k] = geq;
        }
        memcpy(source_slots, t->source_values + step * t->n_sources,
               (size_t) t->n_sources * sizeof(double));
        memset(base_a, 0, (size_t) nn * sizeof(double));
        memset(base_b, 0, (size_t) size * sizeof(double));
        for (long e = 0; e < t->n_entries; e++) {
            long i = t->index[e];
            double v = t->sign[e] * value[t->slot[e]];
            if (i < nn)
                base_a[i] += v;
            else
                base_b[i - nn] += v;
        }
        if (step >= 2) {
            const double *x2 = x1 - size;
            for (long j = 0; j < size; j++)
                x[j] = 2.0 * x1[j] - x2[j];
        } else {
            memcpy(x, x1, (size_t) size * sizeof(double));
        }
        int status = repro_newton_dense(w, x, n_nodes, max_iter, damping_v,
                                        reltol, vtol);
        if (status != REPRO_NEWTON_CONVERGED)
            return step;
        if (t->check_lte && step >= 2) {
            const double *x2 = x1 - size;
            for (long j = 0; j < n_nodes; j++) {
                double scale = fabs(x[j]);
                if (scale < 1.0)
                    scale = 1.0;
                double err = fabs(x[j] - (2.0 * x1[j] - x2[j])) / scale;
                if (!(err <= t->lte_rtol))  /* NaN rejects too */
                    return step;
            }
        }
        iters[step] = w->iterations;
        for (long k = 0; k < t->n_caps; k++) {
            long a = t->cap_plus[k], b = t->cap_minus[k];
            double v_new = (a >= 0 ? x[a] : 0.0) - (b >= 0 ? x[b] : 0.0);
            double c = t->cap_c[k];
            if (t->trapezoidal)
                t->cap_i[k] = (2.0 * c / dt_loc) * (v_new - t->cap_v[k])
                    - t->cap_i[k];
            else
                t->cap_i[k] = (c / dt_loc) * (v_new - t->cap_v[k]);
            t->cap_v[k] = v_new;
        }
    }
    return n_steps + 1;
}
"""

_DISABLED = os.environ.get("REPRO_NO_CKERNEL", "") not in ("", "0")

#: Compiler flags; part of the cache key.  ``-ffp-contract=off`` keeps
#: every multiply and add separately rounded, as numpy rounds them —
#: without it gcc may emit FMAs on targets that have them (aarch64).
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: ``repro_newton_dense`` outcomes (the values of its C enum).
NEWTON_CONVERGED, NEWTON_MAX_ITER, NEWTON_NONFINITE, NEWTON_SINGULAR = \
    range(4)

_PTR_FIELDS = ("sign", "vt0p", "gamma", "phi", "phi_cap", "inv_nphit",
               "theta_nphit", "inv_ns2", "inv_s2", "theta_eff", "c0", "lam")
_BUF_FIELDS = ("xe", "a", "bv", "base_a", "base_b", "lu", "x_new",
               "abs_delta", "ipiv", "dgesv")


class NewtonArgs(ctypes.Structure):
    """ctypes mirror of the C ``repro_newton_args`` block (same field
    order); every pointer field holds a raw address."""

    _fields_ = ([("n", ctypes.c_long), ("size", ctypes.c_long),
                 ("dgsb", ctypes.c_void_p)]
                + [(name, ctypes.c_void_p) for name in _PTR_FIELDS]
                + [("clm_v", ctypes.c_double)]
                + [(name, ctypes.c_void_p) for name in _BUF_FIELDS]
                + [("iterations", ctypes.c_long)])


class TransientArgs(ctypes.Structure):
    """ctypes mirror of the C ``repro_transient_args`` block (same field
    order); every pointer field holds a raw address."""

    _fields_ = ([("n_entries", ctypes.c_long)]
                + [(name, ctypes.c_void_p)
                   for name in ("index", "slot", "sign", "value")]
                + [("n_caps", ctypes.c_long)]
                + [(name, ctypes.c_void_p) for name in
                   ("cap_plus", "cap_minus", "cap_c", "cap_v", "cap_i")]
                + [("n_sources", ctypes.c_long),
                   ("source_values", ctypes.c_void_p),
                   ("dt", ctypes.c_double), ("lte_rtol", ctypes.c_double),
                   ("trapezoidal", ctypes.c_long),
                   ("check_lte", ctypes.c_long)])


def scipy_subpackage(*parts: str) -> Optional[List[str]]:
    """Search locations of the scipy subpackage ``scipy.<parts>``, or
    None when scipy is not an installed package holding it.

    Read from import specs alone: no scipy code runs, so asking whether
    ``scipy.sparse.linalg`` is there costs microseconds where importing
    it costs a tenth of a second.  A ``scipy.py`` module shadowing the
    package has no search locations and answers None."""
    try:
        spec = importlib.util.find_spec("scipy")
    except (ImportError, ValueError):
        return None
    locations = spec.submodule_search_locations if spec else None
    for part in parts:
        if not locations:
            return None
        spec = importlib.machinery.PathFinder.find_spec(part, locations)
        locations = spec.submodule_search_locations if spec else None
    return list(locations) if locations else None


def _cython_lapack():
    """``scipy.linalg.cython_lapack``, loaded by spec from scipy's
    package directory so ``scipy/linalg/__init__`` (a quarter second:
    the whole linalg namespace and its array-api shim) never runs; the
    plain import on any failure.  Either way it is the one extension
    module, so its capsules hold the same pointers."""
    name = "scipy.linalg.cython_lapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    try:
        found = importlib.machinery.PathFinder.find_spec(
            "cython_lapack", scipy_subpackage("linalg") or [])
        spec = importlib.util.spec_from_file_location(name, found.origin)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception:
        from scipy.linalg import cython_lapack

        return cython_lapack


_dgesv_address: list = []

#: Serialises the first-use look-ups (the LAPACK address, the library
#: build): the chunk threads of a run reach them together, and a
#: thread that raced another's unfinished look-up could record an
#: absence that then holds for the whole process.
_FIRST_USE = threading.Lock()


def dgesv_pointer() -> Optional[int]:
    """Address of LAPACK ``dgesv`` as exported by
    ``scipy.linalg.cython_lapack`` — the same routine scipy's f2py
    ``dgesv`` wrapper calls — or None without scipy."""
    if not _dgesv_address:
        with _FIRST_USE:
            if not _dgesv_address:
                _dgesv_address.append(_lookup_dgesv())
    return _dgesv_address[0]


def _lookup_dgesv() -> Optional[int]:
    try:
        capsule = _cython_lapack().__pyx_capi__["dgesv"]
        api = ctypes.pythonapi
        get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", api))
        get_pointer = ctypes.PYFUNCTYPE(
            ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", api))
        return get_pointer(capsule, get_name(capsule))
    except Exception:
        return None

_lib: Optional[ctypes.CDLL] = None
_build_attempted = False

# ``_force_fail`` makes _compile() fail on demand (fault injection for
# the compile-failure chaos scenario); a list cell so tests and workers
# can flip it without rebinding importers' references.
_force_fail = [False]


def force_compile_failure(enabled: bool = True) -> None:
    """Make the next build attempt fail (fault injection); resets the
    cached build state so the failure is actually exercised."""
    _force_fail[0] = bool(enabled)
    reset()


def reset() -> None:
    """Forget the cached library/build attempt (tests, chaos probes).
    The on-disk ``.so`` cache survives, so a healthy re-load is an
    instant dlopen, not a recompile."""
    global _lib, _build_attempted
    _lib = None
    _build_attempted = False


def active() -> bool:
    """Cheap per-call gate for already-bound batch kernels: the library
    is loaded and not disabled."""
    return _lib is not None and not _DISABLED


def _compile() -> Optional[ctypes.CDLL]:
    """Build (or reuse) the shared library; None when impossible."""
    if _force_fail[0]:
        return None
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        return None
    key = _C_SOURCE + "\0" + " ".join(_CFLAGS)
    tag = hashlib.sha256(key.encode()).hexdigest()[:16]
    cached = os.path.join(tempfile.gettempdir(), f"repro_ckernel_{tag}.so")
    if not os.path.exists(cached):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "kernel.c")
            out = os.path.join(tmp, "kernel.so")
            with open(src, "w") as fh:
                fh.write(_C_SOURCE)
            result = subprocess.run(
                [cc, *_CFLAGS, "-o", out, src, "-lm"],
                capture_output=True)
            if result.returncode != 0:
                return None
            # Atomic publish: concurrent builders race benignly.
            os.replace(out, cached)
    lib = ctypes.CDLL(cached)
    # The stamp pass and the Newton solve run for microseconds: they
    # keep the GIL (bound through a PyDLL handle on the same library),
    # since releasing it hands the interpreter to another thread at
    # every call and waits to get it back.  The sweep and transient
    # entry points run for a whole sweep or transient and release it,
    # so other threads run meanwhile.
    held = ctypes.PyDLL(cached)
    lib.repro_stamp_mosfets = held.repro_stamp_mosfets
    lib.repro_newton_dense = held.repro_newton_dense
    fn = lib.repro_stamp_mosfets
    fn.restype = None
    fn.argtypes = [ctypes.c_long, ctypes.c_long] + \
        [ctypes.c_void_p] * 14 + [ctypes.c_double] + [ctypes.c_void_p] * 2
    bfn = lib.repro_stamp_mosfets_batch
    bfn.restype = None
    bfn.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_long] + \
        [ctypes.c_void_p] * 14 + [ctypes.c_long, ctypes.c_double] + \
        [ctypes.c_void_p] * 2
    nfn = lib.repro_newton_dense
    nfn.restype = ctypes.c_int
    nfn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
                    ctypes.c_long] + [ctypes.c_double] * 3
    sfn = lib.repro_sweep_dense
    sfn.restype = ctypes.c_long
    sfn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long] * 3 + \
        [ctypes.c_double, ctypes.c_void_p, ctypes.c_long, ctypes.c_long] + \
        [ctypes.c_double] * 3
    tfn = lib.repro_transient_dense
    tfn.restype = ctypes.c_long
    tfn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long] * 2 + \
        [ctypes.c_void_p] + [ctypes.c_long] * 2 + [ctypes.c_double] * 3
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, building it on first call.

    Returns None when disabled (``REPRO_NO_CKERNEL=1``), when no C
    compiler is available, or when the build failed — callers fall back
    to the numpy analytic pass.
    """
    global _lib, _build_attempted
    if _DISABLED:
        return None
    if not _build_attempted:
        with _FIRST_USE:
            if not _build_attempted:
                try:
                    _lib = _compile()
                except Exception:
                    _lib = None
                _build_attempted = True
    return _lib


def address(array) -> int:
    """The data pointer of a numpy array — ``array.ctypes.data`` — read
    through the buffer protocol, at a third of the cost of numpy's
    ctypes helper object when the array is writable and C-contiguous
    (the helper serves every other array)."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError, BufferError):
        return array.ctypes.data


def newton_dense(block: NewtonArgs, x, n_nodes: int, max_iterations: int,
                 damping_v: float, reltol: float, vtol: float) -> int:
    """Run ``repro_newton_dense`` on ``block``, updating the float64
    vector ``x`` in place; returns a ``NEWTON_*`` status and leaves the
    iteration count in ``block.iterations``.  Callers gate on
    :func:`active` first."""
    return _lib.repro_newton_dense(
        ctypes.addressof(block), address(x), n_nodes, max_iterations,
        damping_v, reltol, vtol)


def sweep_dense(block: NewtonArgs, X, values, start: int, branch_row: int,
                scale: float, iterations, n_nodes: int, max_iterations: int,
                damping_v: float, reltol: float, vtol: float) -> int:
    """Run ``repro_sweep_dense`` on ``block`` over points ``start..``
    of the float64 ``values``, writing solutions into the C-ordered
    float64 ``X`` and Newton iterations into the int64 ``iterations``;
    returns the index of the first point that did not converge
    (``len(values)`` when all did).  Callers gate on :func:`active`
    first."""
    return _lib.repro_sweep_dense(
        ctypes.addressof(block), address(X), address(values), start,
        len(values), branch_row, scale, address(iterations), n_nodes,
        max_iterations, damping_v, reltol, vtol)


def transient_dense(block: NewtonArgs, tape: TransientArgs, X, start: int,
                    iterations, n_nodes: int, max_iterations: int,
                    damping_v: float, reltol: float, vtol: float) -> int:
    """Run ``repro_transient_dense`` on ``block`` and ``tape`` over grid
    steps ``start..`` of the C-ordered float64 ``X`` (one row per grid
    time, row 0 the initial state), writing each step's Newton
    iterations into the int64 ``iterations``; returns the index of the
    first step that did not pass (``len(X)`` when all did).  Callers
    gate on :func:`active` first."""
    return _lib.repro_transient_dense(
        ctypes.addressof(block), ctypes.addressof(tape), address(X),
        start, len(X) - 1, address(iterations), n_nodes, max_iterations,
        damping_v, reltol, vtol)


def available() -> bool:
    """Whether the compiled stamp kernel can be used."""
    return load() is not None
