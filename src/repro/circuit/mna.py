"""Modified nodal analysis (MNA) system assembly.

The :class:`Stamper` wraps the dense system matrix ``A`` and right-hand
side ``b`` with ground-aware accumulation helpers, so element stamps can
use node index ``-1`` for ground without special-casing.

Sign conventions:

* KCL rows are written as ``sum of currents LEAVING the node = 0``;
  a conductance between a and b contributes ``+g`` on the diagonal;
* :meth:`Stamper.current` adds a current *injected into* the node, i.e.
  it lands on the RHS with a positive sign.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from repro import telemetry
from repro.circuit import _ckernel

# scipy's solvers bind on first use, not at import: importing
# scipy.linalg or scipy.sparse costs a quarter second, and the compiled
# Newton loop that serves most solves needs neither (it reaches LAPACK
# through ``_ckernel.dgesv_pointer``).  ``_UNBOUND`` marks a routine not
# looked up yet; None marks one that is not importable (a failed bind
# sets it, and tests set it to force the numpy fallback).
_UNBOUND = object()
_dgesv = _UNBOUND
_csc_matrix = _UNBOUND
_splu = _UNBOUND


def _bind_dgesv():
    """Bind scipy's f2py ``dgesv`` (None when not importable)."""
    global _dgesv
    try:
        from scipy.linalg.lapack import dgesv
    except ImportError:
        dgesv = None
    _dgesv = dgesv
    return dgesv


def _bind_sparse() -> None:
    """Bind ``csc_matrix``/``splu`` (None when not importable)."""
    global _csc_matrix, _splu
    try:
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu
    except ImportError:
        csc_matrix = splu = None
    _csc_matrix, _splu = csc_matrix, splu


def dgesv_available() -> bool:
    """Whether scipy's LAPACK ``dgesv`` serves dense solves; answered
    from the compiled loop's ``dgesv`` pointer until a solve binds the
    f2py wrapper, so probing imports no scipy.linalg."""
    if _dgesv is _UNBOUND:
        return _ckernel.dgesv_pointer() is not None
    return _dgesv is not None


#: Below this system size the dense LAPACK path wins: `splu` pays ~100 µs
#: of scipy overhead per factorization, dgesv on a 64-unknown dense
#: system costs single-digit µs.  Override with ``REPRO_SPARSE_MIN_SIZE``
#: or scope with :func:`sparse_mode`.
DEFAULT_SPARSE_MIN_SIZE = 64

_sparse_min_size = [int(os.environ.get("REPRO_SPARSE_MIN_SIZE",
                                       DEFAULT_SPARSE_MIN_SIZE))]


def sparse_min_size() -> int:
    """Current system-size threshold for the sparse solve path.

    Engines built while the threshold is ``t`` use `splu` when their
    system has ≥ ``t`` unknowns (and scipy.sparse is importable);
    smaller systems keep the dense LAPACK path.  A non-positive value
    means "always sparse"; a very large one effectively forces dense.
    """
    return _sparse_min_size[0]


@contextmanager
def sparse_mode(min_size: int) -> Iterator[None]:
    """Scope a different sparse-path threshold.

    The threshold is read when a DC engine is *built*, so wrap circuit
    construction + solve (engines are cached per circuit topology).
    ``sparse_mode(1)`` forces sparse for differential verification;
    ``sparse_mode(10**9)`` forces dense for debugging.
    """
    previous = _sparse_min_size[0]
    _sparse_min_size[0] = int(min_size)
    try:
        yield
    finally:
        _sparse_min_size[0] = previous


_SPARSE_DISABLED = os.environ.get("REPRO_NO_SPARSE", "") not in ("", "0")

# Fault injection: pending count of splu solves to fail artificially
# (consumed by Stamper.solve before the real factorization).  Owned here
# rather than in repro.faultinject to keep the solver core free of
# upward imports; repro.faultinject wraps these.
_forced_singular = [0]


def force_singular_solves(n: int) -> None:
    """Make the next ``n`` sparse factorizations raise (fault
    injection for the singular-splu chaos scenario)."""
    _forced_singular[0] = max(0, int(n))


_sparse_installed: List[bool] = []


def sparse_available() -> bool:
    """Whether scipy's sparse LU path can be used at all; answered from
    import specs (looked up once: every DC engine build asks) until a
    :class:`SparsityPlan` binds ``splu``, so probing imports no
    scipy.sparse."""
    if _SPARSE_DISABLED or _csc_matrix is None or _splu is None:
        return False
    if _csc_matrix is _UNBOUND or _splu is _UNBOUND:
        if not _sparse_installed:
            _sparse_installed.append(
                _ckernel.scipy_subpackage("sparse", "linalg") is not None)
        return _sparse_installed[0]
    return True


class CoordinateRecorder:
    """Stamper lookalike that records *where* stamps land, not values.

    Drives one structural pass over every element stamp to learn the
    MNA sparsity pattern.  Implements the full primitive surface of
    :class:`Stamper` (including the composite helpers, which funnel
    into :meth:`matrix`/:meth:`rhs`) but accumulates coordinates only —
    element stamps run against it unmodified.
    """

    def __init__(self, size: int):
        self.size = size
        self.rows: List[int] = []
        self.cols: List[int] = []

    def matrix(self, row: int, col: int, value: complex = 1.0) -> None:
        """Record one A[row, col] stamp position (ground rows skipped)."""
        if row < 0 or col < 0:
            return
        self.rows.append(row)
        self.cols.append(col)

    def rhs(self, row: int, value: complex = 1.0) -> None:
        """RHS writes carry no structure — a recording no-op."""
        return None

    def conductance(self, node_a: int, node_b: int, g: complex = 1.0) -> None:
        """Record the four positions of a two-terminal conductance."""
        self.matrix(node_a, node_a, g)
        self.matrix(node_b, node_b, g)
        self.matrix(node_a, node_b, g)
        self.matrix(node_b, node_a, g)

    def current(self, node: int, value: complex = 1.0) -> None:
        """Current injections are RHS-only — a recording no-op."""
        return None

    def transconductance(self, out_a: int, out_b: int,
                         ctrl_a: int, ctrl_b: int,
                         gm: complex = 1.0) -> None:
        """Record the four positions of a VCCS stamp."""
        self.matrix(out_a, ctrl_a, gm)
        self.matrix(out_a, ctrl_b, gm)
        self.matrix(out_b, ctrl_a, gm)
        self.matrix(out_b, ctrl_b, gm)

    def branch_voltage(self, node_a: int, node_b: int, branch: int,
                       rhs: complex = 0.0) -> None:
        """Record the branch-row/column positions of a voltage source."""
        self.matrix(node_a, branch, 1.0)
        self.matrix(node_b, branch, 1.0)
        self.matrix(branch, node_a, 1.0)
        self.matrix(branch, node_b, 1.0)

    def add_gmin(self, n_nodes: int, gmin: float = 0.0) -> None:
        """Record the node-diagonal positions the gmin shunt touches."""
        for i in range(n_nodes):
            self.matrix(i, i, gmin)

    def add_flat(self, flat: np.ndarray) -> None:
        """Record row-major flat positions (MosfetGroup scatter plans)."""
        self.rows.extend((flat // self.size).tolist())
        self.cols.extend((flat % self.size).tolist())

    def add_diagonal(self) -> None:
        """Record the full diagonal (gmin + pseudo-transient anchors)."""
        for i in range(self.size):
            self.matrix(i, i, 0.0)


class SparsityPlan:
    """Cached symbolic structure of one circuit topology's MNA matrix.

    Built once per (engine, ``topology_version``) from a structural
    recording pass; afterwards every Newton iteration reuses the plan:
    gather the dense stamp buffer at the precomputed flat positions
    (CSC order), wrap as ``csc_matrix`` with the cached index arrays,
    and numerically factorize with ``splu``.  Only the numeric
    factorization repeats — the symbolic work (pattern dedup, CSC
    ordering) is paid once, which is what the
    ``solver.sparse.plan_reuses`` counter tracks.

    The dense stamp buffer stays the assembly target: element stamps
    and the vectorized MosfetGroup scatter are unchanged, and every
    position they write is part of the recorded pattern, so the gather
    loses nothing.
    """

    def __init__(self, size: int, rows, cols):
        if _splu is _UNBOUND or _csc_matrix is _UNBOUND:
            _bind_sparse()
        if not sparse_available():  # pragma: no cover - scipy is present
            raise RuntimeError("scipy.sparse is not available")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size == 0:
            raise ValueError("empty sparsity pattern")
        # Dedup in CSC order: key = col·size + row.
        csc_keys = np.unique(cols * size + rows)
        self.size = size
        self.nnz = int(csc_keys.size)
        self._indices = (csc_keys % size).astype(np.int32)  # row indices
        csc_cols = csc_keys // size
        self._indptr = np.searchsorted(
            csc_cols, np.arange(size + 1)).astype(np.int32)
        # Gather map from the row-major dense buffer into CSC data order.
        self._gather = (csc_keys % size) * size + csc_cols
        self.factorizations = 0

    def fill_ratio(self) -> float:
        """Pattern nonzeros as a fraction of the dense size² budget."""
        return self.nnz / float(self.size * self.size)

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Factorize the current values of ``a`` and solve against ``b``.

        Raises ``RuntimeError`` on an exactly singular matrix (mapped to
        :class:`SingularCircuitError` by :meth:`Stamper.solve`).
        """
        data = a.ravel()[self._gather]
        matrix = _csc_matrix((data, self._indices, self._indptr),
                             shape=(self.size, self.size))
        lu = _splu(matrix)
        self.factorizations += 1
        return lu.solve(b)




class Stamper:
    """Ground-aware dense MNA matrix/RHS accumulator.

    Holds ONE system.  :class:`repro.circuit.batch.BatchStamper` is the
    lane-axis mirror of this interface over ``(B, size, size)`` stacked
    systems — keep their primitive semantics in sync.
    """

    def __init__(self, size: int, dtype=float):
        if size <= 0:
            raise ValueError(f"system size must be positive, got {size}")
        self.size = size
        self.a = np.zeros((size, size), dtype=dtype)
        self.b = np.zeros(size, dtype=dtype)
        self._gmin_diag: Optional[np.ndarray] = None
        #: Optional :class:`SparsityPlan`; when set (large circuits —
        #: see the DC engine), :meth:`solve` routes through scipy splu.
        self.plan: Optional["SparsityPlan"] = None

    def clear(self) -> None:
        """Zero the matrix and RHS for re-stamping."""
        self.a.fill(0)
        self.b.fill(0)

    def load_from(self, other: "Stamper") -> None:
        """Overwrite this system with another stamper's A and b.

        Used by the Newton loop to reset to a pre-assembled constant
        (linear-element) part instead of re-stamping it every iteration.
        """
        np.copyto(self.a, other.a)
        np.copyto(self.b, other.b)

    # ------------------------------------------------------------------
    # Primitive accumulation
    # ------------------------------------------------------------------
    def matrix(self, row: int, col: int, value: complex) -> None:
        """Add ``value`` at ``A[row, col]`` (ignored if either is ground)."""
        if row < 0 or col < 0:
            return
        self.a[row, col] += value

    def rhs(self, row: int, value: complex) -> None:
        """Add ``value`` to ``b[row]`` (ignored for ground)."""
        if row < 0:
            return
        self.b[row] += value

    # ------------------------------------------------------------------
    # Composite stamps
    # ------------------------------------------------------------------
    def conductance(self, node_a: int, node_b: int, g: complex) -> None:
        """Stamp conductance ``g`` between ``node_a`` and ``node_b``."""
        self.matrix(node_a, node_a, g)
        self.matrix(node_b, node_b, g)
        self.matrix(node_a, node_b, -g)
        self.matrix(node_b, node_a, -g)

    def current(self, node: int, value: complex) -> None:
        """Inject current ``value`` INTO ``node`` (RHS contribution)."""
        self.rhs(node, value)

    def transconductance(self, out_a: int, out_b: int,
                         ctrl_a: int, ctrl_b: int, gm: complex) -> None:
        """Stamp ``i(out_a→out_b) = gm · v(ctrl_a - ctrl_b)``."""
        self.matrix(out_a, ctrl_a, gm)
        self.matrix(out_a, ctrl_b, -gm)
        self.matrix(out_b, ctrl_a, -gm)
        self.matrix(out_b, ctrl_b, gm)

    def branch_voltage(self, node_a: int, node_b: int, branch: int,
                       rhs: complex) -> None:
        """Stamp an ideal voltage constraint ``v(a) - v(b) = rhs`` whose
        branch current is unknown ``x[branch]`` (flowing a → b)."""
        self.matrix(node_a, branch, 1.0)
        self.matrix(node_b, branch, -1.0)
        self.matrix(branch, node_a, 1.0)
        self.matrix(branch, node_b, -1.0)
        self.rhs(branch, rhs)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def add_gmin(self, n_nodes: int, gmin: float) -> None:
        """Add ``gmin`` from every node to ground (convergence aid).

        Only the first ``n_nodes`` diagonal entries are node equations;
        branch rows are left untouched.
        """
        if gmin < 0.0:
            raise ValueError(f"gmin must be non-negative, got {gmin}")
        diag = self._gmin_diag
        if diag is None or diag.size != n_nodes:
            # Strided view of the node diagonal: no index temporaries.
            step = self.size + 1
            diag = self.a.reshape(-1)[:n_nodes * step:step]
            self._gmin_diag = diag
        diag += gmin

    def solve(self, x0: Optional[np.ndarray] = None) -> np.ndarray:
        """Solve ``A·x = b``; raises ``SingularCircuitError`` when singular."""
        if self.plan is not None and self.a.dtype == np.float64:
            try:
                if _forced_singular[0] > 0:
                    _forced_singular[0] -= 1
                    raise RuntimeError(
                        "injected singular splu factorization "
                        "(fault injection)")
                return self.plan.solve(self.a, self.b)
            except RuntimeError as exc:
                # A failed sparse factorization is a *degradation*, not
                # a verdict: the dense path below retries this solve,
                # and only its failure proves singularity.
                self._record_sparse_fallback(exc)
        # Calling LAPACK ``dgesv`` directly skips ~4 µs of np.linalg
        # dispatch per solve — material on the Newton inner loop.  The
        # complex (AC) path keeps the numpy front end.
        dgesv = _dgesv
        if dgesv is _UNBOUND:
            dgesv = _bind_dgesv()
        if dgesv is not None and self.a.dtype == np.float64:
            _, _, x, info = dgesv(self.a, self.b)
            if info == 0:
                return x
            raise self.singular_error()
        try:
            x = np.linalg.solve(self.a, self.b)
        except np.linalg.LinAlgError as exc:
            raise self.singular_error() from exc
        return x

    def _record_sparse_fallback(self, exc: BaseException) -> None:
        """A splu failure fell back to dense (cold path only)."""
        session = telemetry.active()
        if session is not None:
            session.metrics.inc("solver.sparse.fallbacks")
            session.tracer.event("solver.sparse.fallback", size=self.size,
                                 reason=str(exc))

    def singular_error(self) -> "SingularCircuitError":
        """Record a failed factorization of this system (telemetry, cold
        path only) and return the error to raise."""
        session = telemetry.active()
        if session is not None:
            session.metrics.inc("solver.singular_matrices")
            session.tracer.event("solver.singular_matrix", size=self.size)
        return SingularCircuitError(
            "singular MNA matrix — floating node or voltage-source loop?")


@dataclass
class StrategyAttempt:
    """One rung of the convergence fallback ladder."""

    name: str
    """Strategy identifier (``newton``, ``gmin-stepping``,
    ``source-stepping``, ``pseudo-transient``, ``step-halving``…)."""

    iterations: int = 0
    """Newton iterations spent inside this strategy."""

    converged: bool = False
    final_residual: float = float("nan")
    """Largest solution update |Δx| when the strategy gave up [V / A]."""

    detail: str = ""
    """Free-form context (gmin reached, ramp fraction, halving depth…)."""

    def to_dict(self) -> dict:
        """JSON-ready payload (failure ledgers, checkpoints)."""
        return {"name": self.name, "iterations": self.iterations,
                "converged": self.converged,
                "final_residual": self.final_residual, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict) -> "StrategyAttempt":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class ConvergenceReport:
    """Structured post-mortem of a failed (or hard-won) solve.

    Attached to every :class:`ConvergenceError` raised by the DC and
    transient engines, and preserved through pickling so process-backend
    workers deliver full diagnostics to the parent.
    """

    analysis: str = "dc"
    """``dc`` or ``transient``."""

    strategies: List[StrategyAttempt] = field(default_factory=list)
    """The fallback ladder in the order it was tried."""

    worst_unknown: Optional[str] = None
    """Node / branch label with the largest final update."""

    worst_device: Optional[str] = None
    """A device attached to the worst node (best-effort attribution)."""

    message: str = ""

    @property
    def total_iterations(self) -> int:
        """Newton iterations summed over every strategy."""
        return sum(a.iterations for a in self.strategies)

    @property
    def final_residual(self) -> float:
        """Residual of the last strategy attempted."""
        if not self.strategies:
            return float("nan")
        return self.strategies[-1].final_residual

    def strategy_names(self) -> List[str]:
        """Names of the strategies tried, in ladder order."""
        return [a.name for a in self.strategies]

    def summary(self) -> str:
        """One-line human-readable digest."""
        ladder = " -> ".join(
            f"{a.name}({a.iterations}it)" for a in self.strategies) or "none"
        parts = [f"{self.analysis} solve failed after {ladder}"]
        if self.worst_unknown:
            parts.append(f"worst unknown {self.worst_unknown}")
        if self.worst_device:
            parts.append(f"near device {self.worst_device}")
        return "; ".join(parts)

    def to_dict(self) -> dict:
        """JSON-ready payload (failure ledgers, checkpoints)."""
        return {"analysis": self.analysis,
                "strategies": [a.to_dict() for a in self.strategies],
                "worst_unknown": self.worst_unknown,
                "worst_device": self.worst_device,
                "message": self.message}

    @classmethod
    def from_dict(cls, data: dict) -> "ConvergenceReport":
        """Inverse of :meth:`to_dict`; tolerates missing keys."""
        return cls(
            analysis=data.get("analysis", "dc"),
            strategies=[StrategyAttempt.from_dict(a)
                        for a in data.get("strategies", [])],
            worst_unknown=data.get("worst_unknown"),
            worst_device=data.get("worst_device"),
            message=data.get("message", ""))


class SolverError(RuntimeError):
    """Base class of simulator failures with structured diagnostics.

    Subclasses carry extra payload beyond ``args``; ``__reduce__``
    rebuilds them from that payload so the diagnostics survive the
    pickle round-trip a process-pool worker puts them through.
    """

    def __reduce__(self):
        return type(self), self._reduce_args()

    def _reduce_args(self) -> tuple:
        return tuple(self.args)


class SingularCircuitError(SolverError):
    """The MNA matrix could not be factorised."""


class ConvergenceError(SolverError):
    """Newton–Raphson failed to converge after all fallback strategies.

    ``report`` (when present) records the strategy ladder, iteration
    counts, final residual and worst-device attribution;
    ``worst_index`` is the raw unknown index with the largest final
    update (labelled by the analysis layer that owns the circuit).
    """

    def __init__(self, message: str,
                 report: Optional[ConvergenceReport] = None,
                 iterations: int = 0,
                 final_residual: float = float("nan"),
                 worst_index: Optional[int] = None):
        super().__init__(message)
        self.report = report
        self.iterations = iterations
        self.final_residual = final_residual
        self.worst_index = worst_index

    def _reduce_args(self) -> tuple:
        return (self.args[0] if self.args else "", self.report,
                self.iterations, self.final_residual, self.worst_index)
