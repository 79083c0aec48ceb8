"""Resource guard: bound batched-slab memory before allocating it.

The batched DC engine allocates dense ``(B, n, n)`` matrix slabs (two
of them: the stamped base and the Newton workspace) plus ``(B, n)``
vector sets.  On a large circuit an
over-enthusiastic ``batch_size`` turns into a multi-GiB allocation and
an OOM kill — a failure no per-call fallback can catch, because the
process is already dead.

:func:`admit_lanes` estimates the slab footprint *before* allocation
and halves the lane count until it fits under the ceiling
(``REPRO_MEM_CEILING_MB``, default 512 MiB, ``0`` disables).  Fewer
lanes per slab changes only the slab loop partitioning, never the
per-lane math, so results stay bit-identical to the unclamped run.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["DEFAULT_MEM_CEILING_MB", "memory_ceiling_bytes", "slab_bytes",
           "admit_lanes"]

DEFAULT_MEM_CEILING_MB = 512
"""Default batched-slab memory ceiling in MiB."""

_VECTORS_PER_LANE = 12
"""Dense (B, n) work vectors per lane: b, x, dv, residuals, masks and
the per-group companion scratch — a deliberate over-count so the
estimate errs high."""


def memory_ceiling_bytes() -> Optional[int]:
    """Configured ceiling in bytes, or None when disabled."""
    raw = os.environ.get("REPRO_MEM_CEILING_MB", "")
    if not raw:
        mb = DEFAULT_MEM_CEILING_MB
    else:
        try:
            mb = int(raw)
        except ValueError:
            mb = DEFAULT_MEM_CEILING_MB
    if mb <= 0:
        return None
    return mb * 1024 * 1024


def slab_bytes(n_lanes: int, size: int) -> int:
    """Estimated float64 footprint of one batched slab.

    Two ``(B, n, n)`` matrix stacks (stamped base + factorization
    workspace) and ``_VECTORS_PER_LANE`` dense ``(B, n)`` vectors.
    """
    return 8 * n_lanes * (2 * size * size + _VECTORS_PER_LANE * size)


def admit_lanes(n_lanes: int, size: int, where: str = "") -> int:
    """Largest power-of-two fraction of ``n_lanes`` whose slab fits the
    memory ceiling (always at least 1 — a single lane is the scalar
    fallback's footprint and must be allowed through).

    Records a ``resource-clamp`` supervisor event when the request was
    actually reduced.
    """
    n_lanes = max(1, int(n_lanes))
    ceiling = memory_ceiling_bytes()
    if ceiling is None:
        return n_lanes
    admitted = n_lanes
    while admitted > 1 and slab_bytes(admitted, size) > ceiling:
        admitted //= 2
    if admitted != n_lanes:
        from repro import resilience

        resilience.supervisor().note_clamp(
            n_lanes, admitted,
            "%s: (%d,%d,%d) slab %.1f MiB over %.0f MiB ceiling"
            % (where or "batch", n_lanes, size, size,
               slab_bytes(n_lanes, size) / 1048576.0,
               ceiling / 1048576.0),
            dedupe=(where, n_lanes, admitted, size))
    return admitted
