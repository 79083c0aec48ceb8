"""Generic parameter sweeps with crossover detection.

The experiment benches repeatedly sweep a knob (amplitude, frequency,
sigma multiple, node) and look for where curves cross a limit or each
other.  This module is the shared machinery: run a metric over a grid,
keep the results queryable, and interpolate crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.parallel import ParallelMap


@dataclass
class SweepResult:
    """Metric values over one swept parameter."""

    parameter_name: str
    parameter_values: np.ndarray
    values: Dict[str, np.ndarray]
    """Metric name → values (NaN where evaluation failed)."""

    def metric(self, name: str) -> np.ndarray:
        """Values of one metric over the sweep."""
        return self.values[name]

    def crossing(self, name: str, level: float,
                 log_parameter: bool = False) -> float:
        """First swept-parameter value where ``metric == level``.

        Linear interpolation between grid points (log-x optional for
        logarithmic sweeps).  NaN segments are skipped.  Returns ``nan``
        when the metric never crosses the level.
        """
        x = self.parameter_values
        y = self.values[name]
        for k in range(1, len(x)):
            y0, y1 = y[k - 1], y[k]
            if math.isnan(y0) or math.isnan(y1):
                continue
            if (y0 - level) * (y1 - level) > 0.0:
                continue
            if y1 == y0:
                return float(x[k - 1])
            frac = (level - y0) / (y1 - y0)
            if log_parameter:
                x0 = max(float(x[k - 1]), 1e-300)
                x1 = max(float(x[k]), x0 * (1 + 1e-12))
                return float(x0 * (x1 / x0) ** frac)
            return float(x[k - 1] + frac * (x[k] - x[k - 1]))
        return float("nan")

    def argbest(self, name: str, maximize: bool = True) -> float:
        """Swept-parameter value where ``metric`` is best."""
        y = self.values[name]
        finite = np.isfinite(y)
        if not finite.any():
            raise ValueError(f"metric {name!r} has no finite values")
        masked = np.where(finite, y, -math.inf if maximize else math.inf)
        k = int(np.argmax(masked) if maximize else np.argmin(masked))
        return float(self.parameter_values[k])


def _evaluate_point(metrics: Dict[str, Callable[[float], float]],
                    catch: tuple, value: float) -> Dict[str, float]:
    """Every metric at one grid point, NaN where one raises ``catch``
    (module-level, so the process backend can pickle it)."""
    out = {}
    for name, fn in metrics.items():
        try:
            out[name] = float(fn(value))
        except catch:
            out[name] = float("nan")
    return out


def sweep(parameter_name: str,
          parameter_values: Sequence[float],
          metrics: Dict[str, Callable[[float], float]],
          catch: tuple = (ValueError,),
          jobs: int = 1,
          backend: str = "auto") -> SweepResult:
    """Evaluate ``metrics`` (functions of the swept value) over a grid.

    Exceptions listed in ``catch`` are recorded as NaN — sweeps expect
    to probe failure regions.

    ``jobs > 1`` evaluates the grid points through
    :class:`repro.parallel.ParallelMap`.  The metric functions then run
    concurrently, so they must be safe to call from several workers —
    pure functions, or functions that clone their fixture internally
    (closures that mutate one shared circuit are only safe serially);
    the process backend also needs picklable (module-level) metrics.
    Results are assembled in grid order either way.
    """
    grid = np.asarray(list(parameter_values), dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("need a 1-D grid of at least two values")

    mapper = ParallelMap(backend=backend, n_jobs=jobs)
    per_point = mapper.map(partial(_evaluate_point, metrics, catch),
                           [float(v) for v in grid])
    values = {name: np.full(grid.size, np.nan) for name in metrics}
    for k, point in enumerate(per_point):
        for name, value in point.items():
            values[name][k] = value
    return SweepResult(parameter_name=parameter_name,
                       parameter_values=grid, values=values)


def crossover(result_a: SweepResult, result_b: SweepResult, name: str,
              log_parameter: bool = False) -> float:
    """Swept value where metric ``name`` of two sweeps crosses over.

    Both sweeps must share the same grid.  Returns NaN when one curve
    dominates everywhere — a common, meaningful outcome ("A wins at
    every operating point").
    """
    if not np.array_equal(result_a.parameter_values,
                          result_b.parameter_values):
        raise ValueError("sweeps must share the same parameter grid")
    diff = result_a.values[name] - result_b.values[name]
    proxy = SweepResult(parameter_name=result_a.parameter_name,
                        parameter_values=result_a.parameter_values,
                        values={name: diff})
    return proxy.crossing(name, 0.0, log_parameter=log_parameter)
