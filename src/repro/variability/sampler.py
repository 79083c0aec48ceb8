"""Monte-Carlo sampling of device variations (paper §2).

The sampler turns the analytic mismatch laws of
:mod:`repro.variability.pelgrom` (and optionally
:mod:`repro.variability.ler`) into concrete :class:`DeviceVariation`
offsets attached to the MOSFETs of a circuit:

* every device receives an independent *local* deviation with the
  single-device sigma (Eq 1 area term / √2, including the short/narrow
  extension and, if enabled, the LER contribution);
* a wafer-level random *gradient* reproduces the distance term
  ``S_VT·D``: devices placed with :class:`Placement` coordinates pick up
  a systematic offset ``g · position`` where the gradient components are
  drawn once per sample with σ = S_VT (so a pair separated by D differs
  by σ = S_VT·D in any direction).

The sampler is deterministic given its ``numpy.random.Generator`` —
the Monte-Carlo yield engine (:mod:`repro.core.yield_analysis`) seeds it
per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro import units
from repro.circuit.mosfet import DeviceVariation, Mosfet
from repro.circuit.netlist import Circuit
from repro.technology.node import TechnologyNode
from repro.variability.ler import LerModel
from repro.variability.pelgrom import PelgromModel


@dataclass(frozen=True)
class Placement:
    """Layout position of a device [m] (for the distance term of Eq 1)."""

    x_m: float
    y_m: float

    def distance_to(self, other: "Placement") -> float:
        """Euclidean distance to another placement [m]."""
        return math.hypot(self.x_m - other.x_m, self.y_m - other.y_m)


class MismatchSampler:
    """Draws :class:`DeviceVariation` offsets for whole circuits."""

    def __init__(self, tech: TechnologyNode,
                 rng: Optional[np.random.Generator] = None,
                 include_ler: bool = False,
                 ler_model: Optional[LerModel] = None):
        self.tech = tech
        self.pelgrom = PelgromModel.for_technology(tech)
        self.include_ler = include_ler
        self.ler = ler_model if ler_model is not None else LerModel.for_technology(tech)
        self.rng = rng if rng is not None else np.random.default_rng()
        self._sigma_memo: Dict[Tuple[float, float],
                               Tuple[float, float, float]] = {}

    # ------------------------------------------------------------------
    # Per-device sigmas
    # ------------------------------------------------------------------
    def sigma_single_vt_v(self, w_m: float, l_m: float) -> float:
        """Single-device σ(V_T) [V] including LER when enabled."""
        pelgrom = self.pelgrom.sigma_single_vt_v(w_m, l_m)
        if not self.include_ler:
            return pelgrom
        return math.hypot(pelgrom, self.ler.sigma_vt_v(w_m, l_m))

    def sigma_single_beta_fraction(self, w_m: float, l_m: float) -> float:
        """Single-device σ(β)/β [fraction]."""
        return self.pelgrom.sigma_single_beta_fraction(w_m, l_m)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _gradient_sigma_v_per_m(self) -> float:
        """σ of each wafer-gradient component [V/m] (= S_VT)."""
        return self.tech.mismatch.s_vt_mv_per_um * units.MILLI / units.MICRO

    def sample_gradient_v_per_m(self) -> Tuple[float, float]:
        """Draw the wafer V_T gradient (gx, gy) [V/m] for one MC sample."""
        gx, gy = self.rng.normal(0.0, self._gradient_sigma_v_per_m(), size=2)
        return float(gx), float(gy)

    def _draw_sigmas(self, w_m: float, l_m: float
                     ) -> Tuple[float, float, float]:
        """``(σ(V_T) [V], σ(β)/β, σ(γ)/γ)`` the device draws use.

        Geometry-only, so memoized per ``(w_m, l_m)``; an invalid
        geometry raises and is never stored.
        """
        sigmas = self._sigma_memo.get((w_m, l_m))
        if sigmas is None:
            sigma_vt = self.sigma_single_vt_v(w_m, l_m)
            sigma_beta = self.sigma_single_beta_fraction(w_m, l_m)
            sigma_gamma_v = self.pelgrom.sigma_delta_gamma_v(w_m, l_m) / math.sqrt(2.0)
            sigmas = self._sigma_memo[(w_m, l_m)] = (
                sigma_vt, sigma_beta,
                sigma_gamma_v / max(self.tech.gamma_body_sqrt_v, 1e-9))
        return sigmas

    def sample_device(self, w_m: float, l_m: float,
                      placement: Optional[Placement] = None,
                      gradient_v_per_m: Tuple[float, float] = (0.0, 0.0),
                      ) -> DeviceVariation:
        """Draw one device's random offsets."""
        sigma_vt, sigma_beta, gamma_rel_sigma = self._draw_sigmas(w_m, l_m)
        delta_vt = float(self.rng.normal(0.0, sigma_vt))
        if placement is not None:
            gx, gy = gradient_v_per_m
            delta_vt += gx * placement.x_m + gy * placement.y_m
        beta_factor = float(1.0 + self.rng.normal(0.0, sigma_beta))
        beta_factor = max(beta_factor, 0.05)
        gamma_factor = float(1.0 + self.rng.normal(0.0, gamma_rel_sigma))
        gamma_factor = max(gamma_factor, 0.05)
        return DeviceVariation(delta_vt_v=delta_vt, beta_factor=beta_factor,
                               gamma_factor=gamma_factor)

    def sample_devices_batch(self, w_m: float, l_m: float, n_samples: int
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized draw of ``n_samples`` independent device offsets.

        Returns ``(delta_vt_v, beta_factor, gamma_factor)`` arrays with
        the same per-draw distributions (and the same 0.05 clamping) as
        :meth:`sample_device`, but in three ``Generator`` calls instead
        of ``3 · n_samples`` — the fast path for characterization
        sweeps and high-sigma tail studies that need 10⁴–10⁶ variates
        of one geometry.  The stream differs from an equivalent scalar
        loop (array draws consume the generator in blocks), so use one
        style or the other consistently within an experiment.
        """
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        sigma_vt, sigma_beta, gamma_rel_sigma = self._draw_sigmas(w_m, l_m)
        delta_vt = self.rng.normal(0.0, sigma_vt, size=n_samples)
        beta = np.maximum(1.0 + self.rng.normal(0.0, sigma_beta, n_samples),
                          0.05)
        gamma = np.maximum(1.0 + self.rng.normal(0.0, gamma_rel_sigma,
                                                 n_samples), 0.05)
        return delta_vt, beta, gamma

    def sample_pair_delta_vt_batch_v(self, w_m: float, l_m: float,
                                     n_samples: int,
                                     distance_m: float = 0.0) -> np.ndarray:
        """Vectorized :meth:`sample_pair_delta_vt_v` — ``n_samples`` ΔV_T
        draws of one matched pair in four ``Generator`` calls."""
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        local = self.sigma_single_vt_v(w_m, l_m)
        d1 = self.rng.normal(0.0, local, size=n_samples)
        d2 = self.rng.normal(0.0, local, size=n_samples)
        s_vt_v_per_m = self._gradient_sigma_v_per_m()
        gx = self.rng.normal(0.0, s_vt_v_per_m, size=n_samples)
        # The scalar path draws (and discards) a y gradient component
        # per sample; consume the same number of variates here.
        self.rng.normal(0.0, s_vt_v_per_m, size=n_samples)
        return (d1 - d2) + gx * distance_m

    def draw(self, circuit: Circuit,
             placements: Optional[Dict[str, Placement]] = None,
             n_dies: int = 1) -> np.ndarray:
        """The raw variates of ``n_dies`` dies of ``circuit``, in one
        ``Generator`` call: an ``(n_dies, k)`` array whose row is one
        die's draws in :meth:`sample_device` order — the gradient pair
        (gx, gy) when ``placements`` are given, then (ΔV_T, β, γ)
        deviations per MOSFET.

        Array draws with a per-variate σ consume the generator exactly
        as the same draws made one at a time, so the variates and the
        generator state after them do not depend on ``n_dies``.
        """
        sigmas = []
        if placements:
            gradient = self._gradient_sigma_v_per_m()
            sigmas += [gradient, gradient]
        for device in circuit.mosfets:
            sigmas += self._draw_sigmas(device.params.w_m, device.params.l_m)
        return self.rng.normal(0.0, np.broadcast_to(
            sigmas, (n_dies, len(sigmas))))

    def assign(self, circuit: Circuit,
               placements: Optional[Dict[str, Placement]] = None,
               variates: Optional[np.ndarray] = None) -> None:
        """Attach fresh variations to every MOSFET in ``circuit``.

        ``placements`` maps device names to layout positions; devices
        without a placement see only the local (area-law) component.
        One gradient is drawn per call — i.e. per Monte-Carlo sample.
        ``variates`` is one row of :meth:`draw` for the same circuit
        and placements (a chunk draws all its dies at once); without
        it, this die's row is drawn here.
        """
        if variates is None:
            variates = self.draw(circuit, placements)[0]
        values = variates.tolist()
        gx = gy = 0.0
        pos = 0
        if placements:
            gx, gy = values[0], values[1]
            pos = 2
        for device in circuit.mosfets:
            delta_vt, beta, gamma = values[pos:pos + 3]
            pos += 3
            placement = placements.get(device.name) if placements else None
            if placement is not None:
                delta_vt += gx * placement.x_m + gy * placement.y_m
            device.variation = DeviceVariation(
                delta_vt_v=delta_vt, beta_factor=max(1.0 + beta, 0.05),
                gamma_factor=max(1.0 + gamma, 0.05))

    def clear(self, circuit: Circuit) -> None:
        """Reset every MOSFET in ``circuit`` to nominal (no variation)."""
        for device in circuit.mosfets:
            device.variation = DeviceVariation()

    # ------------------------------------------------------------------
    # Matched pairs (the measurement the Eq 1 literature quotes)
    # ------------------------------------------------------------------
    def sample_pair_delta_vt_v(self, w_m: float, l_m: float,
                               distance_m: float = 0.0) -> float:
        """Draw ΔV_T of one matched pair [V] (local + distance terms).

        Used by the tests and E2 to verify the sampled statistics
        reproduce Eq 1.
        """
        local = self.pelgrom.sigma_single_vt_v(w_m, l_m)
        if self.include_ler:
            local = math.hypot(local, self.ler.sigma_vt_v(w_m, l_m))
        d1 = self.rng.normal(0.0, local)
        d2 = self.rng.normal(0.0, local)
        gx, _ = self.sample_gradient_v_per_m()
        return float((d1 - d2) + gx * distance_m)


@dataclass(frozen=True)
class ProcessCorner:
    """A global (inter-die) process corner: systematic shifts applied to
    every device of a die.  Complements the intra-die mismatch above —
    the paper's "systematic errors" bucket."""

    name: str
    vt_shift_n_v: float
    vt_shift_p_v: float
    beta_factor_n: float
    beta_factor_p: float

    def apply(self, circuit: Circuit) -> None:
        """Overwrite every device's variation with this corner's shift."""
        for device in circuit.mosfets:
            is_n = device.params.polarity == "n"
            device.variation = DeviceVariation(
                delta_vt_v=self.vt_shift_n_v if is_n else self.vt_shift_p_v,
                beta_factor=self.beta_factor_n if is_n else self.beta_factor_p,
            )


def standard_corners(tech: TechnologyNode,
                     vt_sigma_v: float = 0.03,
                     beta_sigma: float = 0.05) -> Dict[str, ProcessCorner]:
    """The five classic corners (TT/FF/SS/FS/SF) at ±3σ global spread.

    "F" (fast) = lower |V_T| and higher β; first letter NMOS, second PMOS.
    """
    dv = 3.0 * vt_sigma_v
    db = 3.0 * beta_sigma
    corners = {
        "TT": ProcessCorner("TT", 0.0, 0.0, 1.0, 1.0),
        "FF": ProcessCorner("FF", -dv, -dv, 1.0 + db, 1.0 + db),
        "SS": ProcessCorner("SS", dv, dv, 1.0 - db, 1.0 - db),
        "FS": ProcessCorner("FS", -dv, dv, 1.0 + db, 1.0 - db),
        "SF": ProcessCorner("SF", dv, -dv, 1.0 - db, 1.0 + db),
    }
    return corners
