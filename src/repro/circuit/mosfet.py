"""Compact MOSFET model with variability and degradation hooks.

The large-signal model is an EKV-flavoured single-expression
interpolation that is smooth across weak inversion, triode and
saturation (essential for Newton–Raphson robustness):

    I_DS = 2·n·β_eff·φt² · [ ln²(1+e^{x_f}) − ln²(1+e^{x_r}) ] · (1+λ·v_DS⁺)

with ``x_f = v_P/(2φt)``, ``x_r = (v_P − v_DS)/(2φt)`` and the pinch-off
voltage ``v_P = (v_GS − V_T(v_BS))/n``.  In strong inversion/saturation
this collapses to the familiar square law ``β(v_GS−V_T)²/(2n)``; in weak
inversion it becomes the subthreshold exponential; in triode the
``(v_GS−V_T−n·v_DS/2)·v_DS`` law.  β_eff includes vertical-field mobility
degradation (θ) and a first-order velocity-saturation correction.

Two *hook* structures make this the shared substrate of the whole paper:

* :class:`DeviceVariation` — time-zero random offsets sampled by
  :mod:`repro.variability` (paper §2, Eq 1);
* :class:`DeviceDegradation` — time-dependent parameter deltas written by
  the aging engines of :mod:`repro.aging` (paper §3, Fig 2): ΔV_T shift,
  current-factor loss, output-resistance loss, and a post-breakdown gate
  leakage path with a BD-spot location (TDDB §3.1).

PMOS devices are evaluated by polarity reflection of the NMOS equations;
threshold/parameter deltas are defined so that a *positive* ΔV_T always
means "the device gets harder to turn on" for either polarity, matching
how the degradation literature (and the paper) quotes shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro import units
from repro.circuit import _ckernel
from repro.circuit import mna as _mna
from repro.circuit.elements import Element
from repro.circuit.mna import Stamper
from repro.technology.node import TechnologyNode

#: Smoothing scale of the CLM softplus [V].
_CLM_SMOOTH_V = 0.05

_F64 = np.dtype(np.float64)

#: Marks compiled-kernel bindings as stale (see MosfetGroup.refresh).
_UNBOUND = object()


def _softplus(x: float, scale: float = 1.0) -> float:
    """Numerically safe ``scale·ln(1+exp(x/scale))``."""
    z = x / scale
    if z > 40.0:
        return x
    if z < -40.0:
        return 0.0
    return scale * math.log1p(math.exp(z))


def _log1pexp(x: float) -> float:
    """Numerically safe ``ln(1+exp(x))``."""
    if x > 40.0:
        return x
    if x < -40.0:
        return 0.0
    return math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    """Logistic function via tanh — stable for any argument."""
    return 0.5 * (1.0 + math.tanh(0.5 * x))


def _softplus_np(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Vectorized :func:`_softplus` via the stable ``logaddexp`` kernel.

    ``log(1+e^z)`` = ``logaddexp(0, z)`` for any z without overflow; it
    agrees with the clipped scalar helper to well below 1e-17·scale.
    """
    return scale * np.logaddexp(0.0, x / scale)


def _log1pexp_np(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_log1pexp` via the stable ``logaddexp`` kernel."""
    return np.logaddexp(0.0, x)


@dataclass(frozen=True)
class MosfetParams:
    """Nominal electrical parameters of one device geometry.

    All values follow the NMOS sign convention (``vt0`` positive); the
    device's ``polarity`` controls terminal reflection for PMOS.
    """

    polarity: str
    """``"n"`` or ``"p"``."""

    w_m: float
    """Channel width [m]."""

    l_m: float
    """Channel length [m]."""

    vt0_v: float
    """Zero-bias threshold magnitude [V] (positive for both polarities)."""

    kp_a_per_v2: float
    """Process transconductance µ0·Cox [A/V²]."""

    lambda_per_v: float
    """Channel-length modulation coefficient for THIS length [1/V]."""

    gamma_sqrt_v: float
    """Body-effect coefficient [√V]."""

    phi_v: float
    """Surface potential 2φ_F [V]."""

    theta_per_v: float
    """Vertical-field mobility degradation [1/V]."""

    esat_l_v: float
    """Velocity-saturation voltage ``E_sat·L`` [V]."""

    n_slope: float
    """Subthreshold slope factor n (≥1)."""

    tox_m: float
    """Gate-oxide thickness [m] — needed for oxide-field stress."""

    temperature_k: float = units.T_ROOM
    """Device temperature [K]."""

    vt_tempco_v_per_k: float = -1.0e-3
    """Threshold temperature coefficient dV_T/dT [V/K] (≈ −1 mV/K)."""

    mobility_temp_exponent: float = 1.5
    """Mobility scaling µ ∝ (300/T)^m — lattice scattering, m ≈ 1.5."""

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise ValueError(f"polarity must be 'n' or 'p', got {self.polarity!r}")
        for fname in ("w_m", "l_m", "vt0_v", "kp_a_per_v2", "phi_v",
                      "esat_l_v", "n_slope", "tox_m", "temperature_k"):
            if getattr(self, fname) <= 0.0:
                raise ValueError(f"{fname} must be positive, got {getattr(self, fname)}")
        if self.lambda_per_v < 0.0 or self.gamma_sqrt_v < 0.0 or self.theta_per_v < 0.0:
            raise ValueError("lambda, gamma and theta must be non-negative")

    @property
    def beta_a_per_v2(self) -> float:
        """Nominal current factor β = kp·W/L [A/V²]."""
        return self.kp_a_per_v2 * self.w_m / self.l_m

    @property
    def w_um(self) -> float:
        """Width in µm."""
        return self.w_m / units.MICRO

    @property
    def l_um(self) -> float:
        """Length in µm."""
        return self.l_m / units.MICRO

    @property
    def area_um2(self) -> float:
        """Gate area W·L [µm²]."""
        return self.w_um * self.l_um

    @property
    def cox_total_f(self) -> float:
        """Total gate-oxide capacitance W·L·Cox [F]."""
        return self.w_m * self.l_m * units.oxide_capacitance_per_area(self.tox_m)


@dataclass
class DeviceVariation:
    """Time-zero random offsets (paper §2).

    Written by :class:`repro.variability.MismatchSampler`; all-zero means
    a nominal device.
    """

    delta_vt_v: float = 0.0
    """Threshold magnitude offset [V]; positive = harder to turn on."""

    beta_factor: float = 1.0
    """Multiplicative current-factor offset (1.0 = nominal)."""

    gamma_factor: float = 1.0
    """Multiplicative body-factor offset."""


@dataclass
class DeviceDegradation:
    """Time-dependent parameter deltas (paper §3, Fig 2).

    Written by the aging engines; all-zero/one means a fresh device.
    """

    delta_vt_v: float = 0.0
    """Threshold magnitude shift [V]; positive = degraded (NBTI/HCI)."""

    beta_factor: float = 1.0
    """Mobility/current-factor degradation multiplier (≤1 when degraded)."""

    lambda_factor: float = 1.0
    """Output-conductance multiplier (>1 = reduced r_o, HCI)."""

    gate_leak_s: float = 0.0
    """Post-breakdown gate leakage conductance [S] (TDDB)."""

    bd_spot_position: float = 0.5
    """Breakdown-spot location along the channel: 0 = source end,
    1 = drain end.  Splits the leak path between the two junctions and
    controls the post-BD channel-current collapse (refs [8], [14])."""

    def reset(self) -> None:
        """Return the device to the fresh state."""
        self.delta_vt_v = 0.0
        self.beta_factor = 1.0
        self.lambda_factor = 1.0
        self.gate_leak_s = 0.0
        self.bd_spot_position = 0.5

    def is_fresh(self) -> bool:
        """True when no degradation has been applied."""
        return (self.delta_vt_v == 0.0 and self.beta_factor == 1.0
                and self.lambda_factor == 1.0 and self.gate_leak_s == 0.0)


@dataclass(frozen=True)
class OperatingPoint:
    """Bias summary of one device under a solved DC solution."""

    ids_a: float
    vgs_v: float
    vds_v: float
    vbs_v: float
    gm_s: float
    gds_s: float
    gmb_s: float
    region: str
    """``"cutoff"``, ``"triode"`` or ``"saturation"`` (NMOS convention)."""

    @property
    def ro_ohm(self) -> float:
        """Small-signal output resistance 1/gds [Ω]."""
        if self.gds_s <= 0.0:
            return math.inf
        return 1.0 / self.gds_s

    @property
    def intrinsic_gain(self) -> float:
        """gm·ro — the analog designer's figure of merit."""
        if self.gds_s <= 0.0:
            return math.inf
        return self.gm_s / self.gds_s


class Mosfet(Element):
    """Four-terminal MOSFET element: nodes (drain, gate, source, bulk).

    The element carries the model, its AC stamp and its gate-leak stamp;
    its DC/transient channel stamp is :meth:`MosfetGroup.stamp`, which
    every engine builds over a circuit's MOSFETs.
    """

    nonlinear = True

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 bulk: str, params: MosfetParams,
                 variation: Optional[DeviceVariation] = None,
                 degradation: Optional[DeviceDegradation] = None):
        super().__init__(name, (drain, gate, source, bulk))
        self.params = params
        self.variation = variation if variation is not None else DeviceVariation()
        self.degradation = degradation if degradation is not None else DeviceDegradation()

    # ------------------------------------------------------------------
    # Construction from a technology node
    # ------------------------------------------------------------------
    @staticmethod
    def from_technology(name: str, drain: str, gate: str, source: str,
                        bulk: str, tech: TechnologyNode, polarity: str,
                        w_m: float, l_m: float,
                        temperature_k: float = units.T_ROOM) -> "Mosfet":
        """Build a device with parameters derived from ``tech``."""
        if polarity not in ("n", "p"):
            raise ValueError(f"polarity must be 'n' or 'p', got {polarity!r}")
        if l_m < tech.lmin_m * (1.0 - 1e-9):
            raise ValueError(
                f"{name}: L={l_m} below technology minimum {tech.lmin_m}")
        if w_m < tech.wmin_m * (1.0 - 1e-9):
            raise ValueError(
                f"{name}: W={w_m} below technology minimum {tech.wmin_m}")
        is_n = polarity == "n"
        u0 = tech.u0_n_m2_per_vs if is_n else tech.u0_p_m2_per_vs
        vt0 = tech.vt0_n if is_n else abs(tech.vt0_p)
        kp = tech.kp_n if is_n else tech.kp_p
        l_um = l_m / units.MICRO
        params = MosfetParams(
            polarity=polarity,
            w_m=w_m,
            l_m=l_m,
            vt0_v=vt0,
            kp_a_per_v2=kp,
            lambda_per_v=tech.lambda_per_v_um / l_um,
            gamma_sqrt_v=tech.gamma_body_sqrt_v,
            phi_v=tech.phi_surface_v,
            theta_per_v=tech.theta_mobility_per_v,
            esat_l_v=2.0 * tech.vsat_m_per_s * l_m / u0,
            n_slope=tech.subthreshold_slope_factor,
            tox_m=tech.tox_m,
            temperature_k=temperature_k,
        )
        return Mosfet(name, drain, gate, source, bulk, params)

    # ------------------------------------------------------------------
    # Effective (varied + degraded) parameters
    # ------------------------------------------------------------------
    @property
    def vt_effective_v(self) -> float:
        """Threshold magnitude including variation and aging shifts [V]."""
        return self.params.vt0_v + self.variation.delta_vt_v + self.degradation.delta_vt_v

    @property
    def beta_effective(self) -> float:
        """Current factor including variation, aging and temperature.

        Mobility falls as (300/T)^m with temperature — the dominant
        reason hot silicon is slow.
        """
        thermal = (units.T_ROOM / self.params.temperature_k) \
            ** self.params.mobility_temp_exponent
        return (self.params.beta_a_per_v2 * self.variation.beta_factor
                * self.degradation.beta_factor * thermal)

    @property
    def lambda_effective(self) -> float:
        """CLM coefficient including aging output-resistance loss."""
        return self.params.lambda_per_v * self.degradation.lambda_factor

    @property
    def gamma_effective(self) -> float:
        """Body factor including variation."""
        return self.params.gamma_sqrt_v * self.variation.gamma_factor

    # ------------------------------------------------------------------
    # Core current equation (NMOS convention)
    # ------------------------------------------------------------------
    def _threshold(self, vbs: float) -> float:
        """V_T(v_BS, T) with body effect and tempco, NMOS convention."""
        phi = self.params.phi_v
        gamma = self.gamma_effective
        vbs_c = min(vbs, phi - 0.05)
        vt_thermal = self.params.vt_tempco_v_per_k * (
            self.params.temperature_k - units.T_ROOM)
        return (self.vt_effective_v + vt_thermal
                + gamma * (math.sqrt(phi - vbs_c) - math.sqrt(phi)))

    def _ids_nmos(self, vgs: float, vds: float, vbs: float) -> float:
        """NMOS-convention channel current (symmetric in vds sign)."""
        p = self.params
        phit = units.thermal_voltage(p.temperature_k)
        n = p.n_slope
        vt = self._threshold(vbs)
        vp = (vgs - vt) / n
        # Effective overdrive for the mobility/velocity denominators.
        vov = _softplus(vgs - vt, n * phit)
        theta_eff = self.params.theta_per_v + 1.0 / p.esat_l_v
        beta_eff = self.beta_effective / (1.0 + theta_eff * vov)
        s = 2.0 * phit
        lf = _log1pexp(vp / s)
        lr = _log1pexp((vp - vds) / s)
        ids0 = 2.0 * n * beta_eff * phit * phit * (lf * lf - lr * lr)
        clm = 1.0 + self.lambda_effective * _softplus(vds, _CLM_SMOOTH_V)
        return ids0 * clm

    def drain_current(self, vgs: float, vds: float, vbs: float) -> float:
        """Channel current into the drain terminal [A], polarity-aware.

        For NMOS, positive for vds > 0 in conduction; for PMOS the
        reflected value (negative when the device conducts normally).
        Gate-leakage current (post-BD) is NOT included here — it is a
        separate linear path handled by the stamps.
        """
        if self.params.polarity == "n":
            return self._ids_nmos(vgs, vds, vbs)
        return -self._ids_nmos(-vgs, -vds, -vbs)

    def _ids_nmos_batch(self, vgs: np.ndarray, vds: np.ndarray,
                        vbs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_ids_nmos` over bias arrays."""
        p = self.params
        phit = units.thermal_voltage(p.temperature_k)
        n = p.n_slope
        phi = p.phi_v
        gamma = self.gamma_effective
        vbs_c = np.minimum(vbs, phi - 0.05)
        vt_thermal = p.vt_tempco_v_per_k * (p.temperature_k - units.T_ROOM)
        vt = (self.vt_effective_v + vt_thermal
              + gamma * (np.sqrt(phi - vbs_c) - math.sqrt(phi)))
        vp = (vgs - vt) / n
        vov = _softplus_np(vgs - vt, n * phit)
        theta_eff = p.theta_per_v + 1.0 / p.esat_l_v
        beta_eff = self.beta_effective / (1.0 + theta_eff * vov)
        s = 2.0 * phit
        lf = _log1pexp_np(vp / s)
        lr = _log1pexp_np((vp - vds) / s)
        ids0 = 2.0 * n * beta_eff * phit * phit * (lf * lf - lr * lr)
        clm = 1.0 + self.lambda_effective * _softplus_np(vds, _CLM_SMOOTH_V)
        return ids0 * clm

    def drain_current_batch(self, vgs, vds, vbs) -> np.ndarray:
        """Vectorized :meth:`drain_current` over broadcastable bias arrays.

        The workhorse of characterization sweeps and waveform-based
        stress extraction: evaluating a whole I–V grid or a transient
        bias record costs a handful of numpy operations instead of one
        Python call per point.
        """
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        vbs = np.asarray(vbs, dtype=float)
        vgs, vds, vbs = np.broadcast_arrays(vgs, vds, vbs)
        if self.params.polarity == "n":
            return self._ids_nmos_batch(vgs, vds, vbs)
        return -self._ids_nmos_batch(-vgs, -vds, -vbs)

    # ------------------------------------------------------------------
    # Terminal voltages and linearization
    # ------------------------------------------------------------------
    def _terminal_voltages(self, x: np.ndarray) -> Tuple[float, float, float]:
        d, g, s, b = self.nodes
        vd = x[d] if d >= 0 else 0.0
        vg = x[g] if g >= 0 else 0.0
        vs = x[s] if s >= 0 else 0.0
        vb = x[b] if b >= 0 else 0.0
        return float(vg - vs), float(vd - vs), float(vb - vs)

    def _linearize_nmos(self, vgs: float, vds: float, vbs: float
                        ) -> Tuple[float, float, float, float]:
        """Exact ``(ids, gm, gds, gmb)`` of :meth:`_ids_nmos`.

        Closed-form derivatives of the EKV interpolation.  With
        ``F = lf² − lr²``, ``D = 1 + θ_eff·vov`` and ``ov = v_GS − V_T``:

            ∂F/∂ov   = (2/(n·s))·(lf·σ(x_f) − lr·σ(x_r))
            ∂F/∂vds  = (2/s)·lr·σ(x_r)
            ∂D/∂ov   = θ_eff·σ(ov/(n·φt))
            gm  = c0·(F'_ov·D − F·D'_ov)/D² · clm
            gds = c0·F'_vds/D · clm + ids0·λ·σ(v_DS/0.05)
            gmb = gm·γ/(2√(φ−v_BS))          (0 where the √ is clamped)

        σ is the logistic function — the derivative of ``ln(1+eˣ)``.
        The body-effect clamp at ``v_BS = φ − 0.05`` makes V_T constant
        beyond it, hence the hard zero in gmb (central differences of
        the current agree everywhere but at the kink itself).
        """
        p = self.params
        phit = units.thermal_voltage(p.temperature_k)
        n = p.n_slope
        phi = p.phi_v
        gamma = self.gamma_effective
        cap = phi - 0.05
        clamped = vbs >= cap
        sq = math.sqrt(phi - (cap if clamped else vbs))
        vt_thermal = p.vt_tempco_v_per_k * (p.temperature_k - units.T_ROOM)
        vt = self.vt_effective_v + vt_thermal + gamma * (sq - math.sqrt(phi))
        ov = vgs - vt
        inv_s = 1.0 / (2.0 * phit)
        inv_ns = inv_s / n
        xf = ov * inv_ns
        xr = xf - vds * inv_s
        lf, lr = _log1pexp(xf), _log1pexp(xr)
        sf, sr = _sigmoid(xf), _sigmoid(xr)
        u = ov / (n * phit)
        theta_eff = p.theta_per_v + 1.0 / p.esat_l_v
        den = 1.0 + theta_eff * n * phit * _log1pexp(u)
        dden = theta_eff * _sigmoid(u)
        big_f = lf * lf - lr * lr
        df_dov = 2.0 * inv_ns * (lf * sf - lr * sr)
        df_dvds = 2.0 * inv_s * lr * sr
        c0_inv_d = 2.0 * n * self.beta_effective * phit * phit / den
        ids0 = big_f * c0_inv_d
        lam = self.lambda_effective
        z = vds / _CLM_SMOOTH_V
        clm = 1.0 + lam * _CLM_SMOOTH_V * _log1pexp(z)
        gm = (df_dov - big_f / den * dden) * c0_inv_d * clm
        gds = df_dvds * c0_inv_d * clm + ids0 * lam * _sigmoid(z)
        gmb = 0.0 if clamped else gm * gamma / (2.0 * sq)
        return ids0 * clm, gm, gds, gmb

    def linearize(self, vgs: float, vds: float, vbs: float
                  ) -> Tuple[float, float, float, float]:
        """Return ``(ids, gm, gds, gmb)`` at the given bias.

        Uses the exact analytic derivatives of the model.  Polarity is
        handled by reflection: the conductances are frame-invariant
        (each picks up two compensating sign flips), only the current
        carries the device sign.  Scalar math on purpose: circuits
        solve through the vectorized :class:`MosfetGroup`, so this
        entry point serves single-device queries (operating points,
        small-signal AC stamps, characterization) where numpy arrays
        cost more than they save.
        """
        if self.params.polarity == "n":
            return self._linearize_nmos(vgs, vds, vbs)
        ids, gm, gds, gmb = self._linearize_nmos(-vgs, -vds, -vbs)
        return -ids, gm, gds, gmb

    def operating_point(self, x: np.ndarray) -> OperatingPoint:
        """Summarise the device bias under DC solution ``x``."""
        vgs, vds, vbs = self._terminal_voltages(x)
        ids, gm, gds, gmb = self.linearize(vgs, vds, vbs)
        # Region classification in NMOS convention.
        sign = 1.0 if self.params.polarity == "n" else -1.0
        vgs_n, vds_n, vbs_n = sign * vgs, sign * vds, sign * vbs
        vov = vgs_n - self._threshold(vbs_n)
        phit = units.thermal_voltage(self.params.temperature_k)
        if vov < 2.0 * phit:
            region = "cutoff"
        elif vds_n < vov / self.params.n_slope:
            region = "triode"
        else:
            region = "saturation"
        return OperatingPoint(ids_a=ids, vgs_v=vgs, vds_v=vds, vbs_v=vbs,
                              gm_s=gm, gds_s=gds, gmb_s=gmb, region=region)

    # ------------------------------------------------------------------
    # Stamps
    # ------------------------------------------------------------------
    def _stamp_gate_leak(self, st: Stamper) -> None:
        leak = self.degradation.gate_leak_s
        if leak <= 0.0:
            return
        d, g, s, b = self.nodes
        pos = self.degradation.bd_spot_position
        # BD spot near the drain (pos→1) puts the leak across gate-drain.
        st.conductance(g, d, leak * pos)
        st.conductance(g, s, leak * (1.0 - pos))

    def stamp_ac(self, st: Stamper, omega: float, op: np.ndarray) -> None:
        d, g, s, b = self.nodes
        vgs, vds, vbs = self._terminal_voltages(op)
        _, gm, gds, gmb = self.linearize(vgs, vds, vbs)
        st.transconductance(d, s, g, s, gm)
        st.conductance(d, s, gds)
        st.transconductance(d, s, b, s, gmb)
        self._stamp_gate_leak(st)
        # Simple Meyer-style gate capacitance: 2/3 of total Cox to source
        # in saturation; adequate for the AC analyses this library runs.
        cgs = (2.0 / 3.0) * self.params.cox_total_f
        st.conductance(g, s, 1j * omega * cgs)

    # ------------------------------------------------------------------
    # Stress-related helpers used by the aging engines
    # ------------------------------------------------------------------
    def oxide_field(self, vgs: float) -> float:
        """Vertical oxide field magnitude at gate-source bias ``vgs`` [V/m]."""
        return units.oxide_field(vgs, self.params.tox_m)

    def lateral_field(self, vds: float) -> float:
        """Crude maximum lateral channel field |vds|/L [V/m] (HCI driver)."""
        return abs(vds) / self.params.l_m

    def __repr__(self) -> str:
        p = self.params
        return (f"<Mosfet {self.name} {p.polarity} W={p.w_um:.3g}µm "
                f"L={p.l_um:.3g}µm>")


class MosfetGroup:
    """Newton-iteration stamp for ALL MOSFETs of a circuit — the only
    channel stamp: DC, transient and sparsity recording all route every
    MOSFET through a group.

    Each device stamps its linearized companion model: drain-row
    Jacobian entries ``gm, gds, gmb, −(gm+gds+gmb)`` at the gate,
    drain, bulk and source columns, the source row their negation, and
    a current ``ieq = ids − gm·vgs − gds·vds − gmb·vbs`` leaving the
    drain and entering the source.  Per iteration the group

    * gathers every terminal voltage with one fancy-index read,
    * evaluates every device's current and closed-form (gm, gds, gmb)
      in one pass — the compiled kernel when it is loaded, else a fused
      numpy pass (:meth:`_stamp_analytic`) over per-device parameter
      arrays refreshed once per solve by :meth:`refresh`, running
      entirely in preallocated buffers,
    * scatter-adds the Jacobian/companion entries through precomputed
      flat indices (``np.add.at`` handles shared-node duplicates).

    The model expression matches :meth:`Mosfet._ids_nmos` with constants
    pre-folded (e.g. ``−γ·√φ`` merged into the threshold offset), so
    values agree with the scalar path to ~1 ulp; Newton converges to the
    same fixed point well inside its 1e-9 tolerance.  Gate-leak paths
    are linear and are expected to be stamped with the constant part of
    the system (see ``DcEngine.stamp_base``).

    Built against the circuit's CURRENT bindings — rebuild after any
    topology change (the DC engine keys on ``Circuit.topology_version``).
    NOT thread-safe: the buffers make each group single-writer, which is
    fine because parallel workers clone the circuit and get their own
    engine + group.
    """

    def __init__(self, mosfets, size: int):
        self.mosfets = list(mosfets)
        n = len(self.mosfets)
        if n == 0:
            raise ValueError("MosfetGroup needs at least one device")
        self.size = size
        idx = np.array([m.nodes for m in self.mosfets], dtype=np.intp)
        self.d, self.g, self.s, self.b = idx.T.copy()
        self.sign = np.array(
            [1.0 if m.params.polarity == "n" else -1.0 for m in self.mosfets])
        # Jacobian scatter plan, entry-major to match the (8, n) value
        # matrix produced below.  Entry order per device: (d,g) (d,d)
        # (d,b) (d,s) (s,g) (s,d) (s,b) (s,s).  Ground rows/cols drop out.
        d, g, s, b = self.d, self.g, self.s, self.b
        rows = np.concatenate([d, d, d, d, s, s, s, s])
        cols = np.concatenate([g, d, b, s, g, d, b, s])
        keep = (rows >= 0) & (cols >= 0)
        self._a_flat = (rows[keep] * size + cols[keep]).astype(np.intp)
        self._a_keep = keep
        rhs_rows = np.concatenate([d, s])
        rhs_keep = rhs_rows >= 0
        self._b_idx = rhs_rows[rhs_keep].astype(np.intp)
        self._b_keep = rhs_keep
        # Jacobian pattern: (gm, gds, gmb) → the 8 stamp values above.
        self._pmat = np.array([
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
            [-1.0, -1.0, -1.0],
            [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0],
            [1.0, 1.0, 1.0]])
        # Work buffers: the whole iteration runs in these.
        self._xe = np.zeros(size + 1)  # trailing slot stays 0 for ground
        self._V = np.empty((3, n))
        self._G = np.empty((3, n))
        self._GV = np.empty((3, n))
        self._vals8 = np.empty((8, n))
        self._rhs2 = np.empty((2, n))
        self._vn = [np.empty(n) for _ in range(5)]
        # Stacked gather index and fused 4-row buffers (one
        # transcendental dispatch covers lf/lu/lr/lz and one covers all
        # four sigmoids).
        self._gdb = np.vstack((self.g, self.d, self.b))
        self._VN = np.empty((3, n))
        self._A4 = np.empty((4, n))
        self._L4 = np.empty((4, n))
        self._P4 = np.empty((4, n))
        self._mask = np.empty(n, dtype=bool)
        # Per-device dynamic parameters: rows of one buffer rewritten in
        # place by every refresh(), so the compiled kernels' raw
        # pointers stay valid.
        self._dyn = np.empty((6, n))
        (self._vt0p, self._gamma, self._c0, self._lam, self._half_gamma,
         self._lam_clm) = self._dyn
        # Compiled-kernel node map: ground (-1) → the trailing zero slot.
        self._nodes_c = np.where(idx < 0, size, idx).astype(np.int64).ravel()
        # Compiled-kernel bindings: the library they were taken from,
        # the stamp argument tuple, and the Newton argument block with
        # the workspace it points into (see newton_args).
        self._ck_lib = _UNBOUND
        self._ck_fn = None
        self._ck_args: Optional[tuple] = None
        self._nb: Optional[_ckernel.NewtonArgs] = None
        self._nb_ws = None
        self._pcache: Optional[list] = None
        self.refresh()

    def _refresh_static(self, params: list) -> None:
        """Rebuild the arrays derived from :class:`MosfetParams` alone.

        Params objects are frozen — flows that change temperature or
        geometry swap the whole object (``dataclasses.replace``), so a
        cheap comparison in :meth:`refresh` decides when to re-run.
        """
        self._pcache = params
        self._ck_lib = _UNBOUND  # static arrays reallocated: rebind
        phit = np.array([units.thermal_voltage(p.temperature_k)
                         for p in params])
        n_slope = np.array([p.n_slope for p in params])
        phi = np.array([p.phi_v for p in params])
        self._phi = phi
        self._phi_cap = phi - 0.05
        self._sqrt_phi = np.sqrt(phi)
        self._vt_thermal = np.array(
            [p.vt_tempco_v_per_k * (p.temperature_k - units.T_ROOM)
             for p in params])
        theta_eff = np.array(
            [p.theta_per_v + 1.0 / p.esat_l_v for p in params])
        # Folded constants for the buffered model pass.
        n_phit = n_slope * phit
        self._inv_nphit = 1.0 / n_phit
        self._theta_nphit = theta_eff * n_phit
        self._inv_s2 = 1.0 / (2.0 * phit)
        self._inv_ns2 = self._inv_s2 / n_slope
        self._c0s = 2.0 * n_slope * phit * phit
        # Per-device (vt_thermal, √φ, c0s) for refresh()'s scalar pass.
        self._dyn_static = list(zip(self._vt_thermal.tolist(),
                                    self._sqrt_phi.tolist(),
                                    self._c0s.tolist()))
        # Derivative prefactors and the stacked scale rows that turn
        # (ov, vds) into all four transcendental arguments with two
        # broadcasts.
        self._theta_eff = theta_eff
        self._two_inv_ns2 = 2.0 * self._inv_ns2
        self._two_inv_s2 = 2.0 * self._inv_s2
        nn = len(params)
        self._ovd_scale = np.stack((self._inv_ns2, self._inv_nphit))
        self._vds_scale = np.stack(
            (self._inv_s2, np.full(nn, 1.0 / _CLM_SMOOTH_V)))

    def refresh(self) -> None:
        """Re-read per-device effective parameters (call once per solve;
        mismatch sampling and aging mutate them between solves).

        The dynamic arrays are rewritten in place, so the compiled
        kernels' argument bindings survive; they are rebuilt only after
        a params swap or when the kernel library comes or goes (a reset
        or forced compile failure)."""
        ms = self.mosfets
        params = [m.params for m in ms]
        # Equal params derive equal arrays (identical ones compare in C).
        if params != self._pcache:
            self._refresh_static(params)
        # One scalar pass per device (a handful of devices: cheaper than
        # six ufunc dispatches; float64 either way, so same bits), rows
        # in _dyn order.  vt0p folds the −γ·√φ reference into the
        # threshold offset.
        self._dyn.T[...] = [
            (vt_thermal + m.vt_effective_v - (gamma := m.gamma_effective)
             * sqrt_phi, gamma, c0s * m.beta_effective,
             lam := m.lambda_effective, 0.5 * gamma, lam * _CLM_SMOOTH_V)
            for m, (vt_thermal, sqrt_phi, c0s) in zip(ms, self._dyn_static)]
        lib = _ckernel.load()
        if lib is not self._ck_lib:
            self._bind_ckernel(lib)

    def _bind_ckernel(self, lib) -> None:
        """Capture the compiled-kernel argument tuple (raw pointers into
        this group's arrays, which stay alive as attributes of ``self``)
        and drop any Newton argument block built on the old bindings."""
        self._ck_lib = lib
        self._nb = None
        self._nb_ws = None
        if lib is None:
            self._ck_fn = None
            self._ck_args = None
            return
        self._ck_fn = lib.repro_stamp_mosfets
        address = _ckernel.address
        self._ck_args = (
            len(self.mosfets), self.size,
            *map(address, (self._xe, self._nodes_c, self.sign, self._vt0p,
                           self._gamma, self._phi, self._phi_cap,
                           self._inv_nphit, self._theta_nphit,
                           self._inv_ns2, self._inv_s2, self._theta_eff,
                           self._c0, self._lam)),
            _CLM_SMOOTH_V)

    def newton_args(self, ws) -> Optional["_ckernel.NewtonArgs"]:
        """The argument block of the compiled Newton loop over this
        group and ``ws`` (a :class:`~repro.circuit.dc.NewtonWorkspace`),
        or None when the loop cannot serve the solve: the kernel is off
        (not built, kill switch), the workspace solves sparse, or LAPACK
        ``dgesv`` is unavailable.
        The block itself is built once per (group, workspace)."""
        if self._ck_args is None or ws.st.plan is not None \
                or not _ckernel.active() or _mna._dgesv is None:
            return None
        if self._nb_ws is not ws:
            dgesv = _ckernel.dgesv_pointer()
            if dgesv is None:
                return None
            n, size, xe, dgsb, *model, clm_v = self._ck_args
            buffers = (ws.st.a, ws.st.b, ws.base.a, ws.base.b, ws.lu,
                       ws.x_new, ws.abs_delta, ws.ipiv)
            self._nb = _ckernel.NewtonArgs(
                n, size, dgsb, *model, clm_v, xe,
                *map(_ckernel.address, buffers), dgesv)
            self._nb_ws = ws
        return self._nb

    def dynamic_arrays(self) -> Tuple[np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray]:
        """``(vt0p, gamma, c0, lam)`` — the per-device folded parameters
        that depend on variation/degradation (rewritten in place by
        each :meth:`refresh`).  These are exactly what differs between two
        sampled dies of one topology; the batched engine
        (:class:`repro.circuit.batch.BatchMosfetGroup`) shares them across
        its lanes together with every params-derived static constant.
        The arrays are live references, not copies."""
        return self._vt0p, self._gamma, self._c0, self._lam

    def stamp(self, st: Stamper, x: np.ndarray) -> None:
        """Stamp every channel's linearized companion model at guess ``x``.

        The compiled kernel when it is bound and the system is real,
        else the fused numpy pass (:meth:`_stamp_analytic`).  Both
        evaluate the same closed-form derivatives and agree to final-ulp
        rounding; Newton converges to the same fixed point either way.
        """
        if self._ck_args is not None and st.a.dtype is _F64:
            xe = self._xe
            xe[:-1] = x
            self._ck_fn(*self._ck_args, _ckernel.address(st.a),
                        _ckernel.address(st.b))
        else:
            self._stamp_analytic(st, x)

    def _stamp_analytic(self, st: Stamper, x: np.ndarray) -> None:
        """One fused analytic model pass for all devices (numpy).

        Same closed-form derivatives as :meth:`Mosfet._linearize_nmos`,
        vectorized with the four transcendental arguments stacked into
        one ``(4, n)`` buffer so a single ``logaddexp`` dispatch covers
        lf/ln(1+eᵘ)/lr/CLM and a single ``tanh`` chain covers all four
        sigmoids — the dispatch count, not the flops, is what a tiny
        analog cell pays for.
        """
        xe = self._xe  # ground (index -1) reads the trailing 0
        xe[:-1] = x
        vn = self._vn
        V = self._V
        # Original-frame terminal voltages (for the companion current).
        np.subtract(xe[self._gdb], xe[self.s], out=V)
        VN = np.multiply(self.sign, V, out=self._VN)  # NMOS frame
        vg_n, vd_n, vb_n = VN
        # Body effect: sq = √(φ − clamp(vbs)); gmb vanishes past the clamp.
        unclamped = np.less(vb_n, self._phi_cap, out=self._mask)
        sq = np.minimum(vb_n, self._phi_cap, out=vn[0])
        np.subtract(self._phi, sq, out=sq)
        np.sqrt(sq, out=sq)
        ov = np.multiply(self._gamma, sq, out=vn[1])
        np.add(self._vt0p, ov, out=ov)
        np.subtract(vg_n, ov, out=ov)
        # Stack the four transcendental arguments: xf, u, xr, z.
        A = self._A4
        np.multiply(ov, self._ovd_scale, out=A[0:2])
        np.multiply(vd_n, self._vds_scale, out=A[2:4])
        np.subtract(A[0], A[2], out=A[2])
        L = np.logaddexp(0.0, A, out=self._L4)   # lf, ln(1+eᵘ), lr, CLM log
        S = A                                    # reuse as the sigmoids
        np.multiply(S, 0.5, out=S)
        np.tanh(S, out=S)
        np.multiply(S, 0.5, out=S)
        np.add(S, 0.5, out=S)                    # σ(xf), σ(u), σ(xr), σ(z)
        P = np.multiply(L, S, out=self._P4)
        # F-derivatives → G rows 0/1; F, 1/D, c0/D in the (n,) temps.
        G = self._G
        np.subtract(P[0], P[2], out=G[0])
        np.multiply(self._two_inv_ns2, G[0], out=G[0])
        np.multiply(self._two_inv_s2, P[2], out=G[1])
        big_f = np.subtract(L[0], L[2], out=vn[2])
        tmp = np.add(L[0], L[2], out=vn[3])
        np.multiply(big_f, tmp, out=big_f)       # F = (lf−lr)(lf+lr)
        inv_d = np.multiply(self._theta_nphit, L[1], out=vn[3])
        np.add(1.0, inv_d, out=inv_d)
        np.divide(1.0, inv_d, out=inv_d)
        c0_inv_d = np.multiply(self._c0, inv_d, out=vn[4])
        dden = np.multiply(self._theta_eff, S[1], out=L[1])
        quot = np.multiply(big_f, inv_d, out=L[0])
        np.multiply(quot, dden, out=quot)
        np.subtract(G[0], quot, out=G[0])
        np.multiply(G[0], c0_inv_d, out=G[0])
        np.multiply(G[1], c0_inv_d, out=G[1])
        ids0 = np.multiply(big_f, c0_inv_d, out=vn[2])
        # CLM factor and its derivative close out gm/gds/gmb.
        clm = np.multiply(self._lam_clm, L[3], out=L[3])
        np.add(1.0, clm, out=clm)
        dclm = np.multiply(self._lam, S[3], out=S[3])
        np.multiply(G[0:2], clm, out=G[0:2])
        np.multiply(ids0, dclm, out=dclm)
        np.add(G[1], dclm, out=G[1])
        np.divide(self._half_gamma, sq, out=sq)
        np.multiply(G[0], sq, out=G[2])
        np.multiply(G[2], unclamped, out=G[2])
        ids_n = np.multiply(ids0, clm, out=vn[2])
        # Scatter the 8 Jacobian values and the companion currents.
        vals8 = np.matmul(self._pmat, G, out=self._vals8)
        np.add.at(st.a.reshape(-1), self._a_flat,
                  vals8.reshape(-1)[self._a_keep])
        ids = np.multiply(self.sign, ids_n, out=vn[3])
        GV = np.multiply(G, V, out=self._GV)
        ieq = np.sum(GV, axis=0, out=vn[4])
        np.subtract(ids, ieq, out=ieq)
        rhs2 = self._rhs2
        np.negative(ieq, out=rhs2[0])
        rhs2[1] = ieq
        np.add.at(st.b, self._b_idx, rhs2.reshape(-1)[self._b_keep])

    def stamp_gate_leaks(self, st: Stamper) -> None:
        """Stamp the (linear) post-BD gate-leak paths of every device."""
        for m in self.mosfets:
            m._stamp_gate_leak(st)
