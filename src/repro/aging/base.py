"""Shared machinery of the time-dependent degradation models (paper §3).

All four mechanisms share a few ideas:

* **Stress descriptors** — degradation "depends on the stress applied to
  the device, i.e. the voltages and currents applied to the transistor"
  (paper §3).  :class:`DeviceStress` captures one device's electrical
  environment either as static bias values or as waveforms from a
  transient simulation, plus temperature.

* **Power-law accumulation under varying stress** — NBTI and HCI follow
  ``ΔV = K(stress)·t^n``.  When the aging loop re-evaluates stress every
  epoch, damage must continue from the already-accumulated level: the
  *equivalent-time* method finds the time ``t_eq`` at which the NEW
  stress level would have produced the existing damage, then advances
  ``ΔV = K_new·(t_eq + Δt)^n``.  :func:`power_law_advance` implements
  this; it reduces to the plain power law for constant stress.

* A uniform :class:`AgingMechanism` interface so the simulator in
  :mod:`repro.core.aging_simulator` can iterate over mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.circuit.mosfet import Mosfet
from repro.circuit.waveform import Waveform
from repro import units


@dataclass
class DeviceStress:
    """Electrical stress seen by one device over one operating epoch."""

    vgs_v: float = 0.0
    """Representative (DC) gate-source voltage [V]."""

    vds_v: float = 0.0
    """Representative (DC) drain-source voltage [V]."""

    temperature_k: float = units.T_ROOM
    """Device temperature [K]."""

    vgs_waveform: Optional[Waveform] = None
    """Optional gate-source waveform; enables duty-factor / AC models."""

    vds_waveform: Optional[Waveform] = None
    """Optional drain-source waveform."""

    ids_waveform: Optional[Waveform] = None
    """Optional drain-current waveform (HCI needs conduction)."""

    @staticmethod
    def static(vgs_v: float, vds_v: float,
               temperature_k: float = units.T_ROOM) -> "DeviceStress":
        """A constant (DC) stress descriptor."""
        return DeviceStress(vgs_v=vgs_v, vds_v=vds_v, temperature_k=temperature_k)

    @staticmethod
    def from_waveforms(vgs: Waveform, vds: Waveform,
                       ids: Optional[Waveform] = None,
                       temperature_k: float = units.T_ROOM) -> "DeviceStress":
        """A waveform-driven stress descriptor (transient-based aging)."""
        return DeviceStress(
            vgs_v=vgs.mean(), vds_v=vds.mean(), temperature_k=temperature_k,
            vgs_waveform=vgs, vds_waveform=vds, ids_waveform=ids)

    @property
    def has_waveforms(self) -> bool:
        """True when waveform data is available."""
        return self.vgs_waveform is not None and self.vds_waveform is not None


def power_law_advance(delta_prev: float, k: float, n: float, dt_s: float) -> float:
    """Advance power-law damage ``ΔV = K·t^n`` by ``dt_s`` seconds.

    ``delta_prev`` is the damage accumulated so far; ``k`` the prefactor
    of the CURRENT stress level; ``n`` the time exponent.  Returns the
    new damage after the additional ``dt_s`` of stress at level ``k``.

    For ``k ≤ 0`` (no stress this epoch) the damage is left unchanged —
    relaxation, where modelled, is a separate mechanism-specific step.
    """
    if dt_s < 0.0:
        raise ValueError(f"dt must be non-negative, got {dt_s}")
    if n <= 0.0:
        raise ValueError(f"time exponent must be positive, got {n}")
    if delta_prev < 0.0:
        raise ValueError(f"accumulated damage cannot be negative, got {delta_prev}")
    if k <= 0.0 or dt_s == 0.0:
        return delta_prev
    t_eq = (delta_prev / k) ** (1.0 / n) if delta_prev > 0.0 else 0.0
    # The ^(1/n) → ^n round trip can lose an ULP when t_eq dwarfs dt;
    # damage must never decrease, so clamp from below.
    return max(k * (t_eq + dt_s) ** n, delta_prev)


@dataclass
class MechanismState:
    """Per-device, per-mechanism accumulated damage."""

    delta_vt_v: float = 0.0
    """Threshold shift attributable to this mechanism [V]."""

    stress_time_s: float = 0.0
    """Total stressed time so far [s]."""

    extra: Dict[str, float] = field(default_factory=dict)
    """Mechanism-specific scratch values (e.g. recoverable component)."""


class AgingMechanism:
    """Interface implemented by NBTI, HCI and TDDB engines.

    The electromigration engine operates on interconnect, not devices,
    and has its own API in :mod:`repro.aging.electromigration`.
    """

    #: Short identifier used in reports ("nbti", "hci", "tddb").
    name: str = "base"

    def affects(self, device: Mosfet) -> bool:
        """Whether this mechanism applies to ``device`` at all."""
        raise NotImplementedError

    def advance(self, device: Mosfet, stress: DeviceStress,
                state: MechanismState, dt_s: float) -> MechanismState:
        """Accumulate ``dt_s`` seconds of stress into ``state``.

        Must NOT touch ``device.degradation`` — the caller combines all
        mechanisms' contributions via :meth:`contribute`.
        """
        raise NotImplementedError

    def contribute(self, device: Mosfet, state: MechanismState) -> None:
        """Fold this mechanism's accumulated damage into
        ``device.degradation`` (additive ΔV_T, multiplicative factors)."""
        raise NotImplementedError


def degradation_outlook(tech, years: float = 10.0,
                        temp_c: float = 105.0) -> dict:
    """A node's wear-out after ``years`` of DC stress at ``temp_c``:
    NBTI and worst-case HCI threshold shifts [V] of an n device, TDDB
    characteristic life at the nominal field and EM MTTF at J_max
    [years] — the ``repro aging`` table and the serve ``aging`` job."""
    from repro.aging.electromigration import ElectromigrationModel
    from repro.aging.hci import HciModel
    from repro.aging.nbti import NbtiModel
    from repro.aging.tddb import TddbModel

    hot = units.celsius_to_kelvin(temp_c)
    lifetime = units.years_to_seconds(years)
    field = tech.nominal_oxide_field()
    device = Mosfet.from_technology(
        "m", "d", "g", "s", "b", tech, "n",
        w_m=max(1e-6, 4 * tech.wmin_m), l_m=tech.lmin_m)
    em = ElectromigrationModel(tech.aging)
    return {
        "nbti_dvt_v": NbtiModel(tech.aging).delta_vt_v(field, hot, lifetime),
        "hci_dvt_v": HciModel(tech.aging).delta_vt_v(
            device, tech.vdd / 2, tech.vdd, hot, lifetime),
        "tddb_eta_years": units.seconds_to_years(
            TddbModel(tech.aging).characteristic_life_s(field, 1.0)),
        "em_mttf_years": units.seconds_to_years(
            em.black_mttf_s(tech.interconnect.j_max_a_per_m2, hot)),
    }
