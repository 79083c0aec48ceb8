"""Time-dependent degradation mechanisms (paper §3).

* :class:`NbtiModel` — Eq 3 with duty-factor stress, permanent/
  recoverable split and universal relaxation (§3.3);
* :class:`HciModel` — Eq 2 lucky-electron hot-carrier law (§3.2);
* :class:`TddbModel` — Weibull oxide breakdown, SBD/PBD/HBD modes and
  the post-BD device model (§3.1);
* :class:`ElectromigrationModel` + :class:`InterconnectNetwork` — Black's
  Eq 4 with Blech/bamboo/via corrections on a resistive wire graph (§3.4);
* shared plumbing in :mod:`repro.aging.base` (:class:`DeviceStress`,
  :func:`power_law_advance`, the :class:`AgingMechanism` interface).

Exports resolve lazily (:mod:`repro._lazy`), so networkx loads with
:mod:`repro.aging.electromigration` on first access, not with the
package.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("AgingMechanism", "DeviceStress", "MechanismState",
             "degradation_outlook", "power_law_advance"),
    "electromigration": ("ElectromigrationModel", "InterconnectNetwork",
                         "SegmentReport", "WireSegment"),
    "hci": ("HciModel",),
    "nbti": ("NbtiModel", "RelaxationParams"),
    "tddb": ("BreakdownEvent", "BreakdownMode", "TddbModel", "weibit",
             "weibull_cdf", "weibull_quantile"),
})

__all__ = [
    "AgingMechanism",
    "BreakdownEvent",
    "BreakdownMode",
    "DeviceStress",
    "ElectromigrationModel",
    "HciModel",
    "InterconnectNetwork",
    "MechanismState",
    "NbtiModel",
    "RelaxationParams",
    "SegmentReport",
    "TddbModel",
    "WireSegment",
    "degradation_outlook",
    "power_law_advance",
    "weibit",
    "weibull_cdf",
    "weibull_quantile",
]
