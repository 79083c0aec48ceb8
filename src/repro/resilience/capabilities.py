"""Capability registry: probe optional accelerators, record health.

Every optional fast path of the solver core is represented as a
:class:`Capability`, probed once at supervisor startup; the verdict
holds for the rest of the process.  The registry distinguishes three
reasons a capability is off:

* **kill switch** — the user set ``REPRO_NO_CKERNEL`` /
  ``REPRO_NO_SPARSE`` / ``REPRO_NO_BATCH``: expected, no event.
* **environment** — no C compiler, no scipy: expected degradation on
  minimal installs, recorded in the snapshot but not evented.
* **anomalous** — a compiler exists but the compile *failed*: something
  is wrong, so the probe flags it and the supervisor emits a
  quarantine event into telemetry and the run's failure ledger.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

__all__ = ["Capability", "CapabilityRegistry", "CAPABILITY_NAMES",
           "kill_switch_set"]

CAPABILITY_NAMES = ("ckernel", "sparse", "dgesv", "batch")

_KILL_SWITCHES = {
    "ckernel": "REPRO_NO_CKERNEL",
    "sparse": "REPRO_NO_SPARSE",
    "batch": "REPRO_NO_BATCH",
}


def kill_switch_set(name: str) -> bool:
    """True when the capability's ``REPRO_NO_*`` env var is set."""
    var = _KILL_SWITCHES.get(name)
    if var is None:
        return False
    return os.environ.get(var, "") not in ("", "0")


@dataclass
class Capability:
    """One optional accelerator and its observed health."""

    name: str
    available: bool
    detail: str
    anomalous: bool = False
    """Unavailable in a way that signals a fault (compile failure with a
    compiler present) rather than an expected minimal environment."""

    def state(self) -> dict:
        return {
            "available": self.available,
            "detail": self.detail,
            "anomalous": self.anomalous,
        }


def _probe_ckernel() -> Tuple[bool, str, bool]:
    from repro.circuit import _ckernel

    if kill_switch_set("ckernel"):
        return False, "disabled by REPRO_NO_CKERNEL", False
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        return False, "no C compiler on PATH; numpy stamping", False
    lib = _ckernel.load()
    if lib is None:
        return (False,
                "C stamp kernel failed to compile despite %r on PATH; "
                "numpy stamping" % os.path.basename(cc), True)
    return True, "compiled C stamp kernel via %s" % os.path.basename(cc), False


def _probe_sparse() -> Tuple[bool, str, bool]:
    from repro.circuit import mna

    if kill_switch_set("sparse"):
        return False, "disabled by REPRO_NO_SPARSE", False
    if not mna.sparse_available():
        return False, "scipy.sparse not importable; dense solves", False
    return (True, "scipy splu for >=%d unknowns" % mna.sparse_min_size(),
            False)


def _probe_dgesv() -> Tuple[bool, str, bool]:
    from repro.circuit import mna

    if not mna.dgesv_available():
        return (False, "scipy.linalg.lapack not importable; "
                "np.linalg.solve", False)
    return True, "LAPACK dgesv dense fast path", False


def _probe_batch() -> Tuple[bool, str, bool]:
    if kill_switch_set("batch"):
        return False, "disabled by REPRO_NO_BATCH", False
    return True, "lane-batched Newton (DC sweeps)", False


_PROBES: Dict[str, Callable[[], Tuple[bool, str, bool]]] = {
    "ckernel": _probe_ckernel,
    "sparse": _probe_sparse,
    "dgesv": _probe_dgesv,
    "batch": _probe_batch,
}


class CapabilityRegistry:
    """Probe all optional accelerators and hold their verdicts."""

    def __init__(self):
        self._caps: Dict[str, Capability] = {}
        for name in CAPABILITY_NAMES:
            available, detail, anomalous = _PROBES[name]()
            self._caps[name] = Capability(
                name=name, available=available, detail=detail,
                anomalous=anomalous)

    def capability(self, name: str) -> Capability:
        try:
            return self._caps[name]
        except KeyError:
            raise KeyError("unknown capability %r; known: %s"
                           % (name, ", ".join(CAPABILITY_NAMES))) from None

    def reprobe(self, name: str) -> Capability:
        """Re-run one probe in place (fault injection toggles the
        environment after startup)."""
        cap = self.capability(name)
        cap.available, cap.detail, cap.anomalous = _PROBES[name]()
        return cap

    def names(self):
        return tuple(self._caps)

    def snapshot(self) -> dict:
        return {name: cap.state() for name, cap in self._caps.items()}
