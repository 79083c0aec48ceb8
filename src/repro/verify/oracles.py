"""Analytic oracle library: circuits and laws with closed-form answers.

Every oracle pairs a *measurable* configuration (a netlist solved by the
MNA engine, a sampler, or a reliability law evaluated through the public
model API) with an independently coded ``analytic()`` reference and a
documented :class:`Tolerance` per solver path.  The differential harness
(:mod:`repro.verify.differential`) drives ``measure(path)`` for every
advertised path and compares against ``analytic()`` — this is the
ground-truth half of the `repro verify` correctness gate.

Tolerance policy (see docs/verification.md):

* **linear DC** — machine epsilon plus the documented ``gmin`` floor
  leakage (every node carries a 1 pS shunt to ground, so a ladder of
  total resistance R sees a relative perturbation of order ``R·gmin``);
* **nonlinear DC** — the Newton stopping criterion
  ``vtol + reltol·max(|x|, 1)`` on the solution vector, which bounds the
  bias of any converged fixed point;
* **transient** — the integrator's order: O(dt/τ) for backward Euler,
  O((dt/τ)²) for trapezoidal, measured against the exact exponential;
* **statistical** — the sampling error of the estimator itself
  (≈ ``4/√(2n)`` relative on a standard deviation from n pair draws);
* **laws** — closed forms re-derived here from the coefficient tables,
  so agreement is arithmetic-only (1e-9 relative).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from repro import units
from repro.aging import ElectromigrationModel, HciModel, NbtiModel, weibull_cdf, weibull_quantile
from repro.circuit import (
    Circuit,
    DcSpec,
    Mosfet,
    NewtonOptions,
    PulseSpec,
    dc_operating_point,
    dc_sweep,
    sparse_mode,
    transient,
)
from repro.circuit.dc import GMIN_FLOOR
from repro.technology import TechnologyNode, get_node
from repro.variability import MismatchSampler, PelgromModel


class Tolerance:
    """A per-path acceptance band: ``|measured - ref| ≤ atol + rtol·|ref|``.

    ``ulps`` optionally *also* accepts deviations within that many
    representable doubles of the reference — useful where the band would
    otherwise have to chase denormal-scale references.
    """

    __slots__ = ("rtol", "atol", "ulps", "note")

    def __init__(self, rtol: float = 0.0, atol: float = 0.0,
                 ulps: int = 0, note: str = ""):
        if rtol < 0.0 or atol < 0.0 or ulps < 0:
            raise ValueError("tolerances must be non-negative")
        self.rtol = rtol
        self.atol = atol
        self.ulps = ulps
        self.note = note

    def bound(self, reference: float) -> float:
        """Absolute acceptance bound at ``reference``."""
        return self.atol + self.rtol * abs(reference)

    def to_dict(self) -> dict:
        return {"rtol": self.rtol, "atol": self.atol, "ulps": self.ulps,
                "note": self.note}

    @staticmethod
    def from_dict(data: dict) -> "Tolerance":
        return Tolerance(rtol=float(data.get("rtol", 0.0)),
                         atol=float(data.get("atol", 0.0)),
                         ulps=int(data.get("ulps", 0)),
                         note=str(data.get("note", "")))

    def __repr__(self) -> str:
        return f"Tolerance(rtol={self.rtol:g}, atol={self.atol:g})"


class Oracle:
    """Base class: a measurable configuration with a closed-form answer.

    Subclasses define ``paths()`` (the solver paths they exercise),
    ``analytic()`` (quantity name → reference value), ``measure(path)``
    (the same quantities through the named path) and
    ``tolerance(path)``.  Circuit-backed oracles also expose ``build()``
    so callers can inspect the netlist.
    """

    name: str = "oracle"
    category: str = "law"

    def paths(self) -> Sequence[str]:
        raise NotImplementedError

    def analytic(self) -> Dict[str, float]:
        raise NotImplementedError

    def measure(self, path: str) -> Dict[str, float]:
        raise NotImplementedError

    def tolerance(self, path: str) -> Tolerance:
        raise NotImplementedError

    def build(self) -> Optional[Circuit]:
        """The oracle's netlist, when it has one."""
        return None

    def _unknown_path(self, path: str) -> ValueError:
        return ValueError(f"{self.name}: unknown solver path {path!r} "
                          f"(have {tuple(self.paths())})")


# ----------------------------------------------------------------------
# DC: resistive ladder (linear) and single-MOSFET operating points
# ----------------------------------------------------------------------
class ResistiveLadderOracle(Oracle):
    """A series ladder of ``n_rungs`` equal resistors across a source.

    Closed form: node k of n sits at ``vdd·(n-k)/n`` and the supply
    delivers ``vdd/(n·R)``.  The linear solve is exact to machine
    epsilon; the only systematic deviation is the documented ``gmin``
    shunt at every node, bounded by ``2·n·R·gmin`` relative.
    """

    category = "dc"

    def __init__(self, n_rungs: int = 5, r_ohms: float = 1e3,
                 vdd_v: float = 1.2):
        if n_rungs < 2:
            raise ValueError("need at least two rungs")
        if r_ohms <= 0.0 or vdd_v <= 0.0:
            raise ValueError("resistance and supply must be positive")
        self.n_rungs = n_rungs
        self.r_ohms = r_ohms
        self.vdd_v = vdd_v
        self.name = f"ladder-{n_rungs}x{r_ohms:g}ohm"

    def build(self) -> Circuit:
        ckt = Circuit(self.name)
        ckt.voltage_source("vdd", "n0", "0", self.vdd_v)
        for k in range(self.n_rungs):
            lower = f"n{k + 1}" if k < self.n_rungs - 1 else "0"
            ckt.resistor(f"r{k}", f"n{k}", lower, self.r_ohms)
        return ckt

    def paths(self) -> Sequence[str]:
        return ("dc.scalar", "dc.sparse", "dc.batch")

    def analytic(self) -> Dict[str, float]:
        n = self.n_rungs
        out = {f"v_n{k}_v": self.vdd_v * (n - k) / n for k in range(1, n)}
        out["i_supply_a"] = self.vdd_v / (n * self.r_ohms)
        return out

    def _read(self, solution) -> Dict[str, float]:
        out = {f"v_n{k}_v": solution.voltage(f"n{k}")
               for k in range(1, self.n_rungs)}
        out["i_supply_a"] = -solution.source_current("vdd")
        return out

    def measure(self, path: str) -> Dict[str, float]:
        ckt = self.build()
        if path == "dc.scalar":
            return self._read(dc_operating_point(ckt))
        if path == "dc.sparse":
            # Forcing the threshold to 1 routes this (small) system
            # through the CSC factorisation instead of dense LAPACK.
            with sparse_mode(1):
                return self._read(dc_operating_point(ckt))
        if path == "dc.batch":
            # Three lanes; the middle one is the nominal supply and the
            # first (the pilot) deliberately is not, so the measured
            # lane really went through the batched Newton loop.
            values = [0.5 * self.vdd_v, self.vdd_v, 1.5 * self.vdd_v]
            sols = dc_sweep(ckt, "vdd", values, batch=True)
            return self._read(sols[1])
        raise self._unknown_path(path)

    def tolerance(self, path: str) -> Tolerance:
        leak = 2.0 * self.n_rungs * self.r_ohms * GMIN_FLOOR
        return Tolerance(rtol=leak + 1e-9, atol=2e-9, ulps=256,
                         note="linear solve: machine eps + gmin leakage")


class MosfetRegionOracle(Oracle):
    """A single MOSFET with both terminals forced by voltage sources.

    With V_GS and V_DS pinned by ideal sources the node voltages are
    exact, so the solved drain-source current must equal the model's own
    ``drain_current(vgs, vds, vbs)`` — an exact closed-form reference in
    each operating region.  The residual is the Newton stopping
    tolerance on the source branch current plus the ``gmin`` shunt at
    the drain node.
    """

    category = "dc"

    #: region → (vgs, vds) as (offset from vt0, fraction of vdd).
    REGIONS = {
        "subthreshold": (-0.15, 0.5),
        "triode": (+0.55, 0.04),
        "saturation": (+0.35, 1.0),
    }

    def __init__(self, region: str, tech_name: str = "90nm",
                 w_m: float = 1e-6, l_m: Optional[float] = None):
        if region not in self.REGIONS:
            raise ValueError(f"unknown region {region!r} "
                             f"(have {tuple(self.REGIONS)})")
        self.region = region
        self.tech = get_node(tech_name)
        self.w_m = w_m
        self.l_m = l_m if l_m is not None else self.tech.lmin_m
        self.name = f"mosfet-{region}-{tech_name}"

    def _device(self) -> Mosfet:
        return Mosfet.from_technology("m1", "d", "g", "0", "0", self.tech,
                                      "n", w_m=self.w_m, l_m=self.l_m)

    def bias(self) -> tuple:
        """The (vgs, vds) pair this oracle solves at."""
        dvgs, fvds = self.REGIONS[self.region]
        vgs = self._device().params.vt0_v + dvgs
        return vgs, fvds * self.tech.vdd

    def build(self) -> Circuit:
        vgs, vds = self.bias()
        ckt = Circuit(self.name)
        ckt.voltage_source("vg", "g", "0", vgs)
        ckt.voltage_source("vd", "d", "0", vds)
        ckt.add(self._device())
        return ckt

    def paths(self) -> Sequence[str]:
        return ("dc.scalar", "dc.sparse", "dc.batch")

    def analytic(self) -> Dict[str, float]:
        vgs, vds = self.bias()
        return {"ids_a": self._device().drain_current(vgs, vds, 0.0)}

    def measure(self, path: str) -> Dict[str, float]:
        ckt = self.build()
        vgs, vds = self.bias()
        if path == "dc.scalar":
            sol = dc_operating_point(ckt)
            return {"ids_a": -sol.source_current("vd")}
        if path == "dc.sparse":
            with sparse_mode(1):
                sol = dc_operating_point(ckt)
            return {"ids_a": -sol.source_current("vd")}
        if path == "dc.batch":
            # Sweep the drain through the bias point; the pilot lane is
            # elsewhere so the measured lane is a genuine batched lane.
            values = [0.6 * vds + 0.01, 0.8 * vds + 0.005, vds,
                      min(1.1 * vds + 0.02, 1.5 * self.tech.vdd)]
            sols = dc_sweep(ckt, "vd", values, batch=True)
            return {"ids_a": -sols[2].source_current("vd")}
        raise self._unknown_path(path)

    def tolerance(self, path: str) -> Tolerance:
        opts = NewtonOptions()
        _, vds = self.bias()
        # gmin shunt at the forced drain node flows through the vd
        # source alongside the channel current.
        leak = 4.0 * GMIN_FLOOR * max(vds, 1.0)
        factor = 2.0 if path == "dc.batch" else 1.0
        return Tolerance(rtol=factor * opts.reltol,
                         atol=factor * (opts.vtol + leak),
                         note="Newton stopping criterion + drain gmin")


# ----------------------------------------------------------------------
# Transient: RC step response
# ----------------------------------------------------------------------
class RcStepOracle(Oracle):
    """A one-grid-step ramp into an RC low-pass.

    The source rises 0 → V linearly over exactly one time step (so the
    input is piecewise-linear on the grid — the discontinuity a true
    ideal step would put *inside* the first step would cost both
    integrators an O(dt) startup error and mask their order).  The
    closed form for a ramp of duration T is::

        v(t ≥ T) = V·(1 − (τ/T)·(1 − e^(−T/τ))·e^(−(t−T)/τ))

    Backward Euler carries its documented O(dt/τ) band, trapezoidal its
    O((dt/τ)²) band.
    """

    category = "transient"

    def __init__(self, r_ohms: float = 1e3, c_f: float = 1e-9,
                 vstep_v: float = 1.0, points_per_tau: int = 50,
                 n_tau: int = 3):
        if r_ohms <= 0.0 or c_f <= 0.0 or vstep_v <= 0.0:
            raise ValueError("R, C and the step must be positive")
        if points_per_tau < 8 or n_tau < 1:
            raise ValueError("grid too coarse for the oracle bands")
        self.r_ohms = r_ohms
        self.c_f = c_f
        self.vstep_v = vstep_v
        self.points_per_tau = points_per_tau
        self.n_tau = n_tau
        self.name = f"rc-step-{r_ohms:g}ohm-{c_f:g}F"

    @property
    def tau_s(self) -> float:
        return self.r_ohms * self.c_f

    @property
    def dt_s(self) -> float:
        return self.tau_s / self.points_per_tau

    def build(self) -> Circuit:
        t_stop = self.n_tau * self.tau_s
        ckt = Circuit(self.name)
        ckt.voltage_source("vin", "in", "0", PulseSpec(
            v1=0.0, v2=self.vstep_v, delay_s=0.0,
            rise_s=self.dt_s, fall_s=self.dt_s,
            width_s=100.0 * t_stop, period_s=400.0 * t_stop))
        ckt.resistor("r1", "in", "out", self.r_ohms)
        ckt.capacitor("c1", "out", "0", self.c_f)
        return ckt

    def paths(self) -> Sequence[str]:
        return ("tran.be", "tran.trap")

    def _exact(self, t_s: float) -> float:
        tau, rise = self.tau_s, self.dt_s
        ramp_gain = (tau / rise) * (1.0 - math.exp(-rise / tau))
        return self.vstep_v * (
            1.0 - ramp_gain * math.exp(-(t_s - rise) / tau))

    def analytic(self) -> Dict[str, float]:
        return {
            "v_at_1tau_v": self._exact(self.tau_s),
            f"v_at_{self.n_tau}tau_v": self._exact(self.n_tau * self.tau_s),
        }

    def measure(self, path: str) -> Dict[str, float]:
        methods = {"tran.be": "backward_euler", "tran.trap": "trapezoidal"}
        if path not in methods:
            raise self._unknown_path(path)
        result = transient(self.build(), t_stop=self.n_tau * self.tau_s,
                           dt=self.dt_s, method=methods[path])
        wave = result.voltage("out")
        return {
            "v_at_1tau_v": float(wave.sample(self.tau_s)),
            f"v_at_{self.n_tau}tau_v":
                float(wave.sample(self.n_tau * self.tau_s)),
        }

    def tolerance(self, path: str) -> Tolerance:
        h = 1.0 / self.points_per_tau  # dt/τ
        if path == "tran.be":
            # Global error of BE on y' = (u-y)/τ is ≤ (h/2)·(t/τ)·e^(1-t/τ)
            # per unit step; h covers it with ~2x margin on this grid.
            return Tolerance(atol=self.vstep_v * h,
                             note="backward Euler O(dt/tau) band")
        return Tolerance(atol=self.vstep_v * h * h,
                         note="trapezoidal O((dt/tau)^2) band")


# ----------------------------------------------------------------------
# Statistical: the Pelgrom sigma law through the sampler
# ----------------------------------------------------------------------
class PelgromSigmaOracle(Oracle):
    """Sampled pair ΔV_T standard deviation vs Eq 1's closed form.

    ``σ²(ΔV_T) = A_VT²/WL + S_VT²·D²`` — the sampler must reproduce the
    law it was built from, within the sampling error of an n-draw
    standard-deviation estimate (≈ ``1/√(2n)`` relative, taken at 4σ).
    """

    category = "statistical"

    def __init__(self, tech_name: str = "90nm", w_um: float = 1.0,
                 l_um: float = 1.0, distance_m: float = 0.0,
                 n_samples: int = 2000, seed: int = 20080310):
        if n_samples < 100:
            raise ValueError("need at least 100 draws for the sigma band")
        self.tech = get_node(tech_name)
        self.w_m = w_um * 1e-6
        self.l_m = l_um * 1e-6
        self.distance_m = distance_m
        self.n_samples = n_samples
        self.seed = seed
        self.name = f"pelgrom-{tech_name}-{w_um:g}x{l_um:g}um"

    def paths(self) -> Sequence[str]:
        return ("mc.sample",)

    def analytic(self) -> Dict[str, float]:
        model = PelgromModel.for_technology(self.tech)
        sigma = model.sigma_delta_vt_v(self.w_m, self.l_m, self.distance_m)
        return {"sigma_pair_vt_v": sigma, "mean_pair_vt_v": 0.0}

    def measure(self, path: str) -> Dict[str, float]:
        if path != "mc.sample":
            raise self._unknown_path(path)
        sampler = MismatchSampler(self.tech,
                                  np.random.default_rng(self.seed))
        deltas = sampler.sample_pair_delta_vt_batch_v(
            self.w_m, self.l_m, self.n_samples, self.distance_m)
        return {"sigma_pair_vt_v": float(np.std(deltas, ddof=1)),
                "mean_pair_vt_v": float(np.mean(deltas))}

    def tolerance(self, path: str) -> Tolerance:
        rel = 4.0 / math.sqrt(2.0 * self.n_samples)
        sigma = self.analytic()["sigma_pair_vt_v"]
        return Tolerance(rtol=rel,
                         atol=4.0 * sigma / math.sqrt(self.n_samples),
                         note="4-sigma sampling error of the estimator")


# ----------------------------------------------------------------------
# Reliability laws: closed forms re-derived from the coefficient tables
# ----------------------------------------------------------------------
class WeibullOracle(Oracle):
    """TDDB Weibull quantile/CDF round trips against the closed form."""

    def __init__(self, eta_s: float = 1e8, shape: float = 1.91):
        self.eta_s = eta_s
        self.shape = shape
        self.name = f"weibull-beta{shape:g}"

    def paths(self) -> Sequence[str]:
        return ("law",)

    def analytic(self) -> Dict[str, float]:
        return {
            "median_s": self.eta_s * math.log(2.0) ** (1.0 / self.shape),
            "cdf_at_eta": 1.0 - math.exp(-1.0),
            "quantile_roundtrip": 0.25,
        }

    def measure(self, path: str) -> Dict[str, float]:
        if path != "law":
            raise self._unknown_path(path)
        return {
            "median_s": weibull_quantile(0.5, self.eta_s, self.shape),
            "cdf_at_eta": weibull_cdf(self.eta_s, self.eta_s, self.shape),
            "quantile_roundtrip": weibull_cdf(
                weibull_quantile(0.25, self.eta_s, self.shape),
                self.eta_s, self.shape),
        }

    def tolerance(self, path: str) -> Tolerance:
        return Tolerance(rtol=1e-9, atol=1e-15, note="arithmetic only")


class NbtiLawOracle(Oracle):
    """Eq 3 with relaxation, re-derived from the coefficient table."""

    def __init__(self, tech_name: str = "65nm",
                 temperature_c: float = 125.0):
        self.tech = get_node(tech_name)
        self.t_k = units.celsius_to_kelvin(temperature_c)
        self.name = f"nbti-law-{tech_name}"

    def paths(self) -> Sequence[str]:
        return ("law",)

    def _cases(self):
        ten_years = units.years_to_seconds(10.0)
        return self.tech.nominal_oxide_field(), ten_years

    def analytic(self) -> Dict[str, float]:
        c = self.tech.aging
        eox, ten_years = self._cases()
        k = (c.nbti_prefactor_v * math.exp(eox / c.nbti_e0_v_per_m)
             * math.exp(-c.nbti_ea_ev / (units.K_BOLTZMANN_EV * self.t_k)))
        n = c.nbti_time_exponent
        total_1000s = k * 1e3 ** n
        p = c.nbti_permanent_fraction
        relax = NbtiModel(c).relaxation
        remaining = 1.0 / (1.0 + relax.b * (1e5 / 1e3) ** relax.beta)
        return {
            "dvt_10yr_v": k * ten_years ** n,
            "relaxed_frac_1e5s": p + (1.0 - p) * remaining,
            "ac50_ratio": 0.5 ** n,
            "_total_1000s_v": total_1000s,
        }

    def measure(self, path: str) -> Dict[str, float]:
        if path != "law":
            raise self._unknown_path(path)
        nbti = NbtiModel(self.tech.aging)
        eox, ten_years = self._cases()
        total = nbti.delta_vt_v(eox, self.t_k, 1e3)
        return {
            "dvt_10yr_v": nbti.delta_vt_v(eox, self.t_k, ten_years),
            "relaxed_frac_1e5s":
                nbti.relaxed_delta_vt_v(total, 1e3, 1e5) / total,
            "ac50_ratio": (nbti.delta_vt_v(eox, self.t_k, 1e6, duty=0.5)
                           / nbti.delta_vt_v(eox, self.t_k, 1e6)),
            "_total_1000s_v": total,
        }

    def tolerance(self, path: str) -> Tolerance:
        return Tolerance(rtol=1e-9, atol=1e-15, note="arithmetic only")


class HciLawOracle(Oracle):
    """Eq 2 power-law time scaling through the HCI model."""

    def __init__(self, tech_name: str = "65nm"):
        self.tech = get_node(tech_name)
        self.name = f"hci-law-{tech_name}"

    def paths(self) -> Sequence[str]:
        return ("law",)

    def _device(self) -> Mosfet:
        return Mosfet.from_technology("mn", "d", "g", "s", "b", self.tech,
                                      "n", w_m=1e-6, l_m=self.tech.lmin_m)

    def analytic(self) -> Dict[str, float]:
        n = self.tech.aging.hci_time_exponent
        return {"decade_ratio": 10.0 ** n, "four_decade_ratio": 1e4 ** n}

    def measure(self, path: str) -> Dict[str, float]:
        if path != "law":
            raise self._unknown_path(path)
        hci = HciModel(self.tech.aging)
        device = self._device()
        vgs, vds = self.tech.vdd / 2.0, self.tech.vdd
        d = [hci.delta_vt_v(device, vgs, vds, 300.0, t)
             for t in (1e4, 1e5, 1e8)]
        return {"decade_ratio": d[1] / d[0], "four_decade_ratio": d[2] / d[0]}

    def tolerance(self, path: str) -> Tolerance:
        return Tolerance(rtol=1e-9, atol=1e-15, note="arithmetic only")


class EmLawOracle(Oracle):
    """Eq 4: the J⁻² current exponent and Arrhenius acceleration."""

    def __init__(self, tech_name: str = "65nm"):
        self.tech = get_node(tech_name)
        self.name = f"em-law-{tech_name}"

    def paths(self) -> Sequence[str]:
        return ("law",)

    def analytic(self) -> Dict[str, float]:
        c = self.tech.aging
        t_cold = units.celsius_to_kelvin(27.0)
        t_hot = units.celsius_to_kelvin(125.0)
        return {
            "j_double_ratio": 2.0 ** c.em_current_exponent,
            "arrhenius_27_125": math.exp(
                c.em_ea_ev / units.K_BOLTZMANN_EV
                * (1.0 / t_cold - 1.0 / t_hot)),
        }

    def measure(self, path: str) -> Dict[str, float]:
        if path != "law":
            raise self._unknown_path(path)
        em = ElectromigrationModel(self.tech.aging)
        j = 1e10  # 1 MA/cm²
        t_cold = units.celsius_to_kelvin(27.0)
        t_hot = units.celsius_to_kelvin(125.0)
        return {
            "j_double_ratio": (em.black_mttf_s(j, t_hot)
                               / em.black_mttf_s(2.0 * j, t_hot)),
            "arrhenius_27_125": (em.black_mttf_s(j, t_cold)
                                 / em.black_mttf_s(j, t_hot)),
        }

    def tolerance(self, path: str) -> Tolerance:
        return Tolerance(rtol=1e-9, atol=1e-15, note="arithmetic only")


# ----------------------------------------------------------------------
# Statistical: the high-sigma engine on a linear performance model
# ----------------------------------------------------------------------
class _LinearTailMetric:
    """Picklable ``Σ cᵢ·ΔV_T,i/σᵢ`` spec extractor.

    Under nominal sampling each term is an independent standard normal
    scaled by ``cᵢ``, so the metric is exactly ``N(0, ‖c‖)`` and every
    tail probability has a closed form — the one configuration where an
    importance-sampling estimate can be checked against ground truth.
    """

    def __init__(self, coeffs: Dict[str, float], sigmas: Dict[str, float]):
        self.coeffs = coeffs
        self.sigmas = sigmas

    def __call__(self, fixture) -> float:
        total = 0.0
        for device in fixture.circuit.mosfets:
            total += (self.coeffs[device.name]
                      * device.variation.delta_vt_v
                      / self.sigmas[device.name])
        return total


class HighSigmaLinearOracle(Oracle):
    """:class:`~repro.core.HighSigmaYield` vs an exact Gaussian tail.

    The metric is linear in the normalized ΔV_T draws (see
    :class:`_LinearTailMetric`), the spec bound sits at ``k·‖c‖`` below
    nominal, and the failure probability is exactly ``Φ(−k)``.  Because
    the probe direction recovers the gradient exactly and the engine
    shifts along it by ``s = k`` sigmas, the estimator's variance ALSO
    has a closed form: for the 1-D projection ``u ~ N(s, 1)`` under the
    proposal, ``w(u) = exp(s²/2 − s·u)`` and

        E_q[w²·1_fail] = e^{s²}·Φ(−(k + s))
        Var[p̂]        = (e^{s²}·Φ(−(k + s)) − p²) / n

    so the tolerance band is *derived*, not tuned: 4 standard errors
    for the plain path, 6 for the surrogate-screened path (the extra
    slack covers boundary samples the screener may classify from its
    fit rather than a solve).  Both paths run ``adapt=False`` with the
    explicit ``shift_sigma = k`` so the formula applies to every chunk.
    """

    category = "statistical"

    #: Deliberately anisotropic coefficients — the probe has to *find*
    #: the failure direction, not just scale a symmetric one.
    COEFFS = (1.0, -0.7)

    def __init__(self, tech_name: str = "65nm", k_sigma: float = 4.5,
                 n_samples: int = 4096, seed: int = 20080310):
        if k_sigma <= 0.0:
            raise ValueError("k_sigma must be positive")
        if n_samples < 512:
            raise ValueError("need at least 512 samples for the band")
        self.tech = get_node(tech_name)
        self.k_sigma = k_sigma
        self.n_samples = n_samples
        self.seed = seed
        self.name = f"highsigma-linear-{k_sigma:g}sigma"

    def _engine(self):
        from repro.circuits import differential_pair
        from repro.core.importance import HighSigmaYield
        from repro.core.yield_analysis import Specification

        fixture = differential_pair(self.tech, w_m=2e-6, l_m=0.13e-6)
        sampler = MismatchSampler(self.tech, np.random.default_rng(0))
        devices = fixture.circuit.mosfets
        sigmas = {d.name: sampler.sigma_single_vt_v(d.params.w_m,
                                                    d.params.l_m)
                  for d in devices}
        coeffs = {d.name: self.COEFFS[i % len(self.COEFFS)]
                  for i, d in enumerate(devices)}
        norm_c = math.sqrt(sum(c * c for c in coeffs.values()))
        spec = Specification("linear_tail",
                             _LinearTailMetric(coeffs, sigmas),
                             lower=-self.k_sigma * norm_c)
        return HighSigmaYield(fixture, spec, self.tech)

    def paths(self) -> Sequence[str]:
        return ("is.plain", "is.screened")

    def analytic(self) -> Dict[str, float]:
        from repro.core.importance import normal_sf

        return {"p_fail": normal_sf(self.k_sigma)}

    def closed_form_se(self) -> float:
        """Exact standard error of the unnormalized estimator."""
        from repro.core.importance import normal_sf

        s = k = self.k_sigma
        second_moment = math.exp(s * s) * normal_sf(k + s)
        p = normal_sf(k)
        return math.sqrt(max(second_moment - p * p, 0.0) / self.n_samples)

    def run(self, path: str):
        """The full engine result behind ``measure`` (reused by E15)."""
        from repro.core.importance import SurrogateConfig

        if path not in self.paths():
            raise self._unknown_path(path)
        surrogate = SurrogateConfig() if path == "is.screened" else None
        return self._engine().run(
            self.n_samples, shift_sigma=self.k_sigma, seed=self.seed,
            adapt=False, surrogate=surrogate)

    def measure(self, path: str) -> Dict[str, float]:
        return {"p_fail": self.run(path).failure_probability}

    def tolerance(self, path: str) -> Tolerance:
        z = 4.0 if path == "is.plain" else 6.0
        return Tolerance(atol=z * self.closed_form_se(),
                         note=f"{z:g} closed-form IS standard errors "
                              "(e^{s^2}·Φ(−(k+s)) second moment)")


def default_oracles() -> list:
    """The standing oracle library run by ``repro verify``."""
    return [
        ResistiveLadderOracle(),
        MosfetRegionOracle("subthreshold"),
        MosfetRegionOracle("triode"),
        MosfetRegionOracle("saturation"),
        RcStepOracle(),
        PelgromSigmaOracle(),
        PelgromSigmaOracle(w_um=8.0, l_um=8.0),
        PelgromSigmaOracle(distance_m=2e-3),
        WeibullOracle(),
        NbtiLawOracle(),
        HciLawOracle(),
        EmLawOracle(),
        HighSigmaLinearOracle(),
    ]
