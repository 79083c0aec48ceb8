"""Behavioural current-steering DAC with mismatch (paper §5.1, Fig 5).

The §5.1 case study is Chen & Gielen's 14-bit 200 MHz current-steering
DAC (ref [9]): a segmented architecture whose unary MSB current sources
carry Pelgrom-sampled random errors.  Static linearity (INL/DNL) is
fully determined by those errors and by the **switching sequence** — the
order in which unary sources turn on as the code increases — which is
exactly the degree of freedom the SSPA calibration of
:mod:`repro.solutions.calibration` exploits.

The model is behavioural (error-laden current summation) rather than a
transistor netlist: a 16k-code transistor-level DAC is neither needed
nor what the original calibration paper simulates — linearity is a pure
function of the source errors.  The Pelgrom bridge
(:meth:`DacDesign.unit_sigma_rel`) ties the unit-source error to unit
area through the technology's current-factor matching, which is what
makes the area trade-off (E9) quantitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.technology.node import TechnologyNode
from repro.variability.pelgrom import PelgromModel


@dataclass(frozen=True)
class DacConfig:
    """Segmentation of a current-steering DAC."""

    n_bits: int = 14
    """Total resolution."""

    n_unary_bits: int = 6
    """MSB bits implemented as 2^n − 1 unary sources."""

    def __post_init__(self) -> None:
        if self.n_bits < 2:
            raise ValueError("need at least 2 bits")
        if not 1 <= self.n_unary_bits <= self.n_bits:
            raise ValueError("unary segment must fit inside the resolution")

    @property
    def n_lsb_bits(self) -> int:
        """Binary-weighted LSB bits."""
        return self.n_bits - self.n_unary_bits

    @property
    def n_unary_sources(self) -> int:
        """Number of unary MSB sources (2^u − 1)."""
        return (1 << self.n_unary_bits) - 1

    @property
    def unary_weight_lsb(self) -> int:
        """Weight of one unary source in LSBs."""
        return 1 << self.n_lsb_bits

    @property
    def n_codes(self) -> int:
        """Number of input codes."""
        return 1 << self.n_bits


@dataclass(frozen=True)
class DacDesign:
    """Physical sizing of the DAC's unit current source."""

    tech: TechnologyNode
    unit_area_um2: float
    """Gate area of ONE unit (1-LSB) current source [µm²]."""

    aspect_ratio: float = 2.0
    """W/L of the unit source device."""

    def __post_init__(self) -> None:
        if self.unit_area_um2 <= 0.0:
            raise ValueError("unit area must be positive")
        if self.aspect_ratio <= 0.0:
            raise ValueError("aspect ratio must be positive")

    def unit_sigma_rel(self) -> float:
        """Relative 1σ current error of one unit source.

        A saturated current source's error combines the current-factor
        mismatch and the V_T mismatch amplified by gm/I ≈ 2/V_ov:

            σ(ΔI/I)² = σ(Δβ/β)² + (2/V_ov)²·σ(ΔV_T)²

        evaluated at the unit-source geometry, with a typical 0.25 V
        overdrive.  Single-device (not pair) sigmas are used.
        """
        l_um = math.sqrt(self.unit_area_um2 / self.aspect_ratio)
        w_um = self.aspect_ratio * l_um
        pelgrom = PelgromModel.for_technology(self.tech)
        w_m, l_m = w_um * 1e-6, l_um * 1e-6
        sigma_beta = pelgrom.sigma_single_beta_fraction(w_m, l_m)
        sigma_vt = pelgrom.sigma_single_vt_v(w_m, l_m)
        v_ov = 0.25
        return math.hypot(sigma_beta, 2.0 * sigma_vt / v_ov)

    def analog_area_mm2(self, config: DacConfig) -> float:
        """Total current-source array area [mm²].

        2^N − 1 LSB-equivalents of unit sources plus a 20 % routing
        overhead — the dominant analog area of such DACs.
        """
        n_units = (1 << config.n_bits) - 1
        return 1.2 * n_units * self.unit_area_um2 * 1e-6


class CurrentSteeringDac:
    """One mismatch-laden DAC instance (one virtual die)."""

    def __init__(self, config: DacConfig, unit_sigma_rel: float,
                 rng: Optional[np.random.Generator] = None):
        if unit_sigma_rel < 0.0:
            raise ValueError("unit sigma must be non-negative")
        self.config = config
        self.unit_sigma_rel = unit_sigma_rel
        rng = rng if rng is not None else np.random.default_rng()
        u = config.unary_weight_lsb
        # A unary source is u parallel units: relative σ scales as 1/√u.
        self.unary_errors = rng.normal(
            0.0, unit_sigma_rel / math.sqrt(u), config.n_unary_sources)
        # Binary source of weight 2^k: k units in parallel.
        self.binary_errors = np.array([
            rng.normal(0.0, unit_sigma_rel / math.sqrt(1 << k))
            for k in range(config.n_lsb_bits)
        ])
        #: Active switching sequence (unary source indices in turn-on
        #: order); identity until calibrated.
        self.sequence = np.arange(config.n_unary_sources)

    # ------------------------------------------------------------------
    # Static transfer
    # ------------------------------------------------------------------
    def set_sequence(self, sequence: Sequence[int]) -> None:
        """Install a switching sequence (a permutation of all sources)."""
        seq = np.asarray(sequence, dtype=int)
        if sorted(seq.tolist()) != list(range(self.config.n_unary_sources)):
            raise ValueError("sequence must be a permutation of all unary sources")
        self.sequence = seq

    def transfer_lsb(self, sequence: Optional[Sequence[int]] = None) -> np.ndarray:
        """DAC output for every code, in LSB units (length 2^N)."""
        cfg = self.config
        seq = self.sequence if sequence is None else np.asarray(sequence, dtype=int)
        u_weight = cfg.unary_weight_lsb
        # Cumulative unary contribution after k sources are on.
        unary_currents = u_weight * (1.0 + self.unary_errors[seq])
        cum_unary = np.concatenate(([0.0], np.cumsum(unary_currents)))
        # Binary segment output for every LSB sub-code.
        lsb_codes = np.arange(1 << cfg.n_lsb_bits)
        binary_out = np.zeros(lsb_codes.size)
        for k in range(cfg.n_lsb_bits):
            bit_on = (lsb_codes >> k) & 1
            binary_out = binary_out + bit_on * (1 << k) * (1.0 + self.binary_errors[k])
        # Full transfer: code = unary_count·2^L + lsb_code.
        out = (cum_unary[:, None] + binary_out[None, :]).reshape(-1)
        return out

    def inl_lsb(self, sequence: Optional[Sequence[int]] = None) -> np.ndarray:
        """Endpoint-corrected integral nonlinearity per code [LSB]."""
        out = self.transfer_lsb(sequence)
        codes = np.arange(out.size)
        # Endpoint line through (0, out[0]) and (last, out[-1]).
        slope = (out[-1] - out[0]) / (out.size - 1)
        ideal = out[0] + slope * codes
        return out - ideal

    def dnl_lsb(self, sequence: Optional[Sequence[int]] = None) -> np.ndarray:
        """Differential nonlinearity per code step [LSB]."""
        out = self.transfer_lsb(sequence)
        step = (out[-1] - out[0]) / (out.size - 1)
        return np.diff(out) / step - 1.0

    def max_inl_lsb(self, sequence: Optional[Sequence[int]] = None) -> float:
        """max |INL| over all codes [LSB]."""
        return float(np.max(np.abs(self.inl_lsb(sequence))))

    def max_dnl_lsb(self, sequence: Optional[Sequence[int]] = None) -> float:
        """max |DNL| over all steps [LSB]."""
        return float(np.max(np.abs(self.dnl_lsb(sequence))))

    def meets_inl_spec(self, limit_lsb: float = 0.5,
                       sequence: Optional[Sequence[int]] = None) -> bool:
        """The paper's acceptance criterion: INL < ``limit_lsb``."""
        if limit_lsb <= 0.0:
            raise ValueError("INL limit must be positive")
        return self.max_inl_lsb(sequence) < limit_lsb


def sfdr_db(dac: CurrentSteeringDac, n_samples: int = 4096,
            cycles: int = 7,
            sequence: Optional[Sequence[int]] = None) -> float:
    """Spurious-free dynamic range for a full-scale sine input [dB].

    Static mismatch errors fold the reconstructed sine into harmonics;
    SFDR is the carrier-to-worst-spur ratio.  ``cycles`` must be coprime
    with ``n_samples`` for coherent sampling (no spectral leakage).
    This is the dynamic counterpart of INL — the original §5.1 DAC is
    specified at 200 MHz update precisely because dynamic linearity is
    what the application buys.
    """
    if n_samples < 64:
        raise ValueError("need at least 64 samples")
    if math.gcd(n_samples, cycles) != 1:
        raise ValueError("cycles must be coprime with n_samples")
    transfer = dac.transfer_lsb(sequence)
    full_scale = dac.config.n_codes - 1
    phase = 2.0 * math.pi * cycles * np.arange(n_samples) / n_samples
    codes = np.round((np.sin(phase) * 0.5 + 0.5) * full_scale).astype(int)
    output = transfer[codes]
    spectrum = np.abs(np.fft.rfft(output * np.hanning(n_samples)))
    carrier_bin = cycles
    window = 3  # Hann main-lobe width
    carrier = spectrum[carrier_bin - 1:carrier_bin + window].max()
    mask = np.ones(spectrum.size, dtype=bool)
    mask[0:window] = False  # DC leakage
    mask[carrier_bin - window:carrier_bin + window + 1] = False
    worst_spur = spectrum[mask].max()
    if worst_spur <= 0.0:
        return math.inf
    return float(20.0 * math.log10(carrier / worst_spur))


def intrinsic_sigma_for_inl(config: DacConfig, limit_lsb: float = 0.5,
                            yield_target: float = 0.9973) -> float:
    """Analytic estimate of the unit σ needed for intrinsic INL accuracy.

    The worst INL of a unary array is approximately the mid-code random
    walk: σ_INL(mid) = σ_unit·√(2^N)/2 in LSBs.  Requiring the ±z·σ
    excursion (z from the yield target) to stay inside ``limit_lsb``
    gives the classic area-setting rule.
    """
    if not 0.5 < yield_target < 1.0:
        raise ValueError("yield target must be in (0.5, 1)")
    from statistics import NormalDist

    z = NormalDist().inv_cdf(0.5 + yield_target / 2.0)
    sigma_inl_mid = limit_lsb / z
    return sigma_inl_mid * 2.0 / math.sqrt(1 << config.n_bits)
