"""Tests for SRAM read/write margins and DAC dynamic/aging extensions."""

import numpy as np
import pytest

from repro import units
from repro.aging import NbtiModel
from repro.circuit import DeviceVariation
from repro.circuits import (
    sram_cell,
    sram_hold_butterfly,
    sram_read_butterfly,
    sram_write_trip_voltage,
    static_noise_margin,
)
from repro.solutions import (
    CurrentSteeringDac,
    DacConfig,
    age_dac_sources,
    calibrate,
    intrinsic_sigma_for_inl,
    sfdr_db,
)


class TestSramReadMargin:
    def test_read_snm_below_hold_snm(self, tech90):
        fx = sram_cell(tech90)
        vh, rh = sram_hold_butterfly(fx)
        vr, rr = sram_read_butterfly(fx)
        hold = static_noise_margin(vh, rh)
        read = static_noise_margin(vr, rr)
        assert read < 0.8 * hold
        assert read > 0.05 * tech90.vdd

    def test_bigger_cell_ratio_improves_read_snm(self, tech90):
        weak = sram_cell(tech90, cell_ratio=1.2)
        strong = sram_cell(tech90, cell_ratio=3.0)
        snm = {}
        for name, fx in (("weak", weak), ("strong", strong)):
            v, r = sram_read_butterfly(fx)
            snm[name] = static_noise_margin(v, r)
        assert snm["strong"] > snm["weak"]

    def test_wordline_restored_after_read_analysis(self, tech90):
        fx = sram_cell(tech90)
        sram_read_butterfly(fx)
        assert fx.circuit["vwl"].spec.dc_value() == 0.0


class TestSramWriteMargin:
    def test_trip_voltage_in_range(self, tech90):
        fx = sram_cell(tech90)
        trip = sram_write_trip_voltage(fx)
        assert 0.0 < trip < tech90.vdd

    def test_stronger_pullup_harder_to_write(self, tech90):
        easy = sram_cell(tech90, pu_ratio=0.8)
        hard = sram_cell(tech90, pu_ratio=2.0)
        assert (sram_write_trip_voltage(hard)
                < sram_write_trip_voltage(easy))

    def test_sources_restored(self, tech90):
        fx = sram_cell(tech90)
        sram_write_trip_voltage(fx)
        assert fx.circuit["vwl"].spec.dc_value() == 0.0
        assert fx.circuit["vbl"].spec.dc_value() == pytest.approx(tech90.vdd)


class TestSfdr:
    def test_ideal_dac_at_quantization_floor(self):
        # A perfect 12-bit DAC is limited by quantization spurs:
        # SFDR ≈ 6.02·N + ~10 dB ≈ low 80s.
        cfg = DacConfig(n_bits=12, n_unary_bits=5)
        dac = CurrentSteeringDac(cfg, 0.0, np.random.default_rng(0))
        assert sfdr_db(dac) > 78.0

    def test_mismatch_lowers_sfdr(self):
        cfg = DacConfig(n_bits=12, n_unary_bits=5)
        sigma = intrinsic_sigma_for_inl(cfg)
        clean = CurrentSteeringDac(cfg, 0.0, np.random.default_rng(1))
        dirty = CurrentSteeringDac(cfg, 8.0 * sigma, np.random.default_rng(1))
        assert sfdr_db(dirty) < sfdr_db(clean) - 10.0

    def test_validation(self):
        cfg = DacConfig(n_bits=10, n_unary_bits=4)
        dac = CurrentSteeringDac(cfg, 0.01, np.random.default_rng(0))
        with pytest.raises(ValueError, match="coprime"):
            sfdr_db(dac, n_samples=4096, cycles=4)
        with pytest.raises(ValueError, match="64"):
            sfdr_db(dac, n_samples=32)


class TestDacAging:
    def setup_dac(self, seed=1):
        cfg = DacConfig(n_bits=12, n_unary_bits=5)
        sigma = intrinsic_sigma_for_inl(cfg)
        dac = CurrentSteeringDac(cfg, 2.0 * sigma,
                                 np.random.default_rng(seed))
        return dac

    def aging_inputs(self, tech):
        return dict(eox_v_per_m=tech.nominal_oxide_field(),
                    temperature_k=units.celsius_to_kelvin(105.0),
                    t_stress_s=units.years_to_seconds(10.0))

    def test_aging_degrades_calibrated_inl(self, tech90):
        dac = self.setup_dac()
        nbti = NbtiModel(tech90.aging)
        fresh = calibrate(dac).inl_after_lsb
        age_dac_sources(dac, nbti, rng=np.random.default_rng(2),
                        **self.aging_inputs(tech90))
        aged = dac.max_inl_lsb()
        assert aged > 2.0 * fresh

    def test_runtime_recalibration_recovers(self, tech90):
        dac = self.setup_dac()
        nbti = NbtiModel(tech90.aging)
        calibrate(dac)
        age_dac_sources(dac, nbti, rng=np.random.default_rng(2),
                        **self.aging_inputs(tech90))
        aged = dac.max_inl_lsb()
        recal = calibrate(dac)
        assert recal.inl_after_lsb < 0.7 * aged

    def test_all_sources_lose_current(self, tech90):
        dac = self.setup_dac()
        nbti = NbtiModel(tech90.aging)
        deltas = age_dac_sources(dac, nbti, rng=np.random.default_rng(3),
                                 **self.aging_inputs(tech90))
        assert np.all(deltas < 0.0)

    def test_zero_spread_uniform_drift_cancels(self, tech90):
        # With identical duty everywhere, aging is a pure gain error —
        # absorbed by the endpoint INL correction.
        dac = self.setup_dac()
        inl_before = dac.max_inl_lsb()
        nbti = NbtiModel(tech90.aging)
        age_dac_sources(dac, nbti, duty_spread=0.0,
                        rng=np.random.default_rng(4),
                        **self.aging_inputs(tech90))
        assert dac.max_inl_lsb() == pytest.approx(inl_before, rel=0.05)

    def test_validation(self, tech90):
        dac = self.setup_dac()
        nbti = NbtiModel(tech90.aging)
        with pytest.raises(ValueError):
            age_dac_sources(dac, nbti, duty_spread=1.5,
                            **self.aging_inputs(tech90))
