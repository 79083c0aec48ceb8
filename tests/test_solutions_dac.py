"""Unit tests for the current-steering DAC and SSPA calibration (§5.1)."""

import math

import numpy as np
import pytest

from repro.solutions import (
    CurrentSteeringDac,
    DacConfig,
    DacDesign,
    area_tradeoff,
    calibrate,
    inl_yield,
    intrinsic_sigma_for_inl,
    max_sigma_for_yield,
    measure_unary_errors,
    sspa_sequence,
    sspa_sequence_paired,
)


class TestDacConfig:
    def test_segmentation_arithmetic(self):
        cfg = DacConfig(n_bits=14, n_unary_bits=6)
        assert cfg.n_lsb_bits == 8
        assert cfg.n_unary_sources == 63
        assert cfg.unary_weight_lsb == 256
        assert cfg.n_codes == 16384

    def test_validation(self):
        with pytest.raises(ValueError):
            DacConfig(n_bits=1)
        with pytest.raises(ValueError):
            DacConfig(n_bits=8, n_unary_bits=9)


class TestDacTransfer:
    def test_ideal_dac_perfectly_linear(self, rng):
        cfg = DacConfig(n_bits=10, n_unary_bits=4)
        dac = CurrentSteeringDac(cfg, unit_sigma_rel=0.0, rng=rng)
        assert dac.max_inl_lsb() == pytest.approx(0.0, abs=1e-9)
        assert dac.max_dnl_lsb() == pytest.approx(0.0, abs=1e-9)

    def test_transfer_monotone_levels(self, rng):
        cfg = DacConfig(n_bits=10, n_unary_bits=4)
        dac = CurrentSteeringDac(cfg, unit_sigma_rel=0.005, rng=rng)
        out = dac.transfer_lsb()
        assert out.size == 1024
        # Small errors: transfer is still monotone.
        assert np.all(np.diff(out) > -0.5)

    def test_endpoints_absorbed_by_inl(self, rng):
        cfg = DacConfig(n_bits=10, n_unary_bits=4)
        dac = CurrentSteeringDac(cfg, unit_sigma_rel=0.01, rng=rng)
        inl = dac.inl_lsb()
        assert inl[0] == pytest.approx(0.0, abs=1e-12)
        assert inl[-1] == pytest.approx(0.0, abs=1e-9)

    def test_inl_scales_with_sigma(self):
        cfg = DacConfig(n_bits=12, n_unary_bits=5)
        inls = []
        for sigma in (0.002, 0.02):
            vals = [CurrentSteeringDac(cfg, sigma,
                                       np.random.default_rng(s)).max_inl_lsb()
                    for s in range(10)]
            inls.append(np.mean(vals))
        assert inls[1] > 5.0 * inls[0]

    def test_sequence_permutation_enforced(self, rng):
        cfg = DacConfig(n_bits=10, n_unary_bits=4)
        dac = CurrentSteeringDac(cfg, 0.01, rng)
        with pytest.raises(ValueError, match="permutation"):
            dac.set_sequence([0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13])

    def test_sequence_changes_inl_not_endpoints(self, rng):
        cfg = DacConfig(n_bits=10, n_unary_bits=4)
        dac = CurrentSteeringDac(cfg, 0.02, rng)
        out_id = dac.transfer_lsb()
        perm = rng.permutation(cfg.n_unary_sources)
        out_perm = dac.transfer_lsb(perm)
        assert out_perm[-1] == pytest.approx(out_id[-1])
        assert not np.allclose(out_perm, out_id)

    def test_meets_inl_spec(self, rng):
        cfg = DacConfig(n_bits=10, n_unary_bits=4)
        perfect = CurrentSteeringDac(cfg, 0.0, rng)
        assert perfect.meets_inl_spec(0.5)
        with pytest.raises(ValueError):
            perfect.meets_inl_spec(0.0)


class TestSspaSequence:
    def test_reduces_line_deviation(self, rng):
        errors = rng.normal(0.0, 1e-3, 63)
        total = errors.sum()
        line = total * np.arange(1, 64) / 63

        def max_dev(seq):
            return np.abs(np.cumsum(errors[seq]) - line).max()

        identity = np.arange(63)
        improved = sspa_sequence(errors)
        assert max_dev(improved) < max_dev(identity)

    def test_paired_at_least_as_good_on_average(self, rng):
        devs_greedy, devs_paired = [], []
        for seed in range(8):
            local = np.random.default_rng(seed)
            errors = local.normal(0.0, 1e-3, 31)
            line = errors.sum() * np.arange(1, 32) / 31
            g = np.abs(np.cumsum(errors[sspa_sequence(errors)]) - line).max()
            p = np.abs(np.cumsum(errors[sspa_sequence_paired(errors)]) - line).max()
            devs_greedy.append(g)
            devs_paired.append(p)
        assert np.mean(devs_paired) <= np.mean(devs_greedy) * 1.01

    def test_is_permutation(self, rng):
        errors = rng.normal(0.0, 1e-3, 31)
        for fn in (sspa_sequence, sspa_sequence_paired):
            seq = fn(errors)
            assert sorted(seq.tolist()) == list(range(31))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sspa_sequence(np.array([]))


class TestCalibrate:
    def test_improves_inl(self):
        cfg = DacConfig(n_bits=12, n_unary_bits=6)
        improvements = []
        for seed in range(6):
            dac = CurrentSteeringDac(cfg, 0.01, np.random.default_rng(seed))
            result = calibrate(dac)
            improvements.append(result.inl_improvement)
        assert np.mean(improvements) > 1.5

    def test_installs_sequence(self, rng):
        cfg = DacConfig(n_bits=10, n_unary_bits=5)
        dac = CurrentSteeringDac(cfg, 0.01, rng)
        result = calibrate(dac, install=True)
        assert np.array_equal(dac.sequence, result.sequence)
        assert dac.max_inl_lsb() == pytest.approx(result.inl_after_lsb)

    def test_measurement_noise_degrades_calibration(self):
        cfg = DacConfig(n_bits=12, n_unary_bits=6)
        clean, noisy = [], []
        for seed in range(8):
            d1 = CurrentSteeringDac(cfg, 0.01, np.random.default_rng(seed))
            d2 = CurrentSteeringDac(cfg, 0.01, np.random.default_rng(seed))
            clean.append(calibrate(d1).inl_after_lsb)
            noisy.append(calibrate(
                d2, comparator_sigma_rel=0.01,
                rng=np.random.default_rng(seed + 100)).inl_after_lsb)
        assert np.mean(noisy) > np.mean(clean)

    def test_perfect_comparator_reads_truth(self, rng):
        cfg = DacConfig(n_bits=10, n_unary_bits=4)
        dac = CurrentSteeringDac(cfg, 0.01, rng)
        measured = measure_unary_errors(dac)
        assert np.array_equal(measured, dac.unary_errors)


class TestYieldAndArea:
    def test_calibrated_yield_beats_uncalibrated(self):
        cfg = DacConfig(n_bits=12, n_unary_bits=6)
        sigma = 3.0 * intrinsic_sigma_for_inl(cfg)
        y_raw = inl_yield(cfg, sigma, n_samples=40, calibrated=False, seed=1)
        y_cal = inl_yield(cfg, sigma, n_samples=40, calibrated=True, seed=1)
        assert y_cal > y_raw + 0.3

    def test_intrinsic_sigma_gives_high_yield(self):
        cfg = DacConfig(n_bits=12, n_unary_bits=6)
        sigma = intrinsic_sigma_for_inl(cfg, yield_target=0.9973)
        assert inl_yield(cfg, sigma, n_samples=40, seed=2) > 0.85

    def test_max_sigma_search_bracket(self):
        cfg = DacConfig(n_bits=10, n_unary_bits=5)
        sigma = max_sigma_for_yield(cfg, yield_target=0.9, n_samples=30,
                                    calibrated=False, seed=3)
        assert inl_yield(cfg, sigma, n_samples=30, seed=3) >= 0.9
        assert inl_yield(cfg, 2.5 * sigma, n_samples=30, seed=3) < 0.9

    def test_area_tradeoff_shape(self, tech90):
        # The §5.1 claim: calibrated array area ≪ intrinsic array area.
        cfg = DacConfig(n_bits=12, n_unary_bits=6)
        result = area_tradeoff(cfg, tech90, yield_target=0.9, n_samples=40,
                               seed=4)
        assert result.sigma_calibrated > 1.5 * result.sigma_intrinsic
        assert result.area_ratio < 0.5
        assert result.area_calibrated_mm2 > 0.0


class TestDacDesign:
    def test_sigma_falls_with_area(self, tech90):
        small = DacDesign(tech90, unit_area_um2=0.1)
        big = DacDesign(tech90, unit_area_um2=10.0)
        assert big.unit_sigma_rel() < small.unit_sigma_rel()

    def test_pelgrom_area_scaling(self, tech90):
        a1 = DacDesign(tech90, unit_area_um2=1.0)
        a4 = DacDesign(tech90, unit_area_um2=4.0)
        assert a1.unit_sigma_rel() / a4.unit_sigma_rel() == pytest.approx(
            2.0, rel=0.1)

    def test_total_area(self, tech90):
        cfg = DacConfig(n_bits=10, n_unary_bits=4)
        design = DacDesign(tech90, unit_area_um2=1.0)
        # 1023 units × 1 µm² × 1.2 overhead.
        assert design.analog_area_mm2(cfg) == pytest.approx(
            1023 * 1.2e-6, rel=1e-6)

    def test_validation(self, tech90):
        with pytest.raises(ValueError):
            DacDesign(tech90, unit_area_um2=-1.0)
