"""Unit tests for the variability package (paper §2, Eq 1)."""

import math

import numpy as np
import pytest

from repro import units
from repro.circuits import differential_pair, ring_oscillator
from repro.variability import (
    LerModel,
    MismatchSampler,
    PelgromModel,
    Placement,
    standard_corners,
)


class TestPelgromLaw:
    def test_area_scaling(self, tech90):
        # Quadrupling the area halves sigma (Eq 1) — compare geometries
        # large enough that the short/narrow corrections are negligible.
        pm = PelgromModel.for_technology(tech90)
        s1 = pm.sigma_delta_vt_v(10e-6, 10e-6)
        s2 = pm.sigma_delta_vt_v(20e-6, 20e-6)
        assert s1 / s2 == pytest.approx(2.0, rel=0.02)

    def test_magnitude_anchored_to_avt(self, tech90):
        # For a 1 µm × 1 µm pair: σ = A_VT mV (up to the geometry corr.).
        pm = PelgromModel.for_technology(tech90)
        sigma_mv = pm.sigma_delta_vt_v(1e-6, 1e-6) * 1e3
        avt = tech90.mismatch.a_vt_mv_um
        assert avt < sigma_mv < 1.5 * avt

    def test_distance_term_adds_in_variance(self, tech90):
        pm = PelgromModel.for_technology(tech90)
        s0 = pm.sigma_delta_vt_v(1e-6, 1e-6, distance_m=0.0)
        s_far = pm.sigma_delta_vt_v(1e-6, 1e-6, distance_m=1e-3)
        d_um = 1000.0
        expected = math.hypot(s0, tech90.mismatch.s_vt_mv_per_um
                              * d_um * 1e-3)
        assert s_far == pytest.approx(expected, rel=1e-6)
        assert s_far > s0

    def test_short_channel_extra_variance(self, tech90):
        # Same area, shorter L → more variance (refs [5], [41]).
        pm = PelgromModel.for_technology(tech90)
        s_short = pm.sigma_delta_vt_v(1e-6, 0.09e-6)
        s_square = pm.sigma_delta_vt_v(0.3e-6, 0.3e-6)
        assert s_short > s_square

    def test_single_device_is_pair_over_sqrt2(self, tech90):
        pm = PelgromModel.for_technology(tech90)
        assert pm.sigma_single_vt_v(1e-6, 1e-6) == pytest.approx(
            pm.sigma_delta_vt_v(1e-6, 1e-6) / math.sqrt(2.0))

    def test_beta_mismatch_fractional(self, tech90):
        pm = PelgromModel.for_technology(tech90)
        frac = pm.sigma_delta_beta_fraction(1e-6, 1e-6)
        assert 0.001 < frac < 0.1

    def test_rejects_bad_geometry(self, tech90):
        pm = PelgromModel.for_technology(tech90)
        with pytest.raises(ValueError):
            pm.sigma_delta_vt_v(-1e-6, 1e-6)
        with pytest.raises(ValueError):
            pm.sigma_delta_vt_v(1e-6, 1e-6, distance_m=-1.0)

    def test_area_for_sigma_inverse(self, tech90):
        pm = PelgromModel.for_technology(tech90)
        w, l = pm.area_for_sigma_vt(1e-3)
        assert pm.sigma_delta_vt_v(w, l) == pytest.approx(1e-3, rel=1e-3)

    def test_area_for_sigma_respects_aspect(self, tech90):
        pm = PelgromModel.for_technology(tech90)
        w, l = pm.area_for_sigma_vt(2e-3, aspect_ratio=4.0)
        assert w / l == pytest.approx(4.0)

    def test_tighter_sigma_needs_more_area(self, tech90):
        pm = PelgromModel.for_technology(tech90)
        w1, l1 = pm.area_for_sigma_vt(2e-3)
        w2, l2 = pm.area_for_sigma_vt(1e-3)
        assert w2 * l2 > 3.0 * w1 * l1


class TestLerModel:
    def test_sigma_grows_at_short_l(self, tech90):
        ler = LerModel.for_technology(tech90)
        assert ler.sigma_vt_v(1e-6, tech90.lmin_m) > ler.sigma_vt_v(1e-6, 4 * tech90.lmin_m)

    def test_sigma_falls_with_width(self, tech90):
        ler = LerModel.for_technology(tech90)
        s1 = ler.sigma_vt_v(0.2e-6, tech90.lmin_m)
        s2 = ler.sigma_vt_v(3.2e-6, tech90.lmin_m)
        assert s1 / s2 == pytest.approx(4.0, rel=0.05)

    def test_width_averaging_floor(self):
        # Below one correlation length there is a single segment.
        ler = LerModel()
        assert ler.independent_segments(10e-9) == 1.0
        assert ler.sigma_leff_m(10e-9) == pytest.approx(ler.rms_amplitude_m)

    def test_pair_sigma_is_sqrt2(self, tech90):
        ler = LerModel.for_technology(tech90)
        assert ler.sigma_delta_vt_v(1e-6, 0.09e-6) == pytest.approx(
            math.sqrt(2) * ler.sigma_vt_v(1e-6, 0.09e-6))

    def test_scaled_nodes_more_sensitive(self, tech65, tech350):
        l65 = LerModel.for_technology(tech65)
        l350 = LerModel.for_technology(tech350)
        # At each node's own minimum geometry, LER hurts the new node more.
        assert (l65.sigma_vt_v(10 * tech65.wmin_m, tech65.lmin_m)
                > l350.sigma_vt_v(10 * tech350.wmin_m, tech350.lmin_m))

    def test_rejects_bad_inputs(self):
        ler = LerModel()
        with pytest.raises(ValueError):
            ler.sigma_vt_v(-1e-6, 1e-7)
        with pytest.raises(ValueError):
            ler.dvt_dl_v_per_m(0.0)
        with pytest.raises(ValueError):
            LerModel(rms_amplitude_m=-1.0)


class TestMismatchSampler:
    def test_pair_statistics_match_eq1(self, tech90, rng):
        sampler = MismatchSampler(tech90, rng)
        pm = sampler.pelgrom
        draws = np.array([sampler.sample_pair_delta_vt_v(1e-6, 1e-6)
                          for _ in range(4000)])
        assert draws.mean() == pytest.approx(0.0, abs=2e-4)
        assert draws.std() == pytest.approx(
            pm.sigma_delta_vt_v(1e-6, 1e-6), rel=0.06)

    def test_distance_term_in_pair_draws(self, tech90, rng):
        sampler = MismatchSampler(tech90, rng)
        pm = sampler.pelgrom
        d = 500e-6
        draws = np.array([sampler.sample_pair_delta_vt_v(1e-6, 1e-6, d)
                          for _ in range(4000)])
        assert draws.std() == pytest.approx(
            pm.sigma_delta_vt_v(1e-6, 1e-6, d), rel=0.06)

    def test_assign_and_clear(self, tech90, rng):
        fx = differential_pair(tech90)
        sampler = MismatchSampler(tech90, rng)
        sampler.assign(fx.circuit)
        deltas = [m.variation.delta_vt_v for m in fx.circuit.mosfets]
        assert any(d != 0.0 for d in deltas)
        sampler.clear(fx.circuit)
        assert all(m.variation.delta_vt_v == 0.0 for m in fx.circuit.mosfets)

    def test_placement_gradient_correlation(self, tech90):
        # Two devices placed far apart pick up a correlated gradient:
        # their DIFFERENCE grows with distance per S_VT·D.
        fx = differential_pair(tech90, w_m=20e-6, l_m=2e-6)
        placements = {"m1": Placement(0.0, 0.0), "m2": Placement(2e-3, 0.0)}
        diffs = []
        for seed in range(500):
            sampler = MismatchSampler(tech90, np.random.default_rng(seed))
            sampler.assign(fx.circuit, placements)
            m1, m2 = fx.circuit["m1"], fx.circuit["m2"]
            diffs.append(m1.variation.delta_vt_v - m2.variation.delta_vt_v)
        pm = PelgromModel.for_technology(tech90)
        expected = pm.sigma_delta_vt_v(20e-6, 2e-6, distance_m=2e-3)
        assert np.std(diffs) == pytest.approx(expected, rel=0.15)

    def test_ler_inflates_sigma(self, tech90, rng):
        plain = MismatchSampler(tech90, rng)
        with_ler = MismatchSampler(tech90, rng, include_ler=True)
        w, l = 0.5e-6, tech90.lmin_m
        assert with_ler.sigma_single_vt_v(w, l) > plain.sigma_single_vt_v(w, l)

    def test_beta_factor_positive(self, tech90):
        sampler = MismatchSampler(tech90, np.random.default_rng(7))
        for _ in range(200):
            var = sampler.sample_device(0.2e-6, 0.09e-6)
            assert var.beta_factor > 0.0
            assert var.gamma_factor > 0.0

    def test_deterministic_given_seed(self, tech90):
        s1 = MismatchSampler(tech90, np.random.default_rng(42))
        s2 = MismatchSampler(tech90, np.random.default_rng(42))
        v1 = s1.sample_device(1e-6, 1e-6)
        v2 = s2.sample_device(1e-6, 1e-6)
        assert v1.delta_vt_v == v2.delta_vt_v
        assert v1.beta_factor == v2.beta_factor


class TestChunkDraw:
    """A Monte-Carlo chunk draws all its dies in one generator call
    (:meth:`MismatchSampler.draw`): every variate, and the generator
    state after them, must equal scalar draws made die by die."""

    @staticmethod
    def _scalar_die(sampler, circuit, placements):
        """One die drawn one scalar generator call per variate."""
        gradient = sampler.sample_gradient_v_per_m() if placements \
            else (0.0, 0.0)
        return [sampler.sample_device(
            m.params.w_m, m.params.l_m,
            placements.get(m.name) if placements else None, gradient)
            for m in circuit.mosfets]

    def _check(self, tech, circuit, placements, include_ler=False,
               seeds=range(5), n_dies=9):
        clamped = 0
        for seed in seeds:
            def sampler():
                return MismatchSampler(tech, np.random.default_rng(seed),
                                       include_ler=include_ler)

            scalar, chunk, one_by_one = sampler(), sampler(), sampler()
            want = [self._scalar_die(scalar, circuit, placements)
                    for _ in range(n_dies)]
            rows = chunk.draw(circuit, placements, n_dies)
            assert rows.shape == (n_dies, 3 * len(circuit.mosfets)
                                  + (2 if placements else 0))
            for row, die in zip(rows, want):
                chunk.assign(circuit, placements, row)
                assert [m.variation for m in circuit.mosfets] == die
                one_by_one.assign(circuit, placements)
                assert [m.variation for m in circuit.mosfets] == die
            after = scalar.rng.random()
            assert chunk.rng.random() == after
            assert one_by_one.rng.random() == after
            clamped += sum(v.beta_factor == 0.05 or v.gamma_factor == 0.05
                           for die in want for v in die)
        return clamped

    def test_local_variates(self, tech90):
        self._check(tech90, differential_pair(tech90).circuit, None)
        self._check(tech90, ring_oscillator(tech90, n_stages=3).circuit,
                    None, seeds=range(2))

    def test_gradient_pair_with_placements(self, tech90):
        placements = {"m1": Placement(0.0, 0.0),
                      "m2": Placement(2e-3, -1e-4)}
        self._check(tech90, differential_pair(tech90).circuit, placements)

    def test_ler(self, tech90):
        # m2 has no placement: it takes its local draws only.
        self._check(tech90, differential_pair(tech90).circuit,
                    {"m1": Placement(1e-4, 0.0)}, include_ler=True)

    def test_clamps(self, tech90, monkeypatch):
        # σ(β)/β = σ(γ)/γ = 0.8 clamps about one factor in eight.
        monkeypatch.setattr(MismatchSampler, "_draw_sigmas",
                            lambda self, w_m, l_m: (0.02, 0.8, 0.8))
        clamped = self._check(tech90, differential_pair(tech90).circuit,
                              {"m2": Placement(0.0, 3e-4)})
        assert clamped > 0

    def test_no_mosfets_draws_nothing(self, tech90):
        from repro.circuit import Circuit

        circuit = Circuit("linear")
        circuit.resistor("r1", "a", "0", 1e3)
        sampler = MismatchSampler(tech90, np.random.default_rng(3))
        assert sampler.draw(circuit, None, 4).shape == (4, 0)
        assert sampler.rng.random() == np.random.default_rng(3).random()


class TestProcessCorners:
    def test_five_corners(self, tech90):
        corners = standard_corners(tech90)
        assert set(corners) == {"TT", "FF", "SS", "FS", "SF"}

    def test_tt_is_nominal(self, tech90):
        fx = differential_pair(tech90)
        standard_corners(tech90)["TT"].apply(fx.circuit)
        assert all(m.variation.delta_vt_v == 0.0 for m in fx.circuit.mosfets)

    def test_ss_slows_devices(self, tech90):
        fx = differential_pair(tech90)
        standard_corners(tech90)["SS"].apply(fx.circuit)
        for m in fx.circuit.mosfets:
            assert m.variation.delta_vt_v > 0.0
            assert m.variation.beta_factor < 1.0

    def test_fs_splits_polarity(self, tech90):
        from repro.circuits import five_transistor_ota

        fx = five_transistor_ota(tech90)
        standard_corners(tech90)["FS"].apply(fx.circuit)
        for m in fx.circuit.mosfets:
            if m.params.polarity == "n":
                assert m.variation.delta_vt_v < 0.0
            else:
                assert m.variation.delta_vt_v > 0.0
