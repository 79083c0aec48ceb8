"""Tests for A_VT decomposition, guardband stack-up, and the
event-driven breakdown circuit simulator."""

import math

import numpy as np
import pytest

from repro import units
from repro.aging import HciModel, NbtiModel, TddbModel
from repro.circuit import DcSpec, dc_operating_point
from repro.circuits import is_bistable, simple_current_mirror, sram_cell
from repro.core import (
    BreakdownSimulator,
    GuardbandReport,
    MissionProfile,
    guardband_analysis,
)
from repro.technology import get_node, scaling_trend
from repro.variability import (
    decompose_avt,
    ler_component_mv_um,
    oxide_component_mv_um,
    rdf_component_mv_um,
)


class TestAvtDecomposition:
    def test_components_rss_to_total(self, tech90):
        d = decompose_avt(tech90)
        assert d.total_mv_um == pytest.approx(
            math.sqrt(d.oxide_mv_um ** 2 + d.rdf_mv_um ** 2
                      + d.ler_mv_um ** 2))

    def test_total_tracks_library_avt(self):
        for tech in scaling_trend():
            d = decompose_avt(tech)
            assert d.total_mv_um == pytest.approx(
                tech.mismatch.a_vt_mv_um, rel=0.10)

    def test_oxide_component_is_tuinhout_line(self, tech90):
        assert oxide_component_mv_um(tech90) == pytest.approx(
            0.95 * tech90.tox_nm)

    def test_floor_fraction_grows_with_scaling(self):
        fractions = [decompose_avt(t).floor_fraction
                     for t in scaling_trend()]
        assert all(b > a for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] < 0.35
        assert fractions[-1] > 0.7

    def test_rdf_does_not_track_oxide(self):
        """RDF falls far slower than t_ox — the physical Fig 1 story."""
        old = get_node("350nm")
        new = get_node("32nm")
        tox_ratio = old.tox_nm / new.tox_nm
        rdf_ratio = rdf_component_mv_um(old) / rdf_component_mv_um(new)
        assert rdf_ratio < 0.5 * tox_ratio

    def test_ler_component_grows_absolutely(self):
        lers = [ler_component_mv_um(t) for t in scaling_trend()]
        assert lers[-1] > 2.0 * lers[0]


class TestGuardband:
    def iout(self, fixture):
        return -dc_operating_point(fixture.circuit).source_current("vout")

    def test_variability_term_scales_with_sigma_level(self, tech65):
        fx = simple_current_mirror(tech65, w_m=2e-6, l_m=tech65.lmin_m)
        g3 = guardband_analysis(fx, self.iout, tech65, n_mc_samples=30,
                                sigma_level=3.0, seed=1)
        g6 = guardband_analysis(fx, self.iout, tech65, n_mc_samples=30,
                                sigma_level=6.0, seed=1)
        assert g6.variability_fraction == pytest.approx(
            2.0 * g3.variability_fraction, rel=1e-6)

    def test_aging_term_positive_for_wearout(self, tech65):
        fx = simple_current_mirror(tech65, w_m=2e-6, l_m=tech65.lmin_m,
                                   v_out_v=1.4 * tech65.vdd)
        report = guardband_analysis(
            fx, self.iout, tech65,
            mechanisms=[HciModel(tech65.aging)],
            profile=MissionProfile(n_epochs=4),
            n_mc_samples=10, seed=2)
        assert report.aging_fraction > 0.01
        assert report.total_fraction > report.variability_fraction

    def test_corner_term_takes_worst(self, tech65):
        fx = simple_current_mirror(tech65, w_m=2e-6, l_m=tech65.lmin_m)
        report = guardband_analysis(fx, self.iout, tech65,
                                    corner_fractions=[0.02, 0.07, -0.01],
                                    n_mc_samples=10, seed=3)
        assert report.corner_fraction == pytest.approx(0.07)

    def test_design_target_exceeds_nominal(self, tech65):
        fx = simple_current_mirror(tech65, w_m=2e-6, l_m=tech65.lmin_m)
        report = guardband_analysis(fx, self.iout, tech65,
                                    n_mc_samples=20, seed=4)
        assert report.design_target > report.nominal
        assert report.total_fraction < 0.5  # sane for this circuit

    def test_guardband_grows_with_scaling(self):
        """The §5 motivation: fixed-design margins explode with scaling."""
        fractions = {}
        for name in ("180nm", "45nm"):
            tech = get_node(name)
            fx = simple_current_mirror(tech, w_m=4 * tech.wmin_m,
                                       l_m=tech.lmin_m)
            report = guardband_analysis(fx, self.iout, tech,
                                        n_mc_samples=40, seed=5)
            fractions[name] = report.variability_fraction
        assert fractions["45nm"] > fractions["180nm"]

    def test_validation(self, tech65):
        fx = simple_current_mirror(tech65)
        with pytest.raises(ValueError):
            guardband_analysis(fx, self.iout, tech65, n_mc_samples=1)
        with pytest.raises(ValueError):
            guardband_analysis(fx, self.iout, tech65, sigma_level=0.0)


class TestBreakdownSimulator:
    def overstressed_cell(self, tech, factor=1.7):
        fx = sram_cell(tech)
        for name in ("vdd", "vbl", "vblb"):
            fx.circuit[name].spec = DcSpec(factor * tech.vdd)
        return fx

    def test_nominal_stress_rarely_breaks(self, tech65):
        fx = sram_cell(tech65)
        sim = BreakdownSimulator(fx, TddbModel(tech65.aging),
                                 functional=is_bistable)
        result = sim.run(n_samples=10,
                         horizon_s=units.years_to_seconds(10.0), seed=1)
        # A single tiny cell at nominal field: breakdowns are rare.
        assert result.first_bd_fraction(
            units.years_to_seconds(10.0)) < 0.3
        assert result.survival_fraction(
            units.years_to_seconds(10.0)) >= 0.7

    def test_overstress_breaks_oxides_but_cells_survive(self, tech65):
        """Ref [20] quantified: most dies break an oxide, few circuits die."""
        fx = self.overstressed_cell(tech65)
        sim = BreakdownSimulator(
            fx, TddbModel(tech65.aging), functional=is_bistable,
            temperature_k=units.celsius_to_kelvin(125.0))
        horizon = units.years_to_seconds(1.0)
        result = sim.run(n_samples=20, horizon_s=horizon, seed=2)
        assert result.first_bd_fraction(horizon) > 0.7
        assert (result.survival_fraction(horizon)
                > result.first_bd_fraction(horizon) * 0.7)
        assert result.mean_breakdowns_survived() > 0.5

    def test_supplies_changed_between_runs(self, tech65):
        # The gate stresses follow the fixture as it is at each run,
        # not as it was at the simulator's first run.
        fx = sram_cell(tech65)
        tddb = TddbModel(tech65.aging)
        temperature_k = units.celsius_to_kelvin(125.0)
        sim = BreakdownSimulator(fx, tddb, functional=is_bistable,
                                 temperature_k=temperature_k)
        horizon = units.years_to_seconds(1.0)
        sim.run(n_samples=20, horizon_s=horizon, seed=2)
        for name in ("vdd", "vbl", "vblb"):
            fx.circuit[name].spec = DcSpec(1.7 * tech65.vdd)
        rerun = sim.run(n_samples=20, horizon_s=horizon, seed=2)
        fresh = BreakdownSimulator(
            fx, tddb, functional=is_bistable,
            temperature_k=temperature_k).run(
                n_samples=20, horizon_s=horizon, seed=2)
        assert rerun.samples == fresh.samples
        assert rerun.first_bd_fraction(horizon) > 0.7

    def test_fixture_restored(self, tech65):
        fx = self.overstressed_cell(tech65)
        sim = BreakdownSimulator(fx, TddbModel(tech65.aging),
                                 functional=is_bistable)
        sim.run(n_samples=5, horizon_s=units.years_to_seconds(1.0), seed=3)
        assert all(m.degradation.is_fresh() for m in fx.circuit.mosfets)

    def test_default_functional_predicate(self, tech65):
        fx = simple_current_mirror(tech65, w_m=2e-6, l_m=tech65.lmin_m)
        sim = BreakdownSimulator(fx, TddbModel(tech65.aging))
        result = sim.run(n_samples=5,
                         horizon_s=units.years_to_seconds(1.0), seed=4)
        assert len(result.samples) == 5

    def test_validation(self, tech65):
        fx = sram_cell(tech65)
        sim = BreakdownSimulator(fx, TddbModel(tech65.aging))
        with pytest.raises(ValueError):
            sim.run(n_samples=0, horizon_s=1.0)
        with pytest.raises(ValueError):
            sim.run(n_samples=1, horizon_s=-1.0)
