"""High-sigma importance sampling on the differential pair.

Plain mean-shift IS through :class:`HighSigmaYield` with adaptation and
surrogate screening off, checked against the analytic pair-offset tail.
"""

import math

import numpy as np
import pytest

scipy_stats = pytest.importorskip(
    "scipy.stats", reason="importance sampling needs scipy.stats")
norm = scipy_stats.norm

from repro.circuits import differential_pair, input_referred_offset_v
from repro.core import HighSigmaYield, MonteCarloYield, Specification
from repro.variability import PelgromModel


def offset_spec(limit_v):
    return Specification("offset",
                         lambda f: input_referred_offset_v(f),
                         lower=-limit_v, upper=limit_v)


@pytest.fixture(scope="module")
def pair_setup():
    from repro.technology import get_node

    tech = get_node("90nm")
    w, l = 4e-6, 0.4e-6
    fx = differential_pair(tech, w_m=w, l_m=l)
    sigma_pair = PelgromModel.for_technology(tech).sigma_delta_vt_v(w, l)
    return tech, fx, sigma_pair


def plain_is(engine, **kwargs):
    """Mean-shift IS along the probed direction, no pilot, no surrogate."""
    return engine.run(adapt=False, surrogate=None, **kwargs)


class TestProbeDirection:
    def test_direction_is_unit_norm(self, pair_setup):
        tech, fx, sigma = pair_setup
        engine = HighSigmaYield(fx, offset_spec(3 * sigma), tech)
        direction = engine.probe_direction()
        norm2 = sum(v * v for v in direction.values())
        assert norm2 == pytest.approx(1.0)

    def test_input_pair_dominates_direction(self, pair_setup):
        tech, fx, sigma = pair_setup
        engine = HighSigmaYield(fx, offset_spec(3 * sigma), tech)
        direction = engine.probe_direction()
        # The offset is set by the input pair; its components dominate.
        pair_mag = abs(direction["m1"]) + abs(direction["m2"])
        assert pair_mag > 0.9

    def test_pair_components_opposite_sign(self, pair_setup):
        tech, fx, sigma = pair_setup
        engine = HighSigmaYield(fx, offset_spec(3 * sigma), tech)
        direction = engine.probe_direction()
        assert direction["m1"] * direction["m2"] < 0.0


class TestEstimate:
    def test_matches_analytic_tail(self, pair_setup):
        """P(|offset| > k·σ_pair) ≈ 2·Φ(−k): the offset IS the pair ΔV_T."""
        tech, fx, sigma = pair_setup
        k = 3.0
        spec = offset_spec(k * sigma)
        engine = HighSigmaYield(fx, spec, tech)
        result = plain_is(engine, n_samples=400, shift_sigma=k, seed=7)
        analytic = 2.0 * norm.sf(k)
        assert result.failure_probability == pytest.approx(analytic, rel=0.5)
        assert result.n_failures_observed > 50  # shifted sampling works

    def test_beats_plain_mc_at_same_budget(self, pair_setup):
        """At 4σ, 200 plain MC samples see ~0 failures; IS resolves it."""
        tech, fx, sigma = pair_setup
        k = 4.0
        spec = offset_spec(k * sigma)
        mc = MonteCarloYield(fx, [spec], tech).run(n_samples=200, seed=3)
        assert mc.yield_fraction == 1.0  # plain MC is blind here
        engine = HighSigmaYield(fx, spec, tech)
        result = plain_is(engine, n_samples=300, shift_sigma=k, seed=3)
        analytic = 2.0 * norm.sf(k)
        assert result.failure_probability > 0.0
        assert result.failure_probability == pytest.approx(analytic, rel=0.7)
        assert 3.5 < result.sigma_level < 4.5

    def test_zero_shift_degenerates_to_plain_mc(self, pair_setup):
        tech, fx, sigma = pair_setup
        spec = offset_spec(5 * sigma)
        engine = HighSigmaYield(fx, spec, tech)
        result = plain_is(engine, n_samples=100, shift_sigma=0.0, seed=1)
        # All weights are exactly 1 under zero shift.
        assert result.effective_samples == pytest.approx(100.0)
        assert result.failure_probability == 0.0  # too rare for plain MC

    def test_variations_cleared_after_run(self, pair_setup):
        tech, fx, sigma = pair_setup
        engine = HighSigmaYield(fx, offset_spec(3 * sigma), tech)
        plain_is(engine, n_samples=20, shift_sigma=3.0, seed=0)
        assert all(m.variation.delta_vt_v == 0.0 for m in fx.circuit.mosfets)

    def test_input_validation(self, pair_setup):
        tech, fx, sigma = pair_setup
        engine = HighSigmaYield(fx, offset_spec(3 * sigma), tech)
        with pytest.raises(ValueError):
            plain_is(engine, n_samples=0, shift_sigma=3.0)
        with pytest.raises(ValueError):
            plain_is(engine, n_samples=10, shift_sigma=-1.0)
