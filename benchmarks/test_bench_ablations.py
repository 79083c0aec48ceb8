"""E12 — Ablations of the design choices called out in DESIGN.md §6.

Four ablations, each isolating one modelling/algorithmic decision:

A. **NBTI recovery on/off** — ignoring relaxation after duty-cycled
   stress over-estimates the end-of-life ΔV_T (the pessimism the paper's
   §3.3 warns about when "extrapolating its impact on circuitry");
B. **SSPA ordering strategy** — identity vs zero-tracking greedy vs
   line-tracking greedy vs pair-lookahead: only the line-aware
   objectives actually minimize endpoint-corrected INL;
C. **EM layout corrections on/off** — dropping Blech/bamboo from the
   analysis misranks a power grid's weakest wire;
D. **monitor quantization** — how coarse a §5.2 monitor can be before
   the control loop starts missing spec violations;
E. **yield estimator** — plain Monte-Carlo vs mean-shift importance
   sampling at an identical simulation budget on a 4-sigma spec: the
   plain estimator is blind, IS resolves the tail.
"""

import math

import numpy as np
import pytest

from conftest import fmt, print_table
from repro import units
from repro.aging import ElectromigrationModel, NbtiModel, WireSegment
from repro.solutions import (
    AdaptiveSystem,
    Knob,
    Monitor,
    SpecTarget,
    sspa_sequence,
    sspa_sequence_paired,
)
from repro.technology import get_node


# --- A: NBTI recovery ------------------------------------------------------

def ablation_recovery(tech):
    """ΔV_T with and without recovery modelling after a rest phase.

    Two scenarios: a burn-in-style short stress (1 day) and a full
    mission (10 years), each followed by a week of rest.  Relaxation is
    governed by the ratio t_rest/t_stress, so the short-stress case
    shows the pessimism of a no-recovery model most clearly.
    """
    t_rest = 7 * 24 * 3600.0
    eox = tech.nominal_oxide_field()
    t_hot = units.celsius_to_kelvin(125.0)
    rows = []
    for label, t_stress in (("1-day stress", 24 * 3600.0),
                            ("10-year stress", units.years_to_seconds(10.0))):
        for model_recovery in (True, False):
            nbti = NbtiModel(tech.aging, model_recovery=model_recovery)
            total = nbti.delta_vt_v(eox, t_hot, t_stress, duty=0.5)
            after_rest = nbti.relaxed_delta_vt_v(total, t_stress, t_rest)
            tag = "with recovery" if model_recovery else "no recovery"
            rows.append((f"{label}, {tag}", total * 1e3, after_rest * 1e3))
    return rows


# --- B: SSPA strategies ----------------------------------------------------

def zero_tracking_greedy(errors):
    """The naive SSPA objective: keep the running sum near ZERO
    (ignores that endpoint-corrected INL subtracts the total line)."""
    remaining = list(range(len(errors)))
    seq = []
    running = 0.0
    for _ in range(len(errors)):
        k = min(range(len(remaining)),
                key=lambda i: abs(running + errors[remaining[i]]))
        chosen = remaining.pop(k)
        seq.append(chosen)
        running += errors[chosen]
    return np.array(seq)


def ablation_sspa(n_trials=30, n_sources=31, sigma=1e-3):
    strategies = {
        "identity": lambda e: np.arange(len(e)),
        "zero-tracking greedy": zero_tracking_greedy,
        "line-tracking greedy": sspa_sequence,
        "pair lookahead": sspa_sequence_paired,
    }
    results = {name: [] for name in strategies}
    for seed in range(n_trials):
        errors = np.random.default_rng(seed).normal(0.0, sigma, n_sources)
        line = errors.sum() * np.arange(1, n_sources + 1) / n_sources
        for name, fn in strategies.items():
            seq = fn(errors)
            dev = np.abs(np.cumsum(errors[seq]) - line).max()
            results[name].append(dev)
    return {name: float(np.mean(v)) for name, v in results.items()}


# --- C: EM corrections -----------------------------------------------------

def ablation_em(tech):
    """Rank two wires with and without the layout corrections."""
    em = ElectromigrationModel(tech.aging)
    thickness = tech.interconnect.thickness_m
    # Wire X: narrow (bamboo) and long; wire Y: wide, short, with via.
    wire_x = WireSegment("narrow_long", "a", "b",
                         width_m=0.5 * tech.aging.em_bamboo_width_m,
                         length_m=400e-6, thickness_m=thickness)
    wire_y = WireSegment("wide_via", "b", "c", width_m=0.6e-6,
                         length_m=50e-6, thickness_m=thickness,
                         has_via=True)
    hot = units.celsius_to_kelvin(105.0)
    j = 1.5e10
    rows = []
    for seg in (wire_x, wire_y):
        i = j * seg.cross_section_m2
        naive = em.black_mttf_s(j, hot)
        corrected = em.segment_mttf_s(seg, i, hot)
        rows.append((seg.name, units.seconds_to_years(naive),
                     units.seconds_to_years(corrected)))
    return rows


# --- D: monitor quantization ----------------------------------------------

def ablation_quantization():
    """A drifting plant regulated through monitors of varying coarseness."""
    results = []
    for quant in (0.0, 0.1, 0.5, 2.0):
        state = {"deg": 0.0, "knob": 1.0}
        monitor = Monitor("perf",
                          lambda: 10.0 * state["knob"] - state["deg"],
                          quantization=quant)
        knob = Knob("bias", [1.0, 1.05, 1.1, 1.15, 1.2, 1.3],
                    lambda v: state.update(knob=v))
        system = AdaptiveSystem([monitor], [knob],
                                [SpecTarget("perf", lower=9.75)],
                                cost_fn=lambda: state["knob"] ** 2)
        violations = 0
        for deg in np.linspace(0.0, 2.5, 11):
            state["deg"] = float(deg)
            system.regulate()
            true_perf = 10.0 * state["knob"] - state["deg"]
            if true_perf < 9.75:
                violations += 1
        results.append((quant, violations))
    return results


# --- E: yield estimator at high sigma ---------------------------------

def ablation_estimator(n_budget=250):
    from scipy.stats import norm

    from repro.circuits import differential_pair, input_referred_offset_v
    from repro.core import HighSigmaYield, MonteCarloYield, Specification

    tech = get_node("90nm")
    w, l = 4e-6, 0.4e-6
    fx = differential_pair(tech, w_m=w, l_m=l)
    from repro.variability import PelgromModel

    sigma_pair = PelgromModel.for_technology(tech).sigma_delta_vt_v(w, l)
    k = 4.0
    spec = Specification("offset", lambda f: input_referred_offset_v(f),
                         lower=-k * sigma_pair, upper=k * sigma_pair)
    analytic = 2.0 * norm.sf(k)
    mc = MonteCarloYield(fx, [spec], tech).run(n_samples=n_budget, seed=9)
    mc_estimate = 1.0 - mc.yield_fraction
    is_result = HighSigmaYield(fx, spec, tech).run(
        n_samples=n_budget, shift_sigma=k, seed=9, adapt=False,
        surrogate=None)
    return analytic, mc_estimate, is_result


def test_bench_ablations(benchmark, tech65):
    (recovery_rows, sspa_means, em_rows, quant_rows,
     estimator) = benchmark.pedantic(
        lambda: (ablation_recovery(tech65), ablation_sspa(),
                 ablation_em(tech65), ablation_quantization(),
                 ablation_estimator()),
        rounds=1, iterations=1)

    print_table("Ablation A: NBTI recovery modelling (10 yr, 50% duty)",
                ["model", "EOL dVT [mV]", "after 1-week rest [mV]"],
                [[r[0], fmt(r[1]), fmt(r[2])] for r in recovery_rows])
    print_table("Ablation B: SSPA ordering strategies (mean line deviation)",
                ["strategy", "mean max|cum-line|"],
                [[k, fmt(v)] for k, v in sspa_means.items()])
    print_table("Ablation C: EM layout corrections",
                ["wire", "naive Black MTTF [yr]", "corrected MTTF [yr]"],
                [[r[0], fmt(r[1]), fmt(r[2])] for r in em_rows])
    print_table("Ablation D: monitor quantization vs missed violations",
                ["quantization", "violations (of 11 steps)"],
                [[fmt(q), str(v)] for q, v in quant_rows])

    # A: ignoring recovery over-estimates the post-rest damage — by a
    # lot after short stresses, measurably even after a full mission.
    rec = dict((r[0], r[2]) for r in recovery_rows)
    assert rec["1-day stress, no recovery"] > 1.3 * rec["1-day stress, with recovery"]
    assert rec["10-year stress, no recovery"] > 1.05 * rec["10-year stress, with recovery"]

    # B: line-tracking beats zero-tracking and identity; lookahead wins.
    assert (sspa_means["line-tracking greedy"]
            < 0.8 * sspa_means["zero-tracking greedy"])
    assert sspa_means["line-tracking greedy"] < 0.6 * sspa_means["identity"]
    assert (sspa_means["pair lookahead"]
            <= sspa_means["line-tracking greedy"] * 1.02)

    # C: corrections INVERT the naive ranking — the naive model treats
    # both wires identically (same J), the corrected one separates them.
    naive = {r[0]: r[1] for r in em_rows}
    corrected = {r[0]: r[2] for r in em_rows}
    assert naive["narrow_long"] == pytest.approx(naive["wide_via"])
    assert corrected["narrow_long"] > 2.0 * corrected["wide_via"]

    # D: a fine monitor misses nothing; a hopeless one misses plenty.
    misses = dict(quant_rows)
    assert misses[0.0] == 0
    assert misses[2.0] > misses[0.1]

    # E: at the same budget, plain MC cannot see the 4-sigma tail while
    # IS lands within an order of magnitude of the analytic value.
    analytic, mc_estimate, is_result = estimator
    print_table("Ablation E: 4-sigma failure-rate estimators (250 sims each)",
                ["estimator", "P_fail"],
                [["analytic Gaussian tail", fmt(analytic)],
                 ["plain Monte-Carlo", fmt(mc_estimate)],
                 ["importance sampling", fmt(is_result.failure_probability)]])
    assert mc_estimate == 0.0
    assert 0.1 * analytic < is_result.failure_probability < 10.0 * analytic
