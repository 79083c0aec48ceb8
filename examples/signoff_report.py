"""Full sign-off report: every engine in one flow.

The flagship scenario: take one analog block (a current-mirror bias
cell), and produce the complete yield-and-reliability sign-off the paper
argues designers now need — nominal → PVT corners → Monte-Carlo yield →
high-sigma tail → 10-year aging → TDDB survival → guardband stack-up →
EM/IR of its supply wiring.

Run:  python examples/signoff_report.py
"""

import numpy as np

from repro import units
from repro.aging import (
    ElectromigrationModel,
    HciModel,
    InterconnectNetwork,
    NbtiModel,
    TddbModel,
)
from repro.circuit import dc_operating_point
from repro.circuits import simple_current_mirror
from repro.core import (
    CornerAnalysis,
    HighSigmaYield,
    MissionProfile,
    MonteCarloYield,
    ReliabilitySimulator,
    Specification,
    guardband_analysis,
    tddb_survival_fn,
    time_to_spec_violation,
)
from repro.report import render_key_values, render_section, render_table
from repro.technology import get_node


def iout(fixture):
    return -dc_operating_point(fixture.circuit).source_current("vout")


def main():
    tech = get_node("65nm")
    fx = simple_current_mirror(tech, w_m=2e-6, l_m=2 * tech.lmin_m,
                               v_out_v=0.8 * tech.vdd)
    nominal = iout(fx)
    spec = Specification("iout", iout, lower=0.9 * nominal,
                         upper=1.1 * nominal)
    print(render_section(
        f"sign-off: current-mirror bias cell, {tech.name}",
        render_key_values([
            ("nominal I_OUT", f"{nominal * 1e6:.2f} uA"),
            ("spec window", "±10 %"),
            ("mission", "10 years @ 105 C"),
        ])))

    # --- PVT corners ------------------------------------------------------
    corners = CornerAnalysis(fx, [spec], tech,
                             vdd_scales=(0.9, 1.0, 1.1),
                             temperatures_k=(253.15, 300.0, 398.15)).run()
    worst_label, worst_value = corners.worst_case(spec)
    print(render_section("PVT corners (5 corners x 3 V x 3 T)",
                         render_key_values([
                             ("worst corner", worst_label),
                             ("worst I_OUT", f"{worst_value * 1e6:.2f} uA"),
                             ("all corners in spec",
                              corners.all_pass(spec)),
                         ])))

    # --- Monte-Carlo yield -------------------------------------------------
    mc = MonteCarloYield(fx, [spec], tech).run(n_samples=120, seed=3)
    lo, hi = mc.wilson_interval()
    print(render_section("Monte-Carlo yield (mismatch, Eq 1)",
                         render_key_values([
                             ("yield", f"{mc.yield_fraction:.3f}"),
                             ("95% CI", f"[{lo:.3f}, {hi:.3f}]"),
                             ("sigma(I_OUT)",
                              f"{mc.sigma('iout') * 1e6:.2f} uA"),
                         ])))

    # --- high-sigma tail ----------------------------------------------------
    tail = HighSigmaYield(fx, spec, tech).run(
        n_samples=200, shift_sigma=4.0, seed=3, adapt=False, surrogate=None)
    print(render_section("high-sigma tail (importance sampling)",
                         render_key_values([
                             ("P(out of spec)",
                              f"{tail.failure_probability:.2e}"),
                             ("equivalent sigma",
                              f"{tail.sigma_level:.2f}"),
                         ])))

    # --- aging ---------------------------------------------------------------
    sim = ReliabilitySimulator(fx, [NbtiModel(tech.aging),
                                    HciModel(tech.aging)])
    profile = MissionProfile(n_epochs=6)
    report = sim.run(profile, metrics={"iout": iout})
    t_fail = time_to_spec_violation(report.times_s, report.metric("iout"),
                                    lower=0.9 * nominal)
    sim.reset()
    op = dc_operating_point(fx.circuit)
    vgs = {m.name: m.operating_point(op.x).vgs_v
           for m in fx.circuit.mosfets}
    survival = tddb_survival_fn(fx.circuit.mosfets, TddbModel(tech.aging),
                                vgs, units.celsius_to_kelvin(105.0))
    print(render_section("aging (NBTI + HCI) and TDDB",
                         render_key_values([
                             ("EOL drift",
                              f"{report.drift('iout') * 100:+.2f} %"),
                             ("parametric lifetime",
                              "beyond mission" if t_fail == float("inf")
                              else f"{units.seconds_to_years(t_fail):.1f} yr"),
                             ("TDDB 10-yr survival",
                              f"{survival(units.years_to_seconds(10.0)):.4f}"),
                         ])))

    # --- guardband -------------------------------------------------------------
    gb = guardband_analysis(fx, iout, tech,
                            mechanisms=[NbtiModel(tech.aging),
                                        HciModel(tech.aging)],
                            profile=MissionProfile(n_epochs=4),
                            n_mc_samples=40, seed=5)
    print(render_section("fixed-design guardband stack-up",
                         render_key_values([
                             ("3-sigma variability",
                              f"{gb.variability_fraction:.3f}"),
                             ("EOL aging", f"{gb.aging_fraction:.3f}"),
                             ("total guardband", f"{gb.total_fraction:.3f}"),
                             ("overdesign factor",
                              f"{gb.design_target / gb.nominal:.2f}x"),
                         ])))

    # --- supply wiring: EM and IR drop -------------------------------------------
    em = ElectromigrationModel(tech.aging)
    net = InterconnectNetwork(tech.interconnect)
    net.wire("feed", "pad", "cell", width_m=0.4e-6, length_m=250e-6,
             has_via=True)
    net.inject("cell", -2.0 * nominal)  # mirror input + output branches
    net.set_ground("pad")
    hot = units.celsius_to_kelvin(105.0)
    reports = net.analyze(em, temperature_k=hot)
    _, drop = net.worst_ir_drop("pad")
    print(render_section("supply wiring (EM + IR)",
                         render_table(
                             ["segment", "J [MA/cm2]", "MTTF [yr]",
                              "IR drop [mV]"],
                             [[r.segment.name,
                               r.current_density_a_per_m2 / 1e10,
                               r.mttf_years, drop * 1e3]
                              for r in reports])))

    print("verdict: every engine above consumes the same fixture and the "
          "same Specification — the paper's 'proper analysis tools at "
          "design time', in one report.")


if __name__ == "__main__":
    main()
