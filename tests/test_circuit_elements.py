"""Unit tests for linear elements, sources and the diode."""

import math

import numpy as np
import pytest

from repro.circuit import (
    Capacitor,
    Circuit,
    DcSpec,
    Diode,
    Inductor,
    PulseSpec,
    PwlSpec,
    Resistor,
    SineSpec,
    VoltageSource,
    ac_analysis,
    dc_operating_point,
    transient,
)


class TestSourceSpecs:
    def test_dc_spec_constant(self):
        spec = DcSpec(2.5)
        assert spec.value(0.0) == 2.5
        assert spec.value(1e9) == 2.5
        assert spec.dc_value() == 2.5

    def test_sine_spec_values(self):
        spec = SineSpec(offset=1.0, amplitude=0.5, frequency_hz=1.0)
        assert spec.dc_value() == pytest.approx(1.0)
        assert spec.value(0.25) == pytest.approx(1.5)
        assert spec.value(0.75) == pytest.approx(0.5)

    def test_sine_spec_delay(self):
        spec = SineSpec(offset=0.0, amplitude=1.0, frequency_hz=1.0, delay_s=1.0)
        assert spec.value(0.5) == 0.0
        assert spec.value(1.25) == pytest.approx(1.0)

    def test_sine_period(self):
        assert SineSpec(0, 1, 50e6).period_s == pytest.approx(20e-9)

    def test_sine_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            SineSpec(0, 1, 0.0)

    def test_pulse_spec_phases(self):
        spec = PulseSpec(v1=0.0, v2=1.0, delay_s=1e-9, rise_s=1e-9,
                         fall_s=1e-9, width_s=3e-9, period_s=10e-9)
        assert spec.value(0.0) == 0.0
        assert spec.value(1.5e-9) == pytest.approx(0.5)  # mid rise
        assert spec.value(3e-9) == pytest.approx(1.0)    # flat top
        assert spec.value(5.5e-9) == pytest.approx(0.5)  # mid fall
        assert spec.value(8e-9) == pytest.approx(0.0)    # off
        assert spec.value(11.5e-9) == pytest.approx(0.5)  # periodic

    def test_pulse_rejects_impossible_period(self):
        with pytest.raises(ValueError):
            PulseSpec(0, 1, width_s=5e-9, period_s=1e-9)

    def test_pwl_interpolates(self):
        spec = PwlSpec(points=((0.0, 0.0), (1.0, 2.0), (2.0, 2.0)))
        assert spec.value(0.5) == pytest.approx(1.0)
        assert spec.value(1.5) == pytest.approx(2.0)
        assert spec.value(5.0) == pytest.approx(2.0)  # clamped

    def test_pwl_tables_match_list_interpolation(self):
        # The tables built once at construction interpolate exactly as
        # np.interp over freshly built lists does, ints included.
        points = ((0, 0), (1e-9, 1.2), (2.5e-9, 1.2), (3e-9, -0.3),
                  (7e-9, 1))
        spec = PwlSpec(points=points)
        times = [p[0] for p in points]
        values = [p[1] for p in points]
        for t in np.linspace(-1e-9, 8e-9, 97).tolist() + times:
            assert spec.value(t) == float(np.interp(t, times, values))
        assert spec == PwlSpec(points=points)
        assert hash(spec) == hash(PwlSpec(points=points))

    def test_pwl_rejects_unordered(self):
        with pytest.raises(ValueError):
            PwlSpec(points=((1.0, 0.0), (0.5, 1.0)))


class TestResistor:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Resistor("r", "a", "b", 0.0)

    def test_divider(self):
        ckt = Circuit("div")
        ckt.voltage_source("v1", "in", "0", 2.0)
        ckt.resistor("r1", "in", "mid", 1e3)
        ckt.resistor("r2", "mid", "0", 3e3)
        op = dc_operating_point(ckt)
        assert op.voltage("mid") == pytest.approx(1.5)

    def test_current_readback(self):
        ckt = Circuit("r")
        ckt.voltage_source("v1", "in", "0", 1.0)
        r = ckt.resistor("r1", "in", "0", 1e3)
        op = dc_operating_point(ckt)
        assert r.current(op.x) == pytest.approx(1e-3)


class TestCapacitorInductor:
    def test_capacitor_open_at_dc(self):
        ckt = Circuit("c")
        ckt.voltage_source("v1", "in", "0", 1.0)
        ckt.resistor("r1", "in", "out", 1e3)
        ckt.capacitor("c1", "out", "0", 1e-9)
        op = dc_operating_point(ckt)
        assert op.voltage("out") == pytest.approx(1.0, abs=1e-6)

    def test_inductor_short_at_dc(self):
        ckt = Circuit("l")
        ckt.voltage_source("v1", "in", "0", 1.0)
        ckt.resistor("r1", "in", "out", 1e3)
        ckt.inductor("l1", "out", "0", 1e-6)
        op = dc_operating_point(ckt)
        assert op.voltage("out") == pytest.approx(0.0, abs=1e-9)
        # All current flows through the inductor branch.
        assert op.x[ckt["l1"].branches[0]] == pytest.approx(1e-3)

    def test_rc_step_response(self):
        # Time constant 1 µs; value after 1 τ should be 1 - 1/e.
        ckt = Circuit("rc")
        ckt.voltage_source("v1", "in", "0",
                           PulseSpec(v1=0.0, v2=1.0, delay_s=0.0,
                                     rise_s=1e-12, fall_s=1e-12,
                                     width_s=1.0, period_s=2.0))
        ckt.resistor("r1", "in", "out", 1e3)
        ckt.capacitor("c1", "out", "0", 1e-9)
        res = transient(ckt, t_stop=5e-6, dt=5e-9)
        v_tau = res.voltage("out").sample(1e-6)
        assert v_tau == pytest.approx(1.0 - math.exp(-1.0), rel=0.02)

    def test_rl_current_rise(self):
        # i(t) = (V/R)(1 − e^{−tR/L}), τ = 1 µs.
        ckt = Circuit("rl")
        ckt.voltage_source("v1", "in", "0",
                           PulseSpec(v1=0.0, v2=1.0, delay_s=0.0,
                                     rise_s=1e-12, fall_s=1e-12,
                                     width_s=1.0, period_s=2.0))
        ckt.resistor("r1", "in", "out", 1e3)
        ckt.inductor("l1", "out", "0", 1e-3)
        res = transient(ckt, t_stop=5e-6, dt=5e-9)
        i_wave = res.states[:, ckt["l1"].branches[0]]
        k_tau = int(round(1e-6 / 5e-9))
        assert i_wave[k_tau] == pytest.approx(1e-3 * (1.0 - math.exp(-1.0)),
                                              rel=0.02)

    def test_capacitor_backward_euler_matches_trapezoidal(self):
        def run(method):
            ckt = Circuit("rc")
            ckt.voltage_source("v1", "in", "0",
                               SineSpec(offset=0.0, amplitude=1.0,
                                        frequency_hz=1e5))
            ckt.resistor("r1", "in", "out", 1e3)
            ckt.capacitor("c1", "out", "0", 1e-9)
            res = transient(ckt, t_stop=50e-6, dt=20e-9, method=method)
            return res.voltage("out").last_period(10e-6)

        w_tr = run("trapezoidal")
        w_be = run("backward_euler")
        assert w_tr.rms() == pytest.approx(w_be.rms(), rel=0.02)

    def test_rejects_non_positive_values(self):
        with pytest.raises(ValueError):
            Capacitor("c", "a", "b", -1e-9)
        with pytest.raises(ValueError):
            Inductor("l", "a", "b", 0.0)


class TestSources:
    def test_voltage_source_branch_current_sign(self):
        # 1 V across 1 kΩ: 1 mA flows out of the + terminal through the
        # external circuit, i.e. n+ → n- through the source is -1 mA? No:
        # convention: x[branch] is the current from n+ THROUGH the source
        # to n-, which equals minus the delivered current.
        ckt = Circuit("vs")
        ckt.voltage_source("v1", "a", "0", 1.0)
        ckt.resistor("r1", "a", "0", 1e3)
        op = dc_operating_point(ckt)
        assert op.source_current("v1") == pytest.approx(-1e-3)

    def test_current_source_direction(self):
        # CurrentSource pulls current out of n+ and pushes into n-.
        ckt = Circuit("is")
        ckt.current_source("i1", "0", "out", 1e-3)
        ckt.resistor("r1", "out", "0", 1e3)
        op = dc_operating_point(ckt)
        assert op.voltage("out") == pytest.approx(1.0)

    def test_time_dependent_source_in_transient(self):
        ckt = Circuit("sin")
        ckt.voltage_source("v1", "a", "0",
                           SineSpec(offset=0.5, amplitude=0.25,
                                    frequency_hz=1e6))
        ckt.resistor("r1", "a", "0", 1e3)
        res = transient(ckt, t_stop=2e-6, dt=10e-9)
        w = res.voltage("a")
        assert w.peak() == pytest.approx(0.75, abs=0.01)
        assert w.trough() == pytest.approx(0.25, abs=0.01)


class TestControlledSources:
    def test_vccs_gain(self):
        ckt = Circuit("vccs")
        ckt.voltage_source("vc", "c", "0", 0.5)
        ckt.vccs("g1", "0", "out", "c", "0", gm=2e-3)
        ckt.resistor("rl", "out", "0", 1e3)
        op = dc_operating_point(ckt)
        # i = gm·vc = 1 mA pushed into out → +1 V.
        assert op.voltage("out") == pytest.approx(1.0)

    def test_vcvs_gain(self):
        ckt = Circuit("vcvs")
        ckt.voltage_source("vc", "c", "0", 0.25)
        ckt.vcvs("e1", "out", "0", "c", "0", gain=4.0)
        ckt.resistor("rl", "out", "0", 1e3)
        op = dc_operating_point(ckt)
        assert op.voltage("out") == pytest.approx(1.0)


class TestDiode:
    def test_forward_drop(self):
        ckt = Circuit("d")
        ckt.voltage_source("v1", "in", "0", 5.0)
        ckt.resistor("r1", "in", "a", 1e3)
        ckt.diode("d1", "a", "0")
        op = dc_operating_point(ckt)
        v_diode = op.voltage("a")
        assert 0.5 < v_diode < 0.8
        # KCL: resistor current equals diode current.
        i_r = (5.0 - v_diode) / 1e3
        d = ckt["d1"]
        assert d.current(v_diode) == pytest.approx(i_r, rel=1e-3)

    def test_reverse_blocking(self):
        ckt = Circuit("d")
        ckt.voltage_source("v1", "in", "0", -5.0)
        ckt.resistor("r1", "in", "a", 1e3)
        ckt.diode("d1", "a", "0")
        op = dc_operating_point(ckt)
        assert op.voltage("a") == pytest.approx(-5.0, abs=0.01)

    def test_rectifier_transient(self):
        ckt = Circuit("rect")
        ckt.voltage_source("v1", "in", "0",
                           SineSpec(offset=0.0, amplitude=5.0,
                                    frequency_hz=1e3))
        ckt.diode("d1", "in", "out")
        ckt.resistor("rl", "out", "0", 10e3)
        res = transient(ckt, t_stop=4e-3, dt=2e-6)
        w = res.voltage("out")
        assert w.trough() > -0.1   # no negative half-wave
        assert w.peak() > 3.5      # positive peaks minus the drop

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Diode("d", "a", "b", i_sat=0.0)
        with pytest.raises(ValueError):
            Diode("d", "a", "b", ideality=-1.0)

    def test_conductance_positive(self):
        d = Diode("d", "a", "b")
        assert d.conductance_at(-5.0) > 0.0
        assert d.conductance_at(0.6) > d.conductance_at(0.3)
