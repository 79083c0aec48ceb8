"""Unit tests for transient and AC analyses."""

import importlib
import math

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    Mosfet,
    SineSpec,
    ac_analysis,
    dc_operating_point,
    logspace_frequencies,
    transient,
)


def rc_circuit(r=1e3, c=1e-9, source=None):
    ckt = Circuit("rc")
    spec = source if source is not None else SineSpec(
        offset=0.0, amplitude=1.0, frequency_hz=1e5)
    ckt.voltage_source("vin", "in", "0", spec, ac_mag=1.0)
    ckt.resistor("r1", "in", "out", r)
    ckt.capacitor("c1", "out", "0", c)
    return ckt


class TestTransientBasics:
    def test_rejects_bad_arguments(self):
        ckt = rc_circuit()
        with pytest.raises(ValueError):
            transient(ckt, t_stop=0.0, dt=1e-9)
        with pytest.raises(ValueError):
            transient(ckt, t_stop=1e-6, dt=-1e-9)
        with pytest.raises(ValueError):
            transient(ckt, t_stop=1e-9, dt=1e-6)
        with pytest.raises(ValueError):
            transient(ckt, t_stop=1e-6, dt=1e-9, method="euler")

    @pytest.mark.parametrize("dt", [0.6e-9, 0.7e-9, 0.3e-9])
    def test_rejects_t_stop_off_the_grid(self, dt, monkeypatch):
        # A t_stop between grid points used to end the run at the
        # nearest one (1.2, 0.7 and 0.9 ns here); it is refused before
        # the operating point is solved.
        tran = importlib.import_module("repro.circuit.transient")

        def no_dc(*args, **kwargs):
            raise AssertionError("argument errors must not cost a DC solve")

        monkeypatch.setattr(tran, "dc_operating_point", no_dc)
        with pytest.raises(ValueError, match="whole number"):
            transient(rc_circuit(), t_stop=1e-9, dt=dt)

    def test_t_stop_on_the_grid_to_rounding(self):
        # 0.3 ns / 5 ps and 1 µs / 10 ns are not exact in binary; they
        # are whole step counts to rounding and keep working.
        res = transient(rc_circuit(), t_stop=0.3e-9, dt=5e-12)
        assert len(res.times) == 61
        res = transient(rc_circuit(), t_stop=1e-6, dt=1e-8)
        assert res.times[-1] == pytest.approx(1e-6)

    def test_starts_from_dc_solution(self):
        ckt = rc_circuit(source=SineSpec(offset=0.5, amplitude=0.2,
                                         frequency_hz=1e5))
        res = transient(ckt, t_stop=1e-6, dt=1e-8)
        assert res.voltage("out").values[0] == pytest.approx(0.5, abs=1e-6)

    def test_times_grid(self):
        ckt = rc_circuit()
        res = transient(ckt, t_stop=1e-6, dt=1e-8)
        assert len(res.times) == 101
        assert res.times[-1] == pytest.approx(1e-6)

    def test_ground_node_waveform_is_zero(self):
        ckt = rc_circuit()
        res = transient(ckt, t_stop=1e-7, dt=1e-9)
        assert np.all(res.voltage("0").values == 0.0)

    def test_differential_waveform(self):
        ckt = rc_circuit()
        res = transient(ckt, t_stop=1e-7, dt=1e-9)
        diff = res.differential("in", "out")
        manual = res.voltage("in") - res.voltage("out")
        assert np.allclose(diff.values, manual.values)

    def test_source_current_readback(self):
        ckt = Circuit("i")
        ckt.voltage_source("v1", "a", "0", 1.0)
        ckt.resistor("r1", "a", "0", 1e3)
        res = transient(ckt, t_stop=1e-7, dt=1e-9)
        w = res.source_current("v1")
        assert w.mean() == pytest.approx(-1e-3, rel=1e-6)

    def test_source_current_type_check(self):
        ckt = rc_circuit()
        res = transient(ckt, t_stop=1e-7, dt=1e-9)
        with pytest.raises(TypeError):
            res.source_current("r1")


class TestTransientAccuracy:
    def test_rc_lowpass_attenuation(self):
        # f = fc: |H| = 1/√2, phase -45°.
        r, c = 1e3, 1e-9
        fc = 1.0 / (2 * math.pi * r * c)
        ckt = rc_circuit(r, c, SineSpec(offset=0.0, amplitude=1.0,
                                        frequency_hz=fc))
        res = transient(ckt, t_stop=20 / fc, dt=1 / (200 * fc))
        out = res.voltage("out").last_period(5 / fc)
        assert out.rms() == pytest.approx(1.0 / math.sqrt(2) / math.sqrt(2),
                                          rel=0.03)

    def test_energy_conservation_lc(self):
        # Undriven LC tank from a charged cap: oscillation at f0 with
        # (nearly) constant amplitude under trapezoidal integration.
        ckt = Circuit("lc")
        ckt.capacitor("c1", "a", "0", 1e-9, v_initial=1.0)
        ckt.inductor("l1", "a", "0", 1e-6)
        ckt.resistor("rleak", "a", "0", 1e9)
        f0 = 1.0 / (2 * math.pi * math.sqrt(1e-6 * 1e-9))
        res = transient(ckt, t_stop=10 / f0, dt=1 / (400 * f0))
        w = res.voltage("a")
        last = w.last_period(1 / f0)
        assert last.peak() == pytest.approx(1.0, rel=0.05)

    def test_mosfet_inverter_switches(self, tech90):
        ckt = Circuit("inv")
        ckt.voltage_source("vdd", "vdd", "0", tech90.vdd)
        ckt.voltage_source("vin", "in", "0",
                           SineSpec(offset=tech90.vdd / 2,
                                    amplitude=tech90.vdd / 2,
                                    frequency_hz=50e6))
        ckt.mosfet(Mosfet.from_technology("mn", "out", "in", "0", "0",
                                          tech90, "n", w_m=1e-6,
                                          l_m=tech90.lmin_m))
        ckt.mosfet(Mosfet.from_technology("mp", "out", "in", "vdd", "vdd",
                                          tech90, "p", w_m=2.5e-6,
                                          l_m=tech90.lmin_m))
        ckt.capacitor("cl", "out", "0", 10e-15)
        res = transient(ckt, t_stop=60e-9, dt=0.1e-9)
        out = res.voltage("out").last_period(20e-9)
        assert out.peak() > 0.9 * tech90.vdd
        assert out.trough() < 0.1 * tech90.vdd


class TestDeviceBias:
    def test_bias_waveforms_consistent(self, tech90):
        ckt = Circuit("bias")
        ckt.voltage_source("vdd", "vdd", "0", tech90.vdd)
        ckt.voltage_source("vg", "g", "0",
                           SineSpec(offset=0.6, amplitude=0.2,
                                    frequency_hz=10e6))
        m = Mosfet.from_technology("m1", "vdd", "g", "0", "0", tech90, "n",
                                   w_m=1e-6, l_m=0.09e-6)
        ckt.mosfet(m)
        res = transient(ckt, t_stop=200e-9, dt=1e-9)
        bias = res.device_bias("m1")
        assert bias["vgs"].mean() == pytest.approx(0.6, abs=0.01)
        assert bias["vds"].mean() == pytest.approx(tech90.vdd, abs=1e-6)
        assert np.all(bias["ids"].values >= 0.0)

    def test_device_bias_type_check(self):
        ckt = rc_circuit()
        res = transient(ckt, t_stop=1e-7, dt=1e-9)
        with pytest.raises(TypeError):
            res.device_bias("r1")


class TestAcAnalysis:
    def test_rc_transfer_function(self):
        ckt = rc_circuit()
        fc = 1.0 / (2 * math.pi * 1e3 * 1e-9)
        res = ac_analysis(ckt, [fc / 100, fc, fc * 100])
        mag = np.abs(res.voltage("out"))
        assert mag[0] == pytest.approx(1.0, rel=1e-3)
        assert mag[1] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)
        assert mag[2] == pytest.approx(0.01, rel=0.03)

    def test_phase_at_pole(self):
        ckt = rc_circuit()
        fc = 1.0 / (2 * math.pi * 1e3 * 1e-9)
        res = ac_analysis(ckt, [fc])
        assert res.phase_deg("out")[0] == pytest.approx(-45.0, abs=0.5)

    def test_magnitude_db(self):
        ckt = rc_circuit()
        fc = 1.0 / (2 * math.pi * 1e3 * 1e-9)
        res = ac_analysis(ckt, [fc])
        assert res.magnitude_db("out")[0] == pytest.approx(-3.01, abs=0.05)

    def test_common_source_gain(self, tech90):
        # AC gain of a resistively loaded common-source stage ≈ gm·R_L.
        ckt = Circuit("cs")
        ckt.voltage_source("vdd", "vdd", "0", tech90.vdd)
        ckt.voltage_source("vg", "g", "0", 0.55, ac_mag=1.0)
        ckt.resistor("rl", "vdd", "d", 10e3)
        ckt.mosfet(Mosfet.from_technology("m1", "d", "g", "0", "0", tech90,
                                          "n", w_m=2e-6, l_m=0.36e-6))
        op = dc_operating_point(ckt)
        dev = op.device_op("m1")
        res = ac_analysis(ckt, [1e3], operating_point=op)
        gain = float(np.abs(res.voltage("d"))[0])
        expected = dev.gm_s * (1.0 / (1e-4 + dev.gds_s))
        assert gain == pytest.approx(expected, rel=0.02)

    def test_rejects_bad_frequencies(self):
        ckt = rc_circuit()
        with pytest.raises(ValueError):
            ac_analysis(ckt, [])
        with pytest.raises(ValueError):
            ac_analysis(ckt, [-1.0])

    def test_logspace_frequencies(self):
        freqs = logspace_frequencies(1e3, 1e6, points_per_decade=10)
        assert freqs[0] == pytest.approx(1e3)
        assert freqs[-1] == pytest.approx(1e6)
        assert len(freqs) == 31
        with pytest.raises(ValueError):
            logspace_frequencies(1e6, 1e3)
