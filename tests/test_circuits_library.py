"""Unit tests for the circuit library (references, digital, analog)."""

import numpy as np
import pytest

from repro.circuit import dc_operating_point, transient
from repro.circuits import (
    beta_multiplier_reference,
    cycle_periods,
    dc_gain,
    differential_pair,
    filtered_current_reference,
    five_transistor_ota,
    input_referred_offset_v,
    inverter,
    is_bistable,
    noise_margins,
    oscillation_frequency,
    propagation_delay,
    resistor_divider_bias,
    ring_oscillator,
    simple_current_mirror,
    solve_beta_multiplier,
    sram_cell,
    sram_hold_butterfly,
    static_noise_margin,
    switching_threshold,
    unity_gain_bandwidth_hz,
    vtc,
)
from repro.circuit import DeviceVariation, Waveform


class TestCurrentMirror:
    def test_mirrors_reference(self, tech90):
        fx = simple_current_mirror(tech90, i_ref_a=100e-6)
        op = dc_operating_point(fx.circuit)
        i_out = -op.source_current("vout")
        assert i_out == pytest.approx(100e-6, rel=0.05)

    def test_mirror_ratio(self, tech90):
        fx = simple_current_mirror(tech90, i_ref_a=50e-6, mirror_ratio=2.0)
        op = dc_operating_point(fx.circuit)
        assert -op.source_current("vout") == pytest.approx(100e-6, rel=0.06)

    def test_diode_device_saturated(self, tech90):
        fx = simple_current_mirror(tech90)
        op = dc_operating_point(fx.circuit)
        assert op.device_op("m1").region == "saturation"

    def test_mismatch_skews_output(self, tech90):
        fx = simple_current_mirror(tech90)
        fx.circuit["m2"].variation = DeviceVariation(delta_vt_v=0.02)
        op = dc_operating_point(fx.circuit)
        assert -op.source_current("vout") < 95e-6

    def test_rejects_bad_args(self, tech90):
        with pytest.raises(ValueError):
            simple_current_mirror(tech90, i_ref_a=0.0)
        with pytest.raises(ValueError):
            simple_current_mirror(tech90, mirror_ratio=-1.0)


class TestFilteredReference:
    def test_filtered_and_plain_same_bias(self, tech90):
        filt = filtered_current_reference(tech90, filtered=True)
        plain = filtered_current_reference(tech90, filtered=False)
        i_f = -dc_operating_point(filt.circuit).source_current("vout")
        i_p = -dc_operating_point(plain.circuit).source_current("vout")
        assert i_f == pytest.approx(i_p, rel=1e-3)

    def test_filter_pole_in_meta(self, tech90):
        fx = filtered_current_reference(tech90, r_filter_ohm=10e3,
                                        c_filter_f=10e-12)
        assert fx.meta["filter_pole_hz"] == pytest.approx(1.59e6, rel=0.01)

    def test_unfiltered_has_no_filter_elements(self, tech90):
        fx = filtered_current_reference(tech90, filtered=False)
        assert "rf" not in fx.circuit
        assert "cf" not in fx.circuit


class TestBetaMultiplier:
    def test_conducting_state_current(self, tech90):
        fx = beta_multiplier_reference(tech90)
        op = solve_beta_multiplier(fx)
        i_set = op.voltage("ns") / fx.meta["r_set_ohm"]
        assert i_set > 5e-6  # clearly not the degenerate state
        # Both branches carry similar current (PMOS mirror working).
        vna = op.voltage("na")
        assert 0.2 * tech90.vdd < vna < 0.95 * tech90.vdd


class TestResistorDivider:
    def test_fraction(self, tech90):
        fx = resistor_divider_bias(tech90, fraction=0.25)
        op = dc_operating_point(fx.circuit)
        assert op.voltage("mid") == pytest.approx(0.25 * tech90.vdd, rel=1e-6)

    def test_validation(self, tech90):
        with pytest.raises(ValueError):
            resistor_divider_bias(tech90, fraction=1.5)


class TestInverter:
    def test_vtc_rails(self, tech90):
        fx = inverter(tech90)
        vin, vout = vtc(fx)
        assert vout[0] == pytest.approx(tech90.vdd, abs=0.01)
        assert vout[-1] == pytest.approx(0.0, abs=0.01)

    def test_switching_threshold_near_mid(self, tech90):
        fx = inverter(tech90)
        vin, vout = vtc(fx)
        vm = switching_threshold(vin, vout)
        assert 0.35 * tech90.vdd < vm < 0.65 * tech90.vdd

    def test_noise_margins_healthy(self, tech90):
        fx = inverter(tech90)
        vin, vout = vtc(fx)
        nml, nmh = noise_margins(vin, vout)
        assert nml > 0.2 * tech90.vdd
        assert nmh > 0.2 * tech90.vdd

    def test_nmos_vt_shift_moves_threshold(self, tech90):
        fx = inverter(tech90)
        fx.circuit["mn_inv"].variation = DeviceVariation(delta_vt_v=0.1)
        vin, vout = vtc(fx)
        vm_shifted = switching_threshold(vin, vout)
        fx.circuit["mn_inv"].variation = DeviceVariation()
        vin, vout = vtc(fx)
        vm_nominal = switching_threshold(vin, vout)
        assert vm_shifted > vm_nominal


class TestRingOscillator:
    def test_oscillates(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        res = transient(fx.circuit, t_stop=3e-9, dt=5e-12)
        w = res.voltage("s0")
        freq = oscillation_frequency(w, tech90.vdd / 2.0)
        assert 1e9 < freq < 100e9
        assert w.peak_to_peak() > 0.8 * tech90.vdd

    def test_more_stages_slower(self, tech90):
        def freq_of(n):
            fx = ring_oscillator(tech90, n_stages=n)
            res = transient(fx.circuit, t_stop=6e-9, dt=10e-12)
            return oscillation_frequency(res.voltage("s0"), tech90.vdd / 2)

        assert freq_of(3) > 1.5 * freq_of(7)

    def test_rejects_even_or_tiny_rings(self, tech90):
        with pytest.raises(ValueError):
            ring_oscillator(tech90, n_stages=4)
        with pytest.raises(ValueError):
            ring_oscillator(tech90, n_stages=1)

    def test_slow_devices_slow_the_ring(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        res = transient(fx.circuit, t_stop=4e-9, dt=8e-12)
        f_nom = oscillation_frequency(res.voltage("s0"), tech90.vdd / 2)
        for m in fx.circuit.mosfets:
            m.variation = DeviceVariation(delta_vt_v=0.08)
        res = transient(fx.circuit, t_stop=4e-9, dt=8e-12)
        f_slow = oscillation_frequency(res.voltage("s0"), tech90.vdd / 2)
        assert f_slow < f_nom


class TestSramCell:
    def test_bistable_when_healthy(self, tech90):
        assert is_bistable(sram_cell(tech90))

    def test_butterfly_snm_positive(self, tech90):
        fx = sram_cell(tech90)
        vp, vr = sram_hold_butterfly(fx)
        snm = static_noise_margin(vp, vr)
        assert 0.1 * tech90.vdd < snm < 0.6 * tech90.vdd

    def test_mismatch_degrades_snm(self, tech90):
        fx = sram_cell(tech90)
        vp, vr = sram_hold_butterfly(fx)
        snm_nom = static_noise_margin(vp, vr)
        fx.circuit["mn_l"].variation = DeviceVariation(delta_vt_v=0.12)
        fx.circuit["mp_r"].variation = DeviceVariation(delta_vt_v=0.12)
        vp, vr = sram_hold_butterfly(fx)
        snm_skew = static_noise_margin(vp, vr)
        assert snm_skew < snm_nom


class TestPropagationDelay:
    def test_inverter_delay_measurable(self, tech90):
        from repro.circuit import PulseSpec

        fx = inverter(tech90, load_c_f=20e-15)
        fx.circuit["vin"].spec = PulseSpec(v1=0.0, v2=tech90.vdd,
                                           delay_s=1e-9, rise_s=50e-12,
                                           fall_s=50e-12, width_s=5e-9,
                                           period_s=10e-9)
        res = transient(fx.circuit, t_stop=4e-9, dt=5e-12)
        tpd = propagation_delay(res.voltage("in"), res.voltage("out"),
                                tech90.vdd)
        assert 1e-12 < tpd < 1e-9


class TestDifferentialPair:
    def test_nominal_offset_zero(self, tech90):
        fx = differential_pair(tech90)
        assert input_referred_offset_v(fx) == pytest.approx(0.0, abs=1e-4)

    def test_vt_mismatch_appears_as_offset(self, tech90):
        fx = differential_pair(tech90)
        fx.circuit["m1"].variation = DeviceVariation(delta_vt_v=5e-3)
        offset = input_referred_offset_v(fx)
        # ΔV_T of the input pair maps ~1:1 to input-referred offset.
        assert offset == pytest.approx(5e-3, rel=0.2)

    def test_tail_splits_evenly(self, tech90):
        fx = differential_pair(tech90)
        op = dc_operating_point(fx.circuit)
        i1 = op.device_op("m1").ids_a
        i2 = op.device_op("m2").ids_a
        assert i1 == pytest.approx(i2, rel=1e-3)
        assert i1 + i2 == pytest.approx(fx.meta["i_tail_a"], rel=1e-3)


class TestOta:
    def test_gain_reasonable(self, tech90):
        fx = five_transistor_ota(tech90)
        gain = dc_gain(fx)
        assert 20.0 < gain < 500.0

    def test_ugbw_above_gain_pole(self, tech90):
        fx = five_transistor_ota(tech90)
        ugbw = unity_gain_bandwidth_hz(fx)
        assert 1e6 < ugbw < 10e9

    def test_offset_tracks_pair_mismatch(self, tech90):
        fx = five_transistor_ota(tech90)
        fx.circuit["m1"].variation = DeviceVariation(delta_vt_v=4e-3)
        offset = input_referred_offset_v(fx)
        assert abs(offset) == pytest.approx(4e-3, rel=0.3)


class TestOscillationFrequencyHelper:
    def test_known_sine(self):
        t = np.linspace(0, 1e-6, 2001)
        w = Waveform(t, np.sin(2 * np.pi * 10e6 * t))
        assert oscillation_frequency(w, 0.0) == pytest.approx(10e6, rel=0.01)

    def test_too_few_edges_raises(self):
        t = np.linspace(0, 1e-6, 101)
        w = Waveform(t, np.sin(2 * np.pi * 1e6 * t))
        with pytest.raises(ValueError, match="rising edges"):
            oscillation_frequency(w, 0.0)

    def test_is_the_median_cycle_period_on_a_ring(self, tech90):
        # One edge-crossing routine serves both helpers, to the bit.
        fx = ring_oscillator(tech90, n_stages=3)
        w = transient(fx.circuit, t_stop=3e-9, dt=5e-12).voltage("s0")
        threshold = tech90.vdd / 2.0
        assert oscillation_frequency(w, threshold) == \
            float(1.0 / np.median(cycle_periods(w, threshold)))
