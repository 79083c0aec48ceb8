"""Tests for the extension features: spectrum/jitter, the EMC-hardened
reference (§5.3), the circuit-bound knob/monitor library, and the
Monte-Carlo lifetime estimator."""

import math

import numpy as np
import pytest

from repro import units
from repro.aging import HciModel, NbtiModel
from repro.circuit import (
    Circuit,
    DcSpec,
    SineSpec,
    Waveform,
    dc_operating_point,
    transient,
)
from repro.circuits import (
    cycle_jitter,
    cycle_periods,
    emc_hardened_current_reference,
    filtered_current_reference,
    oscillation_frequency,
    ring_oscillator,
    simple_current_mirror,
)
from repro.core import EmcAnalyzer, LifetimeEstimator, MissionProfile
from repro.emc import add_dpi_injection
from repro.solutions import (
    AdaptiveSystem,
    SpecTarget,
    aging_sensor_monitor,
    bias_current_knob,
    body_bias_knob,
    dc_monitor,
    source_current_monitor,
    supply_knob,
)


class TestSpectrum:
    def test_pure_tone_amplitude_and_frequency(self):
        t = np.linspace(0.0, 1e-6, 2048)
        w = Waveform(t, 0.3 + 0.8 * np.sin(2 * np.pi * 10e6 * t))
        freqs, amps = w.spectrum()
        assert w.dominant_frequency() == pytest.approx(10e6, rel=0.02)
        k = int(np.argmin(np.abs(freqs - 10e6)))
        # Peak amplitude near 0.8 (leakage spreads it a little).
        assert amps[k] == pytest.approx(0.8, rel=0.15)
        assert amps[0] == pytest.approx(0.3, abs=0.02)

    def test_square_wave_harmonics(self):
        t = np.linspace(0.0, 1e-6, 4096)
        w = Waveform(t, np.sign(np.sin(2 * np.pi * 8e6 * t)))
        freqs, amps = w.spectrum()
        k1 = int(np.argmin(np.abs(freqs - 8e6)))
        k3 = int(np.argmin(np.abs(freqs - 24e6)))
        # Odd harmonics in ~1/3 ratio; even harmonics absent.
        assert amps[k3] / amps[k1] == pytest.approx(1.0 / 3.0, rel=0.2)
        k2 = int(np.argmin(np.abs(freqs - 16e6)))
        assert amps[k2] < 0.1 * amps[k1]


class TestJitter:
    def test_clean_oscillation_low_jitter(self):
        t = np.linspace(0.0, 2e-6, 8001)
        w = Waveform(t, np.sin(2 * np.pi * 10e6 * t))
        periods = cycle_periods(w, 0.0)
        assert np.mean(periods) == pytest.approx(100e-9, rel=0.01)
        assert cycle_jitter(w, 0.0) < 1e-9

    def test_modulated_oscillation_shows_jitter(self):
        t = np.linspace(0.0, 2e-6, 16001)
        phase = 2 * np.pi * 10e6 * t + 0.5 * np.sin(2 * np.pi * 1e6 * t)
        w = Waveform(t, np.sin(phase))
        assert cycle_jitter(w, 0.0) > 5 * cycle_jitter(
            Waveform(t, np.sin(2 * np.pi * 10e6 * t)), 0.0)

    def test_emi_induces_ring_oscillator_jitter(self, tech90):
        """§4: 'interference can introduce jitter' — measured."""
        fx = ring_oscillator(tech90, n_stages=3)
        inj = add_dpi_injection(fx.circuit, "s0", coupling_c_f=100e-15)
        inj.silence()
        res = transient(fx.circuit, t_stop=4e-9, dt=4e-12)
        quiet = cycle_jitter(res.voltage("s1"), tech90.vdd / 2)
        inj.set_tone(0.4, 937e6)  # incommensurate with the ring
        res = transient(fx.circuit, t_stop=4e-9, dt=4e-12)
        noisy = cycle_jitter(res.voltage("s1"), tech90.vdd / 2)
        assert noisy > 2.0 * quiet


class TestEmcHardenedReference:
    def test_same_nominal_bias(self, tech90):
        plain = filtered_current_reference(tech90)
        hard = emc_hardened_current_reference(tech90)
        i_plain = -dc_operating_point(plain.circuit).source_current("vout")
        i_hard = -dc_operating_point(hard.circuit).source_current("vout")
        assert i_hard == pytest.approx(i_plain, rel=0.05)

    def test_rectification_reduced(self, tech90):
        """§5.3: the hardened structure is far less susceptible."""
        def shift(fx):
            inj = add_dpi_injection(fx.circuit, fx.nodes["diode"],
                                    coupling_c_f=500e-15)
            analyzer = EmcAnalyzer(fx.circuit, inj,
                                   lambda r: -r.source_current("vout"),
                                   n_periods=20, samples_per_period=32,
                                   settle_periods=6)
            nominal = analyzer.nominal_value()
            return analyzer.measure_point(0.4, 50e6, nominal).relative_shift

        s_plain = shift(filtered_current_reference(tech90))
        s_hard = shift(emc_hardened_current_reference(tech90))
        assert abs(s_hard) < 0.4 * abs(s_plain)

    def test_validation(self, tech90):
        with pytest.raises(ValueError):
            emc_hardened_current_reference(tech90, r_degen_ohm=0.0)


class TestKnobLibrary:
    def test_supply_knob_moves_source(self, tech90):
        fx = simple_current_mirror(tech90)
        knob = supply_knob(fx.circuit, "vdd", [1.2, 1.3])
        knob.set_index(1)
        assert fx.circuit["vdd"].spec.dc_value() == pytest.approx(1.3)

    def test_supply_knob_type_check(self, tech90):
        fx = simple_current_mirror(tech90)
        with pytest.raises(TypeError):
            supply_knob(fx.circuit, "iref", [1.0, 1.1])

    def test_bias_current_knob(self, tech90):
        fx = simple_current_mirror(tech90)
        knob = bias_current_knob(fx.circuit, "iref", [100e-6, 120e-6])
        knob.set_index(1)
        op = dc_operating_point(fx.circuit)
        assert -op.source_current("vout") == pytest.approx(120e-6, rel=0.06)

    def test_body_bias_knob_shifts_vt(self, tech90):
        fx = simple_current_mirror(tech90, w_m=2e-6, l_m=tech90.lmin_m)
        knob = body_bias_knob(fx.circuit, ["m1", "m2"], [0.0, -0.05, 0.05])
        i_nom = -dc_operating_point(fx.circuit).source_current("vout")
        knob.set_index(1)  # forward bias (lower V_T) on both devices
        dev = fx.circuit["m2"]
        assert dev.variation.delta_vt_v == pytest.approx(-0.05)
        knob.set_index(0)
        assert dev.variation.delta_vt_v == pytest.approx(0.0)

    def test_body_bias_preserves_sampled_mismatch(self, tech90):
        from repro.circuit import DeviceVariation

        fx = simple_current_mirror(tech90)
        fx.circuit["m2"].variation = DeviceVariation(delta_vt_v=0.01)
        knob = body_bias_knob(fx.circuit, ["m2"], [0.0, -0.02])
        knob.set_index(1)
        assert fx.circuit["m2"].variation.delta_vt_v == pytest.approx(-0.01)
        knob.set_index(0)
        assert fx.circuit["m2"].variation.delta_vt_v == pytest.approx(0.01)

    def test_dc_and_current_monitors(self, tech90):
        fx = simple_current_mirror(tech90)
        vmon = dc_monitor(fx.circuit, "din")
        imon = source_current_monitor(fx.circuit, "vout")
        op = dc_operating_point(fx.circuit)
        assert vmon.read() == pytest.approx(op.voltage("din"))
        assert imon.read() == pytest.approx(op.source_current("vout"))

    def test_aging_sensor_monitor(self, tech90):
        fx = simple_current_mirror(tech90)
        sensor = aging_sensor_monitor(fx, "m2", "m1")
        assert sensor.read() == 0.0
        fx.circuit["m2"].degradation.delta_vt_v = 0.03
        assert sensor.read() == pytest.approx(0.03)

    def test_closed_loop_with_bias_knob(self, tech90):
        """A §5.2 loop holding mirror output with a current-trim knob."""
        fx = simple_current_mirror(tech90, w_m=2e-6, l_m=tech90.lmin_m)
        knob = bias_current_knob(fx.circuit, "iref",
                                 [100e-6, 110e-6, 120e-6, 130e-6])
        monitor = source_current_monitor(fx.circuit, "vout")
        # spec: delivered current ≥ 98 µA (source current is negative...
        # the branch current convention makes iout = -i(vout)).
        system = AdaptiveSystem(
            [monitor], [knob],
            [SpecTarget(monitor.name, upper=-98e-6)],
            cost_fn=lambda: knob.value)
        # Degrade the output device.
        fx.circuit["m2"].degradation.delta_vt_v = 0.03
        fx.circuit["m2"].degradation.beta_factor = 0.95
        record = system.regulate()
        assert record.in_spec
        assert knob.index > 0


class TestLifetimeEstimator:
    def test_distribution_and_spread(self, tech65):
        # Over-driven output (1.5×VDD drain) makes HCI hammer the output
        # device while the diode stays safe — a mirror whose degradation
        # does NOT cancel.  (A plain mirror's NBTI cancels: both devices
        # share V_GS and shift together — physically correct and easy to
        # verify with this estimator.)
        fx = simple_current_mirror(tech65, w_m=2e-6, l_m=tech65.lmin_m,
                                   v_out_v=1.5 * tech65.vdd)

        def iout(fixture):
            return -dc_operating_point(fixture.circuit).source_current("vout")

        nominal = iout(fx)
        estimator = LifetimeEstimator(
            fx, [HciModel(tech65.aging)],
            tech65, iout, lower=0.8 * nominal)
        profile = MissionProfile(n_epochs=5)
        summary = estimator.run(profile, n_samples=6, seed=4)
        assert summary.failure_times_s.size == 6
        finite = summary.failure_times_s[np.isfinite(summary.failure_times_s)]
        # Hot-carrier wear-out kills every die mid-mission...
        assert finite.size == 6
        assert np.all(finite > 0.0)
        # ...at mismatch-spread times.
        assert np.std(finite) > 0.0
        assert summary.mttf_years < 10.0
        assert 0.0 <= summary.surviving_fraction(1e3) <= 1.0

    def test_requires_bound(self, tech65):
        fx = simple_current_mirror(tech65)
        with pytest.raises(ValueError):
            LifetimeEstimator(fx, [HciModel(tech65.aging)], tech65,
                              lambda f: 0.0)

    def test_fixture_untouched(self, tech65):
        # The dies are sampled and aged on a replica; the caller's
        # nominal, fresh devices stay so.
        fx = simple_current_mirror(tech65, w_m=2e-6, l_m=tech65.lmin_m)

        def iout(fixture):
            return -dc_operating_point(fixture.circuit).source_current("vout")

        estimator = LifetimeEstimator(
            fx, [HciModel(tech65.aging)], tech65, iout, lower=0.0)
        estimator.run(MissionProfile(n_epochs=2), n_samples=2, seed=0)
        for device in fx.circuit.mosfets:
            assert device.variation.delta_vt_v == 0.0
            assert device.degradation.is_fresh()
