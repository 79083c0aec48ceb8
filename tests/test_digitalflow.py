"""Tests for cell characterization and STA-lite."""

import numpy as np
import pytest

from repro.circuit import DeviceDegradation, DeviceVariation, Waveform
from repro.circuits import inverter
from repro.digitalflow import (
    DelayTable,
    TimingGraph,
    characterize_cell,
    measure_edge,
    path_derate,
)

SLEWS = [20e-12, 80e-12]
LOADS = [1e-15, 6e-15]


@pytest.fixture(scope="module")
def inv_table(tech90):
    fx = inverter(tech90, load_c_f=2e-15)
    return characterize_cell(fx, tech90, SLEWS, LOADS)


class TestMeasureEdge:
    def test_rising_edge(self):
        t = np.linspace(0.0, 1e-9, 1001)
        v = np.clip((t - 0.2e-9) / 0.4e-9, 0.0, 1.0)  # 0→1 ramp
        t50, trans = measure_edge(Waveform(t, v), vdd=1.0, rising=True)
        assert t50 == pytest.approx(0.4e-9, rel=0.01)
        assert trans == pytest.approx(0.8 * 0.4e-9, rel=0.01)

    def test_falling_edge(self):
        t = np.linspace(0.0, 1e-9, 1001)
        v = 1.0 - np.clip((t - 0.2e-9) / 0.4e-9, 0.0, 1.0)
        t50, trans = measure_edge(Waveform(t, v), vdd=1.0, rising=False)
        assert t50 == pytest.approx(0.4e-9, rel=0.01)
        assert trans > 0.0

    def test_missing_edge_raises(self):
        t = np.linspace(0.0, 1e-9, 101)
        w = Waveform(t, np.zeros(101))
        with pytest.raises(ValueError, match="crossing"):
            measure_edge(w, vdd=1.0, rising=True)


class TestCharacterization:
    def test_delay_grows_with_load_and_slew(self, inv_table):
        d = inv_table.delay_s
        assert np.all(np.diff(d, axis=1) > 0.0)  # more load → slower
        assert np.all(np.diff(d, axis=0) > 0.0)  # slower input → slower

    def test_transition_grows_with_load(self, inv_table):
        assert np.all(np.diff(inv_table.transition_s, axis=1) > 0.0)

    def test_magnitudes_sane(self, inv_table):
        assert np.all(inv_table.delay_s > 1e-13)
        assert np.all(inv_table.delay_s < 1e-9)
        assert 0.1e-15 < inv_table.input_cap_f < 20e-15

    def test_lookup_interpolates_and_clamps(self, inv_table):
        d_corner, _ = inv_table.lookup(SLEWS[0], LOADS[0])
        assert d_corner == pytest.approx(inv_table.delay_s[0, 0])
        d_mid, _ = inv_table.lookup(np.mean(SLEWS), np.mean(LOADS))
        assert inv_table.delay_s.min() < d_mid < inv_table.delay_s.max()
        d_out, _ = inv_table.lookup(10 * SLEWS[-1], 10 * LOADS[-1])
        assert d_out == pytest.approx(inv_table.delay_s[-1, -1])

    def test_fixture_restored(self, tech90):
        fx = inverter(tech90, load_c_f=2e-15)
        original_spec = fx.circuit["vin"].spec
        characterize_cell(fx, tech90, SLEWS, LOADS)
        assert fx.circuit["vin"].spec is original_spec
        assert fx.circuit["cload"].capacitance == pytest.approx(2e-15)

    def test_nbti_slows_rising_arc(self, tech90):
        fx = inverter(tech90, load_c_f=2e-15)
        fresh = characterize_cell(fx, tech90, SLEWS, LOADS,
                                  rising_input=False)
        fx.circuit["mp_inv"].degradation = DeviceDegradation(
            delta_vt_v=0.05, beta_factor=0.95)
        aged = characterize_cell(fx, tech90, SLEWS, LOADS,
                                 rising_input=False)
        assert np.all(aged.delay_s > 1.05 * fresh.delay_s)

    def test_variation_shifts_delay(self, tech90):
        fx = inverter(tech90, load_c_f=2e-15)
        nominal = characterize_cell(fx, tech90, SLEWS, LOADS)
        fx.circuit["mn_inv"].variation = DeviceVariation(delta_vt_v=0.06)
        slow = characterize_cell(fx, tech90, SLEWS, LOADS)
        assert np.all(slow.delay_s > nominal.delay_s)

    def test_slews_off_the_window_grid(self, tech90):
        # 60 ps and 150 ps slews step 3 ps and 7.5 ps: the 4 ns window
        # is not a whole number of either, and the run ends on the grid
        # point nearest it.
        fx = inverter(tech90, load_c_f=2e-15)
        table = characterize_cell(fx, tech90, [60e-12, 150e-12], LOADS)
        assert np.all(np.isfinite(table.delay_s))
        assert np.all(np.diff(table.delay_s, axis=0) > 0.0)

    def test_grid_validation(self, tech90):
        fx = inverter(tech90)
        with pytest.raises(ValueError, match="2x2"):
            characterize_cell(fx, tech90, [20e-12], LOADS)

    def test_scaled_derating(self, inv_table):
        derated = inv_table.scaled(1.2)
        assert np.allclose(derated.delay_s, 1.2 * inv_table.delay_s)
        with pytest.raises(ValueError):
            inv_table.scaled(0.0)


class TestTimingGraph:
    def chain(self, table, n=4):
        g = TimingGraph()
        g.add_input("a", slew_s=30e-12)
        prev = "a"
        for k in range(n):
            g.add_cell(f"inv{k}", table, inputs=[prev], output=f"n{k}")
            prev = f"n{k}"
        g.add_output(prev, load_f=4e-15)
        return g

    def test_chain_delay_adds_up(self, inv_table):
        g2 = self.chain(inv_table, n=2)
        g4 = self.chain(inv_table, n=4)
        d2, _ = g2.critical_path()
        d4, _ = g4.critical_path()
        assert d4 > 1.7 * d2

    def test_critical_path_lists_all_stages(self, inv_table):
        g = self.chain(inv_table, n=3)
        delay, path = g.critical_path()
        assert [p for p in path if p.startswith("inv")] == [
            "inv0", "inv1", "inv2"]
        assert path[0] == "a"
        assert delay > 0.0

    def test_reconvergent_paths_take_worst(self, inv_table):
        g = TimingGraph()
        g.add_input("a", slew_s=30e-12)
        # Short branch: one inverter; long branch: three.
        g.add_cell("s0", inv_table, inputs=["a"], output="mid_s")
        g.add_cell("l0", inv_table, inputs=["a"], output="p1")
        g.add_cell("l1", inv_table, inputs=["p1"], output="p2")
        g.add_cell("l2", inv_table, inputs=["p2"], output="mid_l")
        g.add_cell("join", inv_table, inputs=["mid_s", "mid_l"],
                   output="y")
        g.add_output("y")
        delay, path = g.critical_path()
        assert "l1" in path  # the long branch dominates
        assert "s0" not in path

    def test_fanout_loading_slows_driver(self, inv_table):
        light = TimingGraph()
        light.add_input("a", slew_s=30e-12)
        light.add_cell("drv", inv_table, inputs=["a"], output="n")
        light.add_cell("rx0", inv_table, inputs=["n"], output="y0")
        light.add_output("y0", load_f=1e-15)
        heavy = TimingGraph()
        heavy.add_input("a", slew_s=30e-12)
        heavy.add_cell("drv", inv_table, inputs=["a"], output="n")
        for k in range(4):
            heavy.add_cell(f"rx{k}", inv_table, inputs=["n"],
                           output=f"y{k}")
            heavy.add_output(f"y{k}", load_f=1e-15)
        arr_light = light.propagate()["n"]
        arr_heavy = heavy.propagate()["n"]
        assert arr_heavy.time_s > arr_light.time_s

    def test_table_substitution_derates(self, inv_table):
        g = self.chain(inv_table, n=3)
        slow_table = inv_table.scaled(1.3)
        slow = g.with_tables({f"inv{k}": slow_table for k in range(3)})
        assert path_derate(g, slow) == pytest.approx(1.3, rel=0.01)

    def test_undriven_input_rejected(self, inv_table):
        g = TimingGraph()
        g.add_cell("inv0", inv_table, inputs=["floating"], output="y")
        g.add_output("y")
        with pytest.raises(ValueError, match="undriven"):
            g.propagate()

    def test_loop_rejected(self, inv_table):
        g = TimingGraph()
        g.add_input("a")
        g.add_cell("i0", inv_table, inputs=["a", "y"], output="x")
        g.add_cell("i1", inv_table, inputs=["x"], output="y")
        g.add_output("y")
        with pytest.raises(ValueError, match="loop"):
            g.propagate()

    def test_duplicate_cell_rejected(self, inv_table):
        g = TimingGraph()
        g.add_input("a")
        g.add_cell("i0", inv_table, inputs=["a"], output="x")
        with pytest.raises(ValueError, match="duplicate"):
            g.add_cell("i0", inv_table, inputs=["x"], output="y")

    def test_unknown_substitution_rejected(self, inv_table):
        g = self.chain(inv_table, n=2)
        with pytest.raises(ValueError, match="unknown cells"):
            g.with_tables({"nope": inv_table})


class TestLibraryCharacterization:
    @pytest.fixture(scope="class")
    def lib(self, tech90):
        from repro.digitalflow import characterize_library

        return characterize_library(tech90, slews_s=(20e-12, 80e-12),
                                    loads_f=(1e-15, 6e-15))

    def test_all_cells_present(self, lib):
        assert set(lib) == {"inv", "nand2", "nor2"}

    def test_tables_sane(self, lib):
        for name, table in lib.items():
            assert np.all(table.delay_s > 0.0)
            assert np.all(table.transition_s > 0.0)
            assert table.input_cap_f > 0.0

    def test_multi_input_gates_load_more(self, lib):
        # NAND/NOR present 2 gate inputs worth of capacitance paths and
        # stacked devices: bigger input cap than the inverter.
        assert lib["nand2"].input_cap_f > lib["inv"].input_cap_f

    def test_prepare_hook_applies(self, tech90):
        from repro.circuit import DeviceDegradation
        from repro.digitalflow import characterize_library

        def cripple(fixture):
            for device in fixture.circuit.mosfets:
                device.degradation = DeviceDegradation(beta_factor=0.5)

        fresh = characterize_library(tech90, slews_s=(20e-12, 80e-12),
                                     loads_f=(1e-15, 6e-15),
                                     worst_arc=False)
        slow = characterize_library(tech90, slews_s=(20e-12, 80e-12),
                                    loads_f=(1e-15, 6e-15),
                                    prepare=cripple, worst_arc=False)
        for name in fresh:
            assert np.all(slow[name].delay_s > fresh[name].delay_s)

    def test_worst_arc_dominates_single_arc(self, tech90):
        from repro.digitalflow import characterize_library

        worst = characterize_library(tech90, slews_s=(20e-12, 80e-12),
                                     loads_f=(1e-15, 6e-15),
                                     worst_arc=True)
        single = characterize_library(tech90, slews_s=(20e-12, 80e-12),
                                      loads_f=(1e-15, 6e-15),
                                      worst_arc=False)
        for name in worst:
            assert np.all(worst[name].delay_s
                          >= single[name].delay_s - 1e-15)

    def test_mixed_gate_netlist_times(self, lib):
        g = TimingGraph()
        g.add_input("a", slew_s=40e-12)
        g.add_input("b", slew_s=40e-12)
        g.add_cell("n1", lib["nand2"], inputs=["a", "b"], output="x")
        g.add_cell("n2", lib["nor2"], inputs=["x", "b"], output="y")
        g.add_cell("n3", lib["inv"], inputs=["y"], output="z")
        g.add_output("z", load_f=4e-15)
        delay, path = g.critical_path()
        assert delay > 0.0
        assert path[-1] == "z"
