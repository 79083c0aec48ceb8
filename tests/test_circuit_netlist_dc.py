"""Unit tests for the Circuit container and DC analyses."""

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    ConvergenceError,
    Mosfet,
    NewtonOptions,
    dc_operating_point,
    dc_sweep,
    is_ground,
    newton_solve,
    sweep_voltages,
)


class TestGroundNames:
    def test_recognized_spellings(self):
        assert is_ground("0")
        assert is_ground("gnd")
        assert is_ground("GND")
        assert not is_ground("vdd")


class TestCircuitContainer:
    def test_duplicate_name_rejected(self):
        ckt = Circuit("dup")
        ckt.resistor("r1", "a", "0", 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            ckt.resistor("r1", "b", "0", 1.0)

    def test_getitem_and_contains(self):
        ckt = Circuit("x")
        r = ckt.resistor("r1", "a", "0", 1.0)
        assert ckt["r1"] is r
        assert "r1" in ckt
        assert "r2" not in ckt
        with pytest.raises(KeyError):
            ckt["nope"]

    def test_len_and_iter(self):
        ckt = Circuit("x")
        ckt.resistor("r1", "a", "0", 1.0)
        ckt.resistor("r2", "a", "b", 1.0)
        assert len(ckt) == 2
        assert [e.name for e in ckt] == ["r1", "r2"]

    def test_empty_circuit_cannot_compile(self):
        with pytest.raises(ValueError, match="empty"):
            Circuit("e").compile()

    def test_node_indices_stable(self):
        ckt = Circuit("x")
        ckt.resistor("r1", "a", "b", 1.0)
        ckt.resistor("r2", "b", "0", 1.0)
        assert ckt.node("a") == 0
        assert ckt.node("b") == 1
        assert ckt.node("0") == -1
        assert ckt.n_nodes == 2

    def test_unknown_node_raises(self):
        ckt = Circuit("x")
        ckt.resistor("r1", "a", "0", 1.0)
        with pytest.raises(KeyError, match="unknown node"):
            ckt.node("zz")

    def test_n_unknowns_counts_branches(self):
        ckt = Circuit("x")
        ckt.voltage_source("v1", "a", "0", 1.0)
        ckt.resistor("r1", "a", "0", 1.0)
        assert ckt.n_unknowns == 2  # one node + one branch

    def test_mosfets_listing(self, tech90):
        ckt = Circuit("x")
        ckt.voltage_source("v1", "d", "0", 1.0)
        ckt.mosfet(Mosfet.from_technology("m1", "d", "d", "0", "0", tech90,
                                          "n", w_m=1e-6, l_m=1e-6))
        assert [m.name for m in ckt.mosfets] == ["m1"]

    def test_mosfets_follow_topology_changes(self, tech90):
        def mosfet(name):
            return Mosfet.from_technology(name, "d", "d", "0", "0", tech90,
                                          "n", w_m=1e-6, l_m=1e-6)

        ckt = Circuit("x")
        ckt.voltage_source("v1", "d", "0", 1.0)
        assert ckt.mosfets == ()
        m1 = ckt.mosfet(mosfet("m1"))
        first = ckt.mosfets
        assert first == (m1,) and ckt.mosfets is first  # filtered once
        ckt.resistor("r1", "d", "0", 1e3)
        assert ckt.mosfets == (m1,) and ckt.mosfets is not first
        m2 = ckt.mosfet(mosfet("m2"))
        assert ckt.mosfets == (m1, m2)

    def test_replicas_list_their_own_mosfets(self, tech90):
        import copy
        import pickle

        ckt = Circuit("x")
        ckt.voltage_source("v1", "d", "0", 1.0)
        ckt.mosfet(Mosfet.from_technology("m1", "d", "d", "0", "0", tech90,
                                          "n", w_m=1e-6, l_m=1e-6))
        original = ckt.mosfets
        for replica in (pickle.loads(pickle.dumps(ckt)), copy.deepcopy(ckt)):
            assert replica.mosfets == (replica["m1"],)
            assert replica.mosfets[0] is not original[0]

    def test_shared_elements_rebind_between_circuits(self, tech90):
        """An element used in two circuits binds to whichever circuit is
        compiled last — and each analysis re-compiles first."""
        base = Circuit("base")
        base.voltage_source("v1", "x", "0", 1.0)
        r = base.resistor("r1", "x", "0", 1e3)
        wrapper = Circuit("wrapper")
        wrapper.resistor("extra", "pre", "x", 1e3)
        wrapper.voltage_source("v1", "pre", "0", 1.0)
        wrapper.add(r)
        op_wrap = dc_operating_point(wrapper)
        assert op_wrap.voltage("x") == pytest.approx(0.5)
        op_base = dc_operating_point(base)
        assert op_base.voltage("x") == pytest.approx(1.0)


class TestDcOperatingPoint:
    def test_nonlinear_diode_connected(self, tech90):
        ckt = Circuit("dc")
        ckt.voltage_source("vdd", "vdd", "0", tech90.vdd)
        ckt.resistor("rb", "vdd", "d", 10e3)
        ckt.mosfet(Mosfet.from_technology("m1", "d", "d", "0", "0", tech90,
                                          "n", w_m=1e-6, l_m=0.09e-6))
        op = dc_operating_point(ckt)
        vd = op.voltage("d")
        assert tech90.vt0_n < vd < tech90.vdd
        # KCL at the drain node.
        i_r = (tech90.vdd - vd) / 10e3
        assert op.device_op("m1").ids_a == pytest.approx(i_r, rel=1e-4)

    def test_voltages_helper(self, tech90):
        ckt = Circuit("v")
        ckt.voltage_source("v1", "a", "0", 1.0)
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.resistor("r2", "b", "0", 1e3)
        op = dc_operating_point(ckt)
        assert op.voltages(["a", "b", "0"]) == pytest.approx([1.0, 0.5, 0.0])

    def test_device_op_type_check(self, tech90):
        ckt = Circuit("t")
        ckt.voltage_source("v1", "a", "0", 1.0)
        ckt.resistor("r1", "a", "0", 1e3)
        op = dc_operating_point(ckt)
        with pytest.raises(TypeError):
            op.device_op("r1")
        with pytest.raises(TypeError):
            op.source_current("r1")

    def test_all_device_ops(self, tech90):
        ckt = Circuit("all")
        ckt.voltage_source("vdd", "vdd", "0", tech90.vdd)
        ckt.resistor("rb", "vdd", "d", 10e3)
        ckt.mosfet(Mosfet.from_technology("m1", "d", "d", "0", "0", tech90,
                                          "n", w_m=1e-6, l_m=0.09e-6))
        ops = dc_operating_point(ckt).all_device_ops()
        assert set(ops) == {"m1"}


class TestNewtonSolver:
    def test_linear_system_one_iteration(self):
        def stamp(st, x):
            st.conductance(0, -1, 1e-3)
            st.current(0, 1e-3)

        x = newton_solve(stamp, size=1, n_nodes=1)
        assert x[0] == pytest.approx(1.0)

    def test_nonconvergent_raises(self):
        # A pathological oscillating "device".
        state = {"n": 0}

        def stamp(st, x):
            state["n"] += 1
            st.conductance(0, -1, 1e-3)
            st.current(0, 1e-3 if state["n"] % 2 else -1e-3)

        with pytest.raises(ConvergenceError):
            newton_solve(stamp, size=1, n_nodes=1,
                         options=NewtonOptions(max_iterations=20))

    def test_damping_limits_step(self):
        seen = []

        def stamp(st, x):
            seen.append(float(x[0]))
            st.conductance(0, -1, 1e-3)
            st.current(0, 10e-3)  # wants to jump to 10 V

        newton_solve(stamp, size=1, n_nodes=1,
                     options=NewtonOptions(damping_v=0.5))
        # First update must be clamped to 0.5 V.
        assert seen[1] == pytest.approx(0.5)

    def test_bad_x0_shape_rejected(self):
        def stamp(st, x):
            st.conductance(0, -1, 1.0)

        with pytest.raises(ValueError):
            newton_solve(stamp, size=1, n_nodes=1, x0=np.zeros(3))


class TestDcSweep:
    def test_sweep_restores_spec(self, tech90):
        ckt = Circuit("s")
        vs = ckt.voltage_source("v1", "a", "0", 0.7)
        ckt.resistor("r1", "a", "0", 1e3)
        original = vs.spec
        dc_sweep(ckt, "v1", [0.0, 0.5, 1.0])
        assert vs.spec is original

    def test_sweep_values_tracked(self, tech90):
        ckt = Circuit("s")
        ckt.voltage_source("v1", "a", "0", 0.0)
        ckt.resistor("r1", "a", "0", 1e3)
        sols = dc_sweep(ckt, "v1", [0.0, 0.5, 1.0])
        assert [s.voltage("a") for s in sols] == pytest.approx([0.0, 0.5, 1.0])

    def test_sweep_mosfet_iv_monotone(self, tech90):
        ckt = Circuit("iv")
        ckt.voltage_source("vg", "g", "0", 0.9)
        ckt.voltage_source("vd", "d", "0", 0.0)
        ckt.mosfet(Mosfet.from_technology("m1", "d", "g", "0", "0", tech90,
                                          "n", w_m=1e-6, l_m=0.09e-6))
        sols = dc_sweep(ckt, "vd", np.linspace(0.0, 1.2, 13))
        ids = [-s.source_current("vd") for s in sols]
        assert all(b >= a - 1e-12 for a, b in zip(ids, ids[1:]))
        assert ids[-1] > 1e-5

    def test_sweep_voltages_match_per_point_reads(self, tech90):
        ckt = Circuit("iv")
        ckt.voltage_source("vg", "g", "0", 0.9)
        ckt.voltage_source("vd", "d", "0", 0.0)
        ckt.resistor("rd", "d", "x", 1e3)
        ckt.mosfet(Mosfet.from_technology("m1", "x", "g", "0", "0", tech90,
                                          "n", w_m=1e-6, l_m=0.09e-6))
        sols = dc_sweep(ckt, "vd", np.linspace(0.0, 1.2, 7))
        names = ("x", "0", "d")
        got = sweep_voltages(sols, names)
        assert got.shape == (3, 7)
        expected = np.array([[s.voltage(n) for s in sols] for n in names])
        np.testing.assert_array_equal(got, expected)
        assert sweep_voltages([], names).shape == (3, 0)

    def test_sweep_rejects_non_source(self, tech90):
        ckt = Circuit("s")
        ckt.voltage_source("v1", "a", "0", 1.0)
        ckt.resistor("r1", "a", "0", 1e3)
        with pytest.raises(TypeError):
            dc_sweep(ckt, "r1", [1.0])


class TestEngineCacheLifetime:
    """The per-circuit DC and batch engine caches are keyed weakly on
    the circuit; nothing an engine holds may reference the circuit back,
    or no cache entry would ever die."""

    def test_engines_die_with_their_circuit(self, tech90):
        import gc

        from repro.circuit import batch, dc
        from repro.circuits import differential_pair

        gc.collect()
        baseline = (len(dc._ENGINES), len(batch._BATCH_ENGINES))
        fx = differential_pair(tech90)
        circuit = fx.circuit
        vcm = circuit["vinp"].spec.dc_value()
        dc_operating_point(circuit)
        dc_sweep(circuit, "vinp", np.linspace(vcm - 0.1, vcm + 0.1, 5),
                 batch=True)
        assert len(dc._ENGINES) == baseline[0] + 1
        assert len(batch._BATCH_ENGINES) == baseline[1] + 1
        del fx, circuit
        gc.collect()
        assert (len(dc._ENGINES), len(batch._BATCH_ENGINES)) == baseline

    def test_sram_probe_and_engines_die_with_the_fixture(self, tech90):
        # The SRAM probe cache is keyed weakly on the cell's circuit and
        # the probe holds only the cell's elements, so dropping the
        # fixture frees the probe and both engines.
        import gc
        import weakref

        from repro.circuit import dc
        from repro.circuits import digital, sram_cell, sram_hold_butterfly

        gc.collect()
        baseline = (len(dc._ENGINES), len(digital._PROBES))
        fx = sram_cell(tech90)
        sram_hold_butterfly(fx, n_points=11)
        dc_operating_point(fx.circuit)
        probe = weakref.ref(digital._PROBES[fx.circuit][1]["butterfly"])
        assert (len(dc._ENGINES), len(digital._PROBES)) == (
            baseline[0] + 2, baseline[1] + 1)
        del fx
        gc.collect()
        assert probe() is None
        assert (len(dc._ENGINES), len(digital._PROBES)) == baseline

    def test_replicas_rebind_to_themselves(self, tech90):
        # Circuits copied for parallel workers carry their own binding
        # token, so a replica never mistakes the original's bindings for
        # its own (and vice versa).
        from repro.circuits import differential_pair
        from repro.parallel import clone_fixture

        fx = differential_pair(tech90)
        reference = dc_operating_point(fx.circuit).x
        clone = clone_fixture(fx)
        assert clone.circuit._binding is not fx.circuit._binding
        for element in clone.circuit.elements:
            assert element.bound_by is clone.circuit._binding
        np.testing.assert_array_equal(
            dc_operating_point(clone.circuit).x, reference)
