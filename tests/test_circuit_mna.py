"""Unit tests for the MNA stamper and solvers."""

import builtins

import numpy as np
import pytest

from repro.circuit import SingularCircuitError, SparsityPlan, Stamper, sparse_mode
from repro.circuit import mna as mna_module


class TestStamperPrimitives:
    def test_ground_entries_ignored(self):
        st = Stamper(2)
        st.matrix(-1, 0, 5.0)
        st.matrix(0, -1, 5.0)
        st.rhs(-1, 1.0)
        assert np.all(st.a == 0.0)
        assert np.all(st.b == 0.0)

    def test_conductance_stamp_pattern(self):
        st = Stamper(2)
        st.conductance(0, 1, 2.0)
        assert st.a[0, 0] == pytest.approx(2.0)
        assert st.a[1, 1] == pytest.approx(2.0)
        assert st.a[0, 1] == pytest.approx(-2.0)
        assert st.a[1, 0] == pytest.approx(-2.0)

    def test_conductance_to_ground(self):
        st = Stamper(2)
        st.conductance(0, -1, 3.0)
        assert st.a[0, 0] == pytest.approx(3.0)
        assert st.a[1, 1] == pytest.approx(0.0)

    def test_current_injection_sign(self):
        st = Stamper(1)
        st.current(0, 1e-3)
        assert st.b[0] == pytest.approx(1e-3)

    def test_clear(self):
        st = Stamper(2)
        st.conductance(0, 1, 1.0)
        st.current(0, 1.0)
        st.clear()
        assert np.all(st.a == 0.0)
        assert np.all(st.b == 0.0)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            Stamper(0)


class TestSolve:
    def test_voltage_divider(self):
        # 1 V source via branch eq, two 1 kΩ resistors: mid node at 0.5 V.
        st = Stamper(3)  # nodes: top(0), mid(1); branch: 2
        st.conductance(0, 1, 1e-3)
        st.conductance(1, -1, 1e-3)
        st.branch_voltage(0, -1, 2, rhs=1.0)
        x = st.solve()
        assert x[0] == pytest.approx(1.0)
        assert x[1] == pytest.approx(0.5)
        assert x[2] == pytest.approx(-0.5e-3)  # current out of + terminal

    def test_current_source_into_resistor(self):
        st = Stamper(1)
        st.conductance(0, -1, 1e-3)
        st.current(0, 1e-3)
        x = st.solve()
        assert x[0] == pytest.approx(1.0)

    def test_transconductance_stamp(self):
        # VCCS driven by a fixed node voltage: i = gm·v_c into load.
        st = Stamper(3)
        st.branch_voltage(0, -1, 2, rhs=0.5)   # v(0) = 0.5 V
        st.conductance(1, -1, 1e-3)            # 1 kΩ load at node 1
        st.transconductance(-1, 1, 0, -1, 2e-3)  # 2 mS into node 1
        x = st.solve()
        # i = gm*v = 1 mA into node 1 → 1 V across 1 kΩ.
        assert x[1] == pytest.approx(1.0)

    def test_singular_matrix_raises(self):
        st = Stamper(2)
        st.conductance(0, 1, 1.0)  # both nodes floating wrt ground
        with pytest.raises(SingularCircuitError):
            st.solve()

    def test_gmin_fixes_floating_node(self):
        st = Stamper(2)
        st.conductance(0, 1, 1.0)
        st.add_gmin(2, 1e-12)
        x = st.solve()
        assert np.allclose(x, 0.0)

    def test_gmin_rejects_negative(self):
        st = Stamper(2)
        with pytest.raises(ValueError):
            st.add_gmin(2, -1.0)

    def test_complex_solve(self):
        st = Stamper(1, dtype=complex)
        st.conductance(0, -1, 1e-3 + 1e-3j)
        st.current(0, 1e-3)
        x = st.solve()
        assert x[0] == pytest.approx(1.0 / (1.0 + 1.0j))


def _divider_stamper():
    """The voltage-divider system from TestSolve, reusable."""
    st = Stamper(3)
    st.conductance(0, 1, 1e-3)
    st.conductance(1, -1, 1e-3)
    st.branch_voltage(0, -1, 2, rhs=1.0)
    return st


class TestDgesvFallback:
    """The direct-LAPACK fast path must degrade to numpy when absent."""

    def test_solve_without_dgesv(self, monkeypatch):
        monkeypatch.setattr(mna_module, "_dgesv", None)
        x = _divider_stamper().solve()
        assert x[1] == pytest.approx(0.5)

    def test_singular_without_dgesv(self, monkeypatch):
        monkeypatch.setattr(mna_module, "_dgesv", None)
        st = Stamper(2)
        st.conductance(0, 1, 1.0)
        with pytest.raises(SingularCircuitError):
            st.solve()

    def test_import_error_leaves_none(self, monkeypatch):
        """With scipy's LAPACK blocked, the first solve binds _dgesv to
        None and still solves via the numpy path."""
        real_import = builtins.__import__

        def blocked(name, *args, **kwargs):
            if name.startswith("scipy.linalg"):
                raise ImportError(f"blocked for test: {name}")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", blocked)
        monkeypatch.setattr(mna_module, "_dgesv", mna_module._UNBOUND)
        assert _divider_stamper().solve()[1] == pytest.approx(0.5)
        assert mna_module._dgesv is None
        assert not mna_module.dgesv_available()


@pytest.mark.skipif(not mna_module.sparse_available(),
                    reason="sparse path needs scipy.sparse")
class TestSparsityPlan:
    def _plan_for(self, st):
        rec = mna_module.CoordinateRecorder(st.size)
        nz = np.argwhere(st.a != 0.0)
        for row, col in nz:
            rec.matrix(int(row), int(col))
        return SparsityPlan(st.size, rec.rows, rec.cols)

    def test_sparse_matches_dense(self):
        st = _divider_stamper()
        dense = st.solve()
        st.plan = self._plan_for(st)
        sparse = st.solve()
        assert np.allclose(sparse, dense, rtol=0, atol=1e-14)
        assert st.plan.factorizations == 1

    def test_singular_sparse_raises(self):
        st = Stamper(2)
        st.conductance(0, 1, 1.0)
        st.plan = self._plan_for(st)
        with pytest.raises(SingularCircuitError):
            st.solve()

    def test_fill_ratio_and_nnz(self):
        plan = SparsityPlan(3, [0, 1, 0, 0], [0, 1, 2, 0])
        assert plan.nnz == 3  # (0,0) deduped
        assert plan.fill_ratio() == pytest.approx(3.0 / 9.0)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            SparsityPlan(3, [], [])

    def test_sparse_mode_scopes_threshold(self):
        before = mna_module.sparse_min_size()
        with sparse_mode(1):
            assert mna_module.sparse_min_size() == 1
            with sparse_mode(10**9):
                assert mna_module.sparse_min_size() == 10**9
            assert mna_module.sparse_min_size() == 1
        assert mna_module.sparse_min_size() == before

    def test_engine_routes_through_plan(self):
        """A DC engine built under sparse_mode(1) factorizes via splu.

        The threshold is read when the engine is built and engines are
        cached per circuit object, so each leg builds its own fixture.
        """
        from repro.circuit.dc import dc_engine, dc_operating_point
        from repro.circuits import five_transistor_ota
        from repro.technology import get_node

        tech = get_node("90nm")
        dense = dc_operating_point(five_transistor_ota(tech).circuit)
        with sparse_mode(1):
            fx = five_transistor_ota(tech)
            sparse = dc_operating_point(fx.circuit)
            engine = dc_engine(fx.circuit)
        assert engine.sparsity_plan is not None
        assert engine.sparsity_plan.factorizations > 0
        assert np.allclose(sparse.x, dense.x, rtol=0, atol=1e-9)
