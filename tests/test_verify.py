"""The differential verification subsystem (`repro verify`).

Covers the oracle closed forms, cross-path differential agreement, the
golden artifact store round-trip, and — critically — that deliberately
perturbed models and solver constants are *caught*: a verification gate
that cannot fail is worthless.
"""

import json
import math

import numpy as np
import pytest

from repro.circuit import NewtonOptions
from repro.cli import main
from repro.verify import (
    BATCH_AGREEMENT_FACTORS,
    GoldenDrift,
    GoldenError,
    Quantity,
    Tolerance,
    check_oracle,
    default_oracles,
    diff_goldens,
    load_goldens,
    load_manifest,
    run_corpus,
    run_differential,
    run_experiments,
    ulp_diff,
    write_goldens,
)
from repro.verify.oracles import (
    MosfetRegionOracle,
    RcStepOracle,
    ResistiveLadderOracle,
)


# ----------------------------------------------------------------------
# Tolerance and ULP plumbing
# ----------------------------------------------------------------------
class TestTolerance:
    def test_bound_combines_rtol_and_atol(self):
        tol = Tolerance(rtol=1e-3, atol=1e-6)
        assert tol.bound(2.0) == pytest.approx(1e-6 + 2e-3)
        assert tol.bound(-2.0) == pytest.approx(1e-6 + 2e-3)

    def test_dict_round_trip(self):
        tol = Tolerance(rtol=1e-3, atol=1e-6, ulps=8, note="why")
        back = Tolerance.from_dict(tol.to_dict())
        assert (back.rtol, back.atol, back.ulps, back.note) == \
            (1e-3, 1e-6, 8, "why")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Tolerance(rtol=-1e-3)


class TestUlpDiff:
    def test_equal_is_zero(self):
        assert ulp_diff(1.5, 1.5) == 0.0
        assert ulp_diff(0.0, -0.0) == 0.0

    def test_adjacent_doubles_are_one(self):
        x = 1.0
        assert ulp_diff(x, math.nextafter(x, 2.0)) == 1.0
        assert ulp_diff(-x, math.nextafter(-x, -2.0)) == 1.0

    def test_sign_straddle_counts_through_zero(self):
        tiny = 5e-324  # smallest subnormal
        assert ulp_diff(-tiny, tiny) == 2.0

    def test_non_finite_is_inf(self):
        assert ulp_diff(float("nan"), 1.0) == math.inf
        assert ulp_diff(float("inf"), 1.0) == math.inf


# ----------------------------------------------------------------------
# Oracle closed forms
# ----------------------------------------------------------------------
class TestOracles:
    @pytest.mark.parametrize("oracle", default_oracles(),
                             ids=lambda o: o.name)
    def test_every_path_within_band(self, oracle):
        deviations = check_oracle(oracle)
        assert deviations, "oracle produced no checks"
        bad = [d for d in deviations if not d.passed]
        assert not bad, "\n".join(
            f"{d.subject}:{d.path}:{d.quantity} err={d.error:.3g} "
            f"bound={d.bound:.3g}" for d in bad)

    def test_ladder_analytic_is_the_divider_law(self):
        oracle = ResistiveLadderOracle(n_rungs=4, r_ohms=2e3, vdd_v=1.0)
        ref = oracle.analytic()
        assert ref["v_n1_v"] == pytest.approx(0.75)
        assert ref["v_n3_v"] == pytest.approx(0.25)
        assert ref["i_supply_a"] == pytest.approx(1.0 / 8e3)

    def test_mosfet_oracle_bias_lands_in_its_region(self):
        from repro.circuit import dc_operating_point

        for region in MosfetRegionOracle.REGIONS:
            oracle = MosfetRegionOracle(region)
            op = dc_operating_point(oracle.build())
            got = op.all_device_ops()["m1"].region
            expected = ("cutoff" if region == "subthreshold" else region)
            assert got in (region, expected), \
                f"{region} bias solved into {got}"

    def test_rc_trapezoidal_is_second_order(self):
        # Halving dt must shrink the trapezoidal error ~4x (and the
        # measured error must actually use the band's headroom, i.e.
        # not be spuriously zero).
        errors = []
        for ppt in (25, 50):
            oracle = RcStepOracle(points_per_tau=ppt)
            got = oracle.measure("tran.trap")["v_at_1tau_v"]
            ref = oracle.analytic()["v_at_1tau_v"]
            errors.append(abs(got - ref))
        assert errors[0] > 0.0
        assert errors[0] / errors[1] > 2.5

    def test_unknown_path_raises(self):
        with pytest.raises(ValueError, match="unknown solver path"):
            ResistiveLadderOracle().measure("ac.noise")


# ----------------------------------------------------------------------
# Differential harness
# ----------------------------------------------------------------------
class TestDifferential:
    def test_quick_harness_is_clean(self):
        report = run_differential(quick=True)
        assert report.n_checks > 40
        assert report.passed, "\n".join(
            f"{d.subject}:{d.path} err={d.error:.3g} bound={d.bound:.3g}"
            for d in report.failures)
        # Cross-path corpus rows all present.
        subjects = {d.subject for d in report.deviations}
        for name in ("differential_pair", "inverter_vtc",
                     "simple_current_mirror", "differential_pair.mc"):
            assert name in subjects

    def test_corpus_classes_have_documented_factors(self, tech90):
        from repro.verify.differential import _batch_corpus

        for name, *_ in _batch_corpus(tech90):
            assert name in BATCH_AGREEMENT_FACTORS, \
                f"corpus circuit {name} has no documented batch factor"

    def test_mc_backends_bit_identical(self):
        report = run_differential(quick=True)
        mc = [d for d in report.deviations
              if d.subject == "differential_pair.mc"
              and d.path in ("mc.thread", "mc.process")]
        assert mc
        for dev in mc:
            assert dev.error == 0.0 and dev.ulp == 0.0

    def test_report_serialises(self):
        report = run_differential(quick=True)
        payload = report.to_dict()
        assert payload["passed"] is True
        assert payload["n_checks"] == report.n_checks
        worst = report.worst_per_subject()
        assert all(d.margin <= 1.0 for d in worst.values())

    def test_perturbed_gmin_is_caught(self, monkeypatch):
        # A 1e-5 S shunt at every node is a solver-constant bug the
        # ladder oracle's gmin-leakage band must reject.
        orig_init = NewtonOptions.__init__

        def leaky_init(self, *args, **kwargs):
            orig_init(self, *args, **kwargs)
            self.gmin = 1e-5

        monkeypatch.setattr(NewtonOptions, "__init__", leaky_init)
        deviations = check_oracle(ResistiveLadderOracle(),
                                  paths=["dc.scalar"])
        assert any(not d.passed for d in deviations)


# ----------------------------------------------------------------------
# Golden artifact store
# ----------------------------------------------------------------------
def _toy_results():
    return {
        "EX": {
            "alpha": Quantity(2.0, Tolerance(rtol=1e-6)),
            "beta": Quantity(-0.5, Tolerance(atol=1e-9)),
        },
        "EY": {"gamma": Quantity(10.0, Tolerance(rtol=1e-3))},
    }


class TestGoldenStore:
    def test_write_load_diff_round_trip(self, tmp_path):
        results = _toy_results()
        write_goldens(results, str(tmp_path))
        stored = load_goldens(str(tmp_path))
        assert set(stored) == {"EX", "EY"}
        assert stored["EX"]["alpha"].value == 2.0
        assert stored["EX"]["alpha"].tol.rtol == 1e-6
        assert diff_goldens(results, stored) == []

    def test_drift_named_and_banded(self, tmp_path):
        write_goldens(_toy_results(), str(tmp_path))
        stored = load_goldens(str(tmp_path))
        moved = _toy_results()
        moved["EX"]["alpha"] = Quantity(2.001)
        drifts = diff_goldens(moved, stored)
        assert len(drifts) == 1
        d = drifts[0]
        assert (d.kind, d.experiment, d.quantity) == \
            (GoldenDrift.DRIFT, "EX", "alpha")
        assert "EX.alpha" in d.describe()
        assert d.error == pytest.approx(1e-3)

    def test_within_band_is_not_drift(self, tmp_path):
        write_goldens(_toy_results(), str(tmp_path))
        stored = load_goldens(str(tmp_path))
        moved = _toy_results()
        moved["EY"]["gamma"] = Quantity(10.0 * (1 + 5e-4))
        assert diff_goldens(moved, stored) == []

    def test_missing_and_new_quantity_kinds(self, tmp_path):
        write_goldens(_toy_results(), str(tmp_path))
        stored = load_goldens(str(tmp_path))
        changed = _toy_results()
        del changed["EX"]["beta"]
        changed["EX"]["delta"] = Quantity(1.0)
        kinds = {(d.kind, d.quantity)
                 for d in diff_goldens(changed, stored)}
        assert kinds == {(GoldenDrift.MISSING_QUANTITY, "beta"),
                         (GoldenDrift.NEW_QUANTITY, "delta")}

    def test_experiment_without_golden_is_flagged(self, tmp_path):
        write_goldens({"EX": _toy_results()["EX"]}, str(tmp_path))
        stored = load_goldens(str(tmp_path))
        drifts = diff_goldens(_toy_results(), stored)
        assert [d.kind for d in drifts] == [GoldenDrift.MISSING_EXPERIMENT]
        assert drifts[0].experiment == "EY"

    def test_merge_keeps_absent_experiments(self, tmp_path):
        write_goldens(_toy_results(), str(tmp_path))
        write_goldens({"EX": {"alpha": Quantity(3.0)}}, str(tmp_path))
        stored = load_goldens(str(tmp_path))
        assert stored["EX"]["alpha"].value == 3.0
        assert stored["EY"]["gamma"].value == 10.0

    def test_manifest_referencing_missing_file_raises(self, tmp_path):
        write_goldens(_toy_results(), str(tmp_path))
        (tmp_path / "EY.json").unlink()
        with pytest.raises(GoldenError, match="EY.json"):
            load_goldens(str(tmp_path))

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(GoldenError, match="update-golden"):
            load_manifest(str(tmp_path))

    def test_corrupt_manifest_raises(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(GoldenError, match="corrupt"):
            load_manifest(str(tmp_path))

    def test_nan_result_is_drift(self, tmp_path):
        write_goldens(_toy_results(), str(tmp_path))
        stored = load_goldens(str(tmp_path))
        moved = _toy_results()
        moved["EX"]["alpha"] = Quantity(float("nan"))
        drifts = diff_goldens(moved, stored)
        assert any(d.kind == GoldenDrift.DRIFT and d.quantity == "alpha"
                   for d in drifts)


# ----------------------------------------------------------------------
# Experiments registry
# ----------------------------------------------------------------------
class TestExperiments:
    def test_fast_tier_runs_and_is_banded(self):
        results = run_experiments(include_slow=False)
        assert len(results) >= 9
        for exp_id, quantities in results.items():
            assert quantities, f"{exp_id} produced nothing"
            for name, q in quantities.items():
                assert math.isfinite(q.value), f"{exp_id}.{name}"
                assert q.tol.bound(q.value) > 0.0

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="E99"):
            run_experiments(ids=["E99"])

    def test_id_subset(self):
        results = run_experiments(ids=["E6", "E7"])
        assert set(results) == {"E6", "E7"}


# ----------------------------------------------------------------------
# The CLI gate end-to-end
# ----------------------------------------------------------------------
@pytest.fixture()
def golden_dir(tmp_path):
    """Fresh fast-tier goldens generated through the real CLI flow."""
    path = tmp_path / "goldens"
    code = main(["verify", "--update-golden", "--quick",
                 "--skip-differential", "--goldens", str(path)])
    assert code == 0
    return path


class TestVerifyCli:
    def test_round_trip_passes(self, golden_dir, capsys):
        code = main(["verify", "--quick", "--skip-differential",
                     "--goldens", str(golden_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS (no drift)" in out

    def test_perturbed_model_exits_2_naming_quantities(
            self, golden_dir, monkeypatch, capsys):
        from repro.aging.nbti import NbtiModel

        orig = NbtiModel.prefactor
        monkeypatch.setattr(
            NbtiModel, "prefactor",
            lambda self, eox, t_k: 1.2 * orig(self, eox, t_k))
        code = main(["verify", "--quick", "--skip-differential",
                     "--goldens", str(golden_dir)])
        out = capsys.readouterr().out
        assert code == 2
        assert "E6.dvt_10yr_v" in out
        assert "FAIL" in out

    def test_perturbed_solver_constant_exits_2(self, golden_dir,
                                               monkeypatch, capsys):
        orig_init = NewtonOptions.__init__

        def leaky_init(self, *args, **kwargs):
            orig_init(self, *args, **kwargs)
            self.gmin = 1e-5

        monkeypatch.setattr(NewtonOptions, "__init__", leaky_init)
        code = main(["verify", "--quick", "--goldens", str(golden_dir)])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL" in out
        assert "ladder" in out  # the linear oracle names the culprit

    def test_report_file_written(self, golden_dir, tmp_path):
        report_path = tmp_path / "verify-report.txt"
        code = main(["verify", "--quick", "--skip-differential",
                     "--goldens", str(golden_dir),
                     "--report", str(report_path)])
        assert code == 0
        assert "golden artifacts" in report_path.read_text()

    def test_missing_goldens_is_hard_error(self, tmp_path, capsys):
        code = main(["verify", "--quick", "--skip-differential",
                     "--goldens", str(tmp_path / "nowhere")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_quick_update_merges_over_full_store(self, golden_dir):
        # A second --quick update must not orphan anything: manifest
        # still loads and every referenced file exists.
        code = main(["verify", "--update-golden", "--quick",
                     "--skip-differential", "--goldens", str(golden_dir)])
        assert code == 0
        stored = load_goldens(str(golden_dir))
        assert len(stored) >= 9


# ----------------------------------------------------------------------
# Committed goldens (repo-level contract)
# ----------------------------------------------------------------------
class TestCommittedGoldens:
    def test_committed_store_is_complete(self):
        import pathlib

        repo_goldens = pathlib.Path(__file__).parent.parent / "goldens"
        stored = load_goldens(str(repo_goldens))
        assert set(stored) == {f"E{k}" for k in range(1, 16)}

    def test_fast_tier_matches_committed_goldens(self):
        import pathlib

        repo_goldens = pathlib.Path(__file__).parent.parent / "goldens"
        stored = load_goldens(str(repo_goldens))
        results = run_experiments(include_slow=False)
        drifts = diff_goldens(results, stored)
        assert drifts == [], "\n".join(d.describe() for d in drifts)
