"""Resilience-layer tests: solver ladder telemetry, fault injection,
quarantine, checkpoint/resume and graceful degradation.

Every failure path the engines claim to absorb is *proven* here by
injecting the corresponding fault (see :mod:`repro.faultinject`) and
asserting the run completes with the documented diagnostics.
"""

import math
import pickle

import numpy as np
import pytest

from repro.checkpoint import (
    MC_CHECKPOINT_SCHEMA,
    CheckpointError,
    McCheckpointStore,
    RunInterrupted,
    atomic_write_json,
)
from repro.circuit import (
    Circuit,
    ConvergenceError,
    ConvergenceReport,
    Mosfet,
    NewtonOptions,
    SingularCircuitError,
    StrategyAttempt,
    dc_operating_point,
    transient,
)
from repro.circuits import differential_pair, input_referred_offset_v
from repro.core import MonteCarloYield, SampleEvaluationError, Specification
from repro.core.corners import CornerAnalysis
from repro.faultinject import (
    WorkerKilledError,
    current_sample,
    failing_extractor,
    force_nonconvergence,
    inject_open,
    inject_short,
    inject_stuck_parameter,
    interrupting_extractor,
    killing_extractor,
    set_current_sample,
)
from repro.parallel import FailureLedger, FailureRecord
from repro.report import render_failure_ledger

FULL_LADDER = ["newton", "gmin-stepping", "source-stepping",
               "pseudo-transient"]


def _offset(fixture) -> float:
    return input_referred_offset_v(fixture)


def offset_spec(extractor=_offset, limit_v=5e-3):
    return Specification("offset", extractor, lower=-limit_v, upper=limit_v)


# ----------------------------------------------------------------------
# Solver failure telemetry
# ----------------------------------------------------------------------
class TestConvergenceReport:
    def _poisoned_fixture(self, tech90):
        fx = differential_pair(tech90)
        force_nonconvergence(fx.circuit, fx.circuit.mosfets[0].name)
        return fx

    def test_full_ladder_recorded_in_order(self, tech90):
        fx = self._poisoned_fixture(tech90)
        with pytest.raises(ConvergenceError) as excinfo:
            dc_operating_point(fx.circuit)
        report = excinfo.value.report
        assert report is not None
        assert report.analysis == "dc"
        assert report.strategy_names() == FULL_LADDER

    def test_report_carries_residual_and_iterations(self, tech90):
        fx = self._poisoned_fixture(tech90)
        with pytest.raises(ConvergenceError) as excinfo:
            dc_operating_point(fx.circuit)
        exc = excinfo.value
        assert exc.iterations == exc.report.total_iterations > 0
        for attempt in exc.report.strategies:
            assert not attempt.converged
        assert "dc solve failed" in exc.report.summary()

    def test_nan_guard_classifies_not_linalgerror(self, tech90):
        # The NaN residual guard must raise ConvergenceError — a bare
        # LinAlgError (or an infinite loop) may never escape the solver.
        fx = self._poisoned_fixture(tech90)
        with pytest.raises(ConvergenceError):
            dc_operating_point(fx.circuit)

    def test_report_round_trips_through_dict(self):
        report = ConvergenceReport(
            analysis="dc",
            strategies=[StrategyAttempt(name="newton", iterations=150,
                                        converged=False, final_residual=0.5,
                                        detail="")],
            worst_unknown="out", worst_device="m1", message="boom")
        clone = ConvergenceReport.from_dict(report.to_dict())
        assert clone.strategy_names() == ["newton"]
        assert clone.worst_device == "m1"
        assert clone.final_residual == 0.5

    def test_worst_device_attribution(self, tech90):
        fx = self._poisoned_fixture(tech90)
        with pytest.raises(ConvergenceError) as excinfo:
            dc_operating_point(fx.circuit)
        report = excinfo.value.report
        # The worst unknown is labelled with a netlist name, not a raw
        # MNA index.
        assert report.worst_unknown is None or \
            isinstance(report.worst_unknown, str)


class TestPathologicalCorpus:
    """The netlists a million-sample Monte-Carlo run inevitably draws."""

    def test_floating_node_is_classified(self, tech90):
        # Two parallel voltage sources make the MNA matrix structurally
        # singular; the solver must classify this, never leak a raw
        # LinAlgError.
        ckt = Circuit("vloop")
        ckt.voltage_source("v1", "a", "0", 1.0)
        ckt.voltage_source("v2", "a", "0", 2.0)
        ckt.resistor("r1", "a", "0", 1e3)
        with pytest.raises(SingularCircuitError):
            dc_operating_point(ckt)

    def test_capacitor_only_node_converges_via_gmin_floor(self, tech90):
        # A node with only a capacitor is DC-floating; the gmin floor
        # pins it at 0 V instead of blowing up the factorisation.
        ckt = Circuit("float")
        ckt.voltage_source("v1", "a", "0", 1.0)
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.capacitor("c1", "c", "0", 1e-12)  # c is DC-floating
        ckt.resistor("r2", "b", "0", 1e3)
        op = dc_operating_point(ckt)
        assert op.voltage("c") == pytest.approx(0.0, abs=1e-6)

    def test_zero_gm_loop(self, tech90):
        # Cross-coupled gate loop with zero-kp devices: no gm anywhere
        # in the loop.  Must either converge or fail with a full report.
        ckt = Circuit("zero-gm")
        ckt.voltage_source("vdd", "vdd", "0", tech90.vdd)
        ckt.resistor("r1", "vdd", "x", 1e5)
        ckt.resistor("r2", "vdd", "y", 1e5)
        for name, d, g in (("m1", "x", "y"), ("m2", "y", "x")):
            device = Mosfet.from_technology(name, d, g, "0", "0", tech90,
                                            "n", w_m=1e-6, l_m=1e-6)
            ckt.mosfet(device)
        inject_stuck_parameter(ckt, "m1", "kp_a_per_v2", 1e-30)
        inject_stuck_parameter(ckt, "m2", "kp_a_per_v2", 1e-30)
        try:
            op = dc_operating_point(ckt)
            # Dead devices: the resistors pull both drains to VDD.
            assert op.voltage("x") == pytest.approx(tech90.vdd, rel=1e-3)
        except ConvergenceError as exc:
            assert exc.report is not None
            assert exc.report.strategy_names() == FULL_LADDER

    def test_bistable_latch_settles_or_reports(self, tech90):
        # A live cross-coupled latch is bistable: the ladder must drive
        # it into ONE stable state (any), or fail with full telemetry.
        ckt = Circuit("latch")
        ckt.voltage_source("vdd", "vdd", "0", tech90.vdd)
        ckt.resistor("r1", "vdd", "x", 2e4)
        ckt.resistor("r2", "vdd", "y", 2e4)
        for name, d, g in (("m1", "x", "y"), ("m2", "y", "x")):
            ckt.mosfet(Mosfet.from_technology(name, d, g, "0", "0", tech90,
                                              "n", w_m=4e-6, l_m=0.4e-6))
        try:
            op = dc_operating_point(ckt)
            for node in ("x", "y"):
                assert -0.5 <= op.voltage(node) <= tech90.vdd + 0.5
        except ConvergenceError as exc:
            assert exc.report is not None
            assert exc.report.strategy_names() == FULL_LADDER

    def test_extreme_w_over_l(self, tech90):
        # A 10^6:1 aspect-ratio device drives enormous currents through
        # a weak resistor — numerically brutal, still classified.
        ckt = Circuit("extreme-wl")
        ckt.voltage_source("vdd", "vdd", "0", tech90.vdd)
        ckt.voltage_source("vg", "g", "0", tech90.vdd)
        ckt.resistor("r1", "vdd", "d", 1e6)
        ckt.mosfet(Mosfet.from_technology("m1", "d", "g", "0", "0", tech90,
                                          "n", w_m=1.0, l_m=1e-6))
        try:
            op = dc_operating_point(ckt)
            assert math.isfinite(op.voltage("d"))
        except ConvergenceError as exc:
            assert exc.report is not None
            assert exc.report.strategy_names() == FULL_LADDER

    def test_every_failure_carries_a_report(self, tech90):
        # Programmatic sweep: any ConvergenceError out of the public DC
        # entry point must carry a structured report.
        fx = differential_pair(tech90)
        force_nonconvergence(fx.circuit, fx.circuit.mosfets[0].name)
        with pytest.raises(ConvergenceError) as excinfo:
            dc_operating_point(fx.circuit)
        report = excinfo.value.report
        assert isinstance(report, ConvergenceReport)
        assert report.strategy_names() == FULL_LADDER


class TestTransientStepControl:
    def _rc_circuit(self):
        ckt = Circuit("rc")
        ckt.voltage_source("v1", "in", "0", 1.0)
        ckt.resistor("r1", "in", "out", 1e3)
        ckt.capacitor("c1", "out", "0", 1e-9)
        return ckt

    def test_lte_rejection_keeps_output_grid(self):
        ckt = self._rc_circuit()
        plain = transient(ckt, t_stop=1e-5, dt=1e-6)
        ckt2 = self._rc_circuit()
        tight = transient(ckt2, t_stop=1e-5, dt=1e-6, lte_rtol=1e-3)
        assert np.array_equal(plain.times, tight.times)
        # Sub-stepping only improves accuracy; both must track RC decay.
        v_plain = plain.voltage("out").values[-1]
        v_tight = tight.voltage("out").values[-1]
        assert v_plain == pytest.approx(1.0, rel=1e-2)
        assert v_tight == pytest.approx(1.0, rel=1e-2)

    def test_step_failure_reports_halving_depth(self, tech90):
        fx = differential_pair(tech90)
        op = dc_operating_point(fx.circuit)
        force_nonconvergence(fx.circuit, fx.circuit.mosfets[0].name)
        with pytest.raises(ConvergenceError) as excinfo:
            transient(fx.circuit, t_stop=1e-9, dt=1e-10, initial_op=op,
                      max_step_halvings=2)
        report = excinfo.value.report
        assert report is not None
        assert report.analysis == "transient"
        assert report.strategy_names() == ["step-halving"]
        assert "depth 2/2" in report.strategies[0].detail


# ----------------------------------------------------------------------
# Exception pickling (process-pool workers ship these across processes)
# ----------------------------------------------------------------------
class TestExceptionPickling:
    def test_convergence_error_with_report(self):
        report = ConvergenceReport(
            analysis="dc",
            strategies=[StrategyAttempt(name="newton", iterations=150,
                                        converged=False,
                                        final_residual=1.5, detail="x")],
            worst_unknown="out", worst_device="m2", message="no OP")
        exc = ConvergenceError("no OP", report=report, iterations=150,
                               final_residual=1.5, worst_index=3)
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, ConvergenceError)
        assert clone.iterations == 150
        assert clone.final_residual == 1.5
        assert clone.worst_index == 3
        assert clone.report.strategy_names() == ["newton"]
        assert clone.report.worst_device == "m2"
        assert str(clone) == str(exc)

    def test_singular_circuit_error(self):
        exc = SingularCircuitError("singular MNA matrix")
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, SingularCircuitError)
        assert str(clone) == str(exc)

    def test_sample_evaluation_error(self):
        exc = SampleEvaluationError(7, "offset", ValueError("bad node"))
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.sample_index == 7
        assert clone.spec_name == "offset"
        assert isinstance(clone.original, ValueError)
        assert str(clone) == str(exc)

    def test_run_interrupted(self, tmp_path):
        exc = RunInterrupted("stopped", checkpoint_path=tmp_path / "ck",
                             partial_result=None)
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.checkpoint_path == tmp_path / "ck"

    def test_real_solver_failure_round_trips(self, tech90):
        fx = differential_pair(tech90)
        force_nonconvergence(fx.circuit, fx.circuit.mosfets[0].name)
        with pytest.raises(ConvergenceError) as excinfo:
            dc_operating_point(fx.circuit)
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert clone.report.strategy_names() == FULL_LADDER


# ----------------------------------------------------------------------
# Fault injection → graceful degradation
# ----------------------------------------------------------------------
class TestFaultInjectionYield:
    def test_device_fault_samples_quarantined(self, tech90):
        # Samples 5 and 21 raise; the run completes, quarantines them,
        # and the confidence interval widens by exactly their mass.
        fx = differential_pair(tech90)
        spec = offset_spec(failing_extractor(_offset, fail_on=[5, 21]))
        mc = MonteCarloYield(fx, [spec], tech90)
        result = mc.run(n_samples=32, seed=1, chunk_size=8)
        assert result.is_degraded
        assert result.n_quarantined == 2
        assert result.ledger.quarantined_indices() == [5, 21]
        assert result.failure_counts == {"ValueError": 2}
        assert np.isnan(result.values["offset"][5])
        assert not result.passes[5]
        lo, hi = result.confidence_interval()
        lo_plain, hi_plain = result.wilson_interval()
        assert lo == lo_plain
        assert hi > hi_plain  # widened upward by the unresolved mass

    def test_worker_kill_quarantined(self, tech90):
        fx = differential_pair(tech90)
        spec = offset_spec(killing_extractor(_offset, kill_on=[3]))
        mc = MonteCarloYield(fx, [spec], tech90)
        result = mc.run(n_samples=16, seed=1, chunk_size=8)
        assert result.n_quarantined == 1
        assert result.failure_counts == {"WorkerKilledError": 1}
        record = result.ledger.records[0]
        assert record.index == 3
        assert record.exception_type == "WorkerKilledError"

    def test_nonconvergent_sample_carries_report(self, tech90):
        # A forced solver failure lands in the ledger WITH the full
        # convergence report (strategy ladder, residual).
        fx = differential_pair(tech90)

        def nonconvergent(fixture):
            if current_sample() == 2:
                force_nonconvergence(fixture.circuit,
                                     fixture.circuit.mosfets[0].name)
            return _offset(fixture)

        mc = MonteCarloYield(fx, [offset_spec(nonconvergent)], tech90)
        result = mc.run(n_samples=8, seed=1, chunk_size=8)
        # The poison persists on the chunk's replica, so sample 2 and
        # every later sample in its chunk fail — all quarantined, run
        # completes regardless.
        assert result.is_degraded
        assert 2 in result.ledger.quarantined_indices()
        record = next(r for r in result.ledger.records if r.index == 2)
        assert record.exception_type == "ConvergenceError"
        assert record.convergence_report is not None
        assert record.convergence_report["strategies"][0]["name"] == "newton"

    def test_injected_defects_shift_metric(self, tech90):
        # Sanity of the silicon-style defects: each rewrite survives the
        # sampler's per-sample mismatch assignment and changes the DC
        # answer.
        healthy = differential_pair(tech90)
        baseline = _offset(healthy)
        shorted = differential_pair(tech90)
        inject_short(shorted.circuit, shorted.circuit.mosfets[0].name)
        opened = differential_pair(tech90)
        inject_open(opened.circuit, opened.circuit.mosfets[0].name)
        for faulty in (shorted, opened):
            try:
                assert abs(_offset(faulty) - baseline) > 1e-6
            except (ConvergenceError, SingularCircuitError, ValueError):
                # A defect that kills convergence (or pushes the metric
                # search off its range) is also an observable change.
                pass

    def test_current_sample_context_is_cleaned_up(self, tech90):
        fx = differential_pair(tech90)
        mc = MonteCarloYield(fx, [offset_spec()], tech90)
        mc.run(n_samples=4, seed=1)
        assert current_sample() is None


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def _engine(self, tech90, extractor=_offset):
        fx = differential_pair(tech90)
        return MonteCarloYield(fx, [offset_spec(extractor)], tech90)

    def test_kill_and_resume_bit_identical(self, tech90, tmp_path):
        reference = self._engine(tech90).run(n_samples=64, seed=3,
                                             chunk_size=8)
        ckpt = tmp_path / "ck"
        interrupted = self._engine(
            tech90, interrupting_extractor(_offset, interrupt_on=37))
        with pytest.raises(RunInterrupted) as excinfo:
            interrupted.run(n_samples=64, seed=3, chunk_size=8,
                            checkpoint=ckpt)
        exc = excinfo.value
        assert exc.checkpoint_path == ckpt
        partial = exc.partial_result
        assert partial is not None
        assert 0 < partial.n_evaluated < 64
        assert partial.is_degraded
        # Completed chunks in the partial result already match.
        mask = partial.evaluated
        assert np.array_equal(partial.passes[mask], reference.passes[mask])

        resumed = self._engine(tech90).run(n_samples=64, seed=3,
                                           chunk_size=8, checkpoint=ckpt,
                                           resume=True)
        assert np.array_equal(resumed.passes, reference.passes)
        assert np.array_equal(resumed.values["offset"],
                              reference.values["offset"])
        assert resumed.yield_fraction == reference.yield_fraction
        assert not resumed.is_degraded

    def test_ledger_round_trips_through_checkpoint(self, tech90, tmp_path):
        # Quarantine records written before an interrupt must survive
        # the resume — the final ledger equals the uninterrupted one.
        ckpt = tmp_path / "ck"
        faulty = failing_extractor(_offset, fail_on=[2])
        reference = self._engine(tech90, faulty).run(n_samples=32, seed=5,
                                                     chunk_size=8)

        faulty_interrupting = interrupting_extractor(faulty,
                                                     interrupt_on=20)
        with pytest.raises(RunInterrupted):
            self._engine(tech90, faulty_interrupting).run(
                n_samples=32, seed=5, chunk_size=8, checkpoint=ckpt)
        resumed = self._engine(tech90, faulty).run(
            n_samples=32, seed=5, chunk_size=8, checkpoint=ckpt, resume=True)
        assert resumed.ledger.quarantined_indices() == \
            reference.ledger.quarantined_indices() == [2]
        assert resumed.failure_counts == reference.failure_counts

    def test_checkpoint_mismatch_refused(self, tech90, tmp_path):
        ckpt = tmp_path / "ck"
        engine = self._engine(tech90)
        engine.run(n_samples=16, seed=1, chunk_size=8, checkpoint=ckpt)
        with pytest.raises(CheckpointError, match="seed"):
            engine.run(n_samples=16, seed=2, chunk_size=8, checkpoint=ckpt,
                       resume=True)
        with pytest.raises(CheckpointError, match="n_samples"):
            engine.run(n_samples=32, seed=1, chunk_size=8, checkpoint=ckpt,
                       resume=True)

    def test_corrupt_manifest_refused(self, tech90, tmp_path):
        ckpt = tmp_path / "ck"
        engine = self._engine(tech90)
        engine.run(n_samples=16, seed=1, chunk_size=8, checkpoint=ckpt)
        (ckpt / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError, match="unreadable"):
            engine.run(n_samples=16, seed=1, chunk_size=8, checkpoint=ckpt,
                       resume=True)

    def test_atomic_write_replaces_not_truncates(self, tmp_path):
        target = tmp_path / "data.json"
        atomic_write_json(target, {"v": 1})
        atomic_write_json(target, {"v": 2})
        import json

        assert json.loads(target.read_text())["v"] == 2
        # No temp droppings left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["data.json"]

    def test_store_validates_schema(self, tmp_path):
        store = McCheckpointStore(tmp_path / "ck")
        params = {"kind": "mc-yield", "seed": 0, "n_samples": 8,
                  "chunk_size": 8, "spec_names": ["s"]}
        chunk = {"start": 0, "stop": 8,
                 "passes": np.ones(8, dtype=bool),
                 "values": {"s": np.zeros(8)},
                 "spec_passes": {"s": np.ones(8, dtype=bool)},
                 "failure_counts": {}, "ledger": []}
        store.save(params, {0: chunk})
        loaded, ledger = store.load(params)
        assert list(loaded) == [0]
        assert np.array_equal(loaded[0]["values"]["s"], np.zeros(8))
        assert len(ledger) == 0

    @staticmethod
    def _resume_refused_at_schema(tmp_path, capsys, schema):
        """Write a checkpoint, relabel its manifest ``schema`` and check
        that both the store and ``repro mc --resume`` refuse it."""
        import json

        from repro.cli import main

        ckpt = tmp_path / "ck"
        argv = ["mc", "--workload", "ring", "--samples", "8", "--seed", "1",
                "--batch-size", "4", "--quiet", "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        manifest_path = ckpt / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["schema"] == MC_CHECKPOINT_SCHEMA == 5
        manifest["schema"] = schema
        atomic_write_json(manifest_path, manifest)
        with pytest.raises(CheckpointError, match=f"schema {schema}"):
            McCheckpointStore(ckpt).load({})
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 2
        assert "checkpoint refused" in capsys.readouterr().err

    def test_schema_1_checkpoint_refused(self, tmp_path, capsys):
        # Schema-1 chunks of transient specs under batch_size came from
        # the removed lockstep integrator and hold different bits.
        self._resume_refused_at_schema(tmp_path, capsys, 1)

    def test_schema_3_checkpoint_refused(self, tmp_path, capsys):
        # Schema-3 manifests carry the removed ``jacobians`` field in
        # their accelerator manifest.
        self._resume_refused_at_schema(tmp_path, capsys, 3)

    def test_schema_4_checkpoint_refused(self, tmp_path, capsys):
        # Schema-4 manifests record the extractor by its declared
        # keywords only, not what the run computes on.
        self._resume_refused_at_schema(tmp_path, capsys, 4)


# ----------------------------------------------------------------------
# Degradation in the other engines
# ----------------------------------------------------------------------
class TestCornerDegradation:
    def test_bad_corner_is_nan_and_ledgered(self, tech90):
        fx = differential_pair(tech90)

        calls = []

        def sometimes(fixture):
            calls.append(1)
            if len(calls) == 2:  # the second PVT point evaluated
                raise ConvergenceError("injected corner failure")
            return _offset(fixture)

        spec = offset_spec(sometimes, limit_v=1.0)
        analysis = CornerAnalysis(fx, [spec], tech90,
                                  vdd_scales=[1.0],
                                  temperatures_k=[300.0])
        result = analysis.run()
        assert result.is_degraded
        assert len(result.ledger) == 1
        record = result.ledger.records[0]
        assert record.exception_type == "ConvergenceError"
        assert record.label.startswith("offset@")
        # The failed point is NaN, and NaN dominates worst_case.
        label, value = result.worst_case(spec)
        assert math.isnan(value)
        assert not result.all_pass(spec)

    def test_clean_matrix_not_degraded(self, tech90):
        fx = differential_pair(tech90)
        analysis = CornerAnalysis(fx, [offset_spec(limit_v=1.0)], tech90,
                                  vdd_scales=[1.0],
                                  temperatures_k=[300.0])
        result = analysis.run()
        assert not result.is_degraded
        assert len(result.ledger) == 0


class TestAgingEnsembleQuarantine:
    def test_bad_die_quarantined(self, tech90):
        from repro.aging import NbtiModel
        from repro.core import MissionProfile, aging_ensemble

        fx = differential_pair(tech90)
        profile = MissionProfile(n_epochs=2, duration_s=1e6,
                                 t_first_epoch_s=1e3)

        def metric(fixture):
            if current_sample() == 1:
                raise ConvergenceError("die 1 refuses to bias")
            return _offset(fixture)

        reports, ledger = aging_ensemble(
            fx, [NbtiModel(tech90.aging)], profile, {"offset": metric},
            tech90, n_samples=3, seed=0, quarantine=True)
        assert len(reports) == 3
        assert reports[0] is not None and reports[2] is not None
        assert reports[1] is None
        assert ledger.quarantined_indices() == [1]
        assert ledger.records[0].label == "mission"

    def test_default_contract_unchanged(self, tech90):
        from repro.aging import NbtiModel
        from repro.core import MissionProfile, aging_ensemble

        fx = differential_pair(tech90)
        profile = MissionProfile(n_epochs=2, duration_s=1e6,
                                 t_first_epoch_s=1e3)
        reports = aging_ensemble(
            fx, [NbtiModel(tech90.aging)], profile,
            {"offset": _offset}, tech90, n_samples=2, seed=0)
        assert len(reports) == 2
        assert all(r is not None for r in reports)


# ----------------------------------------------------------------------
# Ledger rendering and CLI exit codes
# ----------------------------------------------------------------------
class TestLedgerReporting:
    def _ledger(self):
        ledger = FailureLedger()
        ledger.add(5, ConvergenceError("no OP", iterations=150,
                                       final_residual=2.0), label="offset")
        ledger.add(9, WorkerKilledError("worker killed"), label="offset")
        return ledger

    def test_render_failure_ledger(self):
        text = render_failure_ledger(self._ledger())
        assert "ConvergenceError x1" in text
        assert "WorkerKilledError x1" in text
        assert "offset" in text
        assert "5" in text and "9" in text

    def test_render_empty_ledger_is_empty(self):
        assert render_failure_ledger(FailureLedger()) == ""

    def test_render_truncates(self):
        ledger = FailureLedger()
        for i in range(15):
            ledger.add(i, ValueError("x"), label="s")
        text = render_failure_ledger(ledger, max_rows=10)
        assert "5 more record(s)" in text

    def test_ledger_record_round_trip(self):
        ledger = self._ledger()
        clone = FailureLedger.from_list(ledger.to_list())
        assert len(clone) == 2
        assert clone.records[0].convergence_report is None or \
            isinstance(clone.records[0].convergence_report, dict)
        assert clone.counts_by_type() == ledger.counts_by_type()


class TestCliExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["mc", "--samples", "8", "--seed", "1"]) == 0
        assert "yield" in capsys.readouterr().out

    def test_degraded_run_exits_two(self, capsys, monkeypatch, tmp_path):
        import repro.cli as cli
        import repro.workloads as workloads

        # Patch the offset extractor with a sample-targeted fault.
        monkeypatch.setattr(
            workloads, "offset_extractor",
            failing_extractor(_offset, fail_on=[1]))
        code = cli.main(["mc", "--samples", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "quarantined evaluations" in out
        assert "widened" in out

    def test_hard_failure_exits_one(self, capsys):
        from repro.cli import main

        assert main(["node", "13nm"]) == 1
        assert "error" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, capsys):
        from repro.cli import main

        assert main(["mc", "--samples", "8", "--resume"]) == 1

    def test_exit_codes_documented_in_help(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["mc", "--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "130" in out

    def test_interrupt_writes_checkpoint_and_exits_130(
            self, capsys, monkeypatch, tmp_path):
        import repro.cli as cli
        import repro.workloads as workloads

        monkeypatch.setattr(
            workloads, "offset_extractor",
            interrupting_extractor(_offset, interrupt_on=40))
        ckpt = tmp_path / "ck"
        code = cli.main(["mc", "--samples", "64", "--seed", "3",
                         "--checkpoint", str(ckpt)])
        assert code == 130
        captured = capsys.readouterr()
        assert "PARTIAL" in captured.out
        assert "--resume" in captured.err
        assert (ckpt / "manifest.json").is_file()

        monkeypatch.setattr(workloads, "offset_extractor", _offset)
        code = cli.main(["mc", "--samples", "64", "--seed", "3",
                         "--checkpoint", str(ckpt), "--resume"])
        assert code == 0
