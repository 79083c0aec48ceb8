"""Resilience supervisor: probing, guards, budgets, chaos.

The contract under test (docs/robustness.md): every accelerator
failure — injected or organic — ends in a degradation, never a hang, a
crash, or a silently wrong answer.  Chaos scenarios force each
accelerator seam to fail (compile failure, singular sparse
factorization, corrupted batch lanes, hung worker under a wall-clock
budget) and assert the run completes on the proven fallback ladder: a
failed probe is visible in the ledger, a failed call is counted in
telemetry and falls back for that call alone.  Class names carry
``Chaos`` so CI's chaos-smoke job can select them with ``-k Chaos``.
"""

import os
import pickle
import shutil
import time

import numpy as np
import pytest

from repro import faultinject, resilience, telemetry
from repro.checkpoint import CheckpointError, RunInterrupted
from repro.circuit import _ckernel, dc_sweep
from repro.circuit import dc, mna
from repro.circuit.batch import BatchUnsupportedError
from repro.circuits import differential_pair, input_referred_offset_v
from repro.core import MonteCarloYield, Specification
from repro.faultinject import WorkerKilledError
from repro.parallel import FailureLedger
from repro.resilience import (
    CAPABILITY_NAMES,
    BudgetExpiredError,
    DeadlineBudget,
    admit_lanes,
    slab_bytes,
)


@pytest.fixture(autouse=True)
def fresh_supervisor():
    """Every test starts and ends with a clean supervisor: no pending
    events, no injected faults leaking across tests."""
    resilience.reset_supervisor()
    yield
    faultinject.clear_ckernel_compile_failure()
    faultinject.clear_sparse_singular()
    resilience.reset_supervisor()


def _offset(fixture) -> float:
    return input_referred_offset_v(fixture)


def _slow_offset(fixture) -> float:
    """Module-level (picklable) extractor slow enough that a small
    ``--budget`` expires mid-run but each sample still completes."""
    time.sleep(0.05)
    return input_referred_offset_v(fixture)


def _hanging_offset(fixture) -> float:
    """Module-level (picklable) extractor that hangs forever on sample
    1 — models a wedged worker the budget must route around."""
    if faultinject.current_sample() == 1:
        time.sleep(3600.0)
    return input_referred_offset_v(fixture)


# It computes what _offset does, so a run it hung resumes with _offset.
_hanging_offset.__wrapped__ = _offset


def offset_spec(extractor=_offset, limit_v=5e-3):
    return Specification("offset", extractor, lower=-limit_v,
                         upper=limit_v)


def _sweep_states(solutions) -> np.ndarray:
    return np.stack([sol.x for sol in solutions])


# ----------------------------------------------------------------------
# Capability probing
# ----------------------------------------------------------------------
class TestCapabilities:
    def test_snapshot_covers_every_capability(self):
        snap = resilience.snapshot()
        assert set(snap["capabilities"]) == set(CAPABILITY_NAMES)
        for state in snap["capabilities"].values():
            assert isinstance(state["available"], bool)
            assert state["detail"]

    def test_kill_switch_disables_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_BATCH", "1")
        resilience.reset_supervisor()
        cap = resilience.supervisor().registry.capability("batch")
        assert not cap.available
        assert "REPRO_NO_BATCH" in cap.detail
        assert not resilience.allows("batch")

    def test_drain_into_ledger_as_run_level_records(self):
        sup = resilience.supervisor()
        sup.note_event("capability-unavailable", "sparse", "injected")
        ledger = FailureLedger()
        assert sup.drain_into(ledger) == 1
        record = ledger.records[0]
        assert record.index == -1
        assert record.label == "resilience:sparse"
        assert ledger.quarantined_indices() == []  # run-level, no sample
        # Draining is exactly-once.
        assert sup.drain_into(ledger) == 0

    def test_run_level_records_dedupe(self):
        ledger = FailureLedger()
        for _ in range(3):
            sup = resilience.supervisor()
            sup.note_event("capability-unavailable", "sparse",
                           "same reason")
            sup.drain_into(ledger)
            resilience.reset_supervisor()  # a "new worker" re-reports
        ledger.dedupe_run_level()
        assert len(ledger.records) == 1


# ----------------------------------------------------------------------
# Chaos: injected singular sparse factorizations
# ----------------------------------------------------------------------
@pytest.mark.skipif(not mna.sparse_available(),
                    reason="sparse path needs scipy.sparse")
class TestSparseChaos:
    def test_singular_splu_degrades_to_dense(self, tech90):
        fx = differential_pair(tech90)
        vcm = fx.circuit["vinp"].spec.dc_value()
        values = np.linspace(vcm - 0.1, vcm + 0.1, 7)
        chaotic_fx = differential_pair(tech90)
        with mna.sparse_mode(1):
            reference = _sweep_states(
                dc_sweep(fx.circuit, "vinp", values, batch=False))
            faultinject.force_sparse_singular(n_solves=1000)
            with telemetry.session(records=False) as session:
                chaotic = _sweep_states(
                    dc_sweep(chaotic_fx.circuit, "vinp", values,
                             batch=False))
        faultinject.clear_sparse_singular()
        # Every solve fell through to the dense retry: same fixed
        # points, within the final-ulp gap between solve paths.
        assert np.max(np.abs(chaotic - reference)) < 1e-9
        # Each failed factorization fell back for that solve alone and
        # was counted; the sparse path stays on for the next solve.
        counters = session.metrics.snapshot()["counters"]
        assert counters["solver.sparse.fallbacks"] == \
            counters["solver.sparse.factorizations"] > 0
        assert resilience.allows("sparse")
        assert dc.dc_engine(chaotic_fx.circuit).sparsity_plan is not None
        assert resilience.drain_events() == []


# ----------------------------------------------------------------------
# Chaos: forced C-kernel compile failure
# ----------------------------------------------------------------------
@pytest.mark.skipif(not _ckernel.available(),
                    reason="needs a working compiled kernel to break")
class TestCkernelChaos:
    def test_compile_failure_falls_back_to_numpy(self, tech90):
        fx = differential_pair(tech90)
        vcm = fx.circuit["vinp"].spec.dc_value()
        values = np.linspace(vcm - 0.1, vcm + 0.1, 7)
        reference = _sweep_states(
            dc_sweep(fx.circuit, "vinp", values, batch=False))
        faultinject.force_ckernel_compile_failure()
        try:
            assert not _ckernel.available()
            assert not resilience.allows("ckernel")
            degraded = _sweep_states(
                dc_sweep(differential_pair(tech90).circuit, "vinp",
                         values, batch=False))
            # numpy analytic pass: same linearization to rounding.
            assert np.max(np.abs(degraded - reference)) < 1e-9
            cap = resilience.supervisor().registry.capability("ckernel")
            assert cap.anomalous
            assert "failed to compile" in cap.detail
        finally:
            faultinject.clear_ckernel_compile_failure()
        assert _ckernel.available()

    def test_anomalous_probe_is_a_ledger_event(self):
        faultinject.force_ckernel_compile_failure()
        try:
            ledger = FailureLedger()
            resilience.drain_into(ledger)
            assert any(r.label == "resilience:ckernel"
                       and r.exception_type == "capability-unavailable"
                       for r in ledger.records)
        finally:
            faultinject.clear_ckernel_compile_failure()


# ----------------------------------------------------------------------
# Chaos: corrupted batch lanes (NaN storms)
# ----------------------------------------------------------------------
class TestBatchChaos:
    def test_corrupt_lanes_recover_via_scalar_fallback(self, tech90):
        fx = differential_pair(tech90)
        vcm = fx.circuit["vinp"].spec.dc_value()
        values = np.linspace(vcm - 0.1, vcm + 0.1, 9)
        reference = _sweep_states(
            dc_sweep(fx.circuit, "vinp", values, batch=False))
        faultinject.corrupt_batch_lanes(fx.circuit, range(len(values)))
        try:
            chaotic = _sweep_states(
                dc_sweep(fx.circuit, "vinp", values, batch=True))
        finally:
            faultinject.clear_corrupt_batch_lanes(fx.circuit)
        # Poisoned lanes diverge, get caught by the lane mask, and are
        # re-solved one-by-one on the scalar ladder.
        assert np.max(np.abs(chaotic - reference)) < 1e-9


# ----------------------------------------------------------------------
# Resource guard
# ----------------------------------------------------------------------
class TestResourceGuard:
    def test_admit_lanes_halves_under_ceiling(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEM_CEILING_MB", "1")
        # 64 lanes of a 256-unknown circuit is ~64 MiB of matrix slab.
        admitted = admit_lanes(64, 256, where="test")
        assert admitted < 64
        assert slab_bytes(admitted, 256) <= 1024 * 1024 or admitted == 1
        events = resilience.drain_events()
        assert any(e["kind"] == "resource-clamp" for e in events)

    def test_admit_lanes_disabled_ceiling(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEM_CEILING_MB", "0")
        assert admit_lanes(4096, 4096) == 4096

    def test_admit_lanes_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEM_CEILING_MB", "1")
        assert admit_lanes(2, 8192) == 1

    def test_mc_clamped_batch_matches_unclamped(self, tech90,
                                                monkeypatch):
        fx = differential_pair(tech90)
        mc = MonteCarloYield(fx, [offset_spec()], tech90)
        clean = mc.run(n_samples=8, seed=5, chunk_size=8, batch_size=8)
        # A ceiling small enough to clamp even this tiny circuit.
        monkeypatch.setattr("repro.resilience.guards.memory_ceiling_bytes",
                            lambda: 4096)
        resilience.reset_supervisor()
        clamped = mc.run(n_samples=8, seed=5, chunk_size=8,
                         batch_size=8)
        # Fewer lanes per slab never changes verdicts.
        np.testing.assert_array_equal(clamped.passes, clean.passes)
        np.testing.assert_allclose(clamped.values["offset"],
                                   clean.values["offset"],
                                   rtol=0, atol=1e-9)
        # The clamp is visible as a run-level ledger record.
        assert any(r.index == -1 and r.exception_type == "resource-clamp"
                   for r in clamped.ledger.records)


# ----------------------------------------------------------------------
# Deadline budgets
# ----------------------------------------------------------------------
class TestBudget:
    def test_after_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DeadlineBudget.after(0.0)

    def test_check_raises_when_expired(self):
        budget = DeadlineBudget.after(1e-4)
        time.sleep(0.01)
        assert budget.expired()
        assert budget.remaining() == 0.0
        with pytest.raises(BudgetExpiredError) as excinfo:
            budget.check("unit test")
        assert "unit test" in str(excinfo.value)

    def test_budget_is_picklable_and_absolute(self):
        budget = DeadlineBudget.after(3600.0)
        clone = pickle.loads(pickle.dumps(budget))
        assert clone.deadline_epoch == budget.deadline_epoch
        assert clone.total_s == budget.total_s
        assert not clone.expired()

    def test_generous_budget_is_invisible(self, tech90):
        fx = differential_pair(tech90)
        mc = MonteCarloYield(fx, [offset_spec()], tech90)
        clean = mc.run(n_samples=6, seed=7, chunk_size=3)
        budgeted = mc.run(n_samples=6, seed=7, chunk_size=3,
                          budget=3600.0)
        assert not budgeted.is_degraded
        np.testing.assert_array_equal(budgeted.values["offset"],
                                      clean.values["offset"])

    def test_expired_budget_yields_clean_partial(self, tech90):
        fx = differential_pair(tech90)
        mc = MonteCarloYield(fx, [offset_spec(_slow_offset)], tech90)
        result = mc.run(n_samples=20, seed=7, chunk_size=2,
                        budget=0.12)
        assert result.is_degraded
        assert 0 < result.n_evaluated < 20 or result.n_evaluated == 0
        assert any(r.label == "resilience:budget"
                   for r in result.ledger.records)

    def test_budget_checkpoint_then_resume_bit_identical(self, tech90,
                                                         tmp_path):
        fx = differential_pair(tech90)
        mc = MonteCarloYield(fx, [offset_spec(_slow_offset)], tech90)
        clean = mc.run(n_samples=10, seed=9, chunk_size=2)
        ckpt = tmp_path / "budgeted"
        with pytest.raises(RunInterrupted) as excinfo:
            mc.run(n_samples=10, seed=9, chunk_size=2,
                   checkpoint=ckpt, budget=0.15)
        assert excinfo.value.reason == "budget"
        assert excinfo.value.checkpoint_path is not None
        resumed = mc.run(n_samples=10, seed=9, chunk_size=2,
                         checkpoint=ckpt, resume=True)
        np.testing.assert_array_equal(resumed.values["offset"],
                                      clean.values["offset"])
        np.testing.assert_array_equal(resumed.passes, clean.passes)


class TestBudgetChaosHungWorker:
    def test_hung_process_worker_cannot_outlive_budget(self, tech90,
                                                       tmp_path):
        # One worker hangs forever on sample 1; the budget must stop
        # the run coercively, write the final checkpoint, and leave a
        # resumable state — bounded wall-clock, no orphan hang.
        fx = differential_pair(tech90)
        mc = MonteCarloYield(fx, [offset_spec(_hanging_offset)], tech90)
        ckpt = tmp_path / "hung"
        started = time.monotonic()
        with pytest.raises(RunInterrupted) as excinfo:
            mc.run(n_samples=8, seed=11, chunk_size=1, jobs=2,
                   backend="process", checkpoint=ckpt, budget=2.0)
        elapsed = time.monotonic() - started
        assert excinfo.value.reason == "budget"
        assert elapsed < 30.0
        # Resume (hang cleared) completes bit-identical to a clean run.
        clean = MonteCarloYield(fx, [offset_spec()], tech90).run(
            n_samples=8, seed=11, chunk_size=1)
        resumed = MonteCarloYield(fx, [offset_spec()], tech90).run(
            n_samples=8, seed=11, chunk_size=1,
            checkpoint=ckpt, resume=True)
        np.testing.assert_array_equal(resumed.values["offset"],
                                      clean.values["offset"])


# ----------------------------------------------------------------------
# Satellite 2: accelerator configuration in checkpoint manifests
# ----------------------------------------------------------------------
class TestCheckpointAccelManifest:
    def _interrupt_run(self, mc, ckpt, **kwargs):
        from repro.faultinject import interrupting_extractor
        spec = Specification(
            "offset", interrupting_extractor(_offset, interrupt_on=4),
            lower=-5e-3, upper=5e-3)
        broken = MonteCarloYield(mc.fixture, [spec], mc.tech)
        with pytest.raises(RunInterrupted):
            broken.run(n_samples=8, seed=13, chunk_size=2,
                       checkpoint=ckpt, **kwargs)

    def test_batch_size_mismatch_refused(self, tech90, tmp_path):
        fx = differential_pair(tech90)
        mc = MonteCarloYield(fx, [offset_spec()], tech90)
        ckpt = tmp_path / "accel"
        self._interrupt_run(mc, ckpt)
        with pytest.raises(CheckpointError) as excinfo:
            mc.run(n_samples=8, seed=13, chunk_size=2,
                   checkpoint=ckpt, resume=True, batch_size=4)
        message = str(excinfo.value)
        assert "accelerator configuration mismatch" in message
        assert "batch_size" in message
        # Matching configuration resumes fine.
        result = mc.run(n_samples=8, seed=13, chunk_size=2,
                        checkpoint=ckpt, resume=True)
        assert result.n_evaluated == 8

    def test_batched_checkpoint_refused_where_batching_is_off(
            self, tech90, tmp_path, monkeypatch):
        # Under REPRO_NO_BATCH every sweep solves scalar, so the manifest
        # records the batch_size that takes effect (None), and chunks
        # batched before are never spliced with scalar ones.
        fx = differential_pair(tech90)
        mc = MonteCarloYield(fx, [offset_spec()], tech90)
        ckpt = tmp_path / "batched"
        self._interrupt_run(mc, ckpt, batch_size=4)
        monkeypatch.setenv("REPRO_NO_BATCH", "1")
        resilience.reset_supervisor()
        with pytest.raises(CheckpointError,
                           match="accelerator configuration mismatch"):
            mc.run(n_samples=8, seed=13, chunk_size=2,
                   checkpoint=ckpt, resume=True, batch_size=4)

    def test_manifest_without_accel_refused(self, tech90, tmp_path):
        # Every schema-2 manifest records the accelerator configuration;
        # one without it cannot prove bit-identity and is refused.
        import json
        fx = differential_pair(tech90)
        mc = MonteCarloYield(fx, [offset_spec()], tech90)
        ckpt = tmp_path / "edited"
        self._interrupt_run(mc, ckpt)
        manifest_path = ckpt / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["accel"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="accel"):
            mc.run(n_samples=8, seed=13, chunk_size=2,
                   checkpoint=ckpt, resume=True)


# ----------------------------------------------------------------------
# Satellite 1: every cross-process exception pickles faithfully
# ----------------------------------------------------------------------
class TestExceptionPickling:
    @pytest.mark.parametrize("exc", [
        BudgetExpiredError("budget of 2 s expired at task 3",
                           budget_s=2.0, where="task 3"),
        WorkerKilledError("worker died on sample 5"),
        BatchUnsupportedError("per-lane params swap unsupported"),
        CheckpointError("accelerator configuration mismatch"),
    ], ids=lambda e: type(e).__name__)
    def test_round_trip(self, exc):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)

    def test_budget_expired_payload(self):
        exc = BudgetExpiredError("expired", budget_s=1.5, where="pool")
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.budget_s == 1.5
        assert clone.where == "pool"

    def test_run_interrupted_keeps_reason(self, tmp_path):
        exc = RunInterrupted("budget stop", checkpoint_path=tmp_path,
                             reason="budget")
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.reason == "budget"
        assert clone.checkpoint_path == tmp_path


# ----------------------------------------------------------------------
# Satellite 3: the fallback matrix answers identically
# ----------------------------------------------------------------------
class TestFallbackMatrix:
    """Disable each accelerator in turn and re-solve the 5-circuit
    verify corpus.  dgesv vs ``np.linalg.solve`` is bit-identical
    (same LAPACK routine underneath); the compiled stamp kernel agrees
    with the numpy analytic pass only to final-ulp rounding, so the two
    no-ckernel legs must be bit-identical *to each other* and within a
    tight band of the accelerated reference."""

    @pytest.fixture(scope="class")
    def corpus_reference(self, tech90):
        from repro.verify.differential import _batch_corpus
        resilience.reset_supervisor()
        states = {}
        for name, circuit, source, values in _batch_corpus(tech90):
            states[name] = _sweep_states(
                dc_sweep(circuit, source, values, batch=False))
        return states

    def _solve_corpus(self, tech):
        from repro.verify.differential import _batch_corpus
        return {name: _sweep_states(
                    dc_sweep(circuit, source, values, batch=False))
                for name, circuit, source, values in _batch_corpus(tech)}

    def test_no_scipy_leg_bit_identical(self, tech90, corpus_reference,
                                        monkeypatch):
        monkeypatch.setattr(mna, "_dgesv", None)
        monkeypatch.setattr(mna, "_csc_matrix", None)
        monkeypatch.setattr(mna, "_splu", None)
        resilience.reset_supervisor()
        assert not resilience.allows("sparse")
        for name, states in self._solve_corpus(tech90).items():
            np.testing.assert_array_equal(
                states, corpus_reference[name], err_msg=name)

    @pytest.mark.skipif(not _ckernel.available(),
                        reason="needs the compiled kernel as reference")
    def test_ckernel_off_and_gcc_absent_agree(self, tech90,
                                              corpus_reference,
                                              monkeypatch):
        # Leg 1: kernel administratively disabled (REPRO_NO_CKERNEL).
        monkeypatch.setattr(_ckernel, "_DISABLED", True)
        _ckernel.reset()
        resilience.reset_supervisor()
        no_kernel = self._solve_corpus(tech90)
        # Leg 2: no C compiler on PATH at all.
        monkeypatch.setattr(_ckernel, "_DISABLED", False)
        monkeypatch.setattr(shutil, "which", lambda *a, **k: None)
        _ckernel.reset()
        resilience.reset_supervisor()
        assert not _ckernel.available()
        no_compiler = self._solve_corpus(tech90)
        monkeypatch.undo()
        _ckernel.reset()
        # Both legs run the identical numpy analytic pass.
        for name in no_kernel:
            np.testing.assert_array_equal(
                no_kernel[name], no_compiler[name], err_msg=name)
            # And stay within final-ulp of the accelerated reference.
            scale = np.maximum(1.0, np.abs(corpus_reference[name]))
            gap = np.abs(no_kernel[name] - corpus_reference[name])
            assert np.max(gap / scale) < 1e-9, name
