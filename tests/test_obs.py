"""Tests for the cross-run observability subsystem (repro.obs).

Covers the four tentpole pieces — Prometheus exposition (rendering,
strict parsing, the live HTTP exporter), the content-addressed run
registry, the sampling profiler (including the bit-identity guarantee),
and run/trace diffing — plus the satellites: corrupt-trace-line
hardening, heartbeat edge cases, and the regression gate's
capability-mismatch refusal.
"""

import importlib.util
import io
import json
import math
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.circuit import _ckernel
from repro.cli import _mc_heartbeat, main
from repro.obs import diff as obsdiff
from repro.obs import profiler as obsprof
from repro.obs import promexp, runlog

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestExposition:
    def _registry_snapshot(self):
        registry = telemetry.MetricsRegistry()
        registry.inc("solver.dc.solves", 42)
        registry.inc("engine.samples", 7)
        registry.gauge("parallel.pending_tasks", 3)
        for value in (0.001, 0.02, 0.3, 4.0):
            registry.observe("engine.sample_duration_s", value)
        return registry.snapshot()

    def test_round_trip_through_parser(self):
        text = promexp.render_exposition(self._registry_snapshot())
        families = promexp.parse_exposition(text)
        counter = families["repro_solver_dc_solves_total"]
        assert counter["type"] == "counter"
        assert counter["samples"][0][2] == 42
        gauge = families["repro_parallel_pending_tasks"]
        assert gauge["type"] == "gauge"
        assert gauge["samples"][0][2] == 3

    def test_histogram_buckets_cumulative_and_inf_terminated(self):
        text = promexp.render_exposition(self._registry_snapshot())
        families = promexp.parse_exposition(text)
        hist = families["repro_engine_sample_duration_s"]
        assert hist["type"] == "histogram"
        buckets = [(labels["le"], value) for name, labels, value
                   in hist["samples"] if name.endswith("_bucket")]
        assert buckets[-1][0] == "+Inf"
        counts = [value for _, value in buckets]
        assert counts == sorted(counts)  # cumulative by construction
        count = [value for name, _, value in hist["samples"]
                 if name.endswith("_count")][0]
        assert buckets[-1][1] == count == 4

    def test_parser_rejects_non_cumulative_histogram(self):
        bad = ("# HELP repro_h x\n# TYPE repro_h histogram\n"
               'repro_h_bucket{le="0.1"} 5\n'
               'repro_h_bucket{le="1"} 3\n'
               'repro_h_bucket{le="+Inf"} 5\n'
               "repro_h_sum 1\nrepro_h_count 5\n")
        with pytest.raises(ValueError, match="not cumulative"):
            promexp.parse_exposition(bad)

    def test_parser_rejects_missing_inf_bucket(self):
        bad = ("# HELP repro_h x\n# TYPE repro_h histogram\n"
               'repro_h_bucket{le="0.1"} 5\n'
               "repro_h_sum 1\nrepro_h_count 5\n")
        with pytest.raises(ValueError, match=r"\+Inf"):
            promexp.parse_exposition(bad)

    def test_parser_rejects_headerless_samples(self):
        with pytest.raises(ValueError, match="no TYPE/HELP"):
            promexp.parse_exposition("repro_orphan 1\n")

    def test_label_escaping_round_trips(self):
        meta = {"netlist": 'a "quoted"\\path\nwith newline', "seed": 7}
        text = promexp.render_exposition({}, meta=meta)
        families = promexp.parse_exposition(text)
        labels = families["repro_run_info"]["samples"][0][1]
        assert labels["netlist"] == 'a "quoted"\\path\nwith newline'
        assert labels["seed"] == "7"

    def test_help_escaping(self):
        assert promexp.escape_help("a\\b\nc") == "a\\\\b\\nc"

    def test_special_values(self):
        assert promexp.format_value(math.inf) == "+Inf"
        assert promexp.format_value(-math.inf) == "-Inf"
        assert promexp.format_value(math.nan) == "NaN"
        assert promexp.format_value(3.0) == "3"

    @given(st.dictionaries(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.-",
                min_size=1, max_size=24),
        st.floats(allow_nan=False, width=64),
        max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_counter_values_round_trip(self, counters):
        # Distinct dotted names may collapse to one Prometheus name
        # ("a.b" and "a-b" both become "a_b"); keep one per family.
        unique = {}
        for dotted, value in counters.items():
            unique.setdefault(promexp.metric_name(dotted, "_total"),
                              (dotted, value))
        text = promexp.render_exposition(
            {"counters": {d: v for d, v in unique.values()}})
        families = promexp.parse_exposition(text)
        for name, (dotted, value) in unique.items():
            got = families[name]["samples"][0][2]
            assert got == value or (math.isinf(got) and math.isinf(value))

    @given(st.text(min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_metric_name_always_legal(self, dotted):
        assert promexp._NAME_OK.match(promexp.metric_name(dotted))

    def test_live_exporter_serves_metrics_and_health(self):
        snapshot = self._registry_snapshot()
        exporter = promexp.MetricsExporter(
            lambda: promexp.render_exposition(snapshot), port=0)
        with exporter:
            with urllib.request.urlopen(exporter.url) as response:
                assert response.headers["Content-Type"] == \
                    promexp.CONTENT_TYPE
                body = response.read().decode("utf-8")
            promexp.parse_exposition(body)  # must be scrapable
            health_url = exporter.url.replace("/metrics", "/healthz")
            with urllib.request.urlopen(health_url) as response:
                assert json.load(response)["status"] == "ok"
            other = exporter.url.replace("/metrics", "/nope")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(other)
            assert err.value.code == 404


# ----------------------------------------------------------------------
# Run registry
# ----------------------------------------------------------------------
class TestRunRegistry:
    def test_record_list_load_round_trip(self, tmp_path):
        registry = runlog.RunRegistry(tmp_path)
        record = registry.record("mc", {"tech": "90nm", "samples": 8},
                                 seed=3, outcome="ok",
                                 capabilities={"ckernel": True},
                                 metrics={"counters": {"x": 1}})
        assert len(record["run_id"]) == runlog.ID_LENGTH
        listed = registry.list()
        assert [r["run_id"] for r in listed] == [record["run_id"]]
        loaded = registry.load(record["run_id"])
        assert loaded["config"]["tech"] == "90nm"
        assert loaded["seed"] == 3

    def test_load_by_unambiguous_prefix(self, tmp_path):
        registry = runlog.RunRegistry(tmp_path)
        record = registry.record("mc", {"n": 1})
        assert registry.load(record["run_id"][:6])["run_id"] == \
            record["run_id"]

    def test_missing_and_ambiguous_ids_raise(self, tmp_path):
        registry = runlog.RunRegistry(tmp_path)
        with pytest.raises(runlog.RunLogError, match="no run"):
            registry.load("feedfacecafe")
        a = registry.record("mc", {"n": 1})
        b = registry.record("mc", {"n": 2})
        common = ""
        for ca, cb in zip(a["run_id"], b["run_id"]):
            if ca != cb:
                break
            common += ca
        if common:  # ids share a prefix: it must be rejected as ambiguous
            with pytest.raises(runlog.RunLogError, match="ambiguous"):
                registry.load(common)

    def test_same_config_same_hash(self, tmp_path):
        registry = runlog.RunRegistry(tmp_path)
        a = registry.record("mc", {"tech": "90nm", "samples": 8})
        b = registry.record("mc", {"samples": 8, "tech": "90nm"})
        assert a["config_hash"] == b["config_hash"]

    def test_record_file_is_compact_and_content_addressed(self, tmp_path):
        registry = runlog.RunRegistry(tmp_path)
        record = registry.record("mc", {"tech": "90nm", "samples": 8},
                                 metrics={"counters": {"x": 1}},
                                 extra={"job_id": "j000001"})
        text = (tmp_path / f"{record['run_id']}.json").read_text(
            encoding="utf-8")
        assert "\n" not in text and ", " not in text and ": " not in text
        loaded = json.loads(text)
        assert loaded == record
        assert loaded["schema"] == runlog.RUN_SCHEMA == 2
        # The id is the hash of the record without it.
        body = {k: v for k, v in loaded.items() if k != "run_id"}
        assert record["run_id"] == runlog.content_hash(body)

    def test_config_hash_covers_only_what_changes_bits(self):
        from repro.runner import accel_manifest

        base = {"tech": "90nm", "samples": 64, "batch_size": None,
                "jobs": 1, "backend": "auto", "priority": 0}
        same = dict(base, jobs=4, backend="thread", priority=9)
        accel = accel_manifest(None)
        assert runlog.config_hash(base, accel) == \
            runlog.config_hash(same, accel)
        assert runlog.config_hash(base, accel) != \
            runlog.config_hash(dict(base, samples=65), accel)
        assert runlog.config_hash(base, accel) != \
            runlog.config_hash(dict(base, batch_size=16), accel)
        # The accelerator manifest the run used is part of the hash.
        for key, value in (("ckernel", not accel["ckernel"]),
                           ("sparse_min_size", accel["sparse_min_size"] + 1)):
            assert runlog.config_hash(base, accel) != \
                runlog.config_hash(base, dict(accel, **{key: value}))
        assert runlog.config_hash(base) != runlog.config_hash(base, accel)

    def test_record_hashes_the_manifest_it_is_given(self, tmp_path):
        from repro.runner import accel_manifest

        registry = runlog.RunRegistry(tmp_path)
        config = {"tech": "90nm", "samples": 8}
        accel = dict(accel_manifest(None), ckernel=False)
        record = registry.record("mc", config, accel=accel)
        assert record["config_hash"] == runlog.config_hash(config, accel)

    def test_gc_keeps_newest(self, tmp_path):
        registry = runlog.RunRegistry(tmp_path)
        ids = [registry.record("mc", {"n": k}, t_start=float(k))["run_id"]
               for k in range(5)]
        removed = registry.gc(keep=2)
        assert sorted(removed) == sorted(ids[:3])
        assert [r["run_id"] for r in registry.list()] == ids[3:]

    def test_unreadable_records_skipped(self, tmp_path):
        registry = runlog.RunRegistry(tmp_path)
        registry.record("mc", {"n": 1})
        (tmp_path / "zzzz.json").write_text("{ truncated",
                                            encoding="utf-8")
        assert len(registry.list()) == 1

    def test_no_runlog_env_disables_recording(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_RUNLOG", "1")
        assert not runlog.runs_enabled()
        assert runlog.record_run("mc", {"n": 1}) is None
        assert list(tmp_path.iterdir()) == []

    def test_capability_flags_flatten_snapshot(self):
        flags = runlog.capability_flags({
            "sparse": {"available": True, "detail": "splu"},
            "ckernel": {"available": True, "anomalous": False},
            "dgesv": {"available": False},
        })
        assert flags == {"ckernel": True, "dgesv": False, "sparse": True}
        assert list(flags) == ["ckernel", "dgesv", "sparse"]


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_collects_samples_and_collapsed_format(self):
        with obsprof.profiling(interval_s=0.002) as prof:
            deadline = 0
            while prof.snapshot()["n_samples"] < 3 and deadline < 2000:
                sum(i * i for i in range(500))
                deadline += 1
        payload = prof.snapshot()
        assert payload["n_samples"] >= 3
        for line in obsprof.collapsed_lines(payload):
            stack, _, count = line.rpartition(" ")
            assert int(count) > 0
            assert all(":" in frame for frame in stack.split(";"))

    def test_absorb_merges_counts(self):
        prof = obsprof.SamplingProfiler()
        prof.absorb({"samples": {"a:f;b:g": 3}, "n_samples": 3})
        prof.absorb({"samples": {"a:f;b:g": 2, "c:h": 1}, "n_samples": 3})
        payload = prof.snapshot()
        assert payload["samples"] == {"a:f;b:g": 5, "c:h": 1}
        assert payload["n_samples"] == 6

    def test_top_sinks_self_vs_total(self):
        payload = {"samples": {"a:f;b:g": 6, "a:f": 4}}
        sinks = {s["frame"]: s for s in obsprof.top_sinks(payload)}
        assert sinks["b:g"]["self"] == 6
        assert sinks["a:f"]["self"] == 4
        assert sinks["a:f"]["total"] == 10  # on both stacks
        assert sinks["b:g"]["share"] == pytest.approx(0.6)

    def test_phase_attribution_scans_leaf_inward(self):
        stack = ("repro.cli:main;repro.core.yield_analysis:run;"
                 "repro.circuit.dc:newton_solve;repro.circuit.mna:solve")
        assert obsprof.phase_of_stack(stack) == "linear-algebra"
        assert obsprof.phase_of_stack("somewhere:else") == "other"
        breakdown = obsprof.phase_breakdown(
            {"samples": {stack: 3, "x:y": 1}})
        assert breakdown["linear-algebra"]["samples"] == 3
        assert breakdown["linear-algebra"]["share"] == pytest.approx(0.75)

    def test_worker_profile_disabled_is_none(self):
        with obsprof.worker_profile(False) as prof:
            assert prof is None

    def test_active_default_none(self):
        assert obsprof.active() is None

    def test_write_collapsed(self, tmp_path):
        out = tmp_path / "stacks.folded"
        n = obsprof.write_collapsed({"samples": {"a:f;b:g": 2}}, out)
        assert n == 1
        assert out.read_text(encoding="utf-8") == "a:f;b:g 2\n"

    def test_profiling_does_not_change_results(self, tech90):
        from repro.circuits import differential_pair
        from repro.core import MonteCarloYield, Specification
        from repro.workloads import offset_extractor

        fx = differential_pair(tech90)
        spec = Specification("offset", offset_extractor,
                             lower=-5e-3, upper=5e-3)
        engine = MonteCarloYield(fx, [spec], tech90)
        plain = engine.run(n_samples=48, seed=9)
        with obsprof.profiling(interval_s=0.001):
            profiled = engine.run(n_samples=48, seed=9)
        assert np.array_equal(plain.values["offset"],
                              profiled.values["offset"], equal_nan=True)
        assert np.array_equal(plain.passes, profiled.passes)


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
class TestDiff:
    def test_phase_deltas_and_only_in(self):
        a = {"solve.dc": {"count": 10, "total_s": 1.0, "self_s": 1.0},
             "gone": {"count": 1, "total_s": 0.1, "self_s": 0.1}}
        b = {"solve.dc": {"count": 10, "total_s": 2.0, "self_s": 2.0},
             "new": {"count": 1, "total_s": 0.2, "self_s": 0.2}}
        deltas = {d["phase"]: d for d in obsdiff.diff_phases(a, b)}
        assert deltas["solve.dc"]["delta_s"] == pytest.approx(1.0)
        assert deltas["solve.dc"]["rel"] == pytest.approx(1.0)
        assert deltas["new"]["only_in"] == "b"
        assert deltas["gone"]["only_in"] == "a"

    def test_phase_deltas_drop_noise(self):
        a = {"solve.dc": {"count": 10, "total_s": 1.0, "self_s": 1.0}}
        b = {"solve.dc": {"count": 10, "total_s": 1.0, "self_s": 1.0001}}
        assert obsdiff.diff_phases(a, b) == []

    def test_capability_flip_makes_incomparable(self):
        rec_a = {"run_id": "a", "capabilities": {"ckernel": True},
                 "config": {}, "wall_s": 1.0}
        rec_b = {"run_id": "b", "capabilities": {"ckernel": False},
                 "config": {}, "wall_s": 2.0}
        diff = obsdiff.diff_runs(rec_a, rec_b)
        assert not diff["comparable"]
        verdict = obsdiff.attribute_regression(diff)
        assert verdict["cause"] == "environment"
        assert "ckernel" in verdict["detail"]

    def test_config_change_attributed_to_workload(self):
        rec_a = {"run_id": "a", "capabilities": {}, "wall_s": 1.0,
                 "config": {"jobs": 1}}
        rec_b = {"run_id": "b", "capabilities": {}, "wall_s": 2.0,
                 "config": {"jobs": 4}}
        diff = obsdiff.diff_runs(rec_a, rec_b)
        assert not diff["comparable"]
        assert obsdiff.attribute_regression(diff)["cause"] == "workload"

    def test_phase_growth_attributed_to_code(self):
        rec = {"run_id": "a", "capabilities": {}, "config": {},
               "wall_s": 1.0,
               "phases": {"solve.dc": {"count": 1, "total_s": 1.0,
                                       "self_s": 1.0}}}
        worse = dict(rec, run_id="b", wall_s=2.0,
                     phases={"solve.dc": {"count": 1, "total_s": 2.0,
                                          "self_s": 2.0}})
        diff = obsdiff.diff_runs(rec, worse)
        assert diff["comparable"]
        verdict = obsdiff.attribute_regression(diff)
        assert verdict["cause"] == "code"
        assert "solve.dc" in verdict["detail"]

    def test_identical_runs_attribute_none(self):
        rec = {"run_id": "a", "capabilities": {}, "config": {},
               "wall_s": 1.0, "phases": {}, "metrics": {}}
        diff = obsdiff.diff_runs(rec, dict(rec, run_id="b"))
        assert diff["comparable"]
        assert obsdiff.attribute_regression(diff)["cause"] == "none"

    def test_metric_deltas_flatten_histograms(self):
        a = {"counters": {"retries": 1},
             "histograms": {"dur": {"count": 5, "sum": 1.0}}}
        b = {"counters": {"retries": 4},
             "histograms": {"dur": {"count": 9, "sum": 3.0}}}
        deltas = {d["metric"]: d["delta"]
                  for d in obsdiff.diff_metrics(a, b)}
        assert deltas["retries"] == 3
        assert deltas["dur.count"] == 4
        assert deltas["dur.sum"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Satellites: heartbeat edge cases, corrupt trace lines
# ----------------------------------------------------------------------
class TestHeartbeatEdgeCases:
    def _beat(self, payload):
        session = telemetry.TelemetrySession()
        stream = io.StringIO()
        _mc_heartbeat(session, stream)(payload)
        return stream.getvalue()

    def test_zero_elapsed_prints_dashes(self):
        out = self._beat({"done": 0, "total": 10, "elapsed_s": 0.0})
        assert "--" in out
        assert "inf" not in out.lower()

    def test_zero_completed_prints_dashes(self):
        out = self._beat({"done": 0, "total": 10, "elapsed_s": 5.0})
        assert "--" in out
        assert "inf" not in out.lower()

    def test_finished_run_has_zero_eta_and_newline(self):
        out = self._beat({"done": 10, "total": 10, "elapsed_s": 2.0})
        assert "ETA 0s" in out
        assert out.endswith("\n")
        assert "inf" not in out.lower()

    def test_normal_progress_has_rate_and_eta(self):
        out = self._beat({"done": 5, "total": 10, "elapsed_s": 5.0})
        assert "1.0/s" in out
        assert "ETA 5s" in out


class TestCorruptTraceLines:
    def _write_trace(self, path):
        with telemetry.session(meta={"command": "test"}) as session:
            with telemetry.span("run"):
                pass
            session.write_trace(path)

    def test_truncated_tail_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "name": "half-writ')
        trace = telemetry.read_trace(path)
        assert trace.corrupt_lines == 1
        assert len(trace.spans) == 1  # the good span survived

    def test_corrupt_middle_line_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(1, "not json at all")
        lines.insert(2, '"a bare string record"')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        trace = telemetry.read_trace(path)
        assert trace.corrupt_lines == 2
        trace.validate()

    def test_summary_surfaces_warning(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        assert main(["trace", str(path)]) == 0
        captured = capsys.readouterr()
        assert "corrupt line" in captured.err
        assert "WARNING" in captured.out

    def test_clean_trace_reads_with_zero_corrupt_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        assert telemetry.read_trace(path).corrupt_lines == 0


# ----------------------------------------------------------------------
# CLI integration: runs / trace --diff / mc recording
# ----------------------------------------------------------------------
class TestObsCli:
    def test_mc_records_run_and_diff_works(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["mc", "--samples", "16", "--quiet"]) == 0
        assert main(["mc", "--samples", "16", "--seed", "1",
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--ids"]) == 0
        ids = capsys.readouterr().out.split()
        assert len(ids) == 2
        assert main(["runs", "show", ids[0]]) == 0
        assert "config.samples" in capsys.readouterr().out
        # Same config, different seed: comparable, exit 0.
        assert main(["trace", "--diff", ids[0], ids[1]]) == 0
        out = capsys.readouterr().out
        assert "run diff" in out
        assert "attribution" in out

    def test_diff_flags_config_change_as_incomparable(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["mc", "--samples", "16", "--quiet"]) == 0
        assert main(["mc", "--samples", "32", "--quiet"]) == 0
        capsys.readouterr()
        main(["runs", "list", "--ids"])
        ids = capsys.readouterr().out.split()
        assert main(["trace", "--diff", ids[0], ids[1]]) == 2
        assert "config changes" in capsys.readouterr().out

    @pytest.mark.skipif(not _ckernel.available(),
                        reason="needs the compiled kernel to switch off")
    def test_config_hash_ignores_workers_not_kernel(self, tmp_path,
                                                    monkeypatch):
        # jobs/backend never change the bits, so they do not change the
        # hash; switching the compiled kernel off does.
        import os
        import subprocess
        import sys

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        argv = ["mc", "--workload", "offset", "--tech", "90nm",
                "--samples", "64", "--quiet"]
        assert main(argv + ["--jobs", "1"]) == 0
        assert main(argv + ["--jobs", "2", "--backend", "thread"]) == 0
        env = dict(os.environ, REPRO_NO_CKERNEL="1",
                   PYTHONPATH=str(REPO_ROOT / "src"))
        subprocess.run([sys.executable, "-m", "repro"] + argv, env=env,
                       check=True, capture_output=True, cwd=tmp_path)
        serial, threaded, no_kernel = runlog.RunRegistry(tmp_path).list()
        assert threaded["config"]["jobs"] == 2
        assert serial["config_hash"] == threaded["config_hash"]
        assert no_kernel["config_hash"] != serial["config_hash"]

    def test_trace_without_args_errors(self, capsys):
        assert main(["trace"]) == 1
        assert "FILE" in capsys.readouterr().err

    def test_diff_unknown_run_errors(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["trace", "--diff", "aaaa", "bbbb"]) == 1
        assert "no run" in capsys.readouterr().err

    def test_runs_gc(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        registry = runlog.RunRegistry(tmp_path)
        for k in range(4):
            registry.record("mc", {"n": k}, t_start=float(k))
        assert main(["runs", "gc", "--keep", "1"]) == 0
        assert "removed 3" in capsys.readouterr().out
        assert len(registry.list()) == 1

    def test_runs_list_empty_registry(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "nothing"))
        assert main(["runs", "list"]) == 0
        assert "no run records" in capsys.readouterr().out

    def test_mc_profile_embeds_profile_in_trace(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        trace_path = tmp_path / "trace.jsonl"
        folded = tmp_path / "stacks.folded"
        assert main(["mc", "--samples", "48", "--quiet",
                     "--trace", str(trace_path),
                     "--profile", "--profile-interval", "0.001",
                     "--profile-out", str(folded)]) == 0
        trace = telemetry.read_trace(trace_path)
        assert trace.profile.get("n_samples", 0) > 0
        assert folded.exists()
        record = runlog.RunRegistry(tmp_path).list()[-1]
        assert record["profile"]  # phase breakdown persisted

    def test_mc_metrics_port_scrape(self, tmp_path, monkeypatch, capsys):
        # Port 0 binds an ephemeral port; the run is too short to
        # scrape externally, so this just asserts the endpoint wiring
        # does not disturb the run or its exit code.
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["mc", "--samples", "16", "--quiet",
                     "--metrics-port", "0"]) == 0


# ----------------------------------------------------------------------
# Regression gate: capability mismatch refusal
# ----------------------------------------------------------------------
def _load_check_regression():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "scripts" / "check_regression.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRegressionGate:
    def _snapshot(self, median_s, capabilities, phases=None):
        snap = {"schema": 1,
                "benchmarks": {"test_perf_mc_yield_sample":
                               {"median_s": median_s, "mean_s": median_s,
                                "stddev_s": 0.0, "rounds": 5}},
                "capabilities": capabilities}
        if phases is not None:
            snap["phases"] = phases
        return snap

    def _write(self, tmp_path, index, snapshot):
        path = tmp_path / f"BENCH_{index}.json"
        path.write_text(json.dumps(snapshot), encoding="utf-8")
        return path

    def test_capability_mismatch_refused(self, tmp_path, capsys):
        gate = _load_check_regression()
        self._write(tmp_path, 0, self._snapshot(0.01, {"ckernel": True}))
        self._write(tmp_path, 1, self._snapshot(0.01, {"ckernel": False}))
        rc = gate.main(["--dir", str(tmp_path),
                        "--goldens", str(tmp_path / "nogoldens")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "capability mismatch" in out
        assert "ckernel" in out

    def test_matching_capabilities_compare_normally(self, tmp_path,
                                                    capsys):
        gate = _load_check_regression()
        caps = {"ckernel": True, "sparse": True}
        self._write(tmp_path, 0, self._snapshot(0.010, caps))
        self._write(tmp_path, 1, self._snapshot(0.011, caps))
        rc = gate.main(["--dir", str(tmp_path),
                        "--goldens", str(tmp_path / "nogoldens")])
        assert rc == 0
        assert "trajectory OK" in capsys.readouterr().out

    def test_regression_names_grown_phase(self, tmp_path, capsys):
        gate = _load_check_regression()
        caps = {"ckernel": True}
        phases_a = {"mc_yield_sample":
                    {"solve.dc": {"count": 1, "total_s": 0.008,
                                  "self_s": 0.008}}}
        phases_b = {"mc_yield_sample":
                    {"solve.dc": {"count": 1, "total_s": 0.030,
                                  "self_s": 0.030}}}
        self._write(tmp_path, 0, self._snapshot(0.010, caps, phases_a))
        self._write(tmp_path, 1, self._snapshot(0.030, caps, phases_b))
        rc = gate.main(["--dir", str(tmp_path),
                        "--goldens", str(tmp_path / "nogoldens")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "grew: solve.dc" in out

    def test_legacy_snapshots_without_capabilities_still_compare(
            self, tmp_path, capsys):
        gate = _load_check_regression()
        for index, median in ((0, 0.010), (1, 0.010)):
            snap = self._snapshot(median, None)
            del snap["capabilities"]
            self._write(tmp_path, index, snap)
        rc = gate.main(["--dir", str(tmp_path),
                        "--goldens", str(tmp_path / "nogoldens")])
        assert rc == 0
