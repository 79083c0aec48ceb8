"""Black-box tests for the analysis service (``repro serve``).

The tentpole suite of PR 10: a real in-process daemon is started on an
ephemeral port and driven over a socket with the stdlib
:class:`~repro.serve.client.ServeClient` — nothing here reaches into
the server except to ask it to stop, so every assertion holds for an
out-of-process deployment too.  Covers:

* canonical netlist hashing (including hypothesis property tests —
  formatting/order permutations hash identically, any parameter or
  topology change re-keys);
* the content-addressed result cache (bit-identical cached replies,
  LRU bounds, disk tier, corrupt-file hardening) and the engine
  session cache (build-once lease semantics, eviction);
* the priority/fairness queue, HTTP backpressure (429 + Retry-After)
  and graceful drain (queued jobs cancelled, running jobs stopped at
  the next chunk via :class:`~repro.resilience.CancellableBudget`);
* wall-clock budgets with partial results and resumable checkpoints;
* chaos-mode fault injection (worker death mid-job) leaving the
  service healthy;
* the concurrent-client soak: ≥8 simultaneous clients, mixed
  workloads and backends, deterministic and cache-verified;
* satellites — repo hygiene (no committed run records), /metrics
  concurrency + port-collision degradation, and run-registry
  round-trips (gc, diff) for serve-produced records.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import _ckernel
from repro.obs import promexp, runlog
from repro.obs.diff import diff_runs
from repro.parallel import fair_share_jobs
from repro.resilience import (
    BudgetExpiredError,
    CancellableBudget,
    DeadlineBudget,
)
from repro.serve import (
    OUTCOME_EXIT_CODES,
    UNCACHED_ANALYSES,
    Backpressure,
    EngineSessionCache,
    Job,
    JobQueue,
    JobSpecError,
    ResultCache,
    ServeApp,
    ServeClient,
    ServeConfig,
    cache_key,
    canonical_json,
    canonical_netlist,
    canonical_netlist_hash,
    parse_job_spec,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

NETLIST = """divider test
v1 in 0 dc 1.5
r1 in mid 10k
r2 mid 0 5k
c1 mid 0 1p
.end
"""

_BASE_CARDS = [
    "v1 in 0 dc 1.5",
    "r1 in mid 10k",
    "r2 mid 0 5k",
    "c1 mid 0 1p",
]
_BASE_HASH = canonical_netlist_hash(NETLIST)


# ----------------------------------------------------------------------
# Server harness
# ----------------------------------------------------------------------

@contextmanager
def serving(**kwargs):
    """A live daemon on an ephemeral port, drained on exit."""
    kwargs.setdefault("record_runs", False)
    app = ServeApp(ServeConfig(port=0, **kwargs))
    exit_code = {}
    thread = threading.Thread(
        target=lambda: exit_code.setdefault("code", app.run()),
        daemon=True)
    thread.start()
    assert app.wait_ready(20), "server did not bind"
    client = ServeClient("127.0.0.1", app.port)
    try:
        yield app, client, exit_code
    finally:
        app.request_stop()
        thread.join(40)
        assert not thread.is_alive(), "server thread failed to drain"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One shared daemon for the read-mostly black-box tests."""
    spool = tmp_path_factory.mktemp("spool")
    with serving(workers=2, chaos=True, spool=str(spool)) as ctx:
        yield ctx


def mc_spec(**overrides):
    spec = {"analysis": "mc", "tech": "90nm",
            "params": {"samples": 12}, "seed": 11, "backend": "thread"}
    spec.update(overrides)
    return spec


# ----------------------------------------------------------------------
# Canonical netlist hashing (satellite: hypothesis properties)
# ----------------------------------------------------------------------

class TestCanonicalNetlist:
    def test_whitespace_and_comments_invariant(self):
        messy = ("another title\n\n  * leading comment\n"
                 "R1   in  mid   10k\n* mid comment\nv1 in 0 dc 1.5\n"
                 "\t r2 mid 0 5k\nc1 mid 0 1p\n.end\n")
        assert canonical_netlist_hash(messy) == _BASE_HASH

    def test_value_spelling_invariant(self):
        respelled = NETLIST.replace("10k", "10000").replace("5k", "5e3")
        assert canonical_netlist_hash(respelled) == _BASE_HASH

    def test_title_excluded(self):
        retitled = NETLIST.replace("divider test", "completely different")
        assert canonical_netlist_hash(retitled) == _BASE_HASH

    def test_element_name_case_invariant(self):
        shouted = NETLIST.replace("r1", "R1").replace("c1", "C1")
        assert canonical_netlist_hash(shouted) == _BASE_HASH

    def test_parameter_change_rekeys(self):
        tweaked = NETLIST.replace("10k", "10.000001k")
        assert canonical_netlist_hash(tweaked) != _BASE_HASH

    def test_topology_change_rekeys(self):
        rewired = NETLIST.replace("r2 mid 0", "r2 mid in")
        assert canonical_netlist_hash(rewired) != _BASE_HASH

    def test_added_element_rekeys(self):
        grown = NETLIST.replace(".end", "r3 mid 0 1k\n.end")
        assert canonical_netlist_hash(grown) != _BASE_HASH

    def test_unparseable_refused(self):
        with pytest.raises(JobSpecError):
            canonical_netlist("t\nq1 what is this\n.end")

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(_BASE_CARDS),
           pad=st.sampled_from(["", " ", "  ", "\t"]),
           comment=st.booleans(), blank=st.booleans())
    def test_formatting_permutations_hash_identically(
            self, order, pad, comment, blank):
        lines = ["permuted"]
        for card in order:
            if comment:
                lines.append("* injected comment")
            if blank:
                lines.append("")
            lines.append(pad + card)
        text = "\n".join(lines) + "\n.end\n"
        assert canonical_netlist_hash(text) == _BASE_HASH

    @settings(max_examples=25, deadline=None)
    @given(rel=st.floats(min_value=1e-6, max_value=0.9,
                         allow_nan=False, allow_infinity=False))
    def test_any_value_change_rekeys(self, rel):
        value = 10000.0 * (1.0 + rel)
        text = NETLIST.replace("10k", repr(value))
        assert canonical_netlist_hash(text) != _BASE_HASH

    @settings(max_examples=15, deadline=None)
    @given(node=st.text(alphabet="abcdefgh", min_size=1, max_size=6))
    def test_node_rename_rekeys(self, node):
        text = NETLIST.replace("mid", "n_" + node)
        assert canonical_netlist_hash(text) != _BASE_HASH


# ----------------------------------------------------------------------
# Job-spec validation and cache keys
# ----------------------------------------------------------------------

class TestJobSpec:
    def test_defaults(self):
        spec = parse_job_spec({"analysis": "mc", "tech": "90nm"})
        assert (spec.seed, spec.jobs, spec.backend) == (0, 1, "auto")
        assert (spec.priority, spec.client) == ("normal", "anon")

    @pytest.mark.parametrize("payload,fragment", [
        ({"analysis": "spice"}, "analysis"),
        ({"analysis": "mc", "tech": "90nm", "bogus": 1}, "bogus"),
        ({"analysis": "mc", "tech": "90nm", "seed": -1}, "seed"),
        ({"analysis": "mc", "tech": "90nm", "seed": True}, "seed"),
        ({"analysis": "mc", "tech": "90nm", "jobs": 0}, "jobs"),
        ({"analysis": "mc", "tech": "90nm", "jobs": 65}, "jobs"),
        ({"analysis": "mc", "tech": "90nm", "backend": "gpu"}, "backend"),
        ({"analysis": "mc", "tech": "90nm", "priority": "urgent"},
         "priority"),
        ({"analysis": "mc", "tech": "90nm", "timeout_s": 0}, "timeout_s"),
        ({"analysis": "mc"}, "tech"),
        ({"analysis": "op"}, "netlist"),
        ({"analysis": "mc", "tech": "3nm"}, "technology"),
    ])
    def test_refusals(self, payload, fragment):
        with pytest.raises(JobSpecError, match=fragment):
            parse_job_spec(payload)

    def test_cache_key_ignores_scheduling_fields(self):
        caps = {"sparse": True}
        base = parse_job_spec(mc_spec())
        for change in ({"jobs": 8}, {"backend": "process"},
                       {"priority": "high"}, {"client": "someone-else"},
                       {"timeout_s": 9.0}):
            other = parse_job_spec(mc_spec(**change))
            assert cache_key(other, caps) == cache_key(base, caps), change

    def test_cache_key_tracks_result_defining_fields(self):
        caps = {"sparse": True}
        base = parse_job_spec(mc_spec())
        keys = {cache_key(base, caps)}
        for change in ({"seed": 12}, {"params": {"samples": 13}},
                       {"tech": "65nm"}, {"batch_size": 8},
                       {"analysis": "corners"}):
            keys.add(cache_key(parse_job_spec(mc_spec(**change)), caps))
        assert len(keys) == 6

    def test_cache_key_tracks_capabilities_and_netlist(self):
        spec = parse_job_spec(mc_spec())
        assert cache_key(spec, {"sparse": True}) \
            != cache_key(spec, {"sparse": False})
        with_net = parse_job_spec(mc_spec(
            netlist=NETLIST,
            params={"samples": 12, "node": "mid", "lower": 0.0}))
        assert cache_key(with_net, {}) != cache_key(spec, {})

    def test_cache_key_tracks_accelerator_configuration(self):
        # Two daemons sharing a cache directory under different
        # sparse-threshold settings must not share keys: the threshold
        # changes result bits (the checkpoint manifest refuses a resume
        # across it for the same reason).
        from repro.circuit.mna import sparse_mode

        caps = {"sparse": True}
        spec = parse_job_spec(mc_spec())
        base = cache_key(spec, caps)
        with sparse_mode(0):
            assert cache_key(spec, caps) != base
        assert cache_key(spec, caps) == base

    def test_config_elides_netlist_text(self):
        spec = parse_job_spec({"analysis": "op", "netlist": NETLIST})
        config = spec.to_config()
        assert "netlist" not in config
        assert config["netlist_hash"] == spec.netlist_hash


class TestAnalysisParamsAtSubmit:
    """Every analysis param is checked when the job is submitted: a bad
    one is a 400 and never becomes a queued, then refused, job."""

    @pytest.mark.parametrize("analysis,key,value,fragment", [
        ("mc", "samples", 0, ">= 1"),
        ("mc", "samples", 65537, "<= 65536"),
        ("mc", "samples", "64", "must be int"),
        ("mc", "chunk_size", 0, ">= 1"),
        ("mc", "chunk_size", 2.5, "must be int"),
        ("corners", "vdd_source", 3, "must be str"),
        ("aging", "years", 0.0, ">= 0.001"),
        ("aging", "temp_c", "hot", "must be float"),
        ("highsigma", "samples", 15, ">= 16"),
        ("highsigma", "samples", 65537, "<= 65536"),
        ("highsigma", "shift_sigma", -1.0, ">= 0.0"),
        ("highsigma", "surrogate", "gp", "one of off, poly, rbf"),
        ("verify", "include_slow", 1, "must be bool"),
        ("verify", "goldens", 7, "must be str"),
        ("verify", "ids", "E1", "list of experiment ids"),
        ("verify", "ids", ["E1", 2], "list of experiment ids"),
    ])
    def test_bad_param_is_a_400(self, analysis, key, value, fragment):
        payload = {"analysis": analysis, "params": {key: value}}
        if analysis != "verify":
            payload["tech"] = "65nm" if analysis == "highsigma" else "90nm"
        with pytest.raises(JobSpecError, match=key) as info:
            parse_job_spec(payload)
        assert fragment in str(info.value)
        app = ServeApp(ServeConfig(port=0, workers=1, record_runs=False))
        status, response = app.submit(payload)
        assert status == 400, response
        assert response["outcome"] == "refused"
        assert app.get_job("j000001") is None

    def test_checked_params_carry_their_defaults(self):
        mc = parse_job_spec({"analysis": "mc", "tech": "90nm",
                             "params": {"samples": 8}})
        assert mc.analysis_params == {"samples": 8, "chunk_size": 32}
        hs = parse_job_spec({"analysis": "highsigma", "tech": "65nm",
                             "params": {"shift_sigma": 4}})
        assert hs.analysis_params == {"samples": 256, "shift_sigma": 4.0,
                                      "surrogate": "off"}
        assert parse_job_spec({"analysis": "op", "netlist": NETLIST}
                              ).analysis_params == {}


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------

class TestResultCache:
    def test_round_trip_is_bit_identical(self):
        cache = ResultCache(4)
        text = cache.put("k1", {"b": 2, "a": [1.5, float("nan")]})
        assert cache.get("k1") == text == canonical_json(
            {"a": [1.5, float("nan")], "b": 2})

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", {}), cache.put("b", {})
        cache.get("a")  # refresh a; b is now oldest
        cache.put("c", {})
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None

    def test_metrics_counters(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        cache = ResultCache(1, metrics=registry)
        cache.get("missing")
        cache.put("a", {}), cache.get("a"), cache.put("b", {})
        snap = registry.snapshot()["counters"]
        assert snap["serve.cache.misses"] == 1
        assert snap["serve.cache.hits"] == 1
        assert snap["serve.cache.evictions"] == 1

    def test_disk_tier_survives_process_restart(self, tmp_path):
        first = ResultCache(4, root=str(tmp_path))
        text = first.put("k", {"x": 1})
        second = ResultCache(4, root=str(tmp_path))
        assert second.get("k") == text

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        (tmp_path / "bad.json").write_text("{truncated", encoding="utf-8")
        cache = ResultCache(4, root=str(tmp_path))
        assert cache.get("bad") is None

    def test_traversal_key_never_reads_outside_root(self, tmp_path):
        # A key is raw client input via GET /results/<key>: anything
        # that is not a plain file-name component must be a miss, not
        # an open() of an arbitrary JSON file.
        secret = tmp_path / "secret.json"
        secret.write_text('{"leak": true}', encoding="utf-8")
        root = tmp_path / "cache"
        root.mkdir()
        cache = ResultCache(4, root=str(root))
        for key in ("../secret", "a/../../secret", "..", ".",
                    "sub/dir", "..\\secret", ""):
            assert cache.get(key) is None
        assert len(cache) == 0  # nothing traversal-shaped entered the LRU

    def test_traversal_key_never_writes_outside_root(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(4, root=str(root))
        cache.put("../escape", {"x": 1})
        assert not (tmp_path / "escape.json").exists()
        assert not root.exists()  # nothing was spilled at all


class TestEngineSessionCache:
    def test_build_once_then_reuse(self):
        cache = EngineSessionCache(2)
        builds = []
        for _ in range(3):
            with cache.lease(("h", "90nm"), lambda: builds.append(1)
                             or "fixture") as (fixture, reused):
                assert fixture == "fixture"
        assert builds == [1]

    def test_eviction_of_oldest(self):
        cache = EngineSessionCache(2)
        for key in ("a", "b", "c"):
            with cache.lease((key, "t"), lambda: key):
                pass
        assert len(cache) == 2
        with cache.lease(("a", "t"), lambda: "rebuilt") as (fx, reused):
            assert not reused and fx == "rebuilt"

    def test_evicted_fixture_stays_with_its_holder(self):
        # A lease over capacity evicts the oldest session even while it
        # is leased: the holder keeps its fixture, and the next lease
        # on the evicted key builds afresh.
        cache = EngineSessionCache(1)
        held = threading.Event()
        release = threading.Event()
        seen = []

        def holder():
            with cache.lease(("keep", "t"), lambda: "kept") as (fx, _r):
                held.set()
                release.wait(10)
                seen.append(fx)
        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(10)
        with cache.lease(("other", "t"), lambda: "other"):
            assert len(cache) == 1
        release.set()
        thread.join(10)
        assert seen == ["kept"]
        with cache.lease(("keep", "t"), lambda: "rebuilt") as (fx, reused):
            assert not reused and fx == "rebuilt"

    def test_shared_leases_overlap(self):
        # Leases on the same key run concurrently: all three threads
        # reach the barrier inside their lease, which is impossible if
        # they serialise.  The slow build still runs once.
        cache = EngineSessionCache(2)
        barrier = threading.Barrier(3, timeout=10)
        builds, errors = [], []

        def build():
            builds.append(1)
            time.sleep(0.05)
            return "fx"

        def reader():
            try:
                with cache.lease(("same", "t"), build):
                    barrier.wait()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert not errors
        assert builds == [1]

    def test_build_failure_does_not_wedge_the_session(self):
        cache = EngineSessionCache(2)

        def boom():
            raise RuntimeError("compile failed")
        for _ in range(2):
            with pytest.raises(RuntimeError):
                with cache.lease(("same", "t"), boom):
                    pass  # pragma: no cover — build raises first
        with cache.lease(("same", "t"), lambda: "fx") as (fx, reused):
            assert fx == "fx" and not reused


MOSFET_NETLIST = """common-source stage
vdd vdd 0 dc 1.2
vg g 0 dc 0.6
rl vdd out 10k
m1 out g 0 0 n w=1u l=0.1u
.end
"""


class TestSessionsAcrossJobs:
    def test_op_jobs_on_one_netlist_overlap(self, monkeypatch):
        # Two op jobs on one netlist (different seeds, so two cache
        # keys) solve at the same time: both reach the barrier inside
        # their solve, which is impossible if one waits for the other.
        from repro.circuit import dc

        barrier = threading.Barrier(2, timeout=10)
        solve = dc.dc_operating_point

        def meeting_solve(circuit, *args, **kwargs):
            barrier.wait()
            return solve(circuit, *args, **kwargs)
        monkeypatch.setattr(dc, "dc_operating_point", meeting_solve)
        specs = [{"analysis": "op", "tech": "90nm",
                  "netlist": MOSFET_NETLIST, "seed": seed}
                 for seed in (1, 2)]
        with serving(workers=2) as (_app, client, _exit):
            acks = [client.submit_ok(spec) for spec in specs]
            finals = [client.wait(ack["job_id"], timeout=60)
                      for ack in acks]
        assert [f["outcome"] for f in finals] == ["ok", "ok"], finals
        assert finals[0]["result"]["nodes"] == finals[1]["result"]["nodes"]

    def test_build_failure_leaves_the_session_usable(self, monkeypatch):
        import repro.workloads

        build = repro.workloads.netlist_fixture
        calls = []

        def failing_once(netlist, tech):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("build failed")
            return build(netlist, tech)
        monkeypatch.setattr(repro.workloads, "netlist_fixture",
                            failing_once)
        spec = {"analysis": "mc", "tech": "90nm", "netlist": NETLIST,
                "params": {"samples": 4, "node": "mid",
                           "lower": 0.4, "upper": 0.6}, "seed": 3}
        with serving(workers=2) as (_app, client, _exit):
            failed = client.run(spec)
            retried = client.run(spec)
            again = client.run(dict(spec, seed=4))
        assert failed["outcome"] == "error"
        assert "build failed" in failed["snapshot"]["error"]
        assert retried["outcome"] == "ok" and not retried["cached"]
        assert retried["snapshot"]["session_reused"] is False
        assert again["snapshot"]["session_reused"] is True
        assert len(calls) == 2


# ----------------------------------------------------------------------
# Queue
# ----------------------------------------------------------------------

class TestJobQueue:
    def test_priority_order(self):
        queue = JobQueue(8)
        queue.put("low", "low"), queue.put("normal", "normal")
        queue.put("high", "high")
        assert [queue.get(0.1) for _ in range(3)] == \
            ["high", "normal", "low"]

    def test_fairness_interleaves_clients(self):
        queue = JobQueue(8)
        for index in range(3):
            queue.put(f"hog-{index}", "normal", client="hog")
        queue.put("polite-0", "normal", client="polite")
        order = [queue.get(0.1) for _ in range(4)]
        # The hog's 2nd/3rd jobs rank behind the polite client's 1st.
        assert order.index("polite-0") == 1

    def test_arrival_breaks_ties(self):
        queue = JobQueue(8)
        queue.put("first", "normal", client="a")
        queue.put("second", "normal", client="b")
        assert queue.get(0.1) == "first"

    def test_backpressure_raises_with_estimate(self):
        queue = JobQueue(2)
        queue.put("a"), queue.put("b")
        with pytest.raises(Backpressure) as err:
            queue.put("c")
        assert err.value.depth == 2
        assert err.value.retry_after_s >= 1.0

    def test_drain_pending_and_close(self):
        queue = JobQueue(4)
        queue.put("a"), queue.put("b")
        assert queue.drain_pending() == ["a", "b"]
        queue.close()
        assert queue.get(0.05) is None
        with pytest.raises(Backpressure):
            queue.put("c")


# ----------------------------------------------------------------------
# Budgets and fair-share worker counts
# ----------------------------------------------------------------------

class TestCancellableBudget:
    def test_behaves_like_a_deadline(self):
        budget = CancellableBudget.after(0.01, threading.Event())
        assert isinstance(budget, DeadlineBudget)
        time.sleep(0.03)
        assert budget.expired() and budget.remaining() == 0.0
        with pytest.raises(BudgetExpiredError):
            budget.check("test")

    def test_cancel_event_trips_immediately(self):
        event = threading.Event()
        budget = CancellableBudget.after(3600.0, event, reason="drain")
        assert not budget.expired()
        event.set()
        assert budget.expired() and budget.cancelled()
        with pytest.raises(BudgetExpiredError, match="drain"):
            budget.check("test")

    def test_pickles_down_to_plain_deadline(self):
        import pickle

        budget = CancellableBudget.after(60.0, threading.Event())
        clone = pickle.loads(pickle.dumps(budget))
        assert type(clone) is DeadlineBudget
        assert clone.total_s == budget.total_s

    def test_fair_share_jobs(self):
        import multiprocessing

        cores = multiprocessing.cpu_count()
        assert fair_share_jobs(1, lanes=1) == 1
        assert fair_share_jobs(64, lanes=1) <= cores
        assert fair_share_jobs(64, lanes=cores * 2) == 1
        with pytest.raises(ValueError):
            fair_share_jobs(2, lanes=0)

    def test_outcome_exit_codes_match_taxonomy(self):
        assert set(OUTCOME_EXIT_CODES) <= set(runlog.OUTCOMES)
        assert OUTCOME_EXIT_CODES["ok"] == 0
        assert OUTCOME_EXIT_CODES["error"] == 1
        assert OUTCOME_EXIT_CODES["interrupted"] == 130


# ----------------------------------------------------------------------
# Job events, verify caching policy, submit-vs-drain atomicity
# ----------------------------------------------------------------------

class TestJobEventFraming:
    def test_heartbeat_fields_cannot_clobber_framing(self):
        # Engine progress dicts can carry any key; the NDJSON framing
        # fields (seq/event/job_id) must survive a collision.
        job = Job("j000001", parse_job_spec(mc_spec()), "0" * 24)
        job.heartbeat({"event": "evil", "seq": 99, "job_id": "spoof",
                       "done": 3})
        event = job.events_after(0)[-1]
        assert event["event"] == "heartbeat"
        assert event["seq"] == 0
        assert event["job_id"] == "j000001"
        assert event["x_event"] == "evil"
        assert event["x_seq"] == 99 and event["x_job_id"] == "spoof"
        assert event["done"] == 3


class TestVerifyNeverCached:
    def test_verify_is_listed_uncached(self):
        assert "verify" in UNCACHED_ANALYSES

    def test_submit_skips_cache_lookup_for_verify(self):
        # A pre-seeded cache entry for the verify key must not be
        # served: the goldens on disk may have changed since.
        app = ServeApp(ServeConfig(record_runs=False))
        payload = {"analysis": "verify", "params": {"ids": ["E1"]}}
        key = cache_key(parse_job_spec(payload), app.capabilities)
        app.cache.put(key, {"analysis": "verify", "passed": True})
        status, response = app.submit(payload)
        assert status == 202 and response["cached"] is False

    def test_finalize_skips_cache_publish_for_verify(self):
        app = ServeApp(ServeConfig(record_runs=False))
        status, response = app.submit({"analysis": "verify",
                                       "params": {}})
        assert status == 202
        job = app.get_job(response["job_id"])
        app.runner._finalize(job, "ok",
                             {"analysis": "verify", "passed": True},
                             None)
        assert job.state == "done" and len(app.cache) == 0


#: Submits :func:`mc_spec` to a fresh daemon and prints the flags it
#: keyed the submit on, the cache key, and the checkpoint ``accel``
#: manifest of the job's run.
_KEY_PROBE = """
import json
from repro.runner import accel_manifest
from repro.serve import ServeApp, ServeConfig, parse_job_spec
payload = json.loads(%r)
app = ServeApp(ServeConfig(record_runs=False))
status, response = app.submit(payload)
assert status == 202, response
print(json.dumps({"flags": app.capabilities, "key": response["cache_key"],
                  "accel": accel_manifest(
                      parse_job_spec(payload).batch_size)}))
"""


@pytest.mark.skipif(not _ckernel.available(),
                    reason="needs the compiled kernel to switch off")
class TestCapabilityFlagsPerProcess:
    """A process's capability flags never change, so the daemon keys
    every submit on the flags it read at start-up; a process started
    with the kernel switched off keys the same spec apart, and its
    checkpoints record another accelerator manifest."""

    @staticmethod
    def _probe(**env) -> dict:
        base = {k: v for k, v in os.environ.items()
                if k != "REPRO_NO_CKERNEL"}
        out = subprocess.run(
            [sys.executable, "-c", _KEY_PROBE % json.dumps(mc_spec())],
            env=dict(base, PYTHONPATH=str(REPO_ROOT / "src"), **env),
            check=True, capture_output=True, text=True).stdout
        return json.loads(out)

    def test_kill_switch_rekeys_a_second_process(self):
        on = self._probe()
        off = self._probe(REPRO_NO_CKERNEL="1")
        assert on["flags"]["ckernel"] is True
        assert off["flags"] == dict(on["flags"], ckernel=False)
        assert off["key"] != on["key"]
        assert off["accel"] == dict(on["accel"], ckernel=False)
        # This process has the kernel on: the same key as the first.
        app = ServeApp(ServeConfig(record_runs=False))
        assert app.capabilities == on["flags"]
        status, response = app.submit(mc_spec())
        assert status == 202 and response["cache_key"] == on["key"]


class TestSubmitDrainAtomicity:
    def test_submit_after_drain_is_refused_even_with_dead_workers(self):
        # No workers are running: a job that slipped past the drain
        # check would be stranded in 'queued' forever.  The state lock
        # shared by submit and begin_drain forbids that interleaving.
        app = ServeApp(ServeConfig(record_runs=False))
        app.begin_drain("test")
        assert app._finish_drain()  # workers (none) joined; queue closed
        status, response = app.submit(mc_spec())
        assert status == 503 and response["outcome"] == "refused"

    def test_drained_queue_cancels_jobs_it_held(self):
        app = ServeApp(ServeConfig(record_runs=False))
        status, response = app.submit(mc_spec())
        assert status == 202
        app.begin_drain("test")
        job = app.get_job(response["job_id"])
        assert job.state == "cancelled" and job.outcome == "cancelled"


# ----------------------------------------------------------------------
# Black-box service behaviour (shared daemon)
# ----------------------------------------------------------------------

class TestServiceEndpoints:
    def test_healthz_shape(self, server):
        _app, client, _exit = server
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["uptime_s"] >= 0.0

    def test_compute_then_cache_hit_bit_identical(self, server):
        _app, client, _exit = server
        spec = mc_spec(seed=101)
        hits_before = client.metric_value("serve.cache.hits")
        first = client.run(spec)
        assert first["cached"] is False and first["outcome"] == "ok"
        second = client.run(spec)
        assert second["cached"] is True
        # Bit-identical by construction: the raw cached text IS the
        # canonical serialisation of the computed envelope.
        raw = client.result_text(first["cache_key"])
        assert raw == canonical_json(first["result"])
        assert json.loads(raw) == second["result"]
        assert client.metric_value("serve.cache.hits") > hits_before

    def test_different_seed_misses(self, server):
        _app, client, _exit = server
        first = client.run(mc_spec(seed=201))
        other = client.run(mc_spec(seed=202))
        assert other["cached"] is False
        assert other["cache_key"] != first["cache_key"]

    def test_op_on_netlist(self, server):
        _app, client, _exit = server
        reply = client.run({"analysis": "op", "netlist": NETLIST})
        assert reply["outcome"] == "ok"
        nodes = reply["result"]["nodes"]
        assert abs(nodes["mid"] - 0.5) < 1e-6  # 1.5 V across 10k/5k

    def test_mc_on_netlist_node_spec(self, server):
        _app, client, _exit = server
        reply = client.run({
            "analysis": "mc", "tech": "90nm", "netlist": NETLIST,
            "params": {"samples": 6, "node": "mid",
                       "lower": 0.4, "upper": 0.6}, "seed": 3})
        assert reply["outcome"] == "ok"
        assert reply["result"]["yield_fraction"] == 1.0

    def test_mc_unknown_node_refused_in_runner(self, server):
        _app, client, _exit = server
        payload = client.submit_ok({
            "analysis": "mc", "tech": "90nm", "netlist": NETLIST,
            "params": {"samples": 4, "node": "ghost", "lower": 0.0}})
        final = client.wait(payload["job_id"])
        assert final["state"] == "failed"
        assert final["outcome"] == "refused"
        assert "ghost" in final["error"]

    def test_corners(self, server):
        _app, client, _exit = server
        reply = client.run({"analysis": "corners", "tech": "90nm",
                            "params": {}})
        assert reply["outcome"] in ("ok", "degraded")
        values = reply["result"]["values"]["offset"]
        assert any(label.startswith("TT/") for label in values)
        assert reply["result"]["worst_case"]["offset"]["point"] in values

    def test_aging(self, server):
        _app, client, _exit = server
        reply = client.run({"analysis": "aging", "tech": "90nm",
                            "params": {"years": 10.0}})
        result = reply["result"]
        assert result["nbti_dvt_v"] > 0
        assert result["em_mttf_years"] > 0

    def test_verify_single_experiment(self, server):
        _app, client, _exit = server
        reply = client.run({"analysis": "verify",
                            "params": {"ids": ["E1"]}}, timeout=200)
        assert reply["outcome"] == "ok"
        assert reply["result"]["experiments"] == ["E1"]
        assert reply["result"]["passed"] is True

    def test_submit_refusals_are_400(self, server):
        _app, client, _exit = server
        status, payload = client.submit({"analysis": "warp"})
        assert status == 400 and payload["outcome"] == "refused"
        status, _headers, payload = client.request_json("POST", "/jobs")
        assert status == 400

    def test_unknown_job_and_result_are_404(self, server):
        _app, client, _exit = server
        status, _payload = client.job("j999999")
        assert status == 404
        assert client.result_text("no-such-key") is None

    def test_method_and_route_errors(self, server):
        _app, client, _exit = server
        status, _h, _b = client.request("DELETE", "/jobs/j000001")
        assert status == 405
        status, _h, _b = client.request("GET", "/teapot")
        assert status == 404

    def test_oversized_body_is_413(self):
        # Dedicated daemon with a tiny limit: the whole oversized body
        # fits in socket buffers, so the reply arrives before any reset.
        with serving(workers=1, max_body_bytes=1024) as (
                _app, client, _exit):
            body = b"x" * 2048
            status, _h, _b = client.request("POST", "/jobs", body=body)
            assert status == 413

    def test_head_and_body_in_pieces(self, server):
        app, _client, _exit = server
        body = json.dumps(mc_spec(seed=302, params={"samples": 4}))
        head = (f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        reply = _raw_exchange(app.port, head[:9].encode(),
                              head[9:].encode(), body[:5].encode(),
                              body[5:].encode())
        assert reply.startswith(b"HTTP/1.1 202 "), reply[:80]

    def test_event_stream_shape(self, server):
        _app, client, _exit = server
        reply = client.run(mc_spec(seed=301, params={"samples": 8}))
        events = client.events(reply["job_id"])
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert kinds[1] == "started"
        assert kinds[-1] == "finished"
        assert any(k == "heartbeat" for k in kinds)
        beats = [e for e in events if e["event"] == "heartbeat"]
        assert beats[-1]["done"] == beats[-1]["total"] == 8
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_jobs_listing(self, server):
        _app, client, _exit = server
        reply = client.run(mc_spec(seed=401, params={"samples": 4}))
        status, _h, listing = client.request_json("GET", "/jobs")
        assert status == 200
        ids = [j["id"] for j in listing["jobs"]]
        assert reply["job_id"] in ids
        assert all("result" not in j for j in listing["jobs"])

    def test_job_snapshot_fields(self, server):
        _app, client, _exit = server
        reply = client.run(mc_spec(seed=501, params={"samples": 4}))
        snapshot = reply["snapshot"]
        assert snapshot["state"] == "done"
        assert snapshot["cache_key"] == reply["cache_key"]
        assert snapshot["t_end"] >= snapshot["t_start"] >= \
            snapshot["t_submit"]
        assert snapshot["session_reused"] in (True, False)

    def test_session_reuse_across_same_topology(self, server):
        _app, client, _exit = server
        specs = [mc_spec(seed=601 + i, params={"samples": 4})
                 for i in range(2)]
        replies = [client.run(spec) for spec in specs]
        assert replies[1]["snapshot"]["session_reused"] is True

    def test_metrics_exposition_is_strictly_valid(self, server):
        app, client, _exit = server
        families = promexp.scrape("127.0.0.1", app.port)
        assert families["repro_run_info"]["samples"][0][1]["command"] \
            == "serve"
        assert "repro_serve_jobs_submitted_total" in families

    def test_metric_value_helper(self, server):
        _app, client, _exit = server
        assert client.metric_value("serve.jobs.submitted") >= 1
        assert client.metric_value("repro_serve_jobs_submitted_total") >= 1
        assert client.metric_value("no.such.metric", default=-1.0) == -1.0


class TestRequestReading:
    """The request head and body are read under one deadline; a line
    may end in CRLF or a bare LF.  A request the server cannot read is
    closed without a reply, except an oversized body, which is a 413."""

    def test_declared_oversized_body_is_413_before_it_is_sent(self):
        with serving(workers=1, max_body_bytes=1024) as (app, _c, _e):
            reply = _raw_exchange(
                app.port, b"POST /jobs HTTP/1.1\r\n"
                          b"Content-Length: 1000000000\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 413 "), reply[:80]

    @pytest.mark.parametrize("head", [b"GARBAGE\r\n\r\n", b"\r\n\r\n",
                                      b"GET\r\nHost: x\r\n\r\n"])
    def test_malformed_request_line_is_closed_silently(self, server,
                                                       head):
        app, client, _exit = server
        assert _raw_exchange(app.port, head) == b""
        assert client.healthz()["status"]

    def test_eof_before_the_request_line_is_closed_silently(self, server):
        app, client, _exit = server
        assert _raw_exchange(app.port) == b""
        assert client.healthz()["status"]

    def test_head_ending_at_eof_is_served(self, server):
        app, _client, _exit = server
        reply = _raw_exchange(app.port, b"GET /healthz HTTP/1.1\r\n"
                                        b"Host: x\r\n")
        assert reply.startswith(b"HTTP/1.1 200 "), reply[:80]

    def test_bare_lf_line_ends_are_served(self, server):
        app, _client, _exit = server
        body = json.dumps(mc_spec(seed=303, params={"samples": 4}))
        reply = _raw_exchange(
            app.port, f"POST /jobs HTTP/1.1\nHost: x\n"
                      f"Content-Length: {len(body)}\n\n{body}".encode())
        assert reply.startswith(b"HTTP/1.1 202 "), reply[:80]
        reply = _raw_exchange(app.port, b"GET /healthz HTTP/1.0\n\n")
        assert reply.startswith(b"HTTP/1.1 200 "), reply[:80]

    def test_eof_inside_the_body_is_closed_silently(self, server):
        app, client, _exit = server
        assert _raw_exchange(app.port, b"POST /jobs HTTP/1.1\r\n"
                                       b"Content-Length: 50\r\n\r\n"
                                       b"{\"analysis\"") == b""
        assert client.healthz()["status"]

    def test_head_over_the_stream_limit_is_closed_silently(self, server):
        app, client, _exit = server
        huge = b"X-Padding: " + b"a" * (1 << 17) + b"\r\n"
        assert _raw_exchange(app.port, b"GET /healthz HTTP/1.1\r\n",
                             huge, b"\r\n") == b""
        assert client.healthz()["status"]


def _raw_exchange(port: int, *pieces: bytes) -> bytes:
    """Send ``pieces`` as separate writes, half-close, and return every
    byte the server sends before it closes (b"" when it sends none)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            for piece in pieces:
                sock.sendall(piece)
                time.sleep(0.01)
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # the server closed first
            pass
        chunks = []
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
        except OSError:  # reset: it closed with bytes still unread
            pass
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Dedicated daemons: /results hardening, fixture-lease isolation
# ----------------------------------------------------------------------

class TestResultsEndpointHardening:
    def test_traversal_paths_are_404(self, tmp_path):
        # With a disk cache tier, /results/<key> must never open a
        # file outside the cache directory.
        secret = tmp_path / "secret.json"
        secret.write_text('{"leak": true}', encoding="utf-8")
        cache_dir = tmp_path / "cache"
        with serving(workers=1, cache_dir=str(cache_dir)) as (
                _app, client, _exit):
            for path in ("/results/../secret",
                         "/results/../../etc/passwd",
                         "/results/a/../../secret",
                         "/results/..%2Fsecret"):
                status, _headers, data = client.request("GET", path)
                assert status == 404, path
                assert b"leak" not in data

    def test_non_hex_keys_are_404_without_touching_disk(self, server):
        _app, client, _exit = server
        assert client.result_text("0" * 23) is None  # wrong length
        assert client.result_text("G" * 24) is None  # not hex
        assert client.result_text("secret") is None


class TestFixtureLeaseIsolation:
    def test_mc_unskewed_by_concurrent_corners_same_netlist(self):
        # A corners job on the same netlist shares the template with
        # MC and configures its corners on replicas only: MC must see
        # nominal parameters, so its result matches a run with no
        # corners job in flight.
        mc = {"analysis": "mc", "tech": "90nm", "netlist": NETLIST,
              "params": {"samples": 24, "node": "mid", "lower": 0.0},
              "seed": 77, "backend": "thread"}
        corners = {"analysis": "corners", "tech": "90nm",
                   "netlist": NETLIST, "priority": "high",
                   "params": {"node": "mid", "lower": 0.0,
                              "vdd_source": "v1"}}
        with serving(workers=1) as (_app, client, _exit):
            reference = client.run(mc)["result"]
        with serving(workers=2) as (_app, client, _exit):
            corners_ack = client.submit_ok(corners)
            mc_ack = client.submit_ok(mc)
            mc_final = client.wait(mc_ack["job_id"])
            corners_final = client.wait(corners_ack["job_id"])
            assert corners_final["outcome"] in ("ok", "degraded")
            assert mc_final["outcome"] == "ok"
            assert mc_final["result"] == reference

    def test_concurrent_highsigma_jobs_match_serial(self):
        # Jobs that differ only in seed share one SRAM template under a
        # shared lease; the direction probe must not write ΔV_T on it,
        # or one job's probe skews the other's direction.
        def highsigma(seed):
            return {"analysis": "highsigma", "tech": "65nm", "seed": seed,
                    "backend": "serial",
                    "params": {"workload": "sram", "samples": 32,
                               "snm_points": 11, "snm_min_mv": 66.7,
                               "surrogate": "off"}}

        seeds = (5, 6)
        with serving(workers=1) as (_app, client, _exit):
            reference = [client.run(highsigma(s))["result"] for s in seeds]
        with serving(workers=2) as (_app, client, _exit):
            acks = [client.submit_ok(highsigma(s)) for s in seeds]
            finals = [client.wait(ack["job_id"]) for ack in acks]
        assert [f["outcome"] for f in finals] == ["ok", "ok"]
        assert [f["result"] for f in finals] == reference


# ----------------------------------------------------------------------
# Concurrent-client soak (tentpole acceptance)
# ----------------------------------------------------------------------

class TestSoak:
    N_CLIENTS = 9

    def _client_workload(self, index):
        backend = ("serial", "thread", "process")[index % 3]
        if index % 4 == 3:
            return {"analysis": "op",
                    "netlist": NETLIST.replace(
                        "5k", repr(5000.0 + index))}
        return mc_spec(seed=1000 + index, backend=backend,
                       params={"samples": 6 + index % 3},
                       client=f"soak-{index}")

    def test_soak_mixed_backends_deterministic(self, server):
        _app, client, _exit = server
        specs = [self._client_workload(i) for i in range(self.N_CLIENTS)]
        rounds = []
        for _round in range(2):
            replies = [None] * len(specs)

            def drive(index):
                replies[index] = client.run(specs[index], timeout=180)
            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(len(specs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(200)
            assert all(r is not None for r in replies)
            assert all(r["outcome"] == "ok" for r in replies)
            rounds.append(replies)
        for first, second in zip(*rounds):
            assert second["cached"] is True
            assert second["result"] == first["result"]
            raw = client.result_text(first["cache_key"])
            assert raw == canonical_json(first["result"])

    def test_soak_service_still_healthy(self, server):
        _app, client, _exit = server
        assert client.healthz()["status"] == "ok"


# ----------------------------------------------------------------------
# Backpressure, drain, budgets, chaos (dedicated daemons)
# ----------------------------------------------------------------------

class TestBackpressure:
    def test_queue_full_maps_to_429_with_retry_after(self):
        with serving(workers=1, queue_depth=1) as (app, client, _exit):
            slow = mc_spec(params={"samples": 600, "chunk_size": 8},
                           backend="serial")
            seen_429 = None
            for seed in range(40):
                status, headers, payload = client.request_json(
                    "POST", "/jobs", dict(slow, seed=7000 + seed))
                if status == 429:
                    seen_429 = (headers, payload)
                    break
                assert status == 202
            assert seen_429 is not None, "queue never backpressured"
            headers, payload = seen_429
            assert int(headers["retry-after"]) >= 1
            assert payload["retry_after_s"] >= 1.0
            assert client.metric_value(
                "serve.backpressure.rejections") >= 1
            app.begin_drain("test")  # fast teardown: cancel the backlog


class TestDrain:
    def test_drain_cancels_queued_and_stops_running(self):
        with serving(workers=1, drain_grace_s=30.0) as (
                app, client, exit_code):
            running = client.submit_ok(mc_spec(
                seed=8001, backend="serial",
                params={"samples": 20000, "chunk_size": 4}))
            queued = client.submit_ok(mc_spec(
                seed=8002, params={"samples": 50}))
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, snap = client.job(running["job_id"])
                if snap.get("progress", {}).get("done", 0) > 0:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("job never started")
            app.request_stop()
            running_job = app.get_job(running["job_id"])
            queued_job = app.get_job(queued["job_id"])
            assert running_job.wait(30) and queued_job.wait(30)
            assert queued_job.outcome == "cancelled"
            assert running_job.outcome in ("budget", "interrupted")
            # Partial work is returned, not thrown away.
            result = running_job.result
            assert result is not None and result["partial"] is True
            assert 0 < result["n_evaluated"] < result["n_samples"]
        assert exit_code["code"] == 0

    def test_submit_while_draining_is_503(self):
        with serving(workers=1) as (app, client, _exit):
            app.begin_drain("test")
            status, payload = client.submit(mc_spec())
            assert status == 503
            assert payload["outcome"] == "refused"
            assert client.healthz()["status"] == "draining"

    def test_drain_is_idempotent(self):
        with serving(workers=1) as (app, client, _exit):
            app.begin_drain("one")
            app.begin_drain("two")
            assert client.metric_value("serve.drains") == 1


class TestBudgetExpiry:
    def test_budget_stop_returns_partial_result(self):
        with serving(workers=1) as (_app, client, _exit):
            reply = client.run(mc_spec(
                seed=8101, backend="serial", timeout_s=0.4,
                params={"samples": 20000, "chunk_size": 4}), timeout=60)
            assert reply["outcome"] == "budget"
            result = reply["result"]
            assert result["partial"] is True
            assert 0 < result["n_evaluated"] < 20000

    def test_budget_stop_with_checkpoint_is_resumable(self, tmp_path):
        with serving(workers=1, spool=str(tmp_path)) as (
                _app, client, _exit):
            payload = client.submit_ok(mc_spec(
                seed=8201, backend="serial", timeout_s=0.4,
                checkpoint=True,
                params={"samples": 20000, "chunk_size": 4}))
            final = client.wait(payload["job_id"], timeout=60)
            assert final["outcome"] == "budget"
            assert final["resumable"] is True
            manifest = (Path(final["checkpoint_dir"]) / "manifest.json")
            assert manifest.is_file()
            saved = json.loads(manifest.read_text())
            assert saved["completed"], "no chunks checkpointed"

    def test_budget_outcome_never_cached(self):
        with serving(workers=1) as (_app, client, _exit):
            spec = mc_spec(seed=8301, backend="serial", timeout_s=0.3,
                           params={"samples": 20000, "chunk_size": 4})
            first = client.run(spec, timeout=60)
            assert first["outcome"] == "budget"
            assert client.result_text(first["cache_key"]) is None
            second = client.submit_ok(spec)
            assert second["cached"] is False


class TestChaos:
    def test_worker_death_mid_job_degrades_not_kills(self, server):
        _app, client, _exit = server
        reply = client.run(mc_spec(
            seed=8401, backend="thread",
            params={"samples": 12, "fault": {"kill_on": [3]}}))
        assert reply["outcome"] == "degraded"
        result = reply["result"]
        assert result["failure_counts"] == {"WorkerKilledError": 1}
        assert result["degraded"] is True
        assert client.healthz()["status"] == "ok"

    def test_fault_requires_chaos_flag(self):
        with serving(workers=1, chaos=False) as (_app, client, _exit):
            payload = client.submit_ok(mc_spec(
                params={"samples": 4, "fault": {"kill_on": [1]}}))
            final = client.wait(payload["job_id"])
            assert final["outcome"] == "refused"
            assert "chaos" in final["error"]

    def test_fault_refuses_process_backend(self, server):
        _app, client, _exit = server
        payload = client.submit_ok(mc_spec(
            backend="process",
            params={"samples": 4, "fault": {"kill_on": [1]}}))
        final = client.wait(payload["job_id"])
        assert final["outcome"] == "refused"
        assert "picklable" in final["error"]


# ----------------------------------------------------------------------
# Satellite: repo hygiene — run records must never be committed
# ----------------------------------------------------------------------

class TestRepoHygiene:
    def test_no_run_registry_artifacts_tracked(self):
        if not (REPO_ROOT / ".git").exists():
            pytest.skip("not a git checkout")
        try:
            tracked = subprocess.run(
                ["git", "ls-files"], cwd=REPO_ROOT, capture_output=True,
                text=True, check=True, timeout=30).stdout.splitlines()
        except (OSError, subprocess.SubprocessError):
            pytest.skip("git unavailable")
        offenders = [p for p in tracked if p.startswith(".repro/")]
        assert offenders == [], (
            f"run-registry artifacts committed: {offenders}")

    def test_gitignore_covers_run_registry(self):
        text = (REPO_ROOT / ".gitignore").read_text(encoding="utf-8")
        assert ".repro/" in text.split()


# ----------------------------------------------------------------------
# Satellite: /metrics concurrency and port-collision degradation
# ----------------------------------------------------------------------

class TestMetricsConcurrency:
    def test_parallel_scrapes_during_active_run_parse_cleanly(self):
        with serving(workers=1) as (_app, client, _exit):
            client.submit_ok(mc_spec(
                seed=8501, backend="serial",
                params={"samples": 4000, "chunk_size": 8}))
            failures = []

            def scrape_loop():
                try:
                    for _ in range(8):
                        promexp.parse_exposition(client.metrics_text())
                except Exception as exc:  # noqa: BLE001 — recorded
                    failures.append(exc)
            threads = [threading.Thread(target=scrape_loop)
                       for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert failures == []

    def test_exporter_port_collision_degrades_cli_run(self, capsys):
        from repro.cli import main

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = main(["mc", "--tech", "90nm", "--samples", "4",
                         "--metrics-port", str(port)])
        finally:
            blocker.close()
        assert code == 0
        assert "metrics endpoint disabled" in capsys.readouterr().err

    def test_serve_bind_collision_fails_loudly_not_tracebacks(
            self, capsys):
        from repro.cli import main

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = main(["serve", "--port", str(port)])
        finally:
            blocker.close()
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()


# ----------------------------------------------------------------------
# Satellite: run-registry round-trips for serve-produced records
# ----------------------------------------------------------------------

class TestServeRunRecords:
    @pytest.fixture()
    def recording_server(self, tmp_path, monkeypatch):
        runs_dir = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs_dir))
        monkeypatch.delenv("REPRO_NO_RUNLOG", raising=False)
        with serving(workers=1, chaos=True, record_runs=True) as ctx:
            yield ctx, runs_dir

    def test_outcome_taxonomy_round_trips_through_http(
            self, recording_server):
        (_app, client, _exit), runs_dir = recording_server
        client.run(mc_spec(seed=9001, params={"samples": 6}))
        client.run(mc_spec(seed=9002, params={
            "samples": 8, "fault": {"kill_on": [2]}}))
        client.run(mc_spec(seed=9003, backend="serial", timeout_s=0.3,
                           params={"samples": 20000, "chunk_size": 4}),
                   timeout=60)
        refused = client.submit_ok({
            "analysis": "mc", "tech": "90nm", "netlist": NETLIST,
            "params": {"samples": 4, "node": "ghost", "lower": 0.0}})
        client.wait(refused["job_id"])
        records = runlog.RunRegistry(runs_dir).list()
        outcomes = {r["outcome"] for r in records}
        assert {"ok", "degraded", "budget", "refused"} <= outcomes
        for record in records:
            assert record["command"] == "serve.mc"
            assert record["outcome"] in runlog.OUTCOMES
            assert record["exit_code"] == \
                OUTCOME_EXIT_CODES[record["outcome"]]
            assert record["job_id"].startswith("j")
            assert len(record["cache_key"]) == 24
            assert "netlist" not in record["config"]

    def test_mc_record_carries_phases(self, recording_server):
        (_app, client, _exit), runs_dir = recording_server
        reply = client.run({
            "analysis": "mc", "tech": "90nm", "netlist": NETLIST,
            "params": {"samples": 6, "node": "mid",
                       "lower": 0.4, "upper": 0.6}, "seed": 3})
        assert reply["outcome"] == "ok"
        (record,) = runlog.RunRegistry(runs_dir).list()
        phases = record["phases"]
        assert {"serve.job.mc", "run", "chunk", "sample",
                "solve.dc"} <= set(phases)
        assert phases["sample"]["count"] == 6
        assert phases["serve.job.mc"]["count"] == 1

    def test_diff_runs_on_serve_records(self, recording_server):
        (_app, client, _exit), runs_dir = recording_server
        client.run(mc_spec(seed=9101, params={"samples": 6}))
        client.run(mc_spec(seed=9101, params={"samples": 10}))
        records = runlog.RunRegistry(runs_dir).list()
        assert len(records) == 2
        diff = diff_runs(records[0], records[1])
        assert diff["outcome_a"] == diff["outcome_b"] == "ok"
        assert not diff["comparable"]  # sample counts differ
        assert any("params" in d["key"] for d in diff["config_deltas"])

    def test_runs_gc_keeps_newest_serve_records(self, recording_server):
        from repro.cli import main

        (_app, client, _exit), runs_dir = recording_server
        for seed in range(4):
            client.run(mc_spec(seed=9201 + seed, params={"samples": 4}))
        registry = runlog.RunRegistry(runs_dir)
        assert len(registry.list()) == 4
        newest = registry.list()[-1]["run_id"]
        assert main(["runs", "gc", "--keep", "2"]) == 0
        survivors = registry.list()
        assert len(survivors) == 2
        assert survivors[-1]["run_id"] == newest


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------

class TestCliServe:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.port == 8040
        assert args.workers == 2
        assert args.queue_depth == 16
        assert args.chaos is False

    def test_serve_listed_in_module_docstring(self):
        import repro.cli as cli

        assert "serve" in cli.__doc__
