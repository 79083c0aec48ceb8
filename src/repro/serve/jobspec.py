"""Job specifications for the analysis service.

A job spec is the JSON body of ``POST /jobs``: which analysis to run
(``op``/``mc``/``corners``/``aging``/``highsigma``/``verify``), on what
(a netlist and/or analysis parameters), and how (seed, worker count,
backend, batch size, timeout, priority).  Parsing is strict — unknown
keys are rejected so a typo'd ``smaples`` refuses loudly instead of
silently running the default sample count, and a workload request
that :func:`repro.workloads.resolve` refuses, or an analysis param
that :data:`ANALYSIS_PARAMS` refuses, is a 400, not a job.

The module also owns the two hashes the service lives on:

* :func:`canonical_netlist_hash` — a parse-based canonical form of a
  netlist (whitespace, comments, card order, the title line, and
  engineering-suffix spelling are all normalised away; every node name,
  element parameter and topology detail survives at full ``repr``
  precision).  Two netlists hash identically iff they describe the same
  circuit.
* :func:`cache_key` — the content address of a request's *result*,
  built on :func:`repro.obs.runlog.content_hash` over (analysis,
  canonical netlist hash, tech, params, seed, batch size, capability
  flags, accelerator configuration).  Execution knobs that are proven
  not to change results —
  ``jobs``, ``backend``, ``priority``, ``timeout_s`` — are deliberately
  excluded: the engines are bit-identical across worker counts and
  backends (the PR 1 determinism contract), so a thread-backend replay
  of a process-backend request is a legitimate cache hit.  ``batch_size``,
  the capability flags and :func:`repro.runner.accel_manifest` (the
  fingerprint checkpoints are validated against: C kernel, sparse
  threshold, FD vs analytic Jacobians) stay in the key because they
  select between accelerated paths whose results are only equal to
  tolerance, not to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro import workloads
from repro.circuit.parser import NetlistError, canonical_cards, parse_netlist
from repro.obs.runlog import content_hash
from repro.runner import DEFAULT_CHUNK_SIZE, accel_manifest
from repro.workloads import Param

__all__ = [
    "ANALYSES",
    "ANALYSIS_PARAMS",
    "BACKENDS",
    "PRIORITIES",
    "SPEC_SCHEMA",
    "UNCACHED_ANALYSES",
    "JobSpec",
    "JobSpecError",
    "cache_key",
    "canonical_netlist",
    "canonical_netlist_hash",
    "parse_job_spec",
]

#: Bump when the job-spec layout or result envelopes change shape, or
#: when the same request now computes different bits (2: batched
#: transient specs run the scalar integrator; 3: new ``sram`` defaults);
#: part of every cache key so stale cache entries can never be replayed
#: into a newer protocol.
SPEC_SCHEMA = 3

ANALYSES = ("op", "mc", "corners", "aging", "highsigma", "verify")
BACKENDS = ("auto", "serial", "thread", "process")
PRIORITIES = ("high", "normal", "low")

#: Hex digits kept from the canonical netlist hash.
NETLIST_HASH_LENGTH = 16

#: Hex digits kept from the result cache key (longer than run ids: a
#: cache collision silently serves a wrong answer, so spend the bits).
CACHE_KEY_LENGTH = 24

#: Analyses whose results depend on mutable filesystem state the cache
#: key cannot see (verify reads the goldens directory and the live
#: experiment registry): never served from, or published to, the
#: result cache — a cached verdict would outlive a goldens edit.
UNCACHED_ANALYSES = ("verify",)

#: Samples one mc or highsigma job may ask for.
MAX_SAMPLES = 65536

#: The params each analysis reads besides its workload's.  They are
#: checked at submit, so a bad one is a 400 like a bad workload param.
ANALYSIS_PARAMS: Dict[str, Dict[str, Param]] = {
    "mc": {"samples": Param(int, 64, minimum=1, maximum=MAX_SAMPLES),
           "chunk_size": Param(int, DEFAULT_CHUNK_SIZE, minimum=1)},
    "corners": {"vdd_source": Param(str, "vdd")},
    "aging": {"years": Param(float, 10.0, minimum=0.001),
              "temp_c": Param(float, 105.0)},
    "highsigma": {"samples": Param(int, 256, minimum=16,
                                   maximum=MAX_SAMPLES),
                  "shift_sigma": Param(float, minimum=0.0),
                  "surrogate": Param(str, "off",
                                     choices=("off", "poly", "rbf"))},
    "verify": {"include_slow": Param(bool, False), "goldens": Param(str)},
}

_TOP_LEVEL_KEYS = {
    "analysis", "tech", "netlist", "params", "seed", "jobs", "backend",
    "batch_size", "timeout_s", "priority", "client", "checkpoint",
}


class JobSpecError(ValueError):
    """A job spec is malformed; maps to HTTP 400 / outcome ``refused``."""


@dataclass(frozen=True)
class JobSpec:
    """A validated analysis request (see :func:`parse_job_spec`)."""

    analysis: str
    tech: Optional[str] = None
    netlist: Optional[str] = None
    netlist_hash: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    jobs: int = 1
    backend: str = "auto"
    batch_size: Optional[int] = None
    timeout_s: Optional[float] = None
    priority: str = "normal"
    client: str = "anon"
    checkpoint: bool = False
    workload: Optional[workloads.ResolvedWorkload] = None
    """The checked workload of an mc/corners/highsigma job."""
    analysis_params: Dict[str, Any] = field(default_factory=dict)
    """The checked :data:`ANALYSIS_PARAMS` of the analysis, defaults
    filled in."""

    def to_config(self) -> dict:
        """The run-record ``config`` payload (netlist text elided)."""
        return {
            "analysis": self.analysis,
            "tech": self.tech,
            "workload": (self.workload.fingerprint
                         if self.workload is not None else None),
            "netlist_hash": self.netlist_hash,
            "params": dict(self.params),
            "jobs": self.jobs,
            "backend": self.backend,
            "batch_size": self.batch_size,
            "priority": self.priority,
        }


# ----------------------------------------------------------------------
# Canonical netlist hashing
# ----------------------------------------------------------------------

def canonical_netlist(text: str, tech=None) -> str:
    """The canonical text form of a netlist (sorted cards, one per line)."""
    try:
        circuit = parse_netlist(text, tech)
    except (NetlistError, ValueError, KeyError) as exc:
        raise JobSpecError(f"netlist does not parse: {exc}") from exc
    return "\n".join(canonical_cards(circuit))


def canonical_netlist_hash(text: str, tech=None,
                           length: int = NETLIST_HASH_LENGTH) -> str:
    """Content address of the circuit a netlist describes.

    Invariant under whitespace, comments, card order, the title line
    and number spelling (``10k`` vs ``10000``); sensitive to any node,
    parameter, or element change at full float precision.  MOSFET cards
    need ``tech`` to parse, same as :func:`parse_netlist`.
    """
    return content_hash(canonical_netlist(text, tech).split("\n"),
                        length=length)


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobSpecError(message)


def parse_job_spec(payload: Any) -> JobSpec:
    """Validate a decoded JSON body into a :class:`JobSpec`.

    Raises :class:`JobSpecError` on anything malformed; the server maps
    that to HTTP 400 with outcome ``refused``.
    """
    _require(isinstance(payload, dict), "job spec must be a JSON object")
    unknown = sorted(set(payload) - _TOP_LEVEL_KEYS)
    _require(not unknown, f"unknown job spec keys: {', '.join(unknown)}")

    analysis = payload.get("analysis")
    _require(isinstance(analysis, str) and analysis in ANALYSES,
             f"analysis must be one of {', '.join(ANALYSES)}")

    tech = payload.get("tech")
    _require(tech is None or isinstance(tech, str),
             "tech must be a string technology-node name")
    tech_node = None
    if tech is not None:
        from repro.technology import get_node

        try:
            tech_node = get_node(tech)
        except (KeyError, ValueError) as exc:
            raise JobSpecError(f"unknown technology node {tech!r}") from exc

    netlist = payload.get("netlist")
    _require(netlist is None or isinstance(netlist, str),
             "netlist must be a string")
    netlist_hash = None
    if netlist is not None:
        netlist_hash = canonical_netlist_hash(netlist, tech_node)

    params = payload.get("params", {})
    _require(isinstance(params, dict), "params must be a JSON object")
    _require(all(isinstance(k, str) for k in params),
             "params keys must be strings")

    seed = payload.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool)
             and seed >= 0, "seed must be a non-negative integer")

    jobs = payload.get("jobs", 1)
    _require(isinstance(jobs, int) and not isinstance(jobs, bool)
             and 1 <= jobs <= 64, "jobs must be an integer in [1, 64]")

    backend = payload.get("backend", "auto")
    _require(isinstance(backend, str) and backend in BACKENDS,
             f"backend must be one of {', '.join(BACKENDS)}")

    batch_size = payload.get("batch_size")
    _require(batch_size is None or (isinstance(batch_size, int)
             and not isinstance(batch_size, bool) and batch_size >= 1),
             "batch_size must be a positive integer")

    timeout_s = payload.get("timeout_s")
    _require(timeout_s is None or (isinstance(timeout_s, (int, float))
             and not isinstance(timeout_s, bool) and timeout_s > 0),
             "timeout_s must be a positive number")

    priority = payload.get("priority", "normal")
    _require(isinstance(priority, str) and priority in PRIORITIES,
             f"priority must be one of {', '.join(PRIORITIES)}")

    client = payload.get("client", "anon")
    _require(isinstance(client, str) and 0 < len(client) <= 128,
             "client must be a short non-empty string")

    checkpoint = payload.get("checkpoint", False)
    _require(isinstance(checkpoint, bool), "checkpoint must be a boolean")

    if analysis == "op":
        # tech stays optional: linear netlists parse without a node,
        # and MOSFET cards fail the parse above with a clear refusal.
        _require(netlist is not None, "op analysis requires a netlist")
    if analysis in ("mc", "corners", "highsigma", "aging"):
        _require(tech is not None,
                 f"{analysis} analysis requires a tech node")
    if analysis == "verify":
        ids = params.get("ids")
        _require(ids is None or (isinstance(ids, list) and
                                 all(isinstance(i, str) for i in ids)),
                 "param ids must be a list of experiment ids")
    try:
        analysis_params = {
            key: param.check(key, params.get(key))
            for key, param in ANALYSIS_PARAMS.get(analysis, {}).items()}
    except workloads.WorkloadError as exc:
        raise JobSpecError(str(exc)) from exc
    workload = None
    if analysis in ("mc", "corners", "highsigma"):
        default = ("node" if netlist is not None
                   else "sram" if analysis == "highsigma" else "offset")
        try:
            workload = workloads.resolve(
                params.get("workload", default), params, tech_node,
                analysis=analysis, netlist=netlist,
                netlist_hash=netlist_hash)
        except workloads.WorkloadError as exc:
            raise JobSpecError(str(exc)) from exc

    return JobSpec(
        analysis=analysis, tech=tech, netlist=netlist,
        netlist_hash=netlist_hash, params=dict(params), seed=seed,
        jobs=jobs, backend=backend, batch_size=batch_size,
        timeout_s=float(timeout_s) if timeout_s is not None else None,
        priority=priority, client=client, checkpoint=checkpoint,
        workload=workload, analysis_params=analysis_params)


def cache_key(spec: JobSpec, capabilities: Optional[dict] = None) -> str:
    """Content address of the request's *result* (see module docstring).

    Same key ⇒ the engines' determinism contract guarantees the same
    bits; different params/seed/netlist/tech/batch/capabilities or
    accelerator configuration ⇒ different key.  The accelerator
    configuration is read when the key is computed, so two daemons
    sharing a cache directory under different ``REPRO_FD_JACOBIANS``
    or ``REPRO_SPARSE_MIN_SIZE`` never serve each other's results.
    """
    payload = {
        "schema": SPEC_SCHEMA,
        "analysis": spec.analysis,
        "tech": spec.tech,
        "netlist": spec.netlist_hash,
        "params": spec.params,
        "seed": spec.seed,
        "batch_size": spec.batch_size,
        "capabilities": dict(capabilities or {}),
        "accel": accel_manifest(spec.batch_size),
    }
    return content_hash(payload, length=CACHE_KEY_LENGTH)
