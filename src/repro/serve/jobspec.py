"""Job specifications for the analysis service.

A job spec is the JSON body of ``POST /jobs``: which analysis to run
(``op``/``mc``/``corners``/``aging``/``highsigma``/``verify``), on what
(a netlist and/or analysis parameters), and how (seed, worker count,
backend, batch size, timeout, priority).  Parsing is strict — unknown
keys are rejected so a typo'd ``smaples`` refuses loudly instead of
silently running the default sample count.

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
from typing import Any, Dict, List, Optional

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    DcSpec,
    Diode,
    Inductor,
    PulseSpec,
    PwlSpec,
    Resistor,
    SineSpec,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuit.mosfet import Mosfet
from repro.circuit.netlist import Circuit
from repro.circuit.parser import NetlistError, parse_netlist
from repro.obs.runlog import content_hash
from repro.runner import accel_manifest

__all__ = [
    "ANALYSES",
    "BACKENDS",
    "PRIORITIES",
    "SPEC_SCHEMA",
    "UNCACHED_ANALYSES",
    "JobSpec",
    "JobSpecError",
    "cache_key",
    "canonical_cards",
    "canonical_netlist",
    "canonical_netlist_hash",
    "parse_job_spec",
]

#: Bump when the job-spec layout or result envelopes change shape, or
#: when the same request now computes different bits (2: transient
#: specs under ``batch_size`` run the scalar integrator); part of every
#: cache key so stale cache entries can never be replayed into a newer
#: protocol.
SPEC_SCHEMA = 2

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

    def to_config(self) -> dict:
        """The run-record ``config`` payload (netlist text elided)."""
        return {
            "analysis": self.analysis,
            "tech": self.tech,
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

def _f(value: float) -> str:
    """Full-precision float text.

    ``repr`` round-trips every IEEE double, unlike the writer's ``%g``
    (6 significant digits) — two parameter values that differ in the
    7th digit must land in different cache entries.
    """
    return repr(float(value))


def canonical_cards(circuit: Circuit) -> List[str]:
    """One normalised text card per element, sorted.

    Element names are lowercased (SPICE reads netlists case-insensitively
    for element cards); node names keep their case (the parser treats
    ``OUT`` and ``out`` as distinct nodes).  The title is excluded — it
    is documentation, not electricity.
    """
    cards: List[str] = []
    for element in circuit.elements:
        name = element.name.lower()
        nodes = list(element.node_names)
        if isinstance(element, Resistor):
            parts = ["r", name, *nodes, _f(element.resistance)]
        elif isinstance(element, Capacitor):
            parts = ["c", name, *nodes, _f(element.capacitance),
                     "ic=" + (_f(element.v_initial)
                              if element.v_initial is not None else "none")]
        elif isinstance(element, Inductor):
            parts = ["l", name, *nodes, _f(element.inductance)]
        elif isinstance(element, (VoltageSource, CurrentSource)):
            kind = "v" if isinstance(element, VoltageSource) else "i"
            parts = [kind, name, *nodes, _canonical_spec(element.spec),
                     "ac=" + _f(element.ac_mag or 0.0)]
        elif isinstance(element, Diode):
            parts = ["d", name, *nodes, "is=" + _f(element.i_sat),
                     "n=" + _f(element.ideality)]
        elif isinstance(element, Vccs):
            parts = ["g", name, *nodes, _f(element.gm)]
        elif isinstance(element, Vcvs):
            parts = ["e", name, *nodes, _f(element.gain)]
        elif isinstance(element, Mosfet):
            p = element.params
            parts = ["m", name, *nodes, p.polarity,
                     "w=" + _f(p.w_m), "l=" + _f(p.l_m)]
        else:
            raise JobSpecError(
                f"cannot canonicalise element {type(element).__name__}")
        cards.append(" ".join(parts))
    cards.sort()
    return cards


def _canonical_spec(spec) -> str:
    if isinstance(spec, DcSpec):
        return "dc " + _f(spec.level)
    if isinstance(spec, SineSpec):
        return " ".join(["sin", _f(spec.offset), _f(spec.amplitude),
                         _f(spec.frequency_hz), _f(spec.delay_s),
                         _f(spec.phase_rad)])
    if isinstance(spec, PulseSpec):
        return " ".join(["pulse", _f(spec.v1), _f(spec.v2),
                         _f(spec.delay_s), _f(spec.rise_s), _f(spec.fall_s),
                         _f(spec.width_s), _f(spec.period_s)])
    if isinstance(spec, PwlSpec):
        flat = " ".join(_f(t) + " " + _f(v) for t, v in spec.points)
        return "pwl " + flat
    raise JobSpecError(
        f"cannot canonicalise source spec {type(spec).__name__}")


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

    return JobSpec(
        analysis=analysis, tech=tech, netlist=netlist,
        netlist_hash=netlist_hash, params=dict(params), seed=seed,
        jobs=jobs, backend=backend, batch_size=batch_size,
        timeout_s=float(timeout_s) if timeout_s is not None else None,
        priority=priority, client=client, checkpoint=checkpoint)


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
