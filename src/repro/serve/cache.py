"""Result and engine-session caches for the analysis service.

Two caches with very different lifetimes:

* :class:`ResultCache` — content-addressed result bodies keyed by
  :func:`repro.serve.jobspec.cache_key`.  Values are stored as the
  *canonical JSON text* that was (or would be) sent over the wire, so a
  cache hit is bit-identical to the original computed response by
  construction — no re-serialisation, no float round-trip.  Bounded
  LRU in memory, with optional write-through persistence to a
  directory of ``<key>.json`` files (atomic temp+rename writes, same
  discipline as the run registry).
* :class:`EngineSessionCache` — compiled circuit fixtures keyed by
  (canonical netlist hash, tech).  Parsing a netlist and compiling its
  MNA structure (node indexing, sparsity plan, first factorization) is
  the per-request fixed cost; same-topology requests re-lease the same
  fixture, whose :func:`repro.circuit.dc.dc_engine` cache keyed by
  ``topology_version`` then serves the compiled ``DcEngine`` for free.
  Leases come in two strengths: an *exclusive* lease (the default) for
  jobs that use the fixture's own solver state (op's warm start), and
  a *shared* lease for jobs that treat it as a read-only template
  (Monte-Carlo, high-sigma and corners clone it and never write back).
  Any number of shared leases run concurrently; none overlaps an
  exclusive one.  Jobs on different topologies always run fully in
  parallel.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

__all__ = ["ResultCache", "EngineSessionCache", "canonical_json"]


def canonical_json(payload: Any) -> str:
    """Serialise a result envelope to its one canonical wire form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


class ResultCache:
    """Thread-safe bounded LRU of canonical result texts.

    ``metrics`` is a :class:`repro.telemetry.MetricsRegistry` (or
    ``None``); hits, misses, evictions and the live entry count are
    published under ``serve.cache.*``.
    """

    def __init__(self, capacity: int = 256,
                 root: Optional[str] = None,
                 metrics=None):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self.root = Path(root) if root else None
        self._metrics = metrics
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, str]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _inc(self, name: str, value: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.inc(name, value)

    def _gauge_size(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("serve.cache.entries", len(self._entries))

    def get(self, key: str) -> Optional[str]:
        """The cached canonical text for ``key``, or ``None``."""
        with self._lock:
            text = self._entries.get(key)
            if text is not None:
                self._entries.move_to_end(key)
                self._inc("serve.cache.hits")
                return text
        if self.root is not None:
            text = self._read_disk(key)
            if text is not None:
                with self._lock:
                    self._entries[key] = text
                    self._entries.move_to_end(key)
                    self._evict_locked()
                    self._gauge_size()
                self._inc("serve.cache.hits")
                self._inc("serve.cache.disk_hits")
                return text
        self._inc("serve.cache.misses")
        return None

    def put(self, key: str, payload: Any) -> str:
        """Store a result envelope; returns its canonical text."""
        text = payload if isinstance(payload, str) else canonical_json(payload)
        with self._lock:
            self._entries[key] = text
            self._entries.move_to_end(key)
            self._evict_locked()
            self._gauge_size()
        if self.root is not None:
            self._write_disk(key, text)
        return text

    def _evict_locked(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._inc("serve.cache.evictions")

    # -- optional disk tier -------------------------------------------
    def _disk_path(self, key: str) -> Optional[Path]:
        # ``key`` can be raw client input (GET /results/<key>): only a
        # plain single-component file name may reach the filesystem,
        # or ``../``-style keys would read arbitrary JSON off disk.
        # The HTTP layer additionally rejects anything that is not a
        # generated hex key before it gets here.
        if (not key or key in (".", "..") or "/" in key or "\\" in key
                or os.path.basename(key) != key):
            return None
        return self.root / f"{key}.json"

    def _read_disk(self, key: str) -> Optional[str]:
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, ValueError):
            return None
        try:
            json.loads(text)
        except json.JSONDecodeError:
            return None  # half-written by a dying process: a miss
        return text

    def _write_disk(self, key: str, text: str) -> None:
        from repro.checkpoint import atomic_write_text

        path = self._disk_path(key)
        if path is None:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, text)
        except OSError:
            pass  # persistence is best-effort; memory tier still serves


class _Session:
    """One cached topology: the built fixture plus its reader/writer gate."""

    __slots__ = ("cond", "fixture", "uses", "active", "readers", "writer",
                 "writers_waiting")

    def __init__(self):
        self.cond = threading.Condition()
        self.fixture = None
        self.uses = 0
        self.active = 0  # live leases; evicting would orphan the build
        self.readers = 0  # live shared leases
        self.writer = False  # a live exclusive lease
        self.writers_waiting = 0  # blocked exclusives; gates new readers


class EngineSessionCache:
    """Bounded LRU of compiled fixtures keyed by (netlist hash, tech)."""

    def __init__(self, capacity: int = 8, metrics=None):
        if capacity < 1:
            raise ValueError("session cache capacity must be at least 1")
        self.capacity = capacity
        self._metrics = metrics
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str], _Session]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _inc(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(name)

    @contextmanager
    def lease(self, key: Tuple[str, str], build: Callable[[], Any],
              shared: bool = False):
        """Yield ``(fixture, reused)`` under a session lease.

        An exclusive lease (the default) is for callers that mutate the
        fixture in place: it excludes every other lease on the same
        topology.  A ``shared`` lease is for read-only template users:
        shared leases run concurrently with each other but never with
        an exclusive one.  Waiting exclusives gate new shared leases so
        a stream of readers cannot starve a mutator.

        ``build`` runs at most once per cache residency, under the
        session gate (not the cache lock) so an expensive compile of
        one topology never blocks leases on other topologies.
        """
        with self._lock:
            session = self._entries.get(key)
            if session is None:
                session = _Session()
                self._entries[key] = session
            session.active += 1
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                # Oldest entry nobody is currently leasing; a cache over
                # capacity purely with live leases stays over capacity
                # until one of them releases.
                victim = next((k for k, s in self._entries.items()
                               if s.active == 0), None)
                if victim is None:
                    break
                del self._entries[victim]
                self._inc("serve.session.evictions")
            if self._metrics is not None:
                self._metrics.gauge("serve.session.entries",
                                    len(self._entries))
        try:
            with session.cond:
                if shared:
                    while session.writer or session.writers_waiting:
                        session.cond.wait()
                else:
                    session.writers_waiting += 1
                    try:
                        while session.writer or session.readers:
                            session.cond.wait()
                    finally:
                        session.writers_waiting -= 1
                    session.writer = True
                try:
                    reused = session.fixture is not None
                    if not reused:
                        # Built holding the gate: same-key leases queue
                        # behind the build, so it runs at most once.
                        session.fixture = build()
                        self._inc("serve.session.builds")
                    else:
                        self._inc("serve.session.reuses")
                    session.uses += 1
                    if shared:
                        session.readers += 1
                except BaseException:
                    if not shared:
                        session.writer = False
                    session.cond.notify_all()
                    raise
            try:
                yield session.fixture, reused
            finally:
                with session.cond:
                    if shared:
                        session.readers -= 1
                    else:
                        session.writer = False
                    session.cond.notify_all()
        finally:
            with self._lock:
                session.active -= 1
