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
* :class:`EngineSessionCache` — built circuit fixtures keyed by the
  workload fingerprint.  A session saves a job the netlist parse and
  fixture build; the fixture is a read-only template that Monte-Carlo,
  high-sigma and corners jobs clone per chunk or group of PVT points,
  so any number of jobs lease one fixture at once.  ``op`` builds its
  own fixture and leases nothing.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Hashable, Optional

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
    """One cached topology: the built fixture and the lock its build
    runs under."""

    __slots__ = ("lock", "fixture")

    def __init__(self):
        self.lock = threading.Lock()
        self.fixture = None


class EngineSessionCache:
    """Bounded LRU of built fixtures keyed by workload fingerprint."""

    def __init__(self, capacity: int = 8, metrics=None):
        if capacity < 1:
            raise ValueError("session cache capacity must be at least 1")
        self.capacity = capacity
        self._metrics = metrics
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, _Session]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _inc(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(name)

    @contextmanager
    def lease(self, key: Hashable, build: Callable[[], Any]):
        """Yield ``(fixture, reused)`` for the session under ``key``.

        The fixture is a read-only template: any number of leases on
        one key run at once, and none may write it.  ``build`` runs at
        most once per cache residency, under the session's own lock
        (not the cache lock), so a slow build of one key never blocks
        leases on other keys; a build that raises leaves the session
        empty for the next lease to build.  An evicted session's
        fixture stays valid for the leases that already hold it.
        """
        with self._lock:
            session = self._entries.get(key)
            if session is None:
                session = _Session()
                self._entries[key] = session
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._inc("serve.session.evictions")
            if self._metrics is not None:
                self._metrics.gauge("serve.session.entries",
                                    len(self._entries))
        with session.lock:
            reused = session.fixture is not None
            if not reused:
                session.fixture = build()
                self._inc("serve.session.builds")
            else:
                self._inc("serve.session.reuses")
        yield session.fixture, reused
