"""The content-addressed result store under ``results/.cache/``.

Layout: one pickled entry per cell, at ``<root>/<key[:2]>/<key>.pkl``
(the two-character fan-out keeps directory listings short at tens of
thousands of entries).  Entries are immutable — a key never maps to a
different payload, so concurrent runs can share a store: writes go
through a same-directory temp file and an atomic ``os.replace``, and
readers either see a complete entry or none.

Beside the entries, ``<root>/scans.json`` holds the code fingerprint's
import scans (:mod:`repro.cache.fingerprint`), so a process that keys
cells against a filled store hashes sources instead of parsing them.
It is derived data: ``stats`` does not count it, ``clear`` and ``gc``
delete it, and the next key that has to parse a source rebuilds it.

The store is strictly **best-effort**.  Every failure mode — missing
file, truncated pickle, schema drift, key mismatch, a full disk on
write — degrades to "recompute the cell", never to an error and never
to a stale result.  That property is what lets ``map_cells`` consult
it unconditionally on the hot path.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.cache.fingerprint import code_fingerprint
from repro.cache.keys import CACHE_SCHEMA_VERSION, cell_key

__all__ = ["CacheEntry", "CacheStats", "ResultCache", "default_cache_dir"]

#: Default store location, overridable via ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = os.path.join("results", ".cache")
#: The fingerprint's scan index, at the store root.
SCAN_INDEX = "scans.json"


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


@dataclass(frozen=True)
class CacheEntry:
    """One cell's cached payload: the result plus replayable cell meta."""

    result: Any
    events: int = 0
    rng_streams: List[str] = field(default_factory=list)
    registry: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time store accounting for ``repro cache stats``."""

    root: str
    entries: int
    total_bytes: int


class ResultCache:
    """Content-addressed cell results, keyed by :func:`cell_key`."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self.scan_index = os.path.join(self.root, SCAN_INDEX)

    # -- keys ---------------------------------------------------------------
    def key_for(self, fn: Callable[..., Any], kwargs: dict) -> str:
        """The content address of ``fn(**kwargs)`` under current sources."""
        fingerprint = code_fingerprint(fn.__module__, index=self.scan_index)
        return cell_key(fn, kwargs, fingerprint)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.pkl")

    # -- read ---------------------------------------------------------------
    def load(self, key: str) -> Optional[CacheEntry]:
        """The entry for ``key``, or ``None`` (miss, corrupt, stale)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception:
            # Missing, truncated, or unreadable: silently recompute.
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA_VERSION
            or payload.get("key") != key
        ):
            return None
        meta = payload.get("meta") or {}
        try:
            entry = CacheEntry(
                result=payload["result"],
                events=int(meta.get("events", 0)),
                rng_streams=list(meta.get("rng_streams", [])),
                registry=dict(meta.get("registry", {})),
            )
        except Exception:
            return None
        self._touch(path)
        return entry

    @staticmethod
    def _touch(path: str) -> None:
        """Refresh the entry's mtime so ``gc`` evicts least-recently-used."""
        try:
            os.utime(path)
        except OSError:
            pass

    # -- write --------------------------------------------------------------
    def store(
        self,
        key: str,
        fn: Callable[..., Any],
        kwargs: dict,
        result: Any,
        events: int = 0,
        rng_streams: Optional[List[str]] = None,
        registry: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Persist one computed cell; returns False on any failure."""
        path = self.path_for(key)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "cell": {
                "fn": f"{fn.__module__}.{fn.__qualname__}",
                "kwargs": repr(kwargs),
            },
            "result": result,
            "meta": {
                "events": events,
                "rng_streams": list(rng_streams or []),
                "registry": dict(registry or {}),
            },
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    # -- maintenance --------------------------------------------------------
    def _entry_paths(self) -> List[str]:
        paths: List[str] = []
        try:
            shards = sorted(os.listdir(self.root))
        except OSError:
            return paths
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            try:
                names = sorted(os.listdir(shard_dir))
            except OSError:
                continue
            paths.extend(
                os.path.join(shard_dir, name)
                for name in names
                if name.endswith(".pkl")
            )
        return paths

    def stats(self) -> CacheStats:
        total = 0
        paths = self._entry_paths()
        for path in paths:
            try:
                total += os.stat(path).st_size
            except OSError:
                pass
        return CacheStats(root=self.root, entries=len(paths), total_bytes=total)

    def _drop_scan_index(self) -> None:
        try:
            os.unlink(self.scan_index)
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every entry and the scan index; returns the entry count."""
        self._drop_scan_index()
        removed = 0
        for path in self._entry_paths():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def gc(self, max_age_days: float = 30.0) -> int:
        """Evict entries untouched for ``max_age_days``; returns count.

        Recency is the entry file's mtime, refreshed on every hit, so
        this is least-recently-*used* eviction, not write-age eviction.
        The scan index is deleted too, which drops the scans of modules
        that no longer exist; the next key that parses rebuilds it.
        """
        if max_age_days < 0:
            raise ValueError(
                f"max_age_days must be non-negative, got {max_age_days}"
            )
        # Host wall clock on purpose: gc reasons about file ages on the
        # host filesystem, never about simulation time.
        cutoff = time.time() - max_age_days * 86400.0
        self._drop_scan_index()
        removed = 0
        for path in self._entry_paths():
            try:
                if os.stat(path).st_mtime < cutoff:
                    os.unlink(path)
                    removed += 1
            except OSError:
                pass
        return removed
