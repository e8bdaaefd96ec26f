"""Cache-key derivation: one content address per experiment cell.

A cell is a module-level function plus keyword arguments; by the
runner's determinism contract (PR 1) its result is a pure function of
those kwargs and the code that interprets them.  The key therefore
hashes exactly four things:

* the **cell identity** — ``fn.__module__`` + ``fn.__qualname__``
  (this subsumes the experiment id: every experiment's cells live in
  its own module);
* the **canonicalized kwargs** — a stable JSON encoding where dict
  order is irrelevant and tuples are tagged so they never collide with
  lists (``(1, 2)`` and ``[1, 2]`` are different cells);
* the **cache schema version** — bumping :data:`CACHE_SCHEMA_VERSION`
  orphans every existing entry at once;
* the **code fingerprint** — see :mod:`repro.cache.fingerprint`;
* the **environment pin** — the numpy version (or ``None`` when numpy
  is absent).  The fluid backend draws through numpy's bit
  generators, whose stream layouts numpy only guarantees within a
  version, so an upgrade must orphan vectorized results rather than
  replay them.

Seeds need no special slot: simulation cells carry ``seed`` in their
kwargs, and analytic cells are seed-independent by construction.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Optional

__all__ = ["CACHE_SCHEMA_VERSION", "canonicalize", "cell_key"]

#: Bump to invalidate every cache entry (stored-payload layout changes).
CACHE_SCHEMA_VERSION = 1


def _numpy_version() -> Optional[str]:
    """The installed numpy version, or ``None`` without numpy.

    Module-level so tests can monkeypatch a simulated upgrade.
    """
    try:
        import numpy
    except ImportError:  # pragma: no cover - image always ships numpy
        return None
    return numpy.__version__


def canonicalize(value: Any) -> Any:
    """A JSON-stable structure with the same equality as ``value``.

    Dicts sort by stringified key, tuples are tagged to stay distinct
    from lists, and objects exposing ``__cache_key__()`` canonicalize
    through it (e.g. fault schedules, whose repr omits most knobs —
    keying those on repr alone collided cells that differed only in a
    fault parameter).  Anything else falls back to ``repr`` — which
    keys correctly for value-like objects and, for objects whose repr
    includes identity (memory addresses), degrades to a permanent
    cache miss rather than a false hit.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list,)):
        return [canonicalize(item) for item in value]
    if isinstance(value, tuple):
        return {"__tuple__": [canonicalize(item) for item in value]}
    if isinstance(value, dict):
        return {
            "__dict__": sorted(
                (str(key), canonicalize(item)) for key, item in value.items()
            )
        }
    key_fn = getattr(type(value), "__cache_key__", None)
    if key_fn is not None:
        return {
            "__key__": canonicalize(key_fn(value)),
            "__type__": type(value).__name__,
        }
    return {"__repr__": repr(value)}


def cell_key(fn: Callable[..., Any], kwargs: dict, fingerprint: str) -> str:
    """The content address (SHA-256 hex) of one ``fn(**kwargs)`` cell."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "fn": f"{fn.__module__}.{fn.__qualname__}",
            "kwargs": canonicalize(kwargs),
            "code": fingerprint,
            "env": {"numpy": _numpy_version()},
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()
