"""Stamp benchmark JSON files with schema/host metadata and history.

``make bench-json`` / ``bench_cache.py`` / ``bench_scale.py`` emit
benchmark payloads.  This module gives every ``BENCH_*.json`` a shared
envelope so downstream tooling (``repro report`` in particular) can
track the perf trajectory across revisions and machines:

* ``bench_schema_version`` — bumped when we change what we record
  (v1: flat annotation only; v2: adds ``history``);
* ``host`` — the same compact host block run telemetry uses
  (python version, implementation, cpu count, platform);
* ``history`` — a bounded list of ``{host, payload}`` entries, newest
  last.  Re-recording an identical payload is a no-op, so annotation
  is idempotent; recording a fresh payload *appends* instead of
  overwriting, which is what makes cross-run deltas possible at all.

No timestamps are recorded: entries are content-only, so files stay
byte-reproducible for identical runs.

Usage::

    # annotate/backfill in place (v1 files become history entry 0):
    python benchmarks/annotate_bench.py BENCH_scale.json

    # fold a freshly generated payload into a history-bearing file:
    python benchmarks/annotate_bench.py BENCH_micro.json \
        --payload BENCH_micro.new.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.obs.telemetry import host_metadata  # noqa: E402

BENCH_SCHEMA_VERSION = 2

#: Bounded history length; matches repro.obs.report.HISTORY_LIMIT.
HISTORY_LIMIT = 20

_ENVELOPE_KEYS = ("bench_schema_version", "host", "history")


def _core_payload(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The measurement payload with the envelope keys stripped."""
    return {k: v for k, v in doc.items() if k not in _ENVELOPE_KEYS}


def _load(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def record(path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Write ``payload`` to ``path``, preserving and extending history.

    The existing file's history carries over; a pre-history (v1) file
    is backfilled as the first entry.  ``payload`` becomes the new
    top-level measurement and, unless identical to the newest entry,
    is appended to ``history`` (bounded to :data:`HISTORY_LIMIT`).
    """
    payload = _core_payload(payload)
    history: List[Dict[str, Any]] = []
    existing = _load(path)
    if existing is not None:
        carried = existing.get("history")
        if isinstance(carried, list):
            history = list(carried)
        else:
            # v1 file: its payload is the trajectory's first entry.
            history = [
                {
                    "host": existing.get("host", host_metadata()),
                    "payload": _core_payload(existing),
                }
            ]
    host = host_metadata()
    if not history or history[-1].get("payload") != payload:
        history.append({"host": host, "payload": payload})
    history = history[-HISTORY_LIMIT:]
    doc = dict(payload)
    doc["bench_schema_version"] = BENCH_SCHEMA_VERSION
    doc["host"] = host
    doc["history"] = history
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return doc


def annotate(path: str) -> None:
    """Annotate/backfill ``path`` in place (idempotent)."""
    doc = _load(path)
    if doc is None:
        raise SystemExit(f"cannot read benchmark file: {path}")
    record(path, _core_payload(doc))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path",
        nargs="?",
        default="BENCH_micro.json",
        help="benchmark JSON file to annotate (and keep history in)",
    )
    parser.add_argument(
        "--payload",
        default=None,
        metavar="SRC",
        help="fold the payload of SRC into PATH instead of annotating "
        "PATH's own payload (used by `make bench-json`, where "
        "pytest-benchmark writes a fresh file each run)",
    )
    args = parser.parse_args(argv)
    if args.payload is not None:
        payload = _load(args.payload)
        if payload is None:
            print(
                f"cannot read payload file: {args.payload}", file=sys.stderr
            )
            return 1
        doc = record(args.path, payload)
    else:
        doc = _load(args.path)
        if doc is None:
            print(f"cannot read benchmark file: {args.path}", file=sys.stderr)
            return 1
        doc = record(args.path, _core_payload(doc))
    print(
        f"annotated {args.path}: bench_schema_version={BENCH_SCHEMA_VERSION}, "
        f"history={len(doc['history'])} entries, "
        f"host={doc['host']['python']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
