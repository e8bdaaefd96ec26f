"""Assert the lint pass's wall-time budgets over the repo tree.

``repro lint`` runs on every CI push, so its cost is part of the
edit-test loop.  Two budgets keep it honest:

* **cold** — the one pass (per-file rules plus the whole-program
  cache-purity rule) over ``src``, ``benchmarks`` and ``examples``
  starting from an empty parse cache (every file is read, hashed, and
  parsed once);
* **warm** — the same pass again without clearing the cache.  The
  content-hash AST cache (``repro.lint.astcache``) must satisfy every
  load from memory: the warm pass performs *zero* re-parses, which
  this script asserts from ``astcache.stats()`` in addition to the
  wall-time budget.

Best-of-N minimum wall times are compared; ``--assert-cold-seconds``
/ ``--assert-warm-seconds`` exit nonzero on a blown budget.  CI runs
``--assert-cold-seconds 10 --assert-warm-seconds 2`` (``make
bench-lint``).  ``--out`` writes a small JSON payload for tracking
the trend across revisions.

Usage::

    PYTHONPATH=src python benchmarks/bench_lint.py \
        --assert-cold-seconds 10 --assert-warm-seconds 2
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.lint import astcache  # noqa: E402
from repro.lint.engine import lint_paths  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PATHS = [os.path.join(ROOT, name) for name in ("src", "benchmarks", "examples")]


def _timed() -> float:
    # This benchmark's whole point is host wall time: it gates the
    # lint pass's cost on the CI edit-test loop.
    start = time.perf_counter()  # repro-lint: disable=RPR002
    lint_paths(PATHS)
    return time.perf_counter() - start  # repro-lint: disable=RPR002


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=3, help="runs per configuration"
    )
    parser.add_argument(
        "--assert-cold-seconds",
        type=float,
        default=None,
        metavar="S",
        help="exit 1 if the cold (empty parse cache) pass exceeds S seconds",
    )
    parser.add_argument(
        "--assert-warm-seconds",
        type=float,
        default=None,
        metavar="S",
        help="exit 1 if the warm (cached) pass exceeds S seconds",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None, help="write a JSON summary"
    )
    args = parser.parse_args(argv)

    cold = warm = float("inf")
    parses = hits = 0
    for _ in range(args.repeats):
        astcache.clear()
        cold = min(cold, _timed())
        before = astcache.stats()
        warm = min(warm, _timed())
        after = astcache.stats()
        parses = after["parses"] - before["parses"]
        hits = after["hits"] - before["hits"]

    print(f"cold (empty parse cache)   : {cold:.3f} s")
    print(f"warm (content-hash cache)  : {warm:.3f} s")
    print(f"warm pass: {parses} re-parse(s), {hits} cache hit(s)")

    status = 0
    if parses != 0:
        print(
            f"FAIL: warm pass re-parsed {parses} file(s); the content-hash "
            "cache must satisfy every load",
            file=sys.stderr,
        )
        status = 1
    if args.assert_cold_seconds is not None and cold > args.assert_cold_seconds:
        print(
            f"FAIL: cold pass {cold:.3f}s exceeds the "
            f"{args.assert_cold_seconds:.1f}s budget",
            file=sys.stderr,
        )
        status = 1
    if args.assert_warm_seconds is not None and warm > args.assert_warm_seconds:
        print(
            f"FAIL: warm pass {warm:.3f}s exceeds the "
            f"{args.assert_warm_seconds:.1f}s budget",
            file=sys.stderr,
        )
        status = 1

    if args.out:
        payload = {
            "version": 1,
            "cold_seconds": round(cold, 4),
            "warm_seconds": round(warm, 4),
            "warm_reparses": parses,
            "warm_hits": hits,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
