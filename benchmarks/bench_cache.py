"""Cold-vs-warm macro-benchmark for the content-addressed result cache.

Runs the full experiment suite twice in quick mode against a fresh
store (``repro.cache``, docs/CACHE.md): the **cold** pass computes and
persists every cell, the **warm** pass must serve every cell from the
store.  The code-fingerprint memo is cleared between the passes, so the
warm pass pays the key fingerprinting a fresh process pays: it re-reads
and hashes every source and re-reads the store's scan index, but
parses nothing the cold pass already scanned.  Emits
``BENCH_runall.json`` (cold vs warm wall time, hit/miss totals,
speedup, sources the warm pass parsed), annotated with the shared bench schema + host block via
:mod:`annotate_bench` so files are comparable across revisions.

Two CI-gable assertions:

* ``--assert-warm`` — the warm pass took zero misses, rendered
  byte-identical outputs to the cold pass (the cache's correctness
  contract, end to end) and parsed no source (the scan index served
  every import scan);
* ``--assert-overhead-pct P`` — with the cache *disabled*, the
  ``map_cells`` dispatch path costs at most P% over invoking the cell
  accounting loop directly (the ``--no-cache`` zero-cost promise).

Usage::

    PYTHONPATH=src python benchmarks/bench_cache.py --assert-warm
    make bench-cache
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from annotate_bench import record  # noqa: E402

from repro.cache import caching, clear_fingerprint_cache  # noqa: E402
from repro.cache.fingerprint import scan_stats  # noqa: E402
from repro.experiments import EXPERIMENTS, run_experiment  # noqa: E402
from repro.experiments.runner import _run_cell, map_cells  # noqa: E402


def _run_pass(ids, jobs, cache):
    """One full quick run-all; returns (wall_s, hits, misses, renders)."""
    wall = 0.0
    hits = misses = 0
    renders = {}
    for experiment_id in ids:
        result = run_experiment(
            experiment_id, quick=True, seed=0, jobs=jobs, cache=cache
        )
        run = result.telemetry["run"]
        wall += run["wall_s"]
        hits += run["cache"]["hits"]
        misses += run["cache"]["misses"]
        renders[experiment_id] = result.render()
    return wall, hits, misses, renders


def _overhead_cell(rep: int, n: int = 20000) -> float:
    total = 0.0
    for i in range(n):
        total += math.sin((i + rep) * 1e-3)
    return total


def _no_cache_overhead_pct(repeats: int = 5, cells: int = 40) -> float:
    """Dispatch overhead of cache-aware ``map_cells`` vs the bare loop.

    Both sides run the same cell accounting (``_run_cell``); the only
    difference is the runner's cache consultation with no cache
    installed — which must be a single ``None`` read per call.
    Configurations interleave and take per-side minima so background
    noise hits both alike (same protocol as overhead_check.py).
    """
    kwargs = [{"rep": index} for index in range(cells)]
    baseline = dispatch = float("inf")
    for _ in range(repeats):
        # This benchmark's whole point is host wall time: it measures
        # the disabled-cache dispatch cost, never simulation state.
        start = time.perf_counter()
        for index, cell in enumerate(kwargs):
            _run_cell(_overhead_cell, index, cell)
        baseline = min(baseline, time.perf_counter() - start)

        start = time.perf_counter()
        with caching(None):
            map_cells(_overhead_cell, kwargs, jobs=1)
        dispatch = min(dispatch, time.perf_counter() - start)
    return (dispatch - baseline) / baseline * 100.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=1, help="runner --jobs for both passes"
    )
    parser.add_argument(
        "--dir",
        default=None,
        help="store root (default: a throwaway temp directory)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_runall.json",
        help="result JSON path (default: BENCH_runall.json)",
    )
    parser.add_argument(
        "--assert-warm",
        action="store_true",
        help="exit 1 unless the warm pass is 100%% hits with "
        "byte-identical rendered output and parses no source",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 unless warm is at least X times faster than cold",
    )
    parser.add_argument(
        "--assert-overhead-pct",
        type=float,
        default=None,
        metavar="P",
        help="exit 1 if disabled-cache dispatch overhead exceeds P%%",
    )
    args = parser.parse_args(argv)

    ids = sorted(EXPERIMENTS)
    scratch = None
    if args.dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
        store_root = scratch.name
    else:
        store_root = args.dir
    os.environ["REPRO_CACHE_DIR"] = store_root

    try:
        cold_wall, cold_hits, cold_misses, cold_renders = _run_pass(
            ids, args.jobs, cache=True
        )
        # A fresh process re-reading the store fingerprints every
        # experiment again; time that, not the cold pass's memo.
        clear_fingerprint_cache()
        warm_wall, warm_hits, warm_misses, warm_renders = _run_pass(
            ids, args.jobs, cache=True
        )
        warm_parsed = scan_stats()["parsed"]
    finally:
        if scratch is not None:
            scratch.cleanup()

    identical = warm_renders == cold_renders
    speedup = cold_wall / warm_wall if warm_wall > 0 else float("inf")
    overhead_pct = None
    if args.assert_overhead_pct is not None:
        overhead_pct = _no_cache_overhead_pct()

    payload = {
        "suite": "run-all --quick",
        "experiments": ids,
        "jobs": args.jobs,
        "cold": {"wall_s": cold_wall, "hits": cold_hits, "misses": cold_misses},
        "warm": {"wall_s": warm_wall, "hits": warm_hits, "misses": warm_misses},
        "warm_speedup": speedup,
        "warm_identical": identical,
        "warm_parsed_sources": warm_parsed,
        "no_cache_overhead_pct": overhead_pct,
    }
    record(args.out, payload)

    print(f"cold pass : {cold_wall:.3f} s  ({cold_misses} cells computed)")
    print(f"warm pass : {warm_wall:.3f} s  ({warm_hits} cells from store)")
    print(f"speedup   : {speedup:.1f}x    identical output: {identical}")
    print(f"warm pass parsed {warm_parsed} sources")
    if overhead_pct is not None:
        print(f"--no-cache dispatch overhead: {overhead_pct:.2f}%")

    failed = []
    if args.assert_warm:
        if warm_misses != 0 or warm_hits != cold_misses:
            failed.append(
                f"warm pass not fully cached: hits={warm_hits} "
                f"misses={warm_misses} (cold computed {cold_misses})"
            )
        if not identical:
            diverged = sorted(
                experiment_id
                for experiment_id in ids
                if warm_renders[experiment_id] != cold_renders[experiment_id]
            )
            failed.append(f"warm output diverged for {diverged}")
        if warm_parsed != 0:
            failed.append(
                f"warm pass parsed {warm_parsed} sources; the store's "
                "scan index should have served every scan"
            )
    if args.assert_speedup is not None and speedup < args.assert_speedup:
        failed.append(
            f"warm speedup {speedup:.1f}x below required "
            f"{args.assert_speedup:g}x"
        )
    if args.assert_overhead_pct is not None and (
        overhead_pct > args.assert_overhead_pct
    ):
        failed.append(
            f"--no-cache overhead {overhead_pct:.2f}% exceeds "
            f"{args.assert_overhead_pct:g}%"
        )
    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
