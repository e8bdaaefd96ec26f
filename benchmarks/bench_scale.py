"""Scale-backend benchmark: fluid sweep cost and sharded-DES speedup.

Two scenarios (docs/SCALE.md):

* **fluid sweep** — a 24-point parameter grid at N = 10^6 receivers
  solved by the vectorized mean-field backend (``repro.fluid``).  The
  fluid model's cost is N-independent, so this is the "million
  receivers in under a second" claim, gated directly by
  ``--assert-fluid-seconds``.
* **sharded DES** — one N = 10^5 announce/listen population run as a
  single monolithic shard (K=1, jobs=1) and as K shards over the
  process pool (``--shards``/``--jobs``).  The merged outputs must be
  byte-identical (the shard-count-invariance contract), and on a
  multi-core host the pooled run must beat the monolithic one by
  ``--assert-speedup``.  The speedup gate auto-skips on single-CPU
  hosts — the determinism gate never does.

Emits ``BENCH_scale.json`` annotated with the shared bench schema +
host block via :mod:`annotate_bench`.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py \
        --assert-fluid-seconds 1 --assert-speedup 2 --assert-identical
    make bench-scale
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
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from annotate_bench import record  # noqa: E402

from repro.fluid import FluidParams, solve_many, summarize  # noqa: E402
from repro.protocols.sharded import ShardedMulticastSession  # noqa: E402

#: Fluid sweep grid: losses x timeout multiples x churn rates, all at
#: N = 10^6 receivers over an 80 s horizon at the default step.
FLUID_N = 1_000_000
FLUID_LOSSES = [0.05, 0.1, 0.2, 0.3, 0.4, 0.6]
FLUID_TIMEOUTS = [2, 4]
FLUID_CHURNS = [0.0, 0.02]
FLUID_HORIZON = 80.0
FLUID_DT = 0.05


def _bench_fluid(repeats: int):
    """Best-of-N wall time for the full vectorized sweep."""
    grid = [
        FluidParams(
            loss=loss,
            timeout_multiple=m,
            churn_rate=churn,
            n_receivers=float(FLUID_N),
        )
        for loss in FLUID_LOSSES
        for m in FLUID_TIMEOUTS
        for churn in FLUID_CHURNS
    ]
    best = float("inf")
    runs = None
    for _ in range(repeats):
        start = time.perf_counter()
        runs = solve_many(grid, FLUID_HORIZON, FLUID_DT)
        best = min(best, time.perf_counter() - start)
    summaries = [summarize(run, n_records=4) for run in runs]
    return {
        "points": len(grid),
        "n_receivers": FLUID_N,
        "horizon_s": FLUID_HORIZON,
        "dt_s": FLUID_DT,
        "sweep_s": best,
        "consistency_range": [
            min(s["consistency"] for s in summaries),
            max(s["consistency"] for s in summaries),
        ],
    }


def _sharded_once(n, shards, jobs, horizon, loss):
    session = ShardedMulticastSession(n, shards, loss, seed=0)
    start = time.perf_counter()
    out = session.run(horizon=horizon, jobs=jobs)
    wall = time.perf_counter() - start
    return wall, json.dumps(out["merged"], sort_keys=True), out["metrics"]


def _bench_sharded(n, shards, jobs, horizon, loss):
    mono_s, mono_merged, metrics = _sharded_once(n, 1, 1, horizon, loss)
    pool_s, pool_merged, _ = _sharded_once(n, shards, jobs, horizon, loss)
    return {
        "n_receivers": n,
        "shards": shards,
        "jobs": jobs,
        "horizon_s": horizon,
        "loss": loss,
        "mono_s": mono_s,
        "pooled_s": pool_s,
        "speedup": mono_s / pool_s if pool_s > 0 else 0.0,
        "identical": mono_merged == pool_merged,
        "consistency": metrics["consistency"],
        "false_expiry_per_s": metrics["false_expiry_per_s"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of-N repeats for the fluid sweep (default: 3)",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=100_000,
        help="sharded-DES population size (default: 100000)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=8,
        help="shard count for the pooled DES run (default: 8)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="pool width for the pooled DES run (default: 4)",
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=20.0,
        help="sharded-DES sim horizon in seconds (default: 20)",
    )
    parser.add_argument(
        "--loss",
        type=float,
        default=0.2,
        help="sharded-DES loss probability (default: 0.2)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_scale.json",
        help="result JSON path (default: BENCH_scale.json)",
    )
    parser.add_argument(
        "--assert-fluid-seconds",
        type=float,
        default=None,
        metavar="S",
        help="exit 1 unless the N=10^6 fluid sweep finishes within S "
        "seconds",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 unless the pooled DES run is at least Xx faster "
        "than monolithic (skipped, loudly, on single-CPU hosts)",
    )
    parser.add_argument(
        "--assert-identical",
        action="store_true",
        help="exit 1 unless the monolithic and pooled merged outputs "
        "are byte-identical",
    )
    args = parser.parse_args(argv)

    fluid = _bench_fluid(args.repeats)
    sharded = _bench_sharded(
        args.n, args.shards, args.jobs, args.horizon, args.loss
    )

    payload = {
        "suite": "scale backends",
        "fluid": fluid,
        "sharded": sharded,
    }
    record(args.out, payload)

    print(
        f"fluid  {fluid['points']} pts @ N=1e6 : sweep {fluid['sweep_s']:.3f} s  "
        f"consistency [{fluid['consistency_range'][0]:.4f}, "
        f"{fluid['consistency_range'][1]:.4f}]"
    )
    print(
        f"des    N={sharded['n_receivers']}        : mono {sharded['mono_s']:.2f} s  "
        f"K={sharded['shards']}/jobs={sharded['jobs']} {sharded['pooled_s']:.2f} s  "
        f"speedup {sharded['speedup']:.2f}x  identical: {sharded['identical']}"
    )

    failed = []
    if (
        args.assert_fluid_seconds is not None
        and fluid["sweep_s"] > args.assert_fluid_seconds
    ):
        failed.append(
            f"fluid sweep took {fluid['sweep_s']:.3f} s, over the "
            f"{args.assert_fluid_seconds:g} s budget"
        )
    if args.assert_speedup is not None:
        cores = os.cpu_count() or 1
        if cores < 2:
            print(
                "SKIP: speedup gate needs >= 2 CPUs "
                f"(host has {cores}); determinism gate still applies",
                file=sys.stderr,
            )
        elif sharded["speedup"] < args.assert_speedup:
            failed.append(
                f"sharded speedup {sharded['speedup']:.2f}x below "
                f"required {args.assert_speedup:g}x"
            )
    if args.assert_identical and not sharded["identical"]:
        failed.append(
            "monolithic and pooled merged outputs diverged: the "
            "shard-count-invariance contract is broken"
        )
    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
