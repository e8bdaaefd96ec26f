"""Assert that shadow-checking a traced run stays within its budget.

The spec checker's promise (docs/SPEC.md) is that checking is cheap
enough to leave on: wrapping a live sink in
:class:`repro.spec.checker.CheckingSink` must add **less than 5%** to a
traced quick run-all.  This script measures that promise directly:

1. **Workload** — every registered experiment runs once in quick mode
   with tracing on (packet/record/fault/run categories, the checker's
   full input vocabulary), recording both the wall time and every
   emitted trace record.
2. **Marginal checker cost** — the captured records are replayed
   through a :class:`CheckingSink` wrapped around a null sink, and
   through the bare null sink, best-of-N each.  The difference is the
   exact per-record cost the checker adds to a live run — measured on
   the real event mix, with the run-vs-replay split keeping both
   numbers repeatable (a single A/B of two full run-alls is far too
   noisy for a 5% gate).
3. **Gate** — ``overhead = marginal / traced wall time``;
   ``--assert-pct P`` exits nonzero above P%.  CI runs
   ``--assert-pct 5``.

Every replayed trace must also check green: a benchmark that tolerated
violations would be measuring a broken checker.

Usage::

    PYTHONPATH=src python benchmarks/spec_overhead_check.py --assert-pct 5
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.experiments.registry import EXPERIMENTS, run_experiment  # noqa: E402
from repro.obs import runtime as _obs  # noqa: E402
from repro.obs.trace import (  # noqa: E402
    FAULT,
    PACKET,
    RECORD,
    RUN,
    RingBufferSink,
    Tracer,
)
from repro.spec.checker import CheckingSink  # noqa: E402


class _NullSink:
    """The cheapest possible sink: both replay arms write into it."""

    def write(self, record) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def _traced_run_all(seed: int):
    """Run every experiment traced; return (wall seconds, record lists)."""
    captured = []
    # Wall time is the denominator of the gate: this is deliberately
    # host time, not simulated time.
    start = time.perf_counter()
    for exp_id in EXPERIMENTS:
        sink = RingBufferSink(capacity=None)
        tracer = Tracer(sink, categories=(PACKET, RECORD, FAULT, RUN))
        with _obs.tracing(tracer):
            run_experiment(exp_id, quick=True, seed=seed, jobs=1)
        captured.append((exp_id, sink.records()))
    return time.perf_counter() - start, captured


def _replay(captured, check: bool, repeats: int) -> float:
    """Best-of-N time to push every record through a (checking) sink."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for exp_id, records in captured:
            sink = CheckingSink(_NullSink()) if check else _NullSink()
            write = sink.write
            for record in records:
                write(record)
            if check:
                report = sink.finalize()
                if not report.ok:
                    print(
                        f"FAIL: {exp_id} trace violates invariants:\n"
                        f"{report.describe()}",
                        file=sys.stderr,
                    )
                    raise SystemExit(1)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=3, help="replay passes per arm"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="experiment base seed"
    )
    parser.add_argument(
        "--assert-pct",
        type=float,
        default=None,
        metavar="P",
        help="exit 1 if checking overhead exceeds P percent",
    )
    args = parser.parse_args(argv)

    run_s, captured = _traced_run_all(args.seed)
    events = sum(len(records) for _id, records in captured)
    null_s = _replay(captured, check=False, repeats=args.repeats)
    check_s = _replay(captured, check=True, repeats=args.repeats)
    marginal = max(0.0, check_s - null_s)
    overhead_pct = marginal / run_s * 100.0
    per_event_us = marginal / events * 1e6 if events else 0.0

    print(f"traced quick run-all      : {run_s:.2f} s  ({events:,} events)")
    print(f"checker marginal cost     : {marginal:.2f} s  "
          f"({per_event_us:.2f} us/event)")
    print(f"overhead                  : {overhead_pct:.2f}%")
    if args.assert_pct is not None and overhead_pct > args.assert_pct:
        print(
            f"FAIL: checking overhead {overhead_pct:.2f}% exceeds the "
            f"{args.assert_pct:.1f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
