"""Assert the observability hooks' overhead budgets on the kernel.

The observability layer's core promise is *zero cost when disabled*:
every hook is a guarded attribute (``tr = self._trace; if tr is not
None and tr.kernel: ...``), and the kernel's untraced run loops are the
PR-1 fast paths, selected once per ``run()`` call.  This script
measures that promise on the same timeout-chain workload as the kernel
micro-benchmark, under three configurations:

* **baseline** — no tracer, no profiler (``_trace``/``_profile`` are
  ``None``);
* **disabled** — a tracer installed with *every category off*, its
  sink wrapped in a ``SpanSink`` (so the span layer's wrapper is in
  place too), and no profiler: each hook takes the longest possible
  no-op path yet still emits nothing and the untraced run loop is
  still selected;
* **enabled** — a sampling :class:`~repro.obs.profile.Profiler`
  installed (``_run_instrumented`` loop, default 1-in-16 sampling), the
  configuration a ``REPRO_PROFILE=1`` run pays.

Best-of-N minimum wall times are compared; ``--assert-pct P`` exits
nonzero if the disabled configuration is more than P% slower than the
baseline, ``--assert-enabled-pct Q`` likewise for the profiled
configuration.  CI runs ``--assert-pct 3 --assert-enabled-pct 10``.

Usage::

    PYTHONPATH=src python benchmarks/overhead_check.py \
        --assert-pct 3 --assert-enabled-pct 10
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.des import Environment  # noqa: E402
from repro.obs import (  # noqa: E402
    Profiler,
    RingBufferSink,
    SpanSink,
    Tracer,
    profiling,
    tracing,
)


def _workload(n_timeouts: int) -> None:
    env = Environment()

    def chain(env):
        for _ in range(n_timeouts):
            yield env.timeout(1.0)

    env.process(chain(env))
    env.run()


def _timed(n_timeouts: int) -> float:
    # This benchmark's whole point is host wall time: it measures the
    # kernel's observability-hook overhead.
    start = time.perf_counter()
    _workload(n_timeouts)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--events", type=int, default=200_000, help="timeouts per run"
    )
    parser.add_argument(
        "--repeats", type=int, default=7, help="runs per configuration"
    )
    parser.add_argument(
        "--assert-pct",
        type=float,
        default=None,
        metavar="P",
        help="exit 1 if disabled-hooks overhead exceeds P percent",
    )
    parser.add_argument(
        "--assert-enabled-pct",
        type=float,
        default=None,
        metavar="Q",
        help="exit 1 if sampled-profiler overhead exceeds Q percent",
    )
    args = parser.parse_args(argv)

    # Warm up once so no configuration pays import/allocation cost,
    # then interleave the configurations: clock-frequency drift and
    # background load hit all alike, and the per-configuration minimum
    # discards one-sided noise.
    _workload(args.events // 10)

    baseline = disabled = enabled = float("inf")
    for _ in range(args.repeats):
        baseline = min(baseline, _timed(args.events))
        with tracing(
            Tracer(sink=SpanSink(RingBufferSink()), categories=())
        ):
            disabled = min(disabled, _timed(args.events))
        with profiling(Profiler()):
            enabled = min(enabled, _timed(args.events))

    disabled_pct = (disabled - baseline) / baseline * 100.0
    enabled_pct = (enabled - baseline) / baseline * 100.0
    rate = args.events / baseline
    print(f"baseline (no hooks)        : {baseline:.4f} s  ({rate:,.0f} ev/s)")
    print(f"tracer+spans, all cats off : {disabled:.4f} s  ({disabled_pct:+.2f}%)")
    print(f"profiler, 1-in-16 sampling : {enabled:.4f} s  ({enabled_pct:+.2f}%)")
    status = 0
    if args.assert_pct is not None and disabled_pct > args.assert_pct:
        print(
            f"FAIL: disabled overhead {disabled_pct:.2f}% exceeds the "
            f"{args.assert_pct:.1f}% budget",
            file=sys.stderr,
        )
        status = 1
    if (
        args.assert_enabled_pct is not None
        and enabled_pct > args.assert_enabled_pct
    ):
        print(
            f"FAIL: enabled overhead {enabled_pct:.2f}% exceeds the "
            f"{args.assert_enabled_pct:.1f}% budget",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
