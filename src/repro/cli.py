"""Command-line interface: ``python -m repro``.

Subcommands:

* ``analyze``    — evaluate the Section 3 closed forms at a parameter
  point (consistency, waste, latency, stability);
* ``simulate``   — run one protocol session (open-loop | two-queue |
  feedback | arq | multicast | sstp) and print its metrics;
* ``experiment`` — alias for ``python -m repro.experiments``;
* ``run-all``    — every experiment in one go; with ``--cache``,
  incrementally (unchanged cells come from the result store);
* ``cache``      — inspect or maintain the content-addressed result
  store (``stats`` | ``clear`` | ``gc``; see docs/CACHE.md);
* ``trace``      — run one experiment with structured tracing enabled
  and stream the events to ``results/<id>/trace.jsonl``;
* ``stats``      — run one experiment and print its merged metric
  registry plus run telemetry;
* ``spans``      — fold a recorded trace into causal lifecycle spans
  (record / packet / repair provenance; see docs/SPANS.md);
* ``report``     — cross-run regression report over
  ``results/*/telemetry.json`` and the ``BENCH_*.json`` history;
* ``check``      — replay a JSONL trace (or trace an experiment first)
  through the invariant library and print the verdict
  (see docs/SPEC.md);
* ``chaos``      — property-test the invariants under seeded random
  fault schedules (see docs/SPEC.md).

Examples::

    python -m repro analyze --p-loss 0.1 --p-death 0.2 \
        --update-rate 20 --channel-rate 128
    python -m repro simulate feedback --loss 0.3 --data-kbps 40 \
        --feedback-kbps 5 --update-rate 15 --horizon 400
    python -m repro experiment figure8 --quick
    python -m repro run-all --quick --jobs 4 --cache
    python -m repro cache stats
    python -m repro trace figure3 --category packet
    python -m repro trace figure9 --format perfetto
    python -m repro stats figure8
    python -m repro spans figure9
    python -m repro report --threshold 5
    python -m repro check results/figure3/trace.jsonl
    python -m repro check --experiment figure3
    python -m repro chaos --runs 20 --seed 0 --jobs 4
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro.analysis import OpenLoopModel
from repro.experiments.__main__ import main as experiments_main
from repro.obs import CATEGORIES, JsonlSink, Tracer, tracing
from repro.obs.telemetry import write_telemetry
from repro.protocols import (
    ArqSession,
    FeedbackSession,
    MulticastFeedbackSession,
    OpenLoopSession,
    TwoQueueSession,
)
from repro.sstp import ReliabilityLevel, SstpSession


def _analyze(args: argparse.Namespace) -> int:
    solution = OpenLoopModel(
        update_rate=args.update_rate,
        channel_rate=args.channel_rate,
        p_loss=args.p_loss,
        p_death=args.p_death,
    ).solve()
    print(f"utilization rho      : {solution.utilization:.4f}"
          + ("" if solution.stable else "  (UNSTABLE)"))
    print(f"expected consistency : {solution.expected_consistency:.4f}")
    print(f"redundant bandwidth  : {solution.redundant_fraction:.2%}")
    print(f"receipt probability  : {solution.receipt_probability:.4f}")
    latency = solution.mean_receive_latency
    if latency == float("inf"):
        print("mean receive latency : inf (overloaded)")
    else:
        print(f"mean receive latency : {latency:.4f} s")
    return 0


def _simulate(args: argparse.Namespace) -> int:
    common = dict(
        loss_rate=args.loss,
        update_rate=args.update_rate,
        lifetime_mean=args.lifetime,
        seed=args.seed,
    )
    if args.protocol == "open-loop":
        session = OpenLoopSession(data_kbps=args.data_kbps, **common)
    elif args.protocol == "two-queue":
        session = TwoQueueSession(
            hot_share=args.hot_share, data_kbps=args.data_kbps, **common
        )
    elif args.protocol == "feedback":
        session = FeedbackSession(
            hot_share=args.hot_share,
            data_kbps=args.data_kbps,
            feedback_kbps=args.feedback_kbps,
            **common,
        )
    elif args.protocol == "arq":
        session = ArqSession(
            data_kbps=args.data_kbps,
            ack_kbps=max(args.feedback_kbps, 1.0),
            **common,
        )
    elif args.protocol == "multicast":
        session = MulticastFeedbackSession(
            n_receivers=args.receivers,
            data_kbps=args.data_kbps,
            feedback_kbps=max(args.feedback_kbps, 0.5),
            hot_share=args.hot_share,
            **common,
        )
    elif args.protocol == "sstp":
        return _simulate_sstp(args)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.protocol)

    result = session.run(horizon=args.horizon, warmup=args.horizon / 5.0)
    print(f"protocol             : {args.protocol}")
    print(f"consistency          : {result.consistency:.4f}")
    print(f"mean receive latency : {result.mean_receive_latency:.4f} s")
    print(f"data packets         : {result.data_packets}")
    if hasattr(result, "redundant_fraction"):
        print(f"redundant bandwidth  : {result.redundant_fraction:.2%}")
    if getattr(result, "nacks_sent", 0):
        print(f"NACKs sent           : {result.nacks_sent}")
    if getattr(result, "nacks_suppressed", 0):
        print(f"NACKs suppressed     : {result.nacks_suppressed}")
    return 0


def _simulate_sstp(args: argparse.Namespace) -> int:
    import random

    session = SstpSession(
        total_kbps=args.data_kbps + args.feedback_kbps,
        n_receivers=args.receivers,
        loss_rate=args.loss,
        reliability=ReliabilityLevel.RELIABLE,
        seed=args.seed,
        adapt_interval=None,
    )
    rng = random.Random(args.seed)

    def publisher(env):
        index = 0
        # Scale kbps to packets/s: 1 packet = 1 kbit.
        while True:
            yield env.timeout(rng.expovariate(max(args.update_rate, 0.01)))
            session.publish(f"data/item{index}", index)
            index += 1

    session.env.process(publisher(session.env))
    result = session.run(horizon=args.horizon, warmup=args.horizon / 5.0)
    print("protocol             : sstp (reliable)")
    print(f"consistency          : {result.consistency:.4f}")
    print(f"mean receive latency : {result.mean_receive_latency:.4f} s")
    print(f"ADU / summary pkts   : {result.adu_packets} / {result.summary_packets}")
    print(f"repair requests      : {result.repair_requests}")
    return 0


def _cache(args: argparse.Namespace) -> int:
    from repro.cache import ResultCache

    cache = ResultCache(args.dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"store     : {stats.root}")
        print(f"entries   : {stats.entries}")
        print(f"size      : {stats.total_bytes / 1024.0:.1f} KiB")
    elif args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.root}")
    elif args.action == "gc":
        removed = cache.gc(max_age_days=args.max_age_days)
        print(
            f"evicted {removed} entries not used for "
            f"{args.max_age_days:g} days from {cache.root}"
        )
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.action)
    return 0


def _trace(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    if args.experiment not in EXPERIMENTS:
        # Checked before the sink opens, so a bad ID never leaves an
        # empty results/<ID>/trace.jsonl behind.
        print(
            f"error: unknown experiment {args.experiment!r}; "
            f"choose from {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 1
    out = args.out or os.path.join("results", args.experiment, "trace.jsonl")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    tracer = Tracer(sink=JsonlSink(out), categories=args.category or None)
    try:
        # All categories share one JSONL sink, and forked workers would
        # interleave writes into it — trace runs are always sequential.
        with tracing(tracer):
            result = run_experiment(
                args.experiment,
                quick=not args.full,
                seed=args.seed,
                jobs=1,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        tracer.close()
    write_telemetry(
        os.path.join("results", args.experiment, "telemetry.json"),
        result.telemetry,
    )
    tallies: Dict[str, int] = {}
    shown = 0
    with open(out, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            tallies[row["cat"]] = tallies.get(row["cat"], 0) + 1
            if shown < args.limit:
                print(line.rstrip("\n"))
                shown += 1
    total = sum(tallies.values())
    if total > shown:
        print(f"... ({total - shown} more)")
    summary = "  ".join(f"{cat}={n}" for cat, n in sorted(tallies.items()))
    wanted = ",".join(args.category) if args.category else "all"
    print(f"{total} events ({wanted}) -> {out}")
    if summary:
        print(f"by category: {summary}")
    if args.format == "perfetto":
        from repro.obs.fold import replay_file
        from repro.obs.perfetto import report_to_trace_events
        from repro.obs.spans import SpanBuilder

        perfetto_out = os.path.splitext(out)[0] + ".perfetto.json"
        (spans,) = replay_file(out, SpanBuilder())
        document = report_to_trace_events(spans)
        with open(perfetto_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        print(
            f"{len(document['traceEvents'])} trace events -> {perfetto_out} "
            "(open in ui.perfetto.dev or chrome://tracing)"
        )
    return 0


def _stats(args: argparse.Namespace) -> int:
    from repro.experiments.common import format_table
    from repro.experiments.registry import run_experiment

    try:
        result = run_experiment(
            args.experiment,
            quick=not args.full,
            seed=args.seed,
            jobs=args.jobs,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = result.telemetry
    path = os.path.join("results", args.experiment, "telemetry.json")
    write_telemetry(path, payload)
    run = payload["run"]
    print(f"== {args.experiment}: run telemetry ==")
    print(
        f"   cells={run['cells']}  events={run['events']}  "
        f"events/s={run['events_per_sec']:.0f}  "
        f"wall={run['wall_s']:.2f}s  jobs={run['jobs']}"
    )
    rows = []
    for name, entry in payload["registry"].items():
        for series in entry["series"]:
            value = series["value"]
            row = {
                "instrument": name,
                "kind": entry["kind"],
                "labels": ",".join(series["labels"]) or "-",
            }
            if entry["kind"] == "histogram":
                row["value"] = value["count"]
                row["mean"] = (
                    value["sum"] / value["count"] if value["count"] else ""
                )
            else:
                row["value"] = value
                row["mean"] = ""
            rows.append(row)
    print(format_table(rows) if rows else "   (no metric series)")
    print(f"   telemetry -> {path}")
    return 0


def _spans(args: argparse.Namespace) -> int:
    from repro.obs.fold import replay_file
    from repro.obs.spans import SpanBuilder

    path = args.trace or os.path.join(
        "results", args.experiment, "trace.jsonl"
    )
    if not os.path.isfile(path) or os.path.getsize(path) == 0:
        # Missing or zero-byte (a run that died before its first
        # event): both mean there is nothing to fold yet.
        print(
            f"error: no trace for experiment {args.experiment!r}: "
            f"expected {path} "
            f"(run `python -m repro trace {args.experiment}` first)",
            file=sys.stderr,
        )
        return 1
    (report,) = replay_file(path, SpanBuilder())
    print(report.describe(limit=args.limit))
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=1)
            handle.write("\n")
        print(f"spans -> {args.json}")
    return 0 if report.reconciliation()["reconciled"] else 1


def _report(args: argparse.Namespace) -> int:
    from repro.obs.report import build_report, render_markdown, render_text

    report = build_report(
        results_dir=args.results_dir,
        bench_pattern=args.bench,
        history_path=args.history,
        threshold_pct=args.threshold,
    )
    rendered = (
        render_markdown(report)
        if args.format == "markdown"
        else render_text(report)
    )
    print(rendered)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"report -> {args.out}")
    if args.fail_on_regression and report["regressions"]:
        return 1
    return 0


def _check(args: argparse.Namespace) -> int:
    from repro.obs.fold import replay_file
    from repro.spec.checker import ShadowChecker

    path = args.trace
    if args.experiment:
        if path:
            print(
                "give either a trace path or --experiment, not both",
                file=sys.stderr,
            )
            return 2
        from repro.experiments.registry import run_experiment

        path = os.path.join("results", args.experiment, "trace.jsonl")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tracer = Tracer(sink=JsonlSink(path))
        try:
            # One shared JSONL sink -> sequential, like `repro trace`.
            with tracing(tracer):
                run_experiment(
                    args.experiment,
                    quick=not args.full,
                    seed=args.seed,
                    jobs=1,
                )
        finally:
            tracer.close()
        print(f"traced {args.experiment} -> {path}")
    elif not path:
        print("give a trace path or --experiment ID", file=sys.stderr)
        return 2
    (report,) = replay_file(path, ShadowChecker())
    print(report.describe())
    return 0 if report.ok else 1


def _chaos(args: argparse.Namespace) -> int:
    from repro.spec import chaos as chaos_harness

    if not chaos_harness.HAVE_HYPOTHESIS:
        print(
            "the chaos harness needs the 'hypothesis' package, which is "
            "not importable in this environment",
            file=sys.stderr,
        )
        return 2
    report = chaos_harness.run_chaos(
        runs=args.runs,
        seed=args.seed,
        jobs=args.jobs,
        shrink=not args.no_shrink,
    )
    payload = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"report -> {args.out}")
    print(payload)
    return 0 if report["failures"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Soft state-based communication (SIGCOMM '99), reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="evaluate the open-loop closed forms"
    )
    analyze.add_argument("--p-loss", type=float, required=True)
    analyze.add_argument("--p-death", type=float, required=True)
    analyze.add_argument("--update-rate", type=float, default=20.0)
    analyze.add_argument("--channel-rate", type=float, default=128.0)
    analyze.set_defaults(func=_analyze)

    simulate = sub.add_parser("simulate", help="run one protocol session")
    simulate.add_argument(
        "protocol",
        choices=[
            "open-loop",
            "two-queue",
            "feedback",
            "arq",
            "multicast",
            "sstp",
        ],
    )
    simulate.add_argument("--loss", type=float, default=0.1)
    simulate.add_argument("--data-kbps", type=float, default=45.0)
    simulate.add_argument("--feedback-kbps", type=float, default=5.0)
    simulate.add_argument("--hot-share", type=float, default=0.5)
    simulate.add_argument("--update-rate", type=float, default=15.0)
    simulate.add_argument("--lifetime", type=float, default=20.0)
    simulate.add_argument("--receivers", type=int, default=1)
    simulate.add_argument("--horizon", type=float, default=300.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(func=_simulate)

    def _add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--quick", action="store_true")
        p.add_argument("--plot", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help=(
                "parallel worker processes per experiment "
                "(0 = one per CPU)"
            ),
        )
        p.add_argument(
            "--cache",
            action=argparse.BooleanOptionalAction,
            default=None,
            help=(
                "serve unchanged cells from results/.cache "
                "(docs/CACHE.md); --no-cache bypasses reads and writes"
            ),
        )

    experiment = sub.add_parser(
        "experiment", help="reproduce paper tables/figures"
    )
    experiment.add_argument("experiments", nargs="*", metavar="ID")
    _add_run_options(experiment)
    experiment.set_defaults(func=None)

    run_all = sub.add_parser(
        "run-all",
        help="run every experiment (incremental with --cache)",
    )
    _add_run_options(run_all)
    run_all.set_defaults(func=None)

    cache = sub.add_parser(
        "cache",
        help="inspect/maintain the content-addressed result store",
    )
    cache.add_argument("action", choices=["stats", "clear", "gc"])
    cache.add_argument(
        "--dir",
        default=None,
        metavar="PATH",
        help="store root (default: REPRO_CACHE_DIR or results/.cache)",
    )
    cache.add_argument(
        "--max-age-days",
        type=float,
        default=30.0,
        metavar="D",
        help="gc: evict entries not used for D days (default 30)",
    )
    cache.set_defaults(func=_cache)

    trace = sub.add_parser(
        "trace",
        help="run one experiment with structured tracing to a JSONL file",
    )
    trace.add_argument("experiment", metavar="ID")
    trace.add_argument(
        "--category",
        action="append",
        choices=list(CATEGORIES),
        help="enable only this category (repeatable; default: all)",
    )
    trace.add_argument(
        "--out", metavar="PATH", help="default results/<ID>/trace.jsonl"
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="print at most N events (default 20; the file gets all)",
    )
    trace.add_argument(
        "--full",
        action="store_true",
        help="full-scale sweeps (default: the --quick grid)",
    )
    trace.add_argument(
        "--format",
        choices=["jsonl", "perfetto"],
        default="jsonl",
        help=(
            "perfetto: also fold the trace into Chrome trace-event "
            "JSON (results/<ID>/trace.perfetto.json; docs/SPANS.md)"
        ),
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.set_defaults(func=_trace)

    stats = sub.add_parser(
        "stats",
        help="run one experiment and print its metric registry + telemetry",
    )
    stats.add_argument("experiment", metavar="ID")
    stats.add_argument(
        "--full",
        action="store_true",
        help="full-scale sweeps (default: the --quick grid)",
    )
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel worker processes (0 = one per CPU)",
    )
    stats.set_defaults(func=_stats)

    spans = sub.add_parser(
        "spans",
        help="fold a recorded trace into lifecycle spans (docs/SPANS.md)",
    )
    spans.add_argument("experiment", metavar="ID")
    spans.add_argument(
        "--trace",
        metavar="PATH",
        help="read this JSONL file (default results/<ID>/trace.jsonl)",
    )
    spans.add_argument(
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="show the N longest spans (default 10)",
    )
    spans.add_argument(
        "--json",
        metavar="PATH",
        help="also write the full span list as JSON here",
    )
    spans.set_defaults(func=_spans)

    report = sub.add_parser(
        "report",
        help="cross-run regression report (telemetry + bench history)",
    )
    report.add_argument(
        "--results-dir",
        default="results",
        metavar="DIR",
        help="where results/<exp>/telemetry.json live (default results)",
    )
    report.add_argument(
        "--bench",
        default="BENCH_*.json",
        metavar="GLOB",
        help="benchmark files to include (default BENCH_*.json)",
    )
    report.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="snapshot history file (default <results-dir>/report_history.json)",
    )
    report.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        metavar="PCT",
        help="flag deltas beyond PCT%% as regressions (default 5)",
    )
    report.add_argument(
        "--format",
        choices=["text", "markdown"],
        default="text",
    )
    report.add_argument(
        "--out", metavar="PATH", help="also write the rendered report here"
    )
    report.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when any metric regresses past the threshold",
    )
    report.set_defaults(func=_report)

    check = sub.add_parser(
        "check",
        help="replay a trace through the invariant library (docs/SPEC.md)",
    )
    check.add_argument(
        "trace",
        nargs="?",
        metavar="TRACE",
        help="a docs/trace.schema.json-conformant JSONL file",
    )
    check.add_argument(
        "--experiment",
        metavar="ID",
        help="trace this experiment first, then check the trace",
    )
    check.add_argument(
        "--full",
        action="store_true",
        help="with --experiment: full-scale sweeps (default: --quick)",
    )
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=_check)

    chaos = sub.add_parser(
        "chaos",
        help="property-test the invariants under random fault schedules",
    )
    chaos.add_argument(
        "--runs",
        type=int,
        default=20,
        metavar="N",
        help="number of generated fault scenarios (default 20)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel worker processes (0 = one per CPU)",
    )
    chaos.add_argument(
        "--no-shrink",
        action="store_true",
        help="on failure, skip hypothesis shrinking of the schedule",
    )
    chaos.add_argument(
        "--out", metavar="PATH", help="also write the JSON report here"
    )
    chaos.set_defaults(func=_chaos)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("experiment", "run-all"):
        forwarded = (
            ["run-all"]
            if args.command == "run-all"
            else list(args.experiments)
        )
        if args.quick:
            forwarded.append("--quick")
        if args.plot:
            forwarded.append("--plot")
        forwarded.extend(["--seed", str(args.seed)])
        forwarded.extend(["--jobs", str(args.jobs)])
        if args.cache is not None:
            forwarded.append("--cache" if args.cache else "--no-cache")
        return experiments_main(forwarded)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
