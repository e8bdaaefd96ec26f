"""One benchmark for the reproduction: named workloads, end-to-end
metrics with regression bounds, and a per-layer cost table.

Run from the repository root::

    python3 benchsuite/suite.py run --workload runall --seed 0 --seconds 8 --trace 0
    python3 benchsuite/suite.py run --workload runall --seed 0 --seconds 8 --trace 1
    python3 benchsuite/suite.py compare base.jsonl change.jsonl
    python3 benchsuite/suite.py agree first.jsonl second.jsonl
    python3 benchsuite/suite.py update-golden

``run`` measures one workload (``BENCHMARK.json`` lists them) in fresh
child processes and prints every metric by name with its unit; its last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reruns the workload under ``cProfile`` and reports the per-layer table.
Outputs are checked against ``golden.json``; any failed operation makes
the command exit 1.  ``--log FILE`` appends the result line, tagged with
workload and seed, for ``compare`` and ``agree``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RESULTS_PATH = os.path.join(HERE, "results", "BENCH_suite.json")
#: Scratch space for child results and result stores, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".benchsuite")

#: Fresh processes whose set-up time gives the median ``setup_s``.
SETUP_SPAWNS = 5
#: Every child must be reaped within this many seconds of the run start.
RUN_DEADLINE_S = 175.0


class RunFailed(Exception):
    """A child process died or timed out: there is no result to print."""


def _clock() -> float:
    # Host wall time is what a benchmark measures.  perf_counter reads
    # CLOCK_MONOTONIC, so a child's timestamps compare with the parent's.
    return time.perf_counter()  # repro-lint: disable=RPR002


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def _require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise RunFailed(f"no program to measure: {SRC}/repro is missing")


def _child_env() -> Dict[str, str]:
    """The caller's environment minus every program knob (REPRO_*)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


# -- child processes ---------------------------------------------------------


class Children:
    """Spawns and reaps this run's child processes within one deadline."""

    def __init__(self, args: argparse.Namespace, work: str) -> None:
        self.args = args
        self.work = work
        self.deadline = _clock() + RUN_DEADLINE_S
        self.spawned = 0

    def spawn(self, role: str) -> Tuple[Dict[str, Any], float, float]:
        """Run one child; returns (its result, peak RSS in MB, spawn time)."""
        self.spawned += 1
        out = os.path.join(self.work, f"{role}-{self.spawned}.json")
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "child",
            "--role", role,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--work", self.work,
            "--out", out,
        ]
        start = _clock()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL
        )
        status, maxrss_kb = self._reap(proc)
        if status != 0:
            raise RunFailed(f"{role} child exited with status {status}")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle), maxrss_kb / 1024.0, start

    def _reap(self, proc: subprocess.Popen) -> Tuple[int, int]:
        """Wait for ``proc``; its rusage covers the pool workers it reaped.

        On the deadline, or when this process is interrupted or
        terminated, the child is killed and reaped first; its pool
        workers exit when their pipe to it closes.
        """
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if _clock() > self.deadline:
                    raise RunFailed("child did not finish before the deadline")
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss


def _timed_run(children: Children, args: argparse.Namespace):
    """End-to-end metrics: set-up spawns, then measured units.

    Every unit runs in a fresh process, so no unit inherits another's
    heap, caches or memos, and peak RSS does not depend on how many
    units fitted in ``--seconds``.  Units run while the next one is
    expected to end within ``--seconds``, and at least once; stopping
    on the time passed instead would report a slow lone unit more often
    than a fast one.
    """
    setups = []
    for _ in range(SETUP_SPAWNS):
        result, _rss, start = children.spawn("setup")
        setups.append(result["ready"] - start)
    ops = _fill(children, args)
    walls: List[float] = []
    peaks: List[float] = []
    start = _clock()
    while True:
        result, rss, _start = children.spawn("measure")
        walls.append(result["unit_s"])
        peaks.append(rss)
        ops += result["ops"]
        elapsed = _clock() - start
        if elapsed + elapsed / len(walls) > args.seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(peaks),
    }
    details = {
        "units": len(walls),
        "setup_samples": setups,
        "per_op_s": _per_op(ops),
    }
    return metrics, ops, result["host"], details


def _fill(children: Children, args: argparse.Namespace) -> List[Dict[str, Any]]:
    """The warm workload's store is filled by an untimed cold pass in its
    own process, so neither its time nor its memory is measured."""
    if args.workload != "warm":
        return []
    result, _rss, _start = children.spawn("fill")
    for op in result["ops"]:
        op["fill"] = True
    return result["ops"]


def _layers_run(children: Children, args: argparse.Namespace):
    """Per-layer metrics from one profiled unit."""
    ops = _fill(children, args)
    result, _rss, _start = children.spawn("layers")
    ops += result["ops"]
    return result["layers"], ops, result["host"], result["details"]


def cmd_child(args: argparse.Namespace) -> int:
    """One fresh process: set up the workload, then act out ``--role``."""
    sys.path.insert(0, SRC)
    import workloads

    state = workloads.prepare(args.workload, args.seed, args.work)
    out: Dict[str, Any] = {"ready": _clock()}
    channel = sys.modules.get("repro.net.channel")
    numpy = sys.modules.get("numpy")
    out["host"] = {
        "nproc": workloads.cpu_count(),
        "numpy": getattr(numpy, "__version__", None),
        # Read through getattr: the mode switch may be deleted later.
        "fanout_mode": getattr(channel, "fanout_mode", lambda: None)(),
    }
    ops: List[Dict[str, Any]] = []
    if args.role == "fill":
        ops = workloads.fill(state)
    elif args.role == "measure":
        start = _clock()
        ops = workloads.unit(args.workload, state)
        out["unit_s"] = _clock() - start
    elif args.role == "layers":
        out["layers"], ops, out["details"] = _profile_unit(workloads, state, args)
    if ops:
        workloads.check(ops, workloads.load_golden())
    out["ops"] = ops
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


def _profile_unit(workloads, state, args):
    import cProfile
    import pstats

    import layers

    expired = layers.count_expired()
    profiler = cProfile.Profile()
    # Pool workers are forked mid-profile; keep them unprofiled so the
    # parent's table is not skewed by slowed workers.
    os.register_at_fork(after_in_child=profiler.disable)
    start = _clock()
    profiler.enable()
    try:
        ops = workloads.unit(args.workload, state)
    finally:
        profiler.disable()
    wall = _clock() - start
    table = layers.Attribution(
        pstats.Stats(profiler).stats, SRC, layers.wrapper_overrides()
    )
    metrics, details = layers.run_metrics(
        table, ops, expired[0], state.jobs, wall
    )
    return metrics, ops, details


# -- run ---------------------------------------------------------------------


def _result_line(
    metrics: Dict[str, float],
    declared: List[Dict[str, Any]],
    ops: List[Dict[str, Any]],
) -> Dict[str, Any]:
    failed = sum(1 for op in ops if not op.get("ok"))
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def _per_op(ops: List[Dict[str, Any]]) -> Dict[str, float]:
    walls: Dict[str, List[float]] = {}
    for op in ops:
        if not op.get("fill"):
            walls.setdefault(f"{op['op']}@{op['seed']}", []).append(op["wall_s"])
    return {name: statistics.median(v) for name, v in walls.items()}


def _record(args, host, line, details) -> None:
    """Fold this run into BENCH_suite.json for ``repro report --bench``."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from annotate_bench import record

    try:
        with open(RESULTS_PATH, encoding="utf-8") as handle:
            suites = json.load(handle).get("workloads", {})
    except (OSError, ValueError):
        suites = {}
    entry = suites.setdefault(args.workload, {})
    values = {name: m["value"] for name, m in line["metrics"].items()}
    kind = "layers" if args.trace else "end_to_end"
    if args.trace and host["nproc"] < 2 and args.workload == "seeds":
        # One CPU: the pool never ran two workers at once.
        values["experiments.runner.pool_busy_frac"] = {"measured": False}
    entry[kind] = {
        "seed": args.seed,
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": values,
        "host": host,
        **details,
    }
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    record(RESULTS_PATH, {"suite": "benchsuite", "workloads": suites})


def _print_summary(args, host, line, details, ops) -> None:
    print(f"benchsuite {args.workload}: seed {args.seed}, trace {args.trace}")
    print(
        "host: nproc={nproc} load={load_start:.2f}->{load_end:.2f} "
        "python={python} numpy={numpy} fanout_mode={fanout_mode}".format(**host)
    )
    if args.trace:
        print(f"{'layer':<22} {'self_s':>10} {'share':>8}")
        for layer, seconds in sorted(
            details["self_s"].items(), key=lambda item: -item[1]
        ):
            share = line["metrics"][f"{layer}.share"]["value"]
            if not share:
                continue
            print(f"{layer:<22} {seconds:>10.4f} {share:>8.2%}")
        for key, value in details.items():
            if key != "self_s":
                print(f"{key}: {value}")
    else:
        per_op = details["per_op_s"]
        for name, seconds in sorted(per_op.items(), key=lambda i: -i[1]):
            print(f"  {name:<28} {seconds:9.4f} s")
        print(f"units measured: {details['units']}")
    for name, metric in line["metrics"].items():
        if not args.trace or not name.endswith(".share"):
            print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for op in ops:
        if not op.get("ok"):
            print(f"FAILED {op['op']}@{op['seed']}: {op.get('why')}")
    print(f"ops: {line['attempted']} attempted, {line['failed']} failed")


def cmd_run(args: argparse.Namespace) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    # SIGTERM unwinds like ^C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        _require_program()
        host: Dict[str, Any] = {
            "load_start": os.getloadavg()[0],
            "python": platform.python_version(),
        }
        os.makedirs(WORK_ROOT, exist_ok=True)
        work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        try:
            children = Children(args, work)
            if args.trace:
                metrics, ops, child_host, details = _layers_run(children, args)
            else:
                metrics, ops, child_host, details = _timed_run(children, args)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(WORK_ROOT)
            except OSError:
                pass
    except RunFailed as exc:
        print(f"benchsuite: {exc}", file=sys.stderr)
        return 1
    host.update(child_host)
    host["load_end"] = os.getloadavg()[0]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    line = _result_line(metrics, declared, ops)
    _record(args, host, line, details)
    _print_summary(args, host, line, details, ops)
    if args.log:
        with open(args.log, "a", encoding="utf-8") as handle:
            tagged = {"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **line}
            handle.write(json.dumps(tagged) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# -- compare / agree ---------------------------------------------------------


def _load_log(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, from the trace-0 lines of a log."""
    out: Dict[str, Dict[str, List[float]]] = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            row = json.loads(raw)
            if row.get("trace"):
                continue
            metrics = out.setdefault(row["workload"], {})
            for name, metric in row["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return out


def cmd_compare(args: argparse.Namespace, agree: bool) -> int:
    import verdict

    metrics = load_benchmark()["end_to_end"]
    rows = verdict.compare_sets(
        _load_log(args.base),
        _load_log(args.change),
        metrics,
        verdict.agreement if agree else verdict.verdict,
    )
    print(
        f"{'workload':<8} {'metric':<12} {'base q1/med/q3':>28} "
        f"{'change q1/med/q3':>28} {'wins':>5} {'worse':>7} {'spread':>7} verdict"
    )
    for row in rows:
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(
            f"{row['workload']:<8} {row['metric']:<12} "
            f"{fmt.format(*row['base']):>28} {fmt.format(*row['change']):>28} "
            f"{row['win_share']:>5.0%} {row['worse_by']:>+7.1%} "
            f"{row['spread']:>7.1%} {row['verdict']}"
        )
    if not rows:
        print("no workload appears in both logs", file=sys.stderr)
        return 1
    if agree:
        bad = [r for r in rows if r["verdict"] != verdict.WITHIN]
    else:
        bad = [r for r in rows if r["verdict"] == verdict.REGRESSED]
    return 1 if bad else 0


# -- golden ------------------------------------------------------------------


def cmd_update_golden(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    import workloads

    golden = workloads.golden_digests(workloads.GOLDEN_SEEDS)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure one workload")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None,
                     help="measure the whole units that fit in this many "
                     "seconds (default: run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="0: end-to-end metrics; 1: per-layer table")
    run.add_argument("--log", default=None,
                     help="append the result line to this JSONL file")

    for name, text in (
        ("compare", "verdict per workload x metric, base vs change"),
        ("agree", "check that two sets from one commit agree"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("base", help="JSONL log written by run --log")
        p.add_argument("change", help="JSONL log written by run --log")

    sub.add_parser("update-golden", help="regenerate golden.json")

    child = sub.add_parser("child")
    child.add_argument("--role", required=True,
                       choices=("setup", "fill", "measure", "layers"))
    child.add_argument("--workload", required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--work", required=True)
    child.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command in ("compare", "agree"):
        return cmd_compare(args, agree=args.command == "agree")
    if args.command == "update-golden":
        return cmd_update_golden(args)
    return cmd_child(args)


if __name__ == "__main__":
    sys.exit(main())
