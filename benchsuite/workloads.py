"""The benchmark's workloads: inputs from a seed, one timed unit, checks.

Each workload is a closed loop: every experiment, session or cell
starts when the previous one finishes (or, in the pool, when a worker
frees up), and all load comes from one process.  A unit returns one op
dict per operation; :func:`check` then compares each op's output with
the committed digests in ``golden.json`` and the workload's own
invariants.  Only calls into the program's public entry points are
inside a unit: ``run_experiment``, ``ShardedMulticastSession.run``,
``Tracer`` with ``CheckingSink`` and ``SpanSink``, and the result cache.

Inputs are a pure function of ``--seed``: the program receives seed
``seed % GOLDEN_SEEDS``, the range ``golden.json`` covers.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.cache import ResultCache
from repro.experiments import EXPERIMENTS, run_experiment
from repro.fluid import FluidParams, solve, summarize
from repro.net.loss import GilbertElliottLoss
from repro.obs import runtime as _obs
from repro.obs import telemetry as _telemetry
from repro.obs.spans import SpanSink
from repro.obs.trace import RingBufferSink, Tracer
from repro.protocols.sharded import ShardedMulticastSession
from repro.spec.checker import CheckingSink

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: Seeds 0..GOLDEN_SEEDS-1 have committed digests for every output.
GOLDEN_SEEDS = 16

#: The multi-seed path: these experiments at SEEDS_PER_RUN consecutive
#: seeds, through the runner pool and the result cache.
SEEDS_EXPERIMENTS = ("figure8", "ext_convergence", "ext_resilience", "figure10")
SEEDS_PER_RUN = 2

#: The observed-run path: every experiment whose trace the spec checker
#: and the span builder both consume.
TRACED_EXPERIMENTS = (
    "ext_resilience",
    "ext_suppression",
    "ext_gateway",
    "figure8",
    "figure6",
    "figure7",
    "table1",
    "figure10",
)
RING_CAPACITY = 65536

#: Fan-out sessions: the all-Bernoulli fast loop and the stateful-loss
#: rows with churn.  One shard each, so the whole population is one
#: channel in one process.
FANOUT_HORIZON = 20.0
FANOUT_SESSIONS: Dict[str, Dict[str, Any]] = {
    "bernoulli": {"n_receivers": 10_000, "loss_rate": 0.2},
    "gilbert": {
        "n_receivers": 5_000,
        "loss_rate": 0.2,
        "burst_length": 4.0,
        "churn_rate": 0.02,
    },
}
#: Allowed gap to the fluid equilibrium: the tests/fluid bands for
#: Bernoulli loss and for churn.
FLUID_TOLERANCE = {"bernoulli": 0.01, "gilbert": 0.04}
N_RECORDS = 4


def _clock() -> float:
    # Host wall time is what the benchmark measures; it never feeds the
    # simulation.
    return time.perf_counter()  # repro-lint: disable=RPR002


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_jobs() -> int:
    """Pool width for the multi-seed path: at most two workers."""
    return min(2, cpu_count())


class State:
    """One workload's inputs, built during set-up."""

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed % GOLDEN_SEEDS
        self.work_dir = work_dir
        self.jobs = 1
        self.ids: List[str] = []
        self.seeds: List[int] = []
        self.sessions: Dict[str, ShardedMulticastSession] = {}
        self.store: Optional[str] = None


# -- ops ---------------------------------------------------------------------


def _experiment_op(
    experiment_id: str,
    seed: int,
    jobs: int,
    cache: bool,
    traced: bool = False,
) -> Dict[str, Any]:
    op: Dict[str, Any] = {"op": experiment_id, "seed": seed}
    start = _clock()
    try:
        tracer = None  # tracing(None) leaves tracing off
        if traced:
            checking = CheckingSink(RingBufferSink(capacity=RING_CAPACITY))
            spans = SpanSink(checking)
            tracer = Tracer(spans)
        with _obs.tracing(tracer):
            result = run_experiment(
                experiment_id, quick=True, seed=seed, jobs=jobs, cache=cache
            )
        if traced:
            report = checking.finalize()
            span_report = spans.finalize()
            op["events_checked"] = report.events_checked
            op["check_ok"] = report.ok
            op["reconciled"] = span_report.reconciliation()["reconciled"]
        text = result.render()
    except Exception as exc:  # an op that raises is a failed op
        op["wall_s"] = _clock() - start
        op["error"] = repr(exc)
        return op
    op["wall_s"] = _clock() - start
    op["output"] = text
    run = result.telemetry["run"]
    op["events"] = run["events"]
    op["hits"] = run["cache"]["hits"]
    op["misses"] = run["cache"]["misses"]
    op["cell_walls"] = [cell["wall_s"] for cell in result.telemetry["cells"]]
    return op


def _fanout_op(label: str, session: ShardedMulticastSession) -> Dict[str, Any]:
    op: Dict[str, Any] = {"op": f"fanout.{label}", "seed": session.seed}
    start = _clock()
    run = _telemetry.begin_run(f"fanout.{label}")
    try:
        out = session.run(horizon=FANOUT_HORIZON, jobs=1)
    except Exception as exc:
        op["error"] = repr(exc)
        return op
    finally:
        _telemetry.end_run()
        op["wall_s"] = _clock() - start
    merged = out["merged"]
    op["output"] = json.dumps(merged, sort_keys=True)
    op["consistency"] = out["metrics"]["consistency"]
    op["deliveries"] = sum(merged["deliveries"])
    op["offered"] = merged["packets_sent"] * merged["n_receivers"]
    op["events"] = run.events
    op["cell_walls"] = [meta.wall_s for meta in run.cells]
    return op


# -- workloads ---------------------------------------------------------------


def _prepare_runall(state: State) -> None:
    state.ids = sorted(EXPERIMENTS)


def _unit_runall(state: State) -> List[Dict[str, Any]]:
    return [_experiment_op(e, state.seed, 1, False) for e in state.ids]


def _prepare_fanout(state: State) -> None:
    state.sessions = {
        label: ShardedMulticastSession(
            params["n_receivers"],
            1,
            params["loss_rate"],
            seed=state.seed,
            burst_length=params.get("burst_length"),
            churn_rate=params.get("churn_rate", 0.0),
            n_records=N_RECORDS,
        )
        for label, params in FANOUT_SESSIONS.items()
    }


def _unit_fanout(state: State) -> List[Dict[str, Any]]:
    return [_fanout_op(label, s) for label, s in state.sessions.items()]


def _prepare_seeds(state: State) -> None:
    state.jobs = pool_jobs()
    state.seeds = [(state.seed + k) % GOLDEN_SEEDS for k in range(SEEDS_PER_RUN)]
    state.ids = list(SEEDS_EXPERIMENTS)
    state.store = os.path.join(state.work_dir, "store")


def _seeds_pass(state: State, store: str) -> List[Dict[str, Any]]:
    # REPRO_CACHE_DIR is the store location run_experiment(cache=True)
    # reads; pool workers inherit it.
    os.environ["REPRO_CACHE_DIR"] = store
    ops = [
        _experiment_op(e, s, state.jobs, True)
        for e in state.ids
        for s in state.seeds
    ]
    bytes_ = ResultCache(store).stats().total_bytes
    for op in ops:
        op["store_bytes"] = bytes_
    return ops


def _unit_seeds(state: State) -> List[Dict[str, Any]]:
    # Every cold pass writes to a store nothing has read yet.
    return _seeds_pass(state, tempfile.mkdtemp(prefix="cold-", dir=state.work_dir))


def _unit_warm(state: State) -> List[Dict[str, Any]]:
    ops = _seeds_pass(state, state.store)
    for op in ops:
        op["warm"] = True
    return ops


def _prepare_traced(state: State) -> None:
    state.ids = list(TRACED_EXPERIMENTS)


def _unit_traced(state: State) -> List[Dict[str, Any]]:
    return [
        _experiment_op(e, state.seed, 1, False, traced=True) for e in state.ids
    ]


#: name -> (prepare, unit).  ``fill`` is the warm workload's untimed
#: cold pass.
WORKLOADS: Dict[str, Any] = {
    "runall": (_prepare_runall, _unit_runall),
    "fanout": (_prepare_fanout, _unit_fanout),
    "seeds": (_prepare_seeds, _unit_seeds),
    "warm": (_prepare_seeds, _unit_warm),
    "traced": (_prepare_traced, _unit_traced),
}


def prepare(workload: str, seed: int, work_dir: str) -> State:
    state = State(seed, work_dir)
    WORKLOADS[workload][0](state)
    return state


def unit(workload: str, state: State) -> List[Dict[str, Any]]:
    return WORKLOADS[workload][1](state)


def fill(state: State) -> List[Dict[str, Any]]:
    """The warm workload's set-up: one cold pass into ``state.store``."""
    return _seeds_pass(state, state.store)


# -- checks ------------------------------------------------------------------


def _fluid_consistency(label: str) -> float:
    params = FANOUT_SESSIONS[label]
    burst = params.get("burst_length")
    loss: Any = params["loss_rate"]
    if burst is not None:
        loss = GilbertElliottLoss.with_mean(loss, burst_length=burst)
    fluid = FluidParams(
        loss=loss,
        churn_rate=params.get("churn_rate", 0.0),
        n_receivers=float(params["n_receivers"]),
        loss_stride=N_RECORDS,
    )
    run = solve(fluid, FANOUT_HORIZON, 0.05)
    return summarize(run, n_records=N_RECORDS)["consistency"]


def check(ops: List[Dict[str, Any]], golden: Dict[str, Any]) -> None:
    """Mark each op ``ok`` or give the ``why`` it failed, in place."""
    fluid: Dict[str, float] = {}
    for op in ops:
        why = op.get("error")
        if why is None:
            name = op["op"]
            if name.startswith("fanout."):
                label = name.split(".", 1)[1]
                expected = golden["fanout"][label][op["seed"]]
            else:
                expected = golden["experiments"][name][op["seed"]]
            if digest(op.pop("output")) != expected:
                why = "output digest differs from golden.json"
            elif name.startswith("fanout."):
                if label not in fluid:
                    fluid[label] = _fluid_consistency(label)
                gap = abs(op["consistency"] - fluid[label])
                if gap > FLUID_TOLERANCE[label]:
                    why = f"consistency {gap:.4f} from the fluid equilibrium"
            elif op.get("check_ok") is False:
                why = "trace violates the spec invariants"
            elif op.get("reconciled") is False:
                why = "spans do not reconcile with trace events"
            elif op.get("warm") and (op["misses"] or not op["hits"]):
                why = f"warm pass missed the store ({op['misses']} misses)"
        op.pop("output", None)
        op["ok"] = why is None
        if why is not None:
            op["why"] = why


def golden_digests(seeds: int) -> Dict[str, Any]:
    """Digests of every output the workloads check, at seeds 0..seeds-1."""
    jobs = pool_jobs()
    experiments = {
        e: [
            digest(
                run_experiment(e, quick=True, seed=s, jobs=jobs, cache=False)
                .render()
            )
            for s in range(seeds)
        ]
        for e in sorted(EXPERIMENTS)
    }
    fanout: Dict[str, List[str]] = {label: [] for label in FANOUT_SESSIONS}
    for s in range(seeds):
        state = State(s, "")
        _prepare_fanout(state)
        for label, session in state.sessions.items():
            merged = session.run(horizon=FANOUT_HORIZON, jobs=1)["merged"]
            fanout[label].append(digest(json.dumps(merged, sort_keys=True)))
    return {
        "format": 1,
        "seeds": seeds,
        "experiments": experiments,
        "fanout": fanout,
    }
