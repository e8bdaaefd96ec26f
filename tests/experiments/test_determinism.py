"""Determinism regression suite for the parallel runner and kernel fast path.

Two guarantees are pinned here:

(a) the parallel experiment runner merges cell results in submission
    order, so ``run_experiment(id, quick=True, seed=0)`` produces
    *identical rows* with ``jobs=1`` and ``jobs=4`` for every registered
    experiment, that render matches its seed-0 golden digest in
    ``benchsuite/golden.json``, and the merged metric block
    (``telemetry["registry"]``) matches its digest in
    ``registry_digests.json`` next to this file; and no cell body reads
    an environment variable or opens a file, since the result cache
    keys a cell by its kwargs and code alone;

(b) the kernel's fast path (``__slots__``, inlined scheduling, the
    no-``Initialize`` process start) preserves the event loop's
    (time, priority, insertion-order) semantics bit-for-bit: a seeded
    model mixing waited and unwaited timeouts, interrupts, and process
    joins reproduces the exact trace captured on the pre-fast-path
    kernel.
"""

import builtins
import contextlib
import functools
import hashlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from repro.cache import clear_memos
from repro.des import Environment, Interrupt, RngStreams
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments import runner

# -- (a) parallel rows == sequential rows == golden render --------------------

GOLDEN_JSON = Path(__file__).resolve().parents[2] / "benchsuite" / "golden.json"
REGISTRY_JSON = Path(__file__).resolve().parent / "registry_digests.json"


def _golden_render_digest(experiment_id):
    """The committed SHA-256 of ``experiment_id``'s seed-0 quick render."""
    with open(GOLDEN_JSON, encoding="utf-8") as handle:
        return json.load(handle)["experiments"][experiment_id][0]


def _registry_digest(result):
    """SHA-256 of a result's merged metric block, canonically encoded."""
    block = json.dumps(result.telemetry["registry"], sort_keys=True)
    return hashlib.sha256(block.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def _host_reads_in_cells():
    """Yield a list that collects every ``os.environ`` key read and every
    ``open()`` made inside a cell body (``fn(**kwargs)`` in
    ``runner._run_cell``) run in this process."""
    reads = []
    environ_getitem = type(os.environ).__getitem__
    real_open = io.open

    def getitem(environ, key):
        reads.append(f"os.environ[{key!r}]")
        return environ_getitem(environ, key)

    def opener(file, *args, **kwargs):
        reads.append(f"open({file!r})")
        return real_open(file, *args, **kwargs)

    run_cell = runner._run_cell

    def audited_run_cell(fn, index, kwargs):
        @functools.wraps(fn)
        def body(**cell_kwargs):
            with mock.patch.object(type(os.environ), "__getitem__", getitem), \
                    mock.patch.object(builtins, "open", opener), \
                    mock.patch.object(io, "open", opener):
                return fn(**cell_kwargs)

        return run_cell(body, index, kwargs)

    with mock.patch.object(runner, "_run_cell", audited_run_cell):
        yield reads


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_parallel_rows_match_sequential(experiment_id):
    # Memoized solvers must run inside the cells, not answer from an
    # earlier test's memo table; the store is off so every cell runs.
    clear_memos()
    with _host_reads_in_cells() as reads:
        sequential = run_experiment(
            experiment_id, quick=True, seed=0, jobs=1, cache=False
        )
    assert reads == [], f"{experiment_id} cells read host state: {reads}"
    parallel = run_experiment(experiment_id, quick=True, seed=0, jobs=4)
    assert parallel.rows == sequential.rows
    assert parallel.parameters == sequential.parameters
    assert parallel.notes == sequential.notes
    assert parallel.render() == sequential.render()
    render = sequential.render().encode("utf-8")
    assert hashlib.sha256(render).hexdigest() == _golden_render_digest(
        experiment_id
    ), f"{experiment_id} render diverged from its golden digest"
    assert parallel.telemetry["registry"] == sequential.telemetry["registry"]
    with open(REGISTRY_JSON, encoding="utf-8") as handle:
        expected = json.load(handle)["experiments"][experiment_id]
    assert _registry_digest(sequential) == expected, (
        f"{experiment_id} metric block diverged from its recorded digest"
    )


# -- (b) seeded kernel trace is pinned -----------------------------------------

#: sha256 of the json-encoded trace captured on the pre-fast-path kernel
#: (PR 0 seed).  If this test fails, the kernel's scheduling order or
#: timestamps changed — that is a determinism regression, not a tweak.
GOLDEN_TRACE_SHA256 = (
    "13e6d8f437429abde669a1426ef48b729f36b4dd2add965ac2a82f5e28021dd3"
)
GOLDEN_TRACE_LEN = 86
GOLDEN_FIRST = [0.109610902, "p2", 0]
GOLDEN_LAST = [100.0, "end", None]


def seeded_kernel_trace(seed=0):
    """A model exercising every kernel wait primitive, logging outcomes."""
    env = Environment()
    rng = RngStreams(seed=seed)
    trace = []

    def producer(env, name, rate):
        r = rng[name]
        for i in range(40):
            yield env.timeout(r.expovariate(rate))
            trace.append((round(env.now, 9), name, i))

    def waiter(env):
        t1 = env.timeout(3.0, value="a")
        env.timeout(5.0, value="b")  # fires unwaited, after t1
        got = {0: (yield t1)}
        trace.append(
            (
                round(env.now, 9),
                "any",
                tuple(sorted(str(v) for v in got.values())),
            )
        )
        t3 = env.timeout(1.0, value="c")
        t4 = env.timeout(2.0, value="d")
        got = {0: (yield t3)}
        got[1] = yield t4
        trace.append(
            (
                round(env.now, 9),
                "all",
                tuple(sorted(str(v) for v in got.values())),
            )
        )

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            trace.append((round(env.now, 9), "interrupted", interrupt.cause))
        yield env.timeout(1.5)
        trace.append((round(env.now, 9), "victim-done", None))
        return "vret"

    def attacker(env, target):
        yield env.timeout(4.25)
        target.interrupt(cause="halt")
        value = yield target
        trace.append((round(env.now, 9), "joined", value))

    env.process(producer(env, "p1", 2.0))
    env.process(producer(env, "p2", 3.5))
    env.process(waiter(env))
    victim_process = env.process(victim(env))
    env.process(attacker(env, victim_process))
    env.run()
    trace.append((round(env.now, 9), "end", None))
    return trace


def test_seeded_kernel_trace_is_unchanged_by_fast_path():
    trace = seeded_kernel_trace(seed=0)
    assert len(trace) == GOLDEN_TRACE_LEN
    assert list(trace[0]) == GOLDEN_FIRST
    assert list(trace[-1]) == GOLDEN_LAST
    digest = hashlib.sha256(json.dumps(trace).encode()).hexdigest()
    assert digest == GOLDEN_TRACE_SHA256, (
        "seeded kernel trace diverged from the pre-fast-path golden trace; "
        f"first entries now: {trace[:5]}"
    )


def test_seeded_kernel_trace_is_seed_sensitive():
    # Sanity check that the trace actually depends on the seed (i.e. the
    # golden hash is not vacuously stable).
    assert seeded_kernel_trace(seed=0) != seeded_kernel_trace(seed=1)
