"""Parallel experiment runner: deterministic ``(params, seed)`` cells.

Every experiment decomposes into independent *cells* — one simulation or
one analytic evaluation per ``(sweep-point, seed)`` combination.  Each
cell builds its own :class:`~repro.des.core.Environment` and its own
seeded RNG streams, so cells share no state and can execute in any
order, on any worker, with identical results.

:func:`map_cells` is the single execution primitive.  With ``jobs <= 1``
it is a plain in-process loop (exactly the historical sequential
behaviour).  With ``jobs > 1`` the cells run on a ``multiprocessing``
pool via ``imap_unordered(chunksize=1)`` — each worker pulls the next
cell the moment it finishes, so one slow cell never stalls a chunk of
queued fast ones on skewed grids — and every result carries its cell
index, so the parent reassembles **positionally**.  The merged rows an
experiment sees — and therefore its rendered output — are byte-identical
to a sequential run: determinism is a merge property, not a scheduling
property.

When a result cache is active (``repro.cache``, installed by
``run_experiment`` around the run), the cache is consulted *before*
dispatch: hit cells are served from the store (result plus replayed
telemetry meta), only misses go to the pool, and misses are written
back afterwards — so merged output is byte-identical whether a cell
was computed fresh or served from cache, at any ``--jobs`` value.

Cell functions must be module-level (picklable) and take only picklable
keyword arguments; they should return plain data (dicts, lists,
numbers), not live sessions.  By the determinism contract their result
is a pure function of their kwargs — which is exactly what makes the
cache sound.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cache import runtime as _cache_runtime
from repro.obs import runtime as _obs
from repro.obs import telemetry as _telemetry
from repro.obs.profile import Profiler, profile_enabled
from repro.obs.telemetry import CellMeta
from repro.obs.trace import RUN as _RUN

if TYPE_CHECKING:
    import multiprocessing.context

__all__ = ["CellError", "map_cells", "resolve_jobs"]

Cell = Dict[str, Any]


class CellError(RuntimeError):
    """A cell function raised: carries *which* cell failed.

    A bare worker traceback from a 48-cell sweep is useless without the
    ``(experiment, params, seed)`` identity of the failing cell, so
    :func:`map_cells` wraps every failure with that identity.  The
    original exception is chained as ``__cause__`` (sequentially the
    exception object itself; across a pool, the pickled remote
    traceback).
    """


def _cell_identity(fn: Callable[..., Any], index: int, kwargs: Cell) -> str:
    params = ", ".join(f"{k}={v!r}" for k, v in sorted(kwargs.items()))
    return (
        f"cell {index} = {fn.__module__}.{fn.__qualname__}({params})"
    )


def _run_cell(
    fn: Callable[..., Any], index: int, kwargs: Cell
) -> Tuple[Any, CellMeta]:
    """Run one cell inside an accounting context; returns (result, meta).

    The meta travels with the result (pooled workers pickle both back),
    so the parent process always owns telemetry aggregation.
    """
    sample_heap = _telemetry.tracemalloc_enabled()
    #: REPRO_PROFILE=1 (checked per cell, so spawned workers pick it up
    #: from their inherited environment just like REPRO_TRACEMALLOC):
    #: a fresh profiler per cell keeps attribution jobs-invariant.
    profiler = Profiler() if profile_enabled() else None
    tr = _obs.current_tracer()
    try:
        if sample_heap:
            tracemalloc.start()
        if tr is not None and tr.run:
            # Cell boundaries let a trace checker partition one JSONL
            # stream into per-cell segments (each cell restarts the
            # simulation clock at zero).  No clock is in scope here.
            tr.emit(
                _RUN,
                "cell_start",
                None,
                index=index,
                fn=f"{fn.__module__}.{fn.__qualname__}",
            )
        # Host wall time is the *measurement target* here (per-cell cost
        # telemetry); it never feeds simulation state.
        start = time.perf_counter()
        with _obs.cell_context() as ctx:
            if profiler is not None:
                with _obs.profiling(profiler):
                    result = fn(**kwargs)
            else:
                result = fn(**kwargs)
        wall = time.perf_counter() - start
        if tr is not None and tr.run:
            tr.emit(_RUN, "cell_end", None, index=index)
        peak = None
        if sample_heap:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    except Exception as exc:
        if sample_heap and tracemalloc.is_tracing():
            tracemalloc.stop()
        if tr is not None:
            # Leave the partial trace durable and parseable: a failed
            # cell's events are exactly what a post-mortem check needs.
            tr.flush()
        raise CellError(
            f"{_cell_identity(fn, index, kwargs)} failed: {exc!r}"
        ) from exc
    meta = CellMeta(
        index=index,
        wall_s=wall,
        events=ctx.events,
        peak_heap_bytes=peak,
        rng_streams=sorted(ctx.rng_streams),
        registry=ctx.registry.snapshot(),
        profile=profiler.snapshot() if profiler is not None else None,
        shard=ctx.shard,
    )
    return result, meta


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: None/absent -> 1, 0 -> cpu_count."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


def _invoke(payload: tuple) -> Tuple[int, Tuple[Any, CellMeta]]:
    """Pool entry point: run one cell, tagged with its index.

    The tag is what makes unordered completion safe: the parent slots
    each result back by index, so merge order never depends on worker
    scheduling.
    """
    fn, index, kwargs = payload
    return index, _run_cell(fn, index, kwargs)


def _load_cached(
    cache, keys: List[str], cells: List[Cell]
) -> Tuple[List[Optional[Tuple[Any, CellMeta]]], List[int]]:
    """Fill result slots from the store; returns (slots, miss indices)."""
    slots: List[Optional[Tuple[Any, CellMeta]]] = [None] * len(cells)
    pending: List[int] = []
    for index, key in enumerate(keys):
        entry = cache.load(key)
        if entry is None:
            pending.append(index)
            continue
        meta = CellMeta(
            index=index,
            wall_s=0.0,
            events=entry.events,
            peak_heap_bytes=None,
            rng_streams=list(entry.rng_streams),
            registry=entry.registry,
            cached=True,
        )
        slots[index] = (entry.result, meta)
    return slots, pending


def _note_cache_counts(hits: int, misses: int) -> None:
    """Publish one lookup round to the registry and the active run.

    Counters land in the *parent* ambient registry (cells push their
    own), labelled by layer so the in-process memoizer could publish
    alongside if it ever became jobs-invariant.
    """
    reg = _obs.registry()
    reg.counter(
        "repro_cache_hits_total",
        "Result-cache lookups served from the store.",
        ("layer",),
    ).inc(hits, layer="store")
    reg.counter(
        "repro_cache_misses_total",
        "Result-cache lookups that fell through to compute.",
        ("layer",),
    ).inc(misses, layer="store")
    run = _telemetry.active_run()
    if run is not None:
        run.note_cache(hits, misses)


def map_cells(
    fn: Callable[..., Any],
    cells: Sequence[Cell],
    jobs: int = 1,
) -> List[Any]:
    """Run ``fn(**cell)`` for every cell, returning results in cell order.

    ``jobs <= 1`` (or a single pending cell) executes sequentially
    in-process.  ``jobs > 1`` fans the cells out over a process pool
    with per-cell dispatch; results are merged positionally so the
    output is byte-identical to sequential.  An active result cache
    (``repro.cache``) short-circuits hit cells entirely.
    """
    jobs = resolve_jobs(jobs)
    cells = list(cells)
    cache = _cache_runtime.active_cache()
    keys: Optional[List[str]] = None
    if cache is not None and cells:
        keys = [cache.key_for(fn, cell) for cell in cells]
        slots, pending = _load_cached(cache, keys, cells)
    else:
        slots = [None] * len(cells)
        pending = list(range(len(cells)))

    if jobs <= 1 or len(pending) <= 1:
        for index in pending:
            slots[index] = _run_cell(fn, index, cells[index])
    else:
        workers = min(jobs, len(pending))
        context = _pool_context()
        with context.Pool(processes=workers) as pool:
            payloads = [(fn, index, cells[index]) for index in pending]
            for index, pair in pool.imap_unordered(
                _invoke, payloads, chunksize=1
            ):
                slots[index] = pair

    if keys is not None:
        for index in pending:
            result, meta = slots[index]
            cache.store(
                keys[index],
                fn,
                cells[index],
                result,
                events=meta.events,
                rng_streams=meta.rng_streams,
                registry=meta.registry,
            )
        _note_cache_counts(len(cells) - len(pending), len(pending))

    # Telemetry is recorded here, in the parent, in submission order —
    # never in the workers — so the aggregate is jobs-independent.
    run = _telemetry.active_run()
    results = []
    for result, meta in slots:
        if run is not None:
            run.record_cell(meta)
        results.append(result)
    return results


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (no re-import, inherits sys.path); fall back to spawn.

    ``multiprocessing`` is imported here, not at module level: a process
    that never opens a pool (``jobs=1``, or every cell a cache hit)
    does not pay for the import.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context(methods[0])
