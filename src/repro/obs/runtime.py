"""Ambient observability state: the installed tracer, the default
metric registry, and the per-cell accounting context.

Every layer of the system reaches observability the same way: it reads
one module-level slot at *construction* time (an :class:`Environment`
caches the current tracer, a :class:`BandwidthLedger` binds a collector
in the current registry) and then uses plain guarded attributes on
the hot path.  Nothing here is imported conditionally and nothing costs
more than a ``None`` check when observability is off.

Three pieces of ambient state live here:

* the **tracer** (:func:`install_tracer` / :func:`current_tracer` /
  :func:`tracing`), picked up by every ``Environment``, table, and
  recorder created while it is installed;
* the **registry stack** (:func:`registry` / :func:`push_registry` /
  :func:`pop_registry`): the default :class:`~repro.obs.metrics.Registry`
  instruments publish into.  The experiment runner pushes a fresh
  registry around every cell so per-cell metrics never bleed into each
  other and can be merged deterministically afterwards;
* the **cell context** (:func:`cell_context`): wall-clock, kernel event
  counts, RNG substream ids, and session numbering for the cell the
  runner is currently executing.

This module deliberately imports nothing from the rest of ``repro`` so
that the kernel, the network model, and the metric views can all import
it without cycles.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Set

from repro.obs.metrics import Registry

__all__ = [
    "CellContext",
    "cell_context",
    "current_cell",
    "current_profiler",
    "current_tracer",
    "install_profiler",
    "install_tracer",
    "next_session_label",
    "next_trace_label",
    "note_events",
    "note_rng_stream",
    "note_shard",
    "pop_registry",
    "push_registry",
    "profiling",
    "registry",
    "tracing",
    "uninstall_profiler",
    "uninstall_tracer",
]


# -- tracer ----------------------------------------------------------------

_tracer = None


def install_tracer(tracer) -> None:
    """Make ``tracer`` the ambient tracer for everything created next.

    Objects cache the tracer at construction time (environments, tables,
    recorders), so install it *before* building the model to trace.
    """
    global _tracer
    # Ambient by design: tracing() saves and restores this slot around
    # every scoped use, and a cell's trace rides in its cached meta.
    _tracer = tracer


def uninstall_tracer() -> None:
    global _tracer
    _tracer = None


def current_tracer():
    """The installed tracer, or ``None`` (the common, zero-cost case)."""
    return _tracer


@contextlib.contextmanager
def tracing(tracer) -> Iterator:
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = _tracer
    install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)


# -- profiler --------------------------------------------------------------
#
# Same contract as the tracer slot: an Environment caches the ambient
# profiler at construction and pays one slot load + jump per run() when
# none is installed.  The Profiler class itself lives in
# repro.obs.profile; this slot holds any object with the hook methods.

_profiler = None


def install_profiler(profiler) -> None:
    """Make ``profiler`` ambient for every Environment created next."""
    global _profiler
    _profiler = profiler


def uninstall_profiler() -> None:
    global _profiler
    _profiler = None


def current_profiler():
    """The installed profiler, or ``None`` (the zero-cost default)."""
    return _profiler


@contextlib.contextmanager
def profiling(profiler) -> Iterator:
    """Install ``profiler`` for the duration of a ``with`` block."""
    previous = _profiler
    install_profiler(profiler)
    try:
        yield profiler
    finally:
        install_profiler(previous)


# -- registry stack --------------------------------------------------------

_registries: List[Registry] = [Registry()]


def registry() -> Registry:
    """The registry instruments bind to when none is passed explicitly."""
    return _registries[-1]


def push_registry(reg: Optional[Registry] = None) -> Registry:
    """Make a (fresh by default) registry the ambient one; returns it."""
    if reg is None:
        reg = Registry()
    _registries.append(reg)
    return reg


def pop_registry() -> Registry:
    """Restore the previously ambient registry; returns the popped one."""
    if len(_registries) == 1:
        raise RuntimeError("cannot pop the root registry")
    return _registries.pop()


# -- cell context ----------------------------------------------------------


class CellContext:
    """Accounting scratchpad for one runner cell.

    The kernel reports processed-event counts here, ``RngStreams``
    reports the substream ids it derives, and metric views draw their
    per-cell session numbering from :meth:`next_session_id` so labels
    are deterministic regardless of how cells are distributed over
    worker processes.
    """

    __slots__ = (
        "events",
        "rng_streams",
        "registry",
        "shard",
        "_next_session",
        "_labels",
    )

    def __init__(self, registry: Registry) -> None:
        self.events = 0
        self.rng_streams: Set[str] = set()
        self.registry = registry
        #: Receiver-shard identity ({"index", "lo", "hi"}) when the cell
        #: simulates one shard of a partitioned population; None for
        #: ordinary cells.  Surfaced in the cell's telemetry meta.
        self.shard: Optional[Dict[str, int]] = None
        self._next_session = 0
        self._labels: Dict[str, int] = {}

    def next_session_id(self) -> int:
        sid = self._next_session
        self._next_session = sid + 1
        return sid

    def next_label_id(self, prefix: str) -> int:
        n = self._labels.get(prefix, 0)
        self._labels[prefix] = n + 1
        return n


_cell: Optional[CellContext] = None
#: Session numbering fallback used outside any cell context (direct
#: library use, unit tests): still unique, just process-global.
_global_session_counter = 0
_global_label_counters: Dict[str, int] = {}


def current_cell() -> Optional[CellContext]:
    return _cell


@contextlib.contextmanager
def cell_context() -> Iterator[CellContext]:
    """Run one cell under a fresh registry and a fresh accounting context.

    Nested use (a cell spawning sub-cells in-process) stacks cleanly:
    the inner context temporarily shadows the outer one.
    """
    global _cell
    previous = _cell
    reg = push_registry()
    _cell = ctx = CellContext(reg)
    try:
        yield ctx
    finally:
        _cell = previous
        pop_registry()


def note_events(count: int) -> None:
    """Credit ``count`` processed kernel events to the active cell."""
    if _cell is not None and count:
        # Accounting, not input: this feeds the cell's telemetry meta,
        # which the cache stores and replays alongside the result.
        _cell.events += count


def note_rng_stream(stream_id: str) -> None:
    """Record that a deterministic RNG substream was derived."""
    if _cell is not None:
        _cell.rng_streams.add(stream_id)


def note_shard(info: Dict[str, int]) -> None:
    """Tag the active cell as simulating one receiver shard.

    Accounting, not input: the shard identity rides in the cell's
    telemetry meta so ``telemetry.json`` can attribute cost per shard.
    """
    if _cell is not None:
        # Accounting, not input: the shard tag never reaches the cached
        # result payload, and cached replays deliberately omit it.
        _cell.shard = dict(info)


def next_session_label() -> str:
    """A deterministic per-cell session label (``s0``, ``s1``, ...).

    Inside a cell context the numbering restarts at ``s0`` for every
    cell, so labels are identical whether cells run sequentially in one
    process or forked over a pool.
    """
    global _global_session_counter
    if _cell is not None:
        return f"s{_cell.next_session_id()}"
    sid = _global_session_counter
    # Fallback branch only: under a cell context (every cacheable run)
    # the guarded branch above numbers from per-cell state instead.
    _global_session_counter = sid + 1
    return f"s{sid}"


def next_trace_label(prefix: str) -> str:
    """A deterministic per-cell trace label (``c0``, ``t1``, ...).

    Channels and tables stamp their trace rows with these so events are
    attributable to a specific object.  Inside a cell context numbering
    restarts per cell per prefix — the ids a trace (and any checker
    verdict derived from it) contains are then invariant to ``--jobs``
    and to whatever ran earlier in the process.
    """
    if _cell is not None:
        return f"{prefix}{_cell.next_label_id(prefix)}"
    n = _global_label_counters.get(prefix, 0)
    # Fallback branch only: cacheable runs always execute under a cell
    # context, whose per-prefix numbering restarts deterministically.
    _global_label_counters[prefix] = n + 1
    return f"{prefix}{n}"
