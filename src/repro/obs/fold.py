"""One pass over one trace feeds any number of folds.

A *fold* turns the flat ``(t, cat, ev, fields)`` record stream into a
report.  The spec checker (:class:`repro.spec.checker.ShadowChecker`)
and the span builder (:class:`repro.obs.spans.SpanBuilder`) are folds.
This module owns what they would otherwise each repeat: reading the
stream, numbering its records, partitioning it into cells, checking
the clock, and routing each record to the folds that want it.

A fold meets the :class:`Fold` protocol.  Three inputs, one driver:

* :class:`FoldSink` wraps a tracer sink: every record is forwarded to
  ``inner`` and folded live, with no second pass;
* :func:`replay` folds in-memory records, e.g. a ring buffer's, whose
  eviction count marks the stream truncated;
* :func:`replay_file` folds a ``docs/trace.schema.json`` JSONL file; a
  torn final row (a killed run) marks the stream truncated.

A cell opens at each ``run/cell_start`` marker.  Records ahead of the
first marker (or a trace with no markers at all) form one more,
implicit, cell.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Protocol

__all__ = [
    "ALL_EVENTS",
    "Fold",
    "FoldSink",
    "Stream",
    "fan",
    "replay",
    "replay_file",
]

#: Handler key (and invariant interest) that takes every record.
ALL_EVENTS = "*"

Handler = Callable[..., None]


class Stream(NamedTuple):
    """What the driver read: the tally handed to ``finish``."""

    records: int
    cells: int
    truncated: bool


class Fold(Protocol):
    """What the driver needs of a fold.

    A fold may also define ``on_backwards(index, t, cat, ev, fields,
    last)``.  The driver compares every record's time with the previous
    timed record of the same cell, inline, and calls the hook only when
    the clock ran backwards.
    """

    #: ``{ev: fn(index, t, cat, ev, fields)}``; the key
    #: :data:`ALL_EVENTS` takes every record.  The event name alone
    #: routes: the trace vocabulary gives each name one category.
    handlers: Dict[str, Handler]

    def on_cell(self, fields: Dict[str, Any]) -> None:
        """A ``run/cell_start`` marker, with its fields.

        Each cell restarts the simulation clock at zero, so a fold
        closes or resets its per-cell state here.  The driver re-reads
        ``handlers`` afterwards, so a fold may swap in fresh state.
        """

    def finish(self, stream: Stream) -> Any:
        """The fold's report; called once, after the last record."""


def fan(fns: List[Handler]) -> Handler:
    """One handler for a list of handlers (the handler itself for one)."""
    if len(fns) == 1:
        return fns[0]

    # Explicit parameters, not *args: this runs once per routed record.
    def fanned(index, t, cat, ev, fields) -> None:
        for fn in fns:
            fn(index, t, cat, ev, fields)

    return fanned


class FoldSink:
    """The fold driver: a sink that forwards each record and folds it.

    ``inner`` may be ``None`` for a replay with nowhere to forward to.
    """

    def __init__(self, inner: Any, *folds: Fold) -> None:
        self.inner = inner
        self.folds = folds
        self._inner_write = inner.write if inner is not None else _noop
        self._index = 0
        self._markers = 0
        self._first_marker: Optional[int] = None
        self._route()

    def _route(self) -> None:
        """Merge the folds' handlers into one flat ev-name dispatch."""
        routes: Dict[str, List[Handler]] = {}
        wild: List[Handler] = []
        self._backwards: List[Handler] = []
        for fold in self.folds:
            for ev, fn in fold.handlers.items():
                if ev == ALL_EVENTS:
                    wild.append(fn)
                else:
                    routes.setdefault(ev, []).append(fn)
            hook = getattr(fold, "on_backwards", None)
            if hook is not None:
                self._backwards.append(hook)
        dispatch = {ev: fan(wild + fns) for ev, fns in routes.items()}
        dispatch["cell_start"] = self._cell_start
        self._dispatch = dispatch
        # Records no fold names go to the ALL_EVENTS handlers, if any.
        self._default = fan(wild) if wild else None
        self._last_t = float("-inf")

    def write(self, record: Any) -> None:
        """The per-record hot path: forward, clock check, one lookup."""
        self._inner_write(record)
        t, cat, ev, fields = record
        index = self._index
        self._index = index + 1
        if t is not None:
            last = self._last_t
            if t < last:
                for hook in self._backwards:
                    hook(index, t, cat, ev, fields, last)
            self._last_t = t
        fn = self._dispatch.get(ev, self._default)
        if fn is not None:
            fn(index, t, cat, ev, fields)

    def _cell_start(self, index, t, cat, ev, fields) -> None:
        if cat == "run":
            if self._first_marker is None:
                self._first_marker = index
            self._markers += 1
            for fold in self.folds:
                fold.on_cell(fields)
            self._route()
        if self._default is not None:
            self._default(index, t, cat, ev, fields)

    def finish(self, truncated: bool = False) -> List[Any]:
        """Every fold's report, in fold order."""
        records = self._index
        leading = records and self._first_marker != 0
        stream = Stream(records, self._markers + bool(leading), truncated)
        return [fold.finish(stream) for fold in self.folds]

    def finalize(self) -> Any:
        """The report of a single-fold sink."""
        (report,) = self.finish()
        return report

    def records(self) -> List[Any]:
        return self.inner.records()

    def flush(self) -> None:
        flush = getattr(self.inner, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        if self.inner is not None:
            self.inner.close()


def _noop(record: Any) -> None:
    pass


def replay(records: Any, *folds: Fold, dropped: int = 0) -> List[Any]:
    """Fold in-memory ``(t, cat, ev, fields)`` records.

    ``dropped`` is the ring-buffer eviction count
    (``RingBufferSink.dropped``); a non-zero value marks the stream
    truncated.
    """
    sink = FoldSink(None, *folds)
    for record in records:
        sink.write(record)
    return sink.finish(truncated=dropped > 0)


def replay_file(path: str, *folds: Fold) -> List[Any]:
    """Fold a JSONL trace file, tolerating a torn final row."""
    # Imported here: repro.spec imports this module at package load.
    from repro.spec.events import TruncatedTrace, iter_jsonl_events

    sink = FoldSink(None, *folds)
    truncated = False
    with open(path, encoding="utf-8") as handle:
        try:
            for event in iter_jsonl_events(handle):
                sink.write((event.t, event.cat, event.ev, event.fields))
        except TruncatedTrace:
            truncated = True
    return sink.finish(truncated=truncated)
