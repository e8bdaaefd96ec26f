"""The fold driver: one pass, three inputs, any number of folds.

The spec checker and the span builder are both folds over one trace
stream.  These tests pin the driver's contract: a live sink, a
ring-buffer replay and a JSONL replay of the same run give equal
reports; lossy input marks every fold's report truncated alike; and
the driver forwards ``records``/``flush``/``close`` to any inner sink.
"""

import json

from repro.obs import runtime as _obs
from repro.obs.fold import ALL_EVENTS, FoldSink, replay, replay_file
from repro.obs.spans import SpanBuilder, SpanSink
from repro.obs.trace import JsonlSink, RingBufferSink, Tracer
from repro.protocols import FeedbackSession
from repro.spec.checker import CheckingSink, ShadowChecker


class _Tee:
    """Forward every record to two sinks."""

    def __init__(self, *sinks):
        self.sinks = sinks

    def write(self, record):
        for sink in self.sinks:
            sink.write(record)

    def close(self):
        for sink in self.sinks:
            sink.close()


def _reports(check, spans):
    return check.to_dict(), spans.as_dict()


def test_one_pass_three_inputs_same_reports(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    ring = RingBufferSink(capacity=None)
    live = FoldSink(_Tee(ring, JsonlSink(path)), ShadowChecker(), SpanBuilder())
    tracer = Tracer(live)
    with _obs.tracing(tracer):
        FeedbackSession(
            data_kbps=50.0,
            feedback_kbps=8.0,
            loss_rate=0.2,
            update_rate=1.0,
            seed=3,
        ).run(90.0)
    tracer.close()
    check, spans = live.finish()
    records = ring.records()
    assert len(records) > 30_000
    # The live checker saw every record the inner sink stored.
    assert check.events_checked == len(records)
    assert check.ok, check.describe()
    assert spans.reconciliation()["reconciled"]
    assert not check.truncated and not spans.truncated_input

    from_ring = replay(records, ShadowChecker(), SpanBuilder())
    from_file = replay_file(path, ShadowChecker(), SpanBuilder())
    expected = _reports(check, spans)
    assert _reports(*from_ring) == expected
    assert _reports(*from_file) == expected


def _basic_stream():
    return [
        (None, "run", "cell_start", {"index": 0, "fn": "f"}),
        (0.3, "record", "record_inserted",
         {"table": "t1", "key": "k", "role": "receiver"}),
        (1.3, "record", "refresh_received", {"table": "t1", "key": "k"}),
        (2.0, "record", "record_refreshed", {"table": "t1", "key": "k"}),
        (5.0, "record", "record_expired", {"table": "t1", "key": "k"}),
    ]


def test_truncation_marks_every_fold_alike(tmp_path):
    ring = RingBufferSink(capacity=2)
    for record in _basic_stream():
        ring.write(record)
    assert ring.dropped == 3
    check, spans = replay(
        ring.records(), ShadowChecker(), SpanBuilder(), dropped=ring.dropped
    )
    assert check.truncated and spans.truncated_input

    path = tmp_path / "trace.jsonl"
    rows = [
        json.dumps({"t": t, "cat": cat, "ev": ev, **fields})
        for t, cat, ev, fields in _basic_stream()
    ]
    path.write_text("\n".join(rows) + '\n{"t": 9.9, "cat": "rec')
    check, spans = replay_file(str(path), ShadowChecker(), SpanBuilder())
    assert check.truncated and spans.truncated_input
    assert check.events_checked == len(rows)

    check, spans = replay(_basic_stream(), ShadowChecker(), SpanBuilder())
    assert not check.truncated and not spans.truncated_input


def test_span_sink_forwards_records_to_the_tracer():
    tracer = Tracer(SpanSink(RingBufferSink()))
    tracer.emit("run", "x", 1.0)
    assert tracer.records() == [(1.0, "run", "x", {})]


def test_sink_flush_tolerates_an_inner_sink_without_flush():
    class _WriteOnly:
        def write(self, record):
            pass

        def close(self):
            pass

    for sink in (SpanSink(_WriteOnly()), CheckingSink(_WriteOnly())):
        Tracer(sink).flush()


class _Recorder:
    """A fold that logs what the driver hands it."""

    def __init__(self, wildcard=False):
        self.seen = []
        self.cells = []
        self.backwards = []
        self._key = ALL_EVENTS if wildcard else "x"
        self.handlers = {self._key: self._handler(None)}

    def _handler(self, cell):
        def on(index, t, cat, ev, fields):
            self.seen.append((cell, index, ev))

        return on

    def on_cell(self, fields):
        cell = fields.get("index")
        self.cells.append(cell)
        # Fresh state per cell: the driver must re-read the handlers.
        self.handlers = {self._key: self._handler(cell)}

    def on_backwards(self, index, t, cat, ev, fields, last):
        self.backwards.append((index, t, last))

    def finish(self, stream):
        return stream


def test_driver_partitions_cells_and_checks_the_clock():
    rows = [
        (2.0, "run", "x", {}),
        (None, "run", "cell_start", {"index": 0}),
        (1.0, "run", "x", {}),
        (0.5, "run", "y", {}),  # backwards inside cell 0
        (None, "run", "cell_start", {"index": 1}),
        (0.0, "run", "x", {}),  # a new cell restarts the clock
    ]
    named, wild = _Recorder(), _Recorder(wildcard=True)
    stream, _ = replay(rows, named, wild)
    # Records ahead of the first marker form one implicit cell.
    assert (stream.records, stream.cells, stream.truncated) == (6, 3, False)
    assert named.cells == wild.cells == [0, 1]
    assert named.seen == [(None, 0, "x"), (0, 2, "x"), (1, 5, "x")]
    cells = [None, 0, 0, 0, 1, 1]
    assert wild.seen == [
        (cell, index, row[2])
        for cell, (index, row) in zip(cells, enumerate(rows))
    ]
    assert named.backwards == wild.backwards == [(3, 0.5, 1.0)]
