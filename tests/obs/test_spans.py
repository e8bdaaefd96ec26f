"""Causal span reconstruction: lifecycles, truncation, live folding.

The synthetic streams below mirror the shapes the real tracer emits
(docs/OBSERVABILITY.md taxonomy): record lifecycle events keyed on
``(table, key)``, packet events keyed on ``(chan, seq)``, repair
request/service pairs, and the runner's ``cell_start`` partition
marker.  What the tests pin is the *folding contract* from
docs/SPANS.md — every lifecycle becomes exactly one span, lossy input
surfaces as ``truncated=True`` spans rather than silent drops, and the
live ``SpanSink`` produces the same report as a replay.
tests/obs/test_fold.py pins the same agreement on a full traced run.
"""

import json

from repro.obs import runtime as _obs
from repro.obs.fold import Stream, replay, replay_file
from repro.obs.spans import Span, SpanBuilder, SpanSink
from repro.obs.trace import RingBufferSink, Tracer
from repro.protocols import FeedbackSession


def _spans(records, dropped=0):
    (report,) = replay(records, SpanBuilder(), dropped=dropped)
    return report


def _basic_stream():
    """Announce packet -> record install -> refresh -> expiry."""
    return [
        (None, "run", "cell_start", {"index": 0, "fn": "f"}),
        (0.0, "packet", "packet_enqueued",
         {"chan": "data", "seq": 1, "kind": "announce", "key": "rec-0"}),
        (0.1, "packet", "packet_sent",
         {"chan": "data", "seq": 1, "kind": "announce", "key": "rec-0"}),
        (0.3, "packet", "packet_delivered",
         {"chan": "data", "seq": 1, "kind": "announce", "key": "rec-0"}),
        (0.3, "record", "record_inserted",
         {"table": "t1", "key": "rec-0", "role": "receiver"}),
        (1.3, "record", "refresh_received", {"table": "t1", "key": "rec-0"}),
        (5.0, "record", "record_expired", {"table": "t1", "key": "rec-0"}),
    ]


def test_record_lifecycle_span_with_packet_parent():
    report = _spans(_basic_stream())
    records = [s for s in report.spans if s.kind == "record"]
    packets = [s for s in report.spans if s.kind == "packet"]
    assert len(records) == 1 and len(packets) == 1
    span = records[0]
    assert span.status == "expired"
    assert not span.truncated
    assert span.start == 0.3 and span.end == 5.0
    # Staleness = expiry minus the last refresh that reached the record.
    assert span.fields["staleness_s"] == 5.0 - 1.3
    assert span.fields["refreshes_received"] == 1
    # The delivery that caused the install parents the record span.
    assert span.parent_id == packets[0].span_id
    recon = report.reconciliation()
    assert recon["reconciled"]
    assert recon["record_spans"] == 1
    assert recon["refresh_marks"] == 1


def test_packet_span_latency_breakdown():
    report = _spans(_basic_stream())
    packet = next(s for s in report.spans if s.kind == "packet")
    assert packet.status == "delivered"
    assert abs(packet.fields["queue_s"] - 0.1) < 1e-12
    assert abs(packet.fields["delivery_s"] - 0.2) < 1e-12


def test_lost_packet_closes_lost():
    stream = [
        (0.0, "packet", "packet_enqueued",
         {"chan": "data", "seq": 7, "kind": "update", "key": "k"}),
        (0.1, "packet", "packet_sent",
         {"chan": "data", "seq": 7, "kind": "update", "key": "k"}),
        (0.1, "packet", "packet_lost",
         {"chan": "data", "seq": 7, "kind": "update", "key": "k"}),
    ]
    report = _spans(stream)
    (span,) = report.spans
    assert span.status == "lost" and not span.truncated


def test_multicast_aggregate_send_closes_span():
    # Per-receiver deliveries precede the aggregate packet_sent in the
    # real stream; the aggregate closes the span with fan-out totals.
    stream = [
        (0.0, "packet", "packet_enqueued",
         {"chan": "mc", "seq": 3, "kind": "announce", "key": "k"}),
        (0.2, "packet", "packet_delivered",
         {"chan": "mc", "seq": 3, "receiver": 0, "key": "k"}),
        (0.2, "packet", "packet_delivered",
         {"chan": "mc", "seq": 3, "receiver": 2, "key": "k"}),
        (0.2, "packet", "packet_sent",
         {"chan": "mc", "seq": 3, "kind": "announce", "key": "k",
          "receivers": 3, "lost": 1}),
    ]
    report = _spans(stream)
    (span,) = report.spans
    assert span.status == "delivered"
    assert span.fields["delivered"] == 2
    assert span.fields["receivers"] == 3 and span.fields["lost"] == 1


def test_repair_chain_depth_and_duplicate_service():
    stream = [
        (1.0, "record", "repair_requested", {"seqs": [5], "session": "s"}),
        (2.0, "record", "repair_requested", {"seqs": [5], "session": "s"}),
        (3.0, "record", "repair_sent", {"key": "k", "seqs": [5]}),
        # A second service of the same target (request raced the first
        # repair): a duplicate span parented to the original, never a
        # truncated one.
        (4.0, "record", "repair_sent", {"key": "k", "seqs": [5]}),
    ]
    report = _spans(stream)
    repairs = [s for s in report.spans if s.kind == "repair"]
    assert len(repairs) == 2
    original, duplicate = repairs
    assert original.status == "repaired"
    assert original.fields["requests"] == 2
    assert original.start == 1.0 and original.end == 3.0
    assert duplicate.fields.get("duplicate") is True
    assert duplicate.parent_id == original.span_id
    assert not duplicate.truncated


def test_repair_spans_close_by_identity(monkeypatch):
    # Repairs close out of request order in a lossy feedback session,
    # so a value-based removal from the open-repair stack would compare
    # Span dataclasses; the fold must never need to.
    def no_compare(self, other):
        raise AssertionError("Span.__eq__ called while folding")

    monkeypatch.setattr(Span, "__eq__", no_compare)
    sink = SpanSink(RingBufferSink(capacity=None))
    tracer = Tracer(sink)
    with _obs.tracing(tracer):
        FeedbackSession(
            data_kbps=50.0,
            feedback_kbps=8.0,
            loss_rate=0.3,
            update_rate=1.0,
            seed=3,
        ).run(90.0)
    tracer.close()
    report = sink.finalize()
    repaired = [
        s for s in report.spans if s.kind == "repair" and s.status == "repaired"
    ]
    assert len(repaired) > 20
    assert report.reconciliation()["reconciled"]


def test_cell_start_partitions_and_closes_open_spans():
    stream = [
        (None, "run", "cell_start", {"index": 0, "fn": "f"}),
        (0.5, "record", "record_inserted",
         {"table": "t1", "key": "a", "role": "publisher"}),
        (None, "run", "cell_start", {"index": 1, "fn": "f"}),
        (0.1, "record", "record_inserted",
         {"table": "t1", "key": "a", "role": "publisher"}),
        (0.9, "record", "record_deleted", {"table": "t1", "key": "a"}),
    ]
    report = _spans(stream)
    first, second = (s for s in report.spans if s.kind == "record")
    assert first.cell == 0 and first.status == "live"
    assert second.cell == 1 and second.status == "deleted"


def test_ring_wraparound_reports_truncated_spans():
    """Opens evicted from a ring buffer surface as truncated spans."""
    # Capacity 2 keeps only refresh_received + record_expired: the
    # span's opening record_inserted has rotated out.
    sink = RingBufferSink(capacity=2)
    for record in _basic_stream():
        sink.write(record)
    assert sink.dropped > 0
    report = _spans(sink.records(), dropped=sink.dropped)
    assert report.truncated_input
    # The surviving tail is refresh_received + record_expired: the
    # record's lifecycle must still be reported, flagged truncated.
    records = [s for s in report.spans if s.kind == "record"]
    assert len(records) == 1
    assert records[0].truncated
    assert records[0].status == "expired"
    assert report.truncated_spans() == 1
    # Truncated spans are excluded from reconciliation counts, so a
    # wrapped ring never fakes a clean reconciliation mismatch.
    assert report.reconciliation()["reconciled"]


def test_untruncated_ring_input_is_clean():
    sink = RingBufferSink(capacity=None)
    for record in _basic_stream():
        sink.write(record)
    report = _spans(sink.records(), dropped=sink.dropped)
    assert not report.truncated_input
    assert report.truncated_spans() == 0


def test_torn_tail_jsonl_reconstruction(tmp_path):
    """A killed run's trace still folds; the tear marks the report."""
    path = tmp_path / "trace.jsonl"
    rows = []
    for t, cat, ev, fields in _basic_stream():
        rows.append(json.dumps({"t": t, "cat": cat, "ev": ev, **fields}))
    text = "\n".join(rows) + "\n" + '{"t": 9.9, "cat": "rec'
    path.write_text(text, encoding="utf-8")
    (report,) = replay_file(str(path), SpanBuilder())
    assert report.truncated_input
    record = next(s for s in report.spans if s.kind == "record")
    assert record.status == "expired"
    assert report.reconciliation()["reconciled"]


def test_span_sink_matches_posthoc_build():
    inner = RingBufferSink(capacity=None)
    sink = SpanSink(inner)
    for record in _basic_stream():
        sink.write(record)
    live = sink.finalize()
    posthoc = _spans(inner.records())
    assert [s.as_dict() for s in live.spans] == [
        s.as_dict() for s in posthoc.spans
    ]
    assert live.counts == posthoc.counts


def test_finalize_publishes_derived_metrics():
    stream = _basic_stream() + [
        (6.0, "record", "repair_requested", {"seqs": [1]}),
        (7.0, "record", "repair_sent", {"key": "k", "seqs": [1]}),
    ]
    with _obs.cell_context() as ctx:
        _spans(stream)
    snapshot = ctx.registry.snapshot()
    staleness = snapshot["repro_record_staleness_seconds"]
    assert staleness["kind"] == "histogram"
    (series,) = staleness["series"]
    assert series["value"]["count"] == 1
    assert abs(series["value"]["sum"] - (5.0 - 1.3)) < 1e-12
    depth = snapshot["repro_repair_chain_depth"]
    (series,) = depth["series"]
    assert series["value"]["count"] == 1
    assert series["value"]["sum"] == 1.0


def test_describe_mentions_truncation_and_reconciliation():
    sink = RingBufferSink(capacity=2)
    for record in _basic_stream():
        sink.write(record)
    report = _spans(sink.records(), dropped=sink.dropped)
    text = report.describe()
    assert "truncated input" in text
    assert "truncated" in text
    assert "reconciliation [ok]" in text


def test_builder_feed_raw_matches_feed():
    # The fold's raw per-record entry is its handler table (and
    # on_cell for a cell marker): calling them by hand, with no
    # driver, gives the replay's counts.
    records = _basic_stream()
    via_raw = SpanBuilder()
    for index, (t, cat, ev, fields) in enumerate(records):
        if (cat, ev) == ("run", "cell_start"):
            via_raw.on_cell(fields)
            continue
        handler = via_raw.handlers.get(ev)
        if handler is not None:
            handler(index, t, cat, ev, fields)
    raw_report = via_raw.finish(Stream(len(records), 1, False))
    assert raw_report.counts == _spans(records).counts
