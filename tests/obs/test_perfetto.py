"""Chrome trace-event export: shape, tracks, determinism."""

import json

from repro.obs.fold import replay
from repro.obs.perfetto import report_to_trace_events
from repro.obs.spans import SpanBuilder


def _spans(records):
    (report,) = replay(records, SpanBuilder())
    return report


def _stream():
    return [
        (None, "run", "cell_start", {"index": 0, "fn": "f"}),
        (0.0, "packet", "packet_enqueued",
         {"chan": "data", "seq": 1, "kind": "announce", "key": "k"}),
        (0.1, "packet", "packet_sent",
         {"chan": "data", "seq": 1, "kind": "announce", "key": "k"}),
        (0.3, "packet", "packet_delivered",
         {"chan": "data", "seq": 1, "kind": "announce", "key": "k"}),
        (0.3, "record", "record_inserted",
         {"table": "t1", "key": "k", "role": "receiver"}),
        (2.0, "record", "record_expired", {"table": "t1", "key": "k"}),
        (1.0, "run", "consistency_sample",
         {"session": "s0", "value": 0.75}),
        (1.5, "spec", "summary_checked", {"session": "s0", "ok": True}),
    ]


def test_trace_event_document_shape():
    document = report_to_trace_events(_spans(_stream()))
    assert set(document) == {"traceEvents", "displayTimeUnit"}
    assert document["displayTimeUnit"] == "ms"
    for event in document["traceEvents"]:
        assert {"ph", "name", "pid", "tid"} <= set(event)
        assert event["ph"] in ("X", "i", "C", "M")
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] == "t"
    assert json.dumps(document)  # JSON-serialisable end to end


def test_complete_events_scale_sim_seconds_to_microseconds():
    document = report_to_trace_events(_spans(_stream()))
    record = next(
        e
        for e in document["traceEvents"]
        if e["ph"] == "X" and e["cat"] == "record"
    )
    assert record["ts"] == 0.3 * 1e6
    assert record["dur"] == (2.0 - 0.3) * 1e6
    assert record["args"]["status"] == "expired"


def test_tracks_are_per_cell_and_label():
    document = report_to_trace_events(_spans(_stream()))
    metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
    thread_names = {
        e["args"]["name"] for e in metadata if e["name"] == "thread_name"
    }
    # One track per channel/table plus the instant/counter lanes.
    assert {"data", "t1", "consistency", "events"} <= thread_names
    assert any(e["name"] == "process_name" for e in metadata)


def test_consistency_samples_become_counter_events():
    document = report_to_trace_events(_spans(_stream()))
    counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
    (counter,) = counters
    assert counter["name"] == "consistency s0"
    assert counter["args"] == {"value": 0.75}
    instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
    assert any(e["name"] == "summary_checked" for e in instants)


def test_export_is_deterministic():
    first = report_to_trace_events(_spans(_stream()))
    second = report_to_trace_events(_spans(_stream()))
    assert first == second
