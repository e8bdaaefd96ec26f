"""Shard-count invariance: the sharded DES determinism contract.

docs/SCALE.md promises that the *merged* output of a sharded run is
byte-identical for every shard count K and every ``--jobs`` value.
These tests pin that with ``json.dumps(..., sort_keys=True)`` equality
across K (including K=1, the monolithic baseline) for Bernoulli,
Gilbert-Elliott, and churned populations, plus the tiling validation
in :func:`merge_shards` and the shard observability surface (telemetry
``shard`` field, ``shard_*`` trace events, shard spans).
"""

import json

import pytest

from repro.experiments.common import run_cells
from repro.obs import runtime as _obs
from repro.obs import telemetry as _telemetry
from repro.obs.fold import replay
from repro.obs.spans import SpanBuilder
from repro.obs.trace import CATEGORIES, RingBufferSink, Tracer
from repro.protocols.sharded import (
    ScaleListenerSession,
    ShardedMulticastSession,
    merge_shards,
    shard_bounds,
    shard_cell,
    shard_metrics,
)


def _spans(records):
    (report,) = replay(records, SpanBuilder())
    return report


def _merged(n, shards, jobs=1, **kwargs):
    session = ShardedMulticastSession(n, shards, 0.4, seed=3, **kwargs)
    return session.run(horizon=30.0, jobs=jobs)["merged"]


def _canon(payload):
    return json.dumps(payload, sort_keys=True)


# -- shard_bounds ------------------------------------------------------------


def test_shard_bounds_tile_the_population():
    for n in (1, 7, 100, 1001):
        for k in (1, 3, 8):
            bounds = shard_bounds(n, k)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo
            sizes = [hi - lo for lo, hi in bounds]
            # Balanced: sizes differ by at most one, remainder up front.
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)


def test_shard_bounds_clamps_to_population():
    assert shard_bounds(3, 10) == [(0, 1), (1, 2), (2, 3)]


def test_shard_bounds_rejects_bad_args():
    with pytest.raises(ValueError):
        shard_bounds(0, 1)
    with pytest.raises(ValueError):
        shard_bounds(10, 0)


# -- merged-output invariance ------------------------------------------------


def test_merged_output_invariant_across_shard_counts():
    baseline = _canon(_merged(60, 1))
    assert _canon(_merged(60, 4)) == baseline
    assert _canon(_merged(60, 7)) == baseline


def test_merged_output_invariant_with_gilbert_elliott_loss():
    baseline = _canon(_merged(40, 1, burst_length=5.0))
    assert _canon(_merged(40, 4, burst_length=5.0)) == baseline


def test_merged_output_invariant_with_churn():
    baseline = _canon(_merged(40, 1, churn_rate=0.05))
    assert _canon(_merged(40, 5, churn_rate=0.05)) == baseline


def test_merged_output_invariant_across_jobs():
    sequential = _canon(_merged(60, 4, jobs=1))
    pooled = _canon(_merged(60, 4, jobs=4))
    assert pooled == sequential


def test_monolithic_session_equals_merged_shards():
    mono = ScaleListenerSession(50, 0.4, seed=3).run(horizon=30.0)
    merged = _merged(50, 5)
    assert mono["held"] == merged["held"]
    assert mono["false_expiries"] == merged["false_expiries"]
    assert mono["deliveries"] == merged["deliveries"]


# -- merge validation --------------------------------------------------------


def _rows(n, shards, **kwargs):
    cells = ShardedMulticastSession(n, shards, 0.4, seed=3, **kwargs).cells(
        20.0
    )
    return [shard_cell(**cell) for cell in cells]


def test_merge_rejects_empty_and_gaps():
    with pytest.raises(ValueError, match="at least one shard"):
        merge_shards([])
    rows = _rows(30, 3)
    with pytest.raises(ValueError, match="gap"):
        merge_shards(rows[:1] + rows[2:])
    with pytest.raises(ValueError, match="cover"):
        merge_shards(rows[:-1])


def test_merge_rejects_schedule_disagreement():
    rows = _rows(30, 2)
    rows[1] = dict(rows[1], packets_sent=rows[1]["packets_sent"] + 1)
    with pytest.raises(ValueError, match="schedule"):
        merge_shards(rows)


def test_shard_metrics_shapes():
    metrics = shard_metrics(merge_shards(_rows(30, 3)))
    assert 0.0 < metrics["consistency"] <= 1.0
    assert metrics["t50_s"] <= metrics["t90_s"] <= metrics["t99_s"]
    assert metrics["false_expiry_per_s"] >= 0.0
    assert metrics["delivered_total"] > 0.0


# -- observability surface ---------------------------------------------------


def test_telemetry_cells_carry_shard_identity():
    run = _telemetry.begin_run("shard-test")
    try:
        cells = ShardedMulticastSession(20, 2, 0.4, seed=3).cells(10.0)
        run_cells(shard_cell, cells, jobs=1)
    finally:
        _telemetry.end_run()
    payload = run.as_dict()
    shards = [cell["shard"] for cell in payload["cells"]]
    assert shards == [
        {"index": 0, "lo": 0, "hi": 10},
        {"index": 1, "lo": 10, "hi": 20},
    ]


def test_unsharded_cells_omit_the_shard_field():
    run = _telemetry.begin_run("plain-test")
    try:
        run_cells(lambda x: {"x": x}, [{"x": 1}], jobs=1)
    finally:
        _telemetry.end_run()
    (cell,) = run.as_dict()["cells"]
    assert "shard" not in cell


def test_trace_stream_and_spans_render_shards():
    sink = RingBufferSink(capacity=None)
    tracer = Tracer(sink=sink, categories=CATEGORIES)
    with _obs.tracing(tracer):
        ShardedMulticastSession(20, 2, 0.4, seed=3).run(horizon=10.0)
    records = sink.records()
    events = [ev for _, _, ev, _ in records]
    assert events.count("shard_start") == 2
    assert events.count("shard_end") == 2
    assert events.count("shard_merge") == 1
    starts = [f for _, _, ev, f in records if ev == "shard_start"]
    assert {s["shard"] for s in starts} == {0, 1}
    assert all({"lo", "hi", "receivers"} <= set(s) for s in starts)

    report = _spans(records)
    shard_spans = [s for s in report.spans if s.kind == "shard"]
    assert len(shard_spans) == 2
    for span in shard_spans:
        assert span.status == "merged"
        assert not span.truncated
        assert span.start == 0.0 and span.end == 10.0
        assert span.fields["receivers"] == 10
        assert span.fields["held"] is not None
        assert span.fields["false_expiries"] is not None
    merges = [i for i in report.instants if i[2] == "shard_merge"]
    assert len(merges) == 1


def test_shard_end_without_start_is_truncated_span():
    records = [
        (10.0, "run", "shard_end", {"shard": 0, "held": 5,
                                    "false_expiries": 1}),
    ]
    report = _spans(records)
    (span,) = report.spans
    assert span.kind == "shard" and span.truncated
    assert span.status == "merged"


def test_session_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ScaleListenerSession(0, 0.4)
    with pytest.raises(ValueError):
        ScaleListenerSession(10, 0.0)
    with pytest.raises(ValueError):
        ScaleListenerSession(10, 1.0)
    with pytest.raises(ValueError):
        ScaleListenerSession(10, 0.4, shard=(5, 3))
    with pytest.raises(ValueError):
        ScaleListenerSession(10, 0.4, tick=0.0)
    with pytest.raises(ValueError):
        ScaleListenerSession(10, 0.4).run(horizon=0.0)
