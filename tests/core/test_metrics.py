"""Unit tests for latency recording, bandwidth accounting, and how the
meters publish into the metric registry."""

import math

import pytest

from repro.core import BandwidthLedger, LatencyRecorder
from repro.obs import runtime as _obs


def test_latency_first_receipt_only():
    recorder = LatencyRecorder()
    recorder.introduced("k", 0, now=1.0)
    assert recorder.received("k", 0, now=3.5) == pytest.approx(2.5)
    # Duplicate receipt is ignored.
    assert recorder.received("k", 0, now=9.0) is None
    assert recorder.count == 1
    assert recorder.mean() == pytest.approx(2.5)


def test_latency_tracks_versions_independently():
    recorder = LatencyRecorder()
    recorder.introduced("k", 0, now=0.0)
    recorder.introduced("k", 1, now=10.0)
    assert recorder.received("k", 1, now=11.0) == pytest.approx(1.0)
    assert recorder.received("k", 0, now=12.0) == pytest.approx(12.0)


def test_latency_reintroduction_keeps_first_time():
    recorder = LatencyRecorder()
    recorder.introduced("k", 0, now=0.0)
    recorder.introduced("k", 0, now=5.0)  # duplicate introduction
    assert recorder.received("k", 0, now=6.0) == pytest.approx(6.0)


def test_abandoned_items_do_not_pollute_mean():
    recorder = LatencyRecorder()
    recorder.introduced("dead", 0, now=0.0)
    recorder.abandoned("dead", 0)
    assert recorder.received("dead", 0, now=100.0) is None
    assert math.isnan(recorder.mean())
    assert recorder.pending == 0


def test_latency_percentiles():
    recorder = LatencyRecorder()
    for i in range(1, 11):
        recorder.introduced(i, 0, now=0.0)
        recorder.received(i, 0, now=float(i))
    assert recorder.percentile(0) == 1.0
    assert recorder.percentile(100) == 10.0
    assert recorder.percentile(50) == pytest.approx(5.5)
    assert recorder.max() == 10.0
    with pytest.raises(ValueError):
        recorder.percentile(101)


def test_latency_empty_statistics_are_nan():
    recorder = LatencyRecorder()
    assert math.isnan(recorder.mean())
    assert math.isnan(recorder.percentile(50))
    assert math.isnan(recorder.max())


def test_ledger_accumulates_by_category():
    ledger = BandwidthLedger()
    ledger.add("new", 1000)
    ledger.add("redundant", 3000, packets=3)
    ledger.add("feedback", 500)
    assert ledger.bits("new") == 1000
    assert ledger.packets("redundant") == 3
    assert ledger.total_bits == 4500
    assert ledger.data_bits == 4000


def test_ledger_redundant_fraction_excludes_feedback():
    ledger = BandwidthLedger()
    ledger.add("new", 1000)
    ledger.add("redundant", 1000)
    ledger.add("feedback", 8000)
    assert ledger.redundant_fraction() == pytest.approx(0.5)


def test_ledger_feedback_fraction_is_of_total():
    ledger = BandwidthLedger()
    ledger.add("new", 3000)
    ledger.add("feedback", 1000)
    assert ledger.fraction("feedback") == pytest.approx(0.25)


def test_ledger_rejects_unknown_category_and_negative_bits():
    ledger = BandwidthLedger()
    with pytest.raises(ValueError):
        ledger.add("mystery", 100)
    with pytest.raises(ValueError):
        ledger.add("new", -1)
    with pytest.raises(ValueError):
        ledger.bits("mystery")
    with pytest.raises(ValueError):
        ledger.packets("mystery")


def test_ledger_empty_fractions_are_zero():
    ledger = BandwidthLedger()
    assert ledger.redundant_fraction() == 0.0
    assert ledger.fraction("feedback") == 0.0


def test_ledger_as_dict_snapshot():
    ledger = BandwidthLedger()
    ledger.add("summary", 2000)
    snapshot = ledger.as_dict()
    assert snapshot["summary"] == 2000
    snapshot["summary"] = 0  # must not alias internal state
    assert ledger.bits("summary") == 2000


# -- registry collectors ------------------------------------------------------


def test_mid_run_registry_read_sees_current_counts():
    from repro.protocols import OpenLoopSession

    reg = _obs.push_registry()
    try:
        session = OpenLoopSession(
            data_kbps=50.0, loss_rate=0.2, update_rate=1.0, seed=3
        )
        seen = []

        def probe(env):
            for _ in range(3):
                yield env.timeout(20.0)
                received = reg.get("repro_latency_received_total").total()
                bits = reg.get("repro_bandwidth_bits_total").total()
                seen.append((received, bits))
                assert received == session.latency.count
                assert bits == sum(session.ledger.as_dict().values())

        session.env.process(probe(session.env))
        session.run(70.0)
    finally:
        _obs.pop_registry()
    assert len(seen) == 3
    assert 0 < seen[0][0] < seen[1][0] < seen[2][0]
    assert 0 < seen[0][1] < seen[1][1] < seen[2][1]


def test_meters_sharing_a_label_set_add_up_in_receipt_order():
    reg = _obs.push_registry()
    try:
        first = LatencyRecorder(session="s0", protocol="p")
        second = LatencyRecorder(session="s0", protocol="p")
        # Latencies whose float sum depends on the order of addition.
        receipts = [
            (first, 1e16), (second, 1.0), (first, 1.0), (second, -1e16),
            (first, 0.1), (second, 0.2), (first, 0.3),
        ]
        for index, (recorder, latency) in enumerate(receipts):
            recorder.introduced(index, 0, now=0.0)
            recorder.received(index, 0, now=latency)
        in_receipt_order = 0.0
        for _, latency in receipts:
            in_receipt_order += latency
        per_meter = sum(first._latencies) + sum(second._latencies)
        assert per_meter != in_receipt_order  # the check is not vacuous

        histogram = reg.get("repro_receive_latency_seconds")
        (series,) = reg.snapshot()["repro_receive_latency_seconds"]["series"]
        assert series["labels"] == ["s0", "p"]
        assert series["value"]["sum"] == in_receipt_order
        assert series["value"]["count"] == len(receipts)
        assert sum(series["value"]["buckets"]) == len(receipts)
        assert histogram.count(session="s0", protocol="p") == len(receipts)
        received = reg.get("repro_latency_received_total")
        assert received.value(session="s0", protocol="p") == len(receipts)

        ledgers = [BandwidthLedger("s0", "p"), BandwidthLedger("s0", "p")]
        ledgers[0].add("new", 1000)
        ledgers[1].add("new", 24, packets=2)
        ledgers[0].add("redundant", 8)
        bits = reg.get("repro_bandwidth_bits_total")
        packets = reg.get("repro_bandwidth_packets_total")
        assert bits.value(session="s0", protocol="p", category="new") == 1024
        assert packets.value(session="s0", protocol="p", category="new") == 3
        assert bits.value(
            session="s0", protocol="p", category="redundant"
        ) == 8
    finally:
        _obs.pop_registry()


def test_histogram_buckets_by_bisect_with_inclusive_upper_edges():
    reg = _obs.push_registry()
    try:
        histogram = reg.histogram("h_seconds", "", (), buckets=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 2.0, 3.0, float("nan")):
            histogram.observe(value)
        (series,) = reg.snapshot()["h_seconds"]["series"]
        assert series["value"]["buckets"] == [2, 2, 2]
    finally:
        _obs.pop_registry()
