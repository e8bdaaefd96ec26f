"""Unit tests for the consistency metric (Section 2.1)."""

import pytest

from repro.core import ConsistencyMeter, SoftStateTable


def make_pair():
    publisher = SoftStateTable("publisher")
    subscriber = SoftStateTable("subscriber")
    return publisher, subscriber


def test_instantaneous_empty_live_set_is_none():
    publisher, subscriber = make_pair()
    meter = ConsistencyMeter(publisher, [subscriber])
    assert meter.instantaneous(0.0) is None


def test_instantaneous_fraction_of_matching_keys():
    publisher, subscriber = make_pair()
    publisher.put("a", 1, now=0.0)
    publisher.put("b", 2, now=0.0)
    subscriber.put("a", 1, now=0.0)
    meter = ConsistencyMeter(publisher, [subscriber])
    assert meter.instantaneous(0.0) == pytest.approx(0.5)


def test_value_mismatch_counts_as_inconsistent():
    publisher, subscriber = make_pair()
    publisher.put("a", "new", now=0.0)
    subscriber.put("a", "stale", now=0.0)
    meter = ConsistencyMeter(publisher, [subscriber])
    assert meter.instantaneous(0.0) == 0.0


def test_expired_subscriber_copy_counts_as_inconsistent():
    publisher, subscriber = make_pair()
    publisher.put("a", 1, now=0.0, lifetime=100.0)
    subscriber.put("a", 1, now=0.0, hold_time=5.0)
    meter = ConsistencyMeter(publisher, [subscriber])
    assert meter.instantaneous(1.0) == 1.0
    assert meter.instantaneous(6.0) == 0.0


def test_multiple_subscribers_average():
    publisher, s1 = make_pair()
    s2 = SoftStateTable("subscriber")
    publisher.put("a", 1, now=0.0)
    s1.put("a", 1, now=0.0)
    meter = ConsistencyMeter(publisher, [s1, s2])
    assert meter.instantaneous(0.0) == pytest.approx(0.5)


def test_time_average_is_interval_weighted():
    publisher, subscriber = make_pair()
    publisher.put("a", 1, now=0.0)
    meter = ConsistencyMeter(publisher, [subscriber])
    meter.observe(0.0)  # c = 0 (subscriber empty)
    subscriber.put("a", 1, now=2.0)
    meter.observe(2.0)  # after 2s of c=0, c becomes 1
    meter.observe(10.0)  # 8s of c=1
    assert meter.average() == pytest.approx(8.0 / 10.0)


def test_empty_live_set_counts_as_zero():
    publisher, subscriber = make_pair()
    meter = ConsistencyMeter(publisher, [subscriber])
    meter.observe(0.0)
    publisher.put("a", 1, now=5.0)
    subscriber.put("a", 1, now=5.0)
    meter.observe(5.0)  # 5s empty (0), then consistent
    meter.observe(10.0)  # 5s of 1
    assert meter.average() == pytest.approx(0.5)


def test_invalid_policy_and_empty_subscribers_rejected():
    publisher, _ = make_pair()
    with pytest.raises(ValueError):
        ConsistencyMeter(publisher, [])


def test_time_going_backwards_rejected():
    publisher, subscriber = make_pair()
    meter = ConsistencyMeter(publisher, [subscriber])
    meter.observe(5.0)
    with pytest.raises(ValueError):
        meter.observe(4.0)


def test_series_records_instantaneous_values():
    publisher, subscriber = make_pair()
    meter = ConsistencyMeter(publisher, [subscriber])
    meter.enable_series()
    publisher.put("a", 1, now=0.0)
    meter.observe(0.0)
    subscriber.put("a", 1, now=1.0)
    meter.observe(1.0)
    meter.observe(2.0)
    times = [t for t, _ in meter.series]
    values = [v for _, v in meter.series]
    assert times == [0.0, 1.0, 2.0]
    assert values == [0.0, 1.0, 1.0]


def test_running_average_series_converges_to_average():
    publisher, subscriber = make_pair()
    meter = ConsistencyMeter(publisher, [subscriber])
    meter.enable_series()
    publisher.put("a", 1, now=0.0)
    meter.observe(0.0)
    subscriber.put("a", 1, now=5.0)
    meter.observe(5.0)
    meter.observe(10.0)
    running = meter.running_average_series()
    assert running[-1][1] == pytest.approx(meter.average())


def test_average_with_no_observations_is_zero():
    publisher, subscriber = make_pair()
    meter = ConsistencyMeter(publisher, [subscriber])
    assert meter.average() == 0.0
