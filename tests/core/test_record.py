"""Unit tests for the soft-state table (Section 2 data model)."""

import math

import pytest

from repro.core import Record, SoftStateTable


def test_publisher_insert_and_get():
    table = SoftStateTable("publisher")
    record = table.put("k1", "v1", now=0.0, lifetime=10.0)
    assert record.key == "k1"
    assert record.value == "v1"
    assert record.version == 0
    assert table.get("k1") is record
    assert "k1" in table
    assert len(table) == 1


def test_update_bumps_version():
    table = SoftStateTable("publisher")
    table.put("k", "v1", now=0.0)
    record = table.put("k", "v2", now=1.0)
    assert record.version == 1
    assert record.value == "v2"
    assert table.updates == 1


def test_publisher_records_expire_by_lifetime():
    table = SoftStateTable("publisher")
    table.put("short", "x", now=0.0, lifetime=5.0)
    table.put("long", "y", now=0.0, lifetime=50.0)
    assert set(table.live_keys(4.9)) == {"short", "long"}
    assert table.live_keys(5.0) == ["long"]
    expired = table.expire(10.0)
    assert [r.key for r in expired] == ["short"]
    assert len(table) == 1


def test_subscriber_records_expire_by_hold_time():
    table = SoftStateTable("subscriber")
    table.put("k", "v", now=0.0, hold_time=3.0)
    assert table.live_keys(2.9) == ["k"]
    assert table.live_keys(3.1) == []
    table.refresh("k", now=2.0)
    assert table.live_keys(4.9) == ["k"]


def test_refresh_unknown_key_returns_false():
    table = SoftStateTable("subscriber")
    assert not table.refresh("ghost", now=1.0)


def test_expire_fires_callbacks():
    table = SoftStateTable("subscriber")
    table.put("k", "v", now=0.0, hold_time=1.0)
    fired = []
    table.on_expire(lambda record, now: fired.append((record.key, now)))
    table.expire(5.0)
    assert fired == [("k", 5.0)]
    assert table.expirations == 1


def test_subscriber_ignores_stale_version_value_but_refreshes_timer():
    table = SoftStateTable("subscriber")
    table.put("k", "new", now=0.0, version=3, hold_time=10.0)
    record = table.put("k", "old", now=5.0, version=1, hold_time=10.0)
    assert record.value == "new"
    assert record.version == 3
    assert record.last_refreshed == 5.0


def test_subscriber_accepts_newer_version():
    table = SoftStateTable("subscriber")
    table.put("k", "v1", now=0.0, version=1)
    record = table.put("k", "v2", now=1.0, version=2)
    assert record.value == "v2"
    assert record.version == 2


def test_delete_removes_record():
    table = SoftStateTable("publisher")
    table.put("k", "v", now=0.0)
    removed = table.delete("k")
    assert removed is not None and removed.key == "k"
    assert table.delete("k") is None
    assert len(table) == 0
    assert table.deletes == 1


def test_clear_simulates_crash():
    table = SoftStateTable("subscriber")
    table.put("a", 1, now=0.0)
    table.put("b", 2, now=0.0)
    table.clear()
    assert len(table) == 0


def test_invalid_role_and_parameters():
    with pytest.raises(ValueError):
        SoftStateTable("router")
    table = SoftStateTable("publisher")
    with pytest.raises(ValueError):
        table.put("k", "v", now=0.0, lifetime=0.0)
    with pytest.raises(ValueError):
        table.put("k", "v", now=0.0, hold_time=-1.0)


def test_record_expiry_properties():
    record = Record(
        key="k",
        value="v",
        created_at=2.0,
        lifetime=8.0,
        last_refreshed=4.0,
        hold_time=3.0,
    )
    assert record.publisher_expiry == 10.0
    assert record.subscriber_expiry == 7.0
    assert record.is_publisher_live(9.9)
    assert not record.is_publisher_live(10.0)
    assert record.is_subscriber_live(6.9)
    assert not record.is_subscriber_live(7.0)


def test_infinite_lifetime_never_expires():
    table = SoftStateTable("publisher")
    table.put("k", "v", now=0.0)
    assert table.live_keys(1e12) == ["k"]
    assert table.expire(1e12) == []


def test_iteration_yields_records():
    table = SoftStateTable("publisher")
    table.put("a", 1, now=0.0)
    table.put("b", 2, now=0.0)
    assert {record.key for record in table} == {"a", "b"}


def test_records_lapsing_together_expire_in_insertion_order():
    table = SoftStateTable("subscriber")
    table.put("z", 1, now=0.0, hold_time=5.0)
    table.put("a", 1, now=0.0, hold_time=5.0)
    table.put("m", 1, now=1.0, hold_time=3.0)  # earliest deadline, last in
    assert [r.key for r in table.expire(10.0)] == ["z", "a", "m"]


def test_reinserted_key_goes_last_and_its_old_heap_entry_is_ignored():
    table = SoftStateTable("subscriber")
    table.put("a", 1, now=0.0, hold_time=2.0)
    table.put("b", 1, now=0.0, hold_time=4.0)
    table.delete("a")
    table.put("a", 2, now=1.0, hold_time=3.0)  # same deadline as b
    assert table.expire(3.0) == []  # the first incarnation's 2.0 is stale
    assert [r.key for r in table.expire(4.0)] == ["b", "a"]


def test_bound_expiry_honours_an_in_place_hold_time_shrink():
    table = SoftStateTable("subscriber")
    record = table.put("k", "v", now=0.0, hold_time=10.0)
    assert table.expire(1.0) == []
    record.hold_time = 2.0
    table.bound_expiry("k")
    assert [r.key for r in table.expire(2.0)] == ["k"]


def test_refresh_only_traffic_keeps_the_heap_at_live_size():
    table = SoftStateTable("subscriber")
    for key in range(10):
        table.put(key, "v", now=0.0, hold_time=1.0)
    now = 0.0
    for _ in range(500):
        now += 0.25
        for key in range(10):
            table.refresh(key, now)
        assert table.expire(now) == []
        assert len(table._expiry.heap) <= 10
    assert len(table) == 10


def test_infinite_lifetimes_never_enter_the_heap():
    publisher = SoftStateTable("publisher")
    subscriber = SoftStateTable("subscriber")
    publisher.put("k", "v", now=0.0)
    subscriber.put("k", "v", now=0.0)
    subscriber.put("k", "w", now=1.0, version=1)
    subscriber.refresh("k", 2.0)
    assert publisher._expiry.heap == [] and subscriber._expiry.heap == []
    publisher.put("k", "v2", now=3.0, lifetime=5.0)
    assert len(publisher._expiry.heap) == 1
    assert [r.key for r in publisher.expire(8.0)] == ["k"]
