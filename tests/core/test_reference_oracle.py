"""Reference oracle for the event-driven soft-state core.

``SoftStateTable.expire`` runs off a deadline heap and
``ConsistencyMeter.instantaneous`` keeps c(t) incrementally.  The two
full rescans they replaced live on here as the reference: seeded random
op sequences drive real tables and meters, and every ``expire`` and
every sample must agree exactly with a rescan of the same state.
"""

import math
import random

import pytest

from repro.core import ConsistencyMeter, SoftStateTable

KEYS = ("a", "b", "c", "d", "e")
#: Few distinct steps and timers, so timestamps and deadlines collide.
STEPS = (0.0, 0.0, 0.25, 0.5, 1.0)
TIMERS = (0.5, 1.0, 1.0, 2.0, math.inf)


def reference_expiring(table, now):
    """The O(n) scan ``expire`` used to run: lapsed records, dict order."""
    if table.role == "publisher":
        return [r for r in table if r.created_at + r.lifetime <= now]
    return [r for r in table if r.last_refreshed + r.hold_time <= now]


def reference_instantaneous(publisher, subscribers, now):
    """The O(live x subscribers) rescan c(t) used to be."""
    live = publisher.live_records(now)
    if not live:
        return None
    matched = 0
    total = 0
    for subscriber in subscribers:
        for record in live:
            total += 1
            mirror = subscriber.get(record.key)
            if (
                mirror is not None
                and mirror.is_subscriber_live(now)
                and mirror.value == record.value
            ):
                matched += 1
    return matched / total


def _step(rng, publisher, subscribers, now):
    """Apply one random table operation at time ``now``."""
    key = rng.choice(KEYS)
    sub = rng.choice(subscribers)
    op = rng.randrange(11)
    if op == 0:
        publisher.put(key, rng.randrange(3), now=now, lifetime=rng.choice(TIMERS))
    elif op == 1:
        if key in publisher:
            publisher.revise(key, rng.randrange(3), now)
    elif op == 2:
        publisher.delete(key)
    elif op in (3, 4):
        record = publisher.get(key)
        mirror = sub.get(key)
        if mirror is not None and rng.random() < 0.3:
            version = mirror.version - 1  # stale: refreshes the timer only
        else:
            version = record.version if record is not None else 0
        value = (
            record.value
            if record is not None and rng.random() < 0.7
            else rng.randrange(3)
        )
        sub.put(key, value, now=now, version=version, hold_time=rng.choice(TIMERS))
    elif op == 5:
        sub.refresh(key, now)
    elif op == 6:
        sub.delete(key)
    elif op == 7:
        mirror = sub.get(key)
        if mirror is not None:
            # In-place shrink, as the scalable-timers receiver does.
            mirror.hold_time = min(mirror.hold_time, rng.choice(TIMERS[:-1]))
            sub.bound_expiry(key)
    elif op == 8:
        if rng.random() < 0.1:
            sub.clear()
    else:
        table = rng.choice([publisher, *subscribers])
        expected = reference_expiring(table, now)
        got = table.expire(now)
        assert [r.key for r in got] == [r.key for r in expected]
        assert all(g is e for g, e in zip(got, expected))
        assert reference_expiring(table, now) == []


@pytest.mark.parametrize("seed", range(24))
def test_heap_and_meter_match_the_rescans(seed):
    rng = random.Random(seed)
    publisher = SoftStateTable("publisher")
    subscribers = [
        SoftStateTable("subscriber") for _ in range(1 + seed % 3)
    ]
    # One meter over the whole group, sampled every step; one per
    # subscriber sharing the publisher (as multicast and gateway do),
    # sampled only now and then so changes pile up between samples;
    # one created mid-run, as sessions do at the end of warmup.
    group = ConsistencyMeter(publisher, subscribers)
    singles = [ConsistencyMeter(publisher, [sub]) for sub in subscribers]
    late = None
    now = 0.0
    for step in range(400):
        now += rng.choice(STEPS)
        _step(rng, publisher, subscribers, now)
        assert group.instantaneous(now) == reference_instantaneous(
            publisher, subscribers, now
        )
        if step % 7 == 0:
            for meter, sub in zip(singles, subscribers):
                assert meter.instantaneous(now) == reference_instantaneous(
                    publisher, [sub], now
                )
        if step == 150:
            late = ConsistencyMeter(publisher, subscribers[::-1])
        if late is not None and step % 3 == 0:
            assert late.instantaneous(now) == reference_instantaneous(
                publisher, subscribers, now
            )
