"""Unit tests for the proportional-share schedulers."""

import random

import pytest

from repro.sched import (
    DrrScheduler,
    LotteryScheduler,
    SchedulerError,
    StrideScheduler,
    WfqScheduler,
)

PROPORTIONAL = [
    lambda: LotteryScheduler(rng=random.Random(5)),
    StrideScheduler,
    WfqScheduler,
    DrrScheduler,
]


def drain(scheduler, n=None):
    """Dequeue up to n items (all if None), returning the class sequence."""
    sequence = []
    while n is None or len(sequence) < n:
        result = scheduler.dequeue()
        if result is None:
            break
        sequence.append(result[0])
    return sequence


def fill(scheduler, counts):
    for name, count in counts.items():
        for i in range(count):
            scheduler.enqueue(name, f"{name}-{i}")


# -- generic contract ---------------------------------------------------------


@pytest.mark.parametrize("factory", PROPORTIONAL)
def test_empty_scheduler_returns_none(factory):
    scheduler = factory()
    scheduler.add_class("a")
    assert scheduler.dequeue() is None


@pytest.mark.parametrize("factory", PROPORTIONAL)
def test_unknown_class_rejected(factory):
    scheduler = factory()
    with pytest.raises(SchedulerError):
        scheduler.enqueue("ghost", "item")
    with pytest.raises(SchedulerError):
        scheduler.backlog("ghost")


@pytest.mark.parametrize("factory", PROPORTIONAL)
def test_duplicate_class_rejected(factory):
    scheduler = factory()
    scheduler.add_class("a")
    with pytest.raises(SchedulerError):
        scheduler.add_class("a")


@pytest.mark.parametrize("factory", PROPORTIONAL)
def test_non_positive_weight_rejected(factory):
    scheduler = factory()
    with pytest.raises(SchedulerError):
        scheduler.add_class("a", weight=0)
    scheduler.add_class("b", weight=1.0)
    with pytest.raises(SchedulerError):
        scheduler.set_weight("b", -2.0)


@pytest.mark.parametrize("factory", PROPORTIONAL)
def test_fifo_within_class(factory):
    scheduler = factory()
    scheduler.add_class("a")
    for i in range(5):
        scheduler.enqueue("a", i)
    items = []
    while (result := scheduler.dequeue()) is not None:
        items.append(result[1])
    assert items == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("factory", PROPORTIONAL)
def test_work_conserving_single_backlogged_class(factory):
    """An idle class's share flows to the backlogged one."""
    scheduler = factory()
    scheduler.add_class("hot", weight=9.0)
    scheduler.add_class("cold", weight=1.0)
    fill(scheduler, {"cold": 20})
    assert drain(scheduler) == ["cold"] * 20


@pytest.mark.parametrize("factory", PROPORTIONAL)
def test_proportional_share_under_continuous_backlog(factory):
    scheduler = factory()
    scheduler.add_class("hot", weight=3.0)
    scheduler.add_class("cold", weight=1.0)
    fill(scheduler, {"hot": 3000, "cold": 3000})
    sequence = drain(scheduler, n=2000)
    hot_share = sequence.count("hot") / len(sequence)
    assert hot_share == pytest.approx(0.75, abs=0.05)


@pytest.mark.parametrize("factory", PROPORTIONAL)
def test_remove_queued_item(factory):
    scheduler = factory()
    scheduler.add_class("a")
    scheduler.enqueue("a", "x")
    scheduler.enqueue("a", "y")
    assert scheduler.remove("a", "x")
    assert not scheduler.remove("a", "x")
    assert scheduler.dequeue() == ("a", "y")


@pytest.mark.parametrize("factory", PROPORTIONAL)
def test_len_counts_all_queues(factory):
    scheduler = factory()
    scheduler.add_class("a")
    scheduler.add_class("b")
    fill(scheduler, {"a": 2, "b": 3})
    assert len(scheduler) == 5


@pytest.mark.parametrize("factory", PROPORTIONAL)
def test_share_accounting(factory):
    scheduler = factory()
    scheduler.add_class("a", weight=1.0)
    scheduler.add_class("b", weight=1.0)
    fill(scheduler, {"a": 100, "b": 100})
    drain(scheduler, n=100)
    assert scheduler.share_of("a") + scheduler.share_of("b") == pytest.approx(1.0)


# -- discipline-specific behaviour -------------------------------------------


def test_stride_is_deterministic_and_smooth():
    """weight 2:1 should interleave, not batch."""
    scheduler = StrideScheduler()
    scheduler.add_class("a", weight=2.0)
    scheduler.add_class("b", weight=1.0)
    fill(scheduler, {"a": 100, "b": 100})
    sequence = drain(scheduler, n=9)
    # In every window of 3, "a" appears exactly twice.
    for start in range(0, 9, 3):
        window = sequence[start : start + 3]
        assert window.count("a") == 2


def test_stride_no_credit_hoarding_after_idle():
    scheduler = StrideScheduler()
    scheduler.add_class("a", weight=1.0)
    scheduler.add_class("b", weight=1.0)
    fill(scheduler, {"a": 100})
    drain(scheduler, n=50)
    # b was idle all along; now both are backlogged.
    fill(scheduler, {"b": 100})
    sequence = drain(scheduler, n=20)
    # b must not monopolize: equal weights, roughly equal service.
    assert 7 <= sequence.count("b") <= 13


def test_wfq_respects_sizes():
    """A class sending big items gets fewer of them per unit weight."""
    scheduler = WfqScheduler()
    scheduler.add_class("small", weight=1.0)
    scheduler.add_class("big", weight=1.0)
    for i in range(50):
        scheduler.enqueue("small", i, size=1.0)
        scheduler.enqueue("big", i, size=4.0)
    drained = drain(scheduler, n=40)
    small_bits = drained.count("small") * 1.0
    big_bits = drained.count("big") * 4.0
    assert small_bits == pytest.approx(big_bits, rel=0.3)


def test_drr_quantum_validation():
    with pytest.raises(ValueError):
        DrrScheduler(quantum=0)


def test_drr_handles_oversize_items():
    scheduler = DrrScheduler(quantum=1.0)
    scheduler.add_class("a", weight=1.0)
    scheduler.enqueue("a", "huge", size=100.0)
    assert scheduler.dequeue() == ("a", "huge")


def test_lottery_seeded_reproducibility():
    def build():
        scheduler = LotteryScheduler(rng=random.Random(42))
        scheduler.add_class("a", weight=1.0)
        scheduler.add_class("b", weight=2.0)
        fill(scheduler, {"a": 50, "b": 50})
        return drain(scheduler, n=60)

    assert build() == build()


def test_weight_change_takes_effect():
    scheduler = StrideScheduler()
    scheduler.add_class("a", weight=1.0)
    scheduler.add_class("b", weight=1.0)
    fill(scheduler, {"a": 1000, "b": 1000})
    drain(scheduler, n=100)
    scheduler.set_weight("a", 9.0)
    sequence = drain(scheduler, n=500)
    assert sequence.count("a") / len(sequence) == pytest.approx(0.9, abs=0.05)
