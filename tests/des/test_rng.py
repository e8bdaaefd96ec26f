"""Unit tests for deterministic RNG streams."""

import gc
import tracemalloc

from repro.des import RngStreams
from repro.des.rng import numbered_streams
from repro.net import BernoulliLoss
from repro.sched import LotteryScheduler


def test_same_seed_same_stream():
    a = RngStreams(seed=7)["loss"]
    b = RngStreams(seed=7)["loss"]
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_unseeded_family_is_the_seed_zero_family():
    """``RngStreams()`` must not take its root from the host: two
    processes that build one without a seed draw the same numbers."""
    default, zero = RngStreams(), RngStreams(0)
    assert default.seed == 0
    assert [default["x"].random() for _ in range(3)] == [
        zero["x"].random() for _ in range(3)
    ]


def test_different_names_are_decoupled():
    streams = RngStreams(seed=7)
    first = [streams["loss"].random() for _ in range(5)]
    # Interleaving draws from another stream must not perturb "loss".
    streams2 = RngStreams(seed=7)
    second = []
    for _ in range(5):
        streams2["arrivals"].random()
        second.append(streams2["loss"].random())
    assert first == second


def test_different_seeds_differ():
    a = RngStreams(seed=1)["x"].random()
    b = RngStreams(seed=2)["x"].random()
    assert a != b


def test_stream_is_cached():
    streams = RngStreams(seed=3)
    assert streams["a"] is streams["a"]


def test_spawn_children_are_deterministic_and_distinct():
    parent = RngStreams(seed=9)
    child1 = parent.spawn("rcv-1")
    child2 = parent.spawn("rcv-2")
    again = RngStreams(seed=9).spawn("rcv-1")
    assert child1["loss"].random() == again["loss"].random()
    assert child1.seed != child2.seed


def test_numbered_streams_are_the_named_substreams_in_call_order():
    make = numbered_streams(0x10_55, "model")
    family = RngStreams(seed=0x10_55)
    for n in range(3):
        assert make().random() == family[f"model-{n}"].random()


def test_default_built_rngs_are_freed_with_their_owner():
    """Models and lotteries built without an rng keep no stream alive
    once they are gone: a long-lived process that builds them must not
    grow by a Mersenne Twister state (about 2.5 KB) per object."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        owners = [BernoulliLoss(0.1) for _ in range(1000)]
        owners += [LotteryScheduler() for _ in range(1000)]
        del owners
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024
