"""Unit tests for loss models."""

import random
import tracemalloc

import pytest

from repro.net import (
    BernoulliLoss,
    CombinedLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    NoLoss,
    TraceLoss,
)


def empirical_rate(model, n=20000):
    return sum(model.is_lost() for _ in range(n)) / n


def test_no_loss_never_drops():
    model = NoLoss()
    assert not any(model.is_lost() for _ in range(100))
    assert model.mean_loss_rate == 0.0


def test_bernoulli_rate_bounds():
    with pytest.raises(ValueError):
        BernoulliLoss(-0.1)
    with pytest.raises(ValueError):
        BernoulliLoss(1.5)


def test_bernoulli_edge_rates_are_exact():
    assert not any(BernoulliLoss(0.0).is_lost() for _ in range(50))
    assert all(BernoulliLoss(1.0).is_lost() for _ in range(50))


def test_bernoulli_empirical_rate_matches():
    model = BernoulliLoss(0.3, rng=random.Random(1))
    assert abs(empirical_rate(model) - 0.3) < 0.01


def test_bernoulli_is_deterministic_under_seed():
    a = BernoulliLoss(0.5, rng=random.Random(9))
    b = BernoulliLoss(0.5, rng=random.Random(9))
    assert [a.is_lost() for _ in range(100)] == [b.is_lost() for _ in range(100)]


def test_gilbert_elliott_mean_rate():
    model = GilbertElliottLoss.with_mean(
        0.25, burst_length=4.0, rng=random.Random(2)
    )
    assert abs(model.mean_loss_rate - 0.25) < 1e-9
    assert abs(empirical_rate(model, n=200000) - 0.25) < 0.01


def test_gilbert_elliott_zero_mean_never_drops():
    model = GilbertElliottLoss.with_mean(0.0, rng=random.Random(3))
    assert not any(model.is_lost() for _ in range(100))


def test_gilbert_elliott_is_bursty():
    """Mean burst length should be near the configured value."""
    model = GilbertElliottLoss.with_mean(
        0.2, burst_length=10.0, rng=random.Random(4)
    )
    outcomes = [model.is_lost() for _ in range(200000)]
    bursts = []
    run = 0
    for lost in outcomes:
        if lost:
            run += 1
        elif run:
            bursts.append(run)
            run = 0
    mean_burst = sum(bursts) / len(bursts)
    assert 8.0 < mean_burst < 12.0


def test_gilbert_elliott_validation():
    with pytest.raises(ValueError):
        GilbertElliottLoss(p_gb=0.0, p_bg=0.0)
    with pytest.raises(ValueError):
        GilbertElliottLoss(p_gb=1.5, p_bg=0.5)
    with pytest.raises(ValueError):
        GilbertElliottLoss.with_mean(1.0)
    with pytest.raises(ValueError):
        GilbertElliottLoss.with_mean(0.3, burst_length=0.5)


def test_deterministic_loss_pattern():
    model = DeterministicLoss(period=4)
    outcomes = [model.is_lost() for _ in range(8)]
    assert outcomes == [False, False, False, True] * 2
    assert model.mean_loss_rate == 0.25


def test_trace_loss_replays_and_cycles():
    model = TraceLoss([True, False, False])
    assert [model.is_lost() for _ in range(6)] == [
        True,
        False,
        False,
        True,
        False,
        False,
    ]
    assert abs(model.mean_loss_rate - 1 / 3) < 1e-12


def test_trace_loss_rejects_empty():
    with pytest.raises(ValueError):
        TraceLoss([])


def test_combined_loss_survival_product():
    model = CombinedLoss([BernoulliLoss(0.5), BernoulliLoss(0.5)])
    assert abs(model.mean_loss_rate - 0.75) < 1e-12


def test_combined_loss_drops_if_any_component_drops():
    model = CombinedLoss([NoLoss(), DeterministicLoss(period=1)])
    assert model.is_lost()


def test_combined_loss_rejects_empty():
    with pytest.raises(ValueError):
        CombinedLoss([])


def test_seeded_models_are_creation_order_independent():
    """An explicitly seeded model's stream must not depend on how many
    other models were default-constructed before it (the per-instance
    default-RNG counter is global process state)."""
    from repro.des.rng import RngStreams

    def stream(order_noise):
        for _ in range(order_noise):
            BernoulliLoss(0.5)  # advances the default-stream counter
            GilbertElliottLoss(p_gb=0.1, p_bg=0.4, good_loss=0.0,
                               bad_loss=0.9)
        bern = BernoulliLoss(0.3, rng=RngStreams(seed=7)["bern"])
        ge = GilbertElliottLoss(p_gb=0.1, p_bg=0.4, good_loss=0.01,
                                bad_loss=0.8,
                                rng=RngStreams(seed=7)["ge"])
        return ([bern.is_lost() for _ in range(200)],
                [ge.is_lost() for _ in range(200)])

    assert stream(order_noise=0) == stream(order_noise=5)


def test_default_rngs_are_per_instance_not_clones():
    """Two default-constructed models must draw from distinct
    substreams — a shared or cloned RNG makes 'independent' channels
    drop identical packets."""
    a, b = BernoulliLoss(0.5), BernoulliLoss(0.5)
    draws_a = [a.is_lost() for _ in range(200)]
    draws_b = [b.is_lost() for _ in range(200)]
    assert draws_a != draws_b


def test_loss_models_hold_no_rng_snapshot():
    """A model keeps a reference to its rng, never a copy of its state:
    a multicast session builds one model per receiver, so a 625-word
    Mersenne Twister snapshot each (about 24 KB) would dominate its
    memory."""
    rng = random.Random(3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        models = [BernoulliLoss(0.1, rng=rng) for _ in range(1000)]
        per_model = (tracemalloc.get_traced_memory()[0] - before) / len(models)
    finally:
        tracemalloc.stop()
    assert per_model < 4096
