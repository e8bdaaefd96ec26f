"""How one multicast fan-out consumes a loss model shared by a group.

A "batch" here is one packet fanned out to ``n`` members that share a
single loss model object.  The fan-out draws that model once per member,
in join order, through ``is_lost()`` — so the outcomes and the model's
state afterwards (rng sequence, chain state, trace position) must be
exactly those of ``n`` consecutive ``is_lost()`` calls on a same-seed
clone.  That is what lets the fan-out and any other consumer of a model
(a unicast channel, a fault overlay that swaps the model back) be mixed
freely.
"""

import random

import pytest

from repro.des import Environment
from repro.net import (
    BernoulliLoss,
    CombinedLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    LossModel,
    MulticastChannel,
    NoLoss,
    Packet,
    TotalLoss,
    TraceLoss,
)


def _combined_disjoint():
    return CombinedLoss(
        [
            BernoulliLoss(0.2, rng=random.Random(11)),
            GilbertElliottLoss(
                p_gb=0.15, p_bg=0.4, bad_loss=0.9, good_loss=0.05,
                rng=random.Random(12),
            ),
            DeterministicLoss(period=5, offset=1),
        ]
    )


def _combined_shared_rng():
    # Both components draw from ONE rng, interleaved packet by packet.
    shared = random.Random(13)
    return CombinedLoss(
        [BernoulliLoss(0.3, rng=shared), BernoulliLoss(0.6, rng=shared)]
    )


#: name -> zero-arg factory producing a freshly seeded instance; calling
#: a factory twice yields independent same-seed clones.
MODEL_FACTORIES = {
    "no_loss": lambda: NoLoss(),
    "total_loss": lambda: TotalLoss(),
    "bernoulli": lambda: BernoulliLoss(0.35, rng=random.Random(7)),
    "bernoulli_zero": lambda: BernoulliLoss(0.0, rng=random.Random(8)),
    "bernoulli_one": lambda: BernoulliLoss(1.0, rng=random.Random(9)),
    "gilbert_elliott": lambda: GilbertElliottLoss(
        p_gb=0.1, p_bg=0.3, bad_loss=0.95, good_loss=0.02,
        rng=random.Random(10),
    ),
    "deterministic": lambda: DeterministicLoss(period=4, offset=2),
    "trace": lambda: TraceLoss([True, False, False, True, False]),
    "combined": _combined_disjoint,
    "combined_shared_rng": _combined_shared_rng,
}

ALL_MODELS = sorted(MODEL_FACTORIES)


def fan_out(model, n, blocked=False):
    """Fan one packet out to ``n`` members sharing ``model``.

    Returns the members' loss outcomes in join order.
    """
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    for member in range(n):
        mc.join(member, lambda p: None, loss=model)
        if blocked:
            mc.block(member)
    outcomes = []
    mc.on_serviced(lambda p, o: outcomes.append(list(o.values())))
    mc.send(Packet(seq=0))
    env.run(until=1.0)
    return outcomes[0]


def draws(model, n):
    return [model.is_lost() for _ in range(n)]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_batch_matches_scalar_for_random_sizes(name):
    scalar = MODEL_FACTORIES[name]()
    shared = MODEL_FACTORIES[name]()
    sizes = random.Random(101).choices(range(0, 23), k=30)
    for n in sizes:
        assert fan_out(shared, n) == draws(scalar, n), f"{name} n={n}"
    # Post-fan-out state is identical too: more scalar draws agree.
    assert draws(shared, 50) == draws(scalar, 50)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_interleaved_scalar_and_batch_calls(name):
    scalar = MODEL_FACTORIES[name]()
    mixed = MODEL_FACTORIES[name]()
    plan = random.Random(202).choices(["scalar", "batch"], k=40)
    sizes = random.Random(303).choices(range(1, 9), k=40)
    for op, n in zip(plan, sizes):
        expected = draws(scalar, n)
        got = draws(mixed, n) if op == "scalar" else fan_out(mixed, n)
        assert got == expected, f"{name} {op} n={n}"


@pytest.mark.parametrize("name", ALL_MODELS)
def test_empty_batch_is_a_noop(name):
    # Blocked members are lost without reaching their last hop: a
    # fan-out to an all-blocked (or empty) group draws nothing.
    model = MODEL_FACTORIES[name]()
    reference = MODEL_FACTORIES[name]()
    assert fan_out(model, 0) == []
    assert fan_out(model, 5, blocked=True) == [True] * 5
    assert fan_out(model, 12) == draws(reference, 12)


def test_degenerate_bernoulli_batches_consume_no_randomness():
    for rate in (0.0, 1.0):
        rng = random.Random(5)
        model = BernoulliLoss(rate, rng=rng)
        before = rng.getstate()
        assert fan_out(model, 100) == [rate == 1.0] * 100
        assert rng.getstate() == before


def test_trace_batch_wraps_like_scalar_replay():
    pattern = [True, False, True]
    model = TraceLoss(pattern)
    assert fan_out(model, 8) == [
        True, False, True, True, False, True, True, False,
    ]
    # Position advanced mod len(trace): the next draw continues the cycle.
    assert model.is_lost() is True


def test_base_class_batch_uses_scalar_loop():
    class EveryThird(LossModel):
        def __init__(self):
            self.count = 0

        def is_lost(self):
            self.count += 1
            return self.count % 3 == 0

    model = EveryThird()
    assert fan_out(model, 7) == [
        False, False, True, False, False, True, False,
    ]
    assert model.count == 7
