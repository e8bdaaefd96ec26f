"""Multicast fan-out pinned by frozen digests, registry churn, and the
multicast observability (enqueue tracing, observed loss rates).

The fan-out scenarios below cover every registry row kind, churn,
blocking, a model shared by several members, a rng shared between two
models, and delayed delivery.  Their digests were recorded while the
registry loop was still checked against the plain per-receiver
``is_lost()`` reference loop, and both agreed; they now stand in for
that reference.
"""

import hashlib
import json

import pytest

from repro.des import Environment, RngStreams
from repro.net import (
    BernoulliLoss,
    CombinedLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    MulticastChannel,
    NoLoss,
    Packet,
    TotalLoss,
)


def _run_group_scenario(*, delay=0.0, churn=False, shared_rng=False):
    """One multicast session with a mixed receiver population.

    Returns (arrivals, outcomes, delivered_counts): every delivery with
    its arrival time, every per-packet outcome dict, and the counts.
    """
    env = Environment()
    streams = RngStreams(seed=42)
    mc = MulticastChannel(
        env,
        rate_kbps=50.0,
        delay=delay,
        shared_loss=BernoulliLoss(0.1, rng=streams["shared"]),
    )
    arrivals = {}

    def sink_for(rid):
        arrivals[rid] = []
        return lambda p: arrivals[rid].append((env.now, p.seq))

    # A population covering every registry row kind: independent
    # Bernoulli draws, constant rows, in-order stateful rows, and one
    # Gilbert-Elliott model shared by three members (with
    # shared_rng=True its rng is also drawn by another model).
    group_rng = streams["group"]
    ge_shared = GilbertElliottLoss(
        p_gb=0.2, p_bg=0.5, bad_loss=0.9, good_loss=0.05, rng=group_rng
    )
    spoiler_rng = group_rng if shared_rng else streams["spoiler"]
    models = {
        "bern-a": BernoulliLoss(0.3, rng=streams["a"]),
        "bern-b": BernoulliLoss(0.45, rng=streams["b"]),
        "clean": NoLoss(),
        "dead": TotalLoss(),
        "zero": BernoulliLoss(0.0, rng=streams["zero"]),
        "one": BernoulliLoss(1.0, rng=streams["one"]),
        "det": DeterministicLoss(period=3),
        "ge-1": ge_shared,
        "ge-2": ge_shared,
        "ge-3": ge_shared,
        "combo": CombinedLoss(
            [
                BernoulliLoss(0.2, rng=spoiler_rng),
                DeterministicLoss(period=7),
            ]
        ),
    }
    for rid, model in models.items():
        mc.join(rid, sink_for(rid), loss=model)
    mc.block("bern-b")

    outcomes = []

    def driver(env):
        for seq in range(60):
            done = mc.transmit(Packet(seq=seq))
            done.callbacks.append(lambda event: outcomes.append(event.value))
            yield env.timeout(0.05)

    def churner(env):
        yield env.timeout(0.4)
        mc.leave("det")
        mc.unblock("bern-b")
        yield env.timeout(0.5)
        mc.join("det", sink_for("det2"), loss=DeterministicLoss(period=2))
        mc.block("ge-2")
        yield env.timeout(0.7)
        mc.unblock("ge-2")

    env.process(driver(env))
    if churn:
        env.process(churner(env))
    env.run(until=20.0)
    return arrivals, outcomes, dict(mc.delivered_per_receiver)


def _digest(result):
    """SHA-256 of the scenario result, dict insertion order included."""
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


#: (delay, churn) -> digest of ``_run_group_scenario``'s result.
GOLDEN_SCENARIOS = {
    (0.0, False): "1a5d18b444520e027672ed50166afe44e4755815640bc9106a06e269c5e91a70",
    (0.25, False): "6a7cdcb7fcfc4296bf324ddcaeb87859a2a7f6a56bb5196ef66ba7fb511fbbb2",
    (0.0, True): "4f8073dd6223a9eaa5bda6bbf7506ee75533d836765f4e1319764ea3212cde66",
    (0.25, True): "ecc8b9991d8e4a7a7e912b2409f6ec79753829ede99a0b32b42e37660828f8c2",
}
GOLDEN_SHARED_RNG = (
    "5dfb46005fb56157b5764d77d0c4acfad3a5002b00055cd6469553caec09dc8b"
)


@pytest.mark.parametrize("delay", [0.0, 0.25])
@pytest.mark.parametrize("churn", [False, True])
def test_batched_fanout_matches_scalar(delay, churn):
    """The fan-out reproduces the frozen per-receiver reference output."""
    result = _run_group_scenario(delay=delay, churn=churn)
    assert _digest(result) == GOLDEN_SCENARIOS[(delay, churn)]


def test_shared_rng_spoiler_still_matches_scalar():
    """Two models drawing one rng interleave their draws in join order,
    exactly as the frozen reference output does."""
    result = _run_group_scenario(shared_rng=True)
    assert _digest(result) == GOLDEN_SHARED_RNG


def test_registry_reused_and_invalidated_on_churn():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    mc.join("a", lambda p: None, loss=NoLoss())
    mc.send(Packet(seq=0))
    env.run(until=1.0)
    first = mc._registry
    assert first is not None
    mc.send(Packet(seq=1))
    env.run(until=2.0)
    assert mc._registry is first  # stable membership: no rebuild
    mc.join("b", lambda p: None, loss=NoLoss())
    assert mc._registry is None  # churn dropped the cache
    mc.send(Packet(seq=2))
    env.run(until=3.0)
    assert mc._registry is not first


def test_multicast_send_traces_packet_enqueued():
    from repro.obs import PACKET, Tracer, tracing

    tracer = Tracer(categories=[PACKET])
    with tracing(tracer):
        env = Environment()
        mc = MulticastChannel(env, rate_kbps=10.0)
        mc.join("a", lambda p: None)
        mc.send(Packet(seq=0))
        mc.send(Packet(seq=1))
        env.run(until=1.0)
    enqueued = [r for r in tracer.records(PACKET) if r[2] == "packet_enqueued"]
    assert [(r[3]["seq"], r[3]["backlog"]) for r in enqueued] == [
        (0, 0),
        (1, 1),
    ]


def test_observed_loss_rate_aggregate_and_per_receiver():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    mc.join("clean", lambda p: None, loss=NoLoss())
    mc.join("half", lambda p: None, loss=DeterministicLoss(period=2))
    for seq in range(4):
        mc.send(Packet(seq=seq))
    env.run(until=10.0)
    assert mc.delivered_per_receiver == {"clean": 4, "half": 2}
    assert mc.observed_loss_rate == pytest.approx(0.25)


def test_observed_loss_rate_counts_blocked_members_as_exposed():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    mc.join("up", lambda p: None, loss=NoLoss())
    mc.join("cut", lambda p: None, loss=NoLoss())
    mc.block("cut")
    for seq in range(5):
        mc.send(Packet(seq=seq))
    env.run(until=10.0)
    assert mc.delivered_per_receiver == {"up": 5, "cut": 0}
    assert mc.observed_loss_rate == pytest.approx(0.5)


def test_observed_loss_rate_stops_accruing_after_leave():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    mc.join("a", lambda p: None, loss=NoLoss())
    mc.join("b", lambda p: None, loss=TotalLoss())

    def churn(env):
        yield env.timeout(0.25)  # after 2 packets serviced
        mc.leave("b")

    env.process(churn(env))
    for seq in range(4):
        mc.send(Packet(seq=seq))
    env.run(until=10.0)
    # b saw only the first 2 announcements; a saw all 4.
    assert mc.delivered_per_receiver == {"a": 4, "b": 0}
    assert mc.observed_loss_rate == pytest.approx(2 / 6)


def test_observed_loss_rate_empty_session_is_zero():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    assert mc.observed_loss_rate == 0.0
    assert mc.delivered_per_receiver == {}
