"""Unit tests for lossy channels."""

import pytest

from repro.des import Environment, RngStreams
from repro.net import (
    BernoulliLoss,
    Channel,
    DeterministicLoss,
    MulticastChannel,
    NoLoss,
    Packet,
)


def test_channel_serializes_at_rate():
    env = Environment()
    channel = Channel(env, rate_kbps=1.0)  # 1 kbps -> 1 s per 1000-bit packet
    arrivals = []
    channel.subscribe(lambda p: arrivals.append(env.now))
    channel.send(Packet())
    channel.send(Packet())
    env.run(until=10.0)
    assert arrivals == [1.0, 2.0]


def test_channel_propagation_delay_adds_latency():
    env = Environment()
    channel = Channel(env, rate_kbps=1.0, delay=0.5)
    arrivals = []
    channel.subscribe(lambda p: arrivals.append(env.now))
    channel.send(Packet())
    env.run(until=5.0)
    assert arrivals == [1.5]


def test_channel_infinite_rate_is_delay_only():
    env = Environment()
    channel = Channel(env, rate_kbps=float("inf"), delay=2.0)
    arrivals = []
    channel.subscribe(lambda p: arrivals.append(env.now))
    channel.send(Packet())
    channel.send(Packet())
    env.run(until=5.0)
    assert arrivals == [2.0, 2.0]


def test_channel_rejects_bad_parameters():
    env = Environment()
    with pytest.raises(ValueError):
        Channel(env, rate_kbps=0)
    with pytest.raises(ValueError):
        Channel(env, rate_kbps=1.0, delay=-1.0)


def test_channel_delivers_in_fifo_order():
    env = Environment()
    channel = Channel(env, rate_kbps=10.0)
    got = []
    channel.subscribe(lambda p: got.append(p.seq))
    for seq in range(5):
        channel.send(Packet(seq=seq))
    env.run(until=10.0)
    assert got == [0, 1, 2, 3, 4]


def test_channel_delay_is_added_after_service():
    env = Environment()
    channel = Channel(env, rate_kbps=1.0, delay=0.25)  # 1 s of service
    arrivals = []
    channel.subscribe(lambda p: arrivals.append(env.now))
    channel.send(Packet())
    env.run(until=5.0)
    assert arrivals == [1.25]


def test_channel_delay_keeps_back_to_back_packets_in_fifo_order():
    # The delay outlasts a service time, so three packets are in flight
    # at once; each still lands at its own completion + delay, in order.
    env = Environment()
    channel = Channel(env, rate_kbps=1.0, delay=2.5)
    arrivals = []
    channel.subscribe(lambda p: arrivals.append((env.now, p.seq)))
    for seq in range(4):
        channel.send(Packet(seq=seq))
    env.run(until=10.0)
    assert arrivals == [(3.5, 0), (4.5, 1), (5.5, 2), (6.5, 3)]


def test_channel_delay_traces_delivery_at_arrival():
    from repro.obs import PACKET, Tracer, tracing

    tracer = Tracer(categories=[PACKET])
    with tracing(tracer):
        env = Environment()
        channel = Channel(env, rate_kbps=1.0, delay=2.5)
        channel.send(Packet(seq=7))
        env.run(until=10.0)
    events = [
        (record[2], record[0], record[3]["seq"])
        for record in tracer.records(PACKET)
    ]
    assert events == [
        ("packet_enqueued", 0.0, 7),
        ("packet_sent", 1.0, 7),
        ("packet_delivered", 3.5, 7),
    ]


def test_channel_loss_drops_packets():
    env = Environment()
    channel = Channel(env, rate_kbps=10.0, loss=DeterministicLoss(period=2))
    got = []
    channel.subscribe(lambda p: got.append(p.seq))
    for seq in range(6):
        channel.send(Packet(seq=seq))
    env.run(until=10.0)
    assert got == [0, 2, 4]
    assert channel.packets_dropped == 3
    assert channel.observed_loss_rate == pytest.approx(0.5)


def test_channel_service_rate_matches_packet_size():
    env = Environment()
    channel = Channel(env, rate_kbps=128.0)
    assert channel.service_time(Packet()) == pytest.approx(1 / 128.0)


def test_channel_backlog_counts_waiting_packets():
    env = Environment()
    channel = Channel(env, rate_kbps=1.0)
    for _ in range(5):
        channel.send(Packet())
    env.run(until=0.5)  # first packet still in service
    assert channel.backlog == 4


def test_channel_empirical_loss_rate_converges():
    env = Environment()
    rng = RngStreams(seed=11)
    channel = Channel(
        env, rate_kbps=1000.0, loss=BernoulliLoss(0.25, rng=rng["loss"])
    )
    for _ in range(4000):
        channel.send(Packet())
    env.run(until=100.0)
    assert abs(channel.observed_loss_rate - 0.25) < 0.03


def test_multicast_fanout_independent_loss():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    got = {"a": [], "b": []}
    mc.join("a", lambda p: got["a"].append(p.seq), loss=NoLoss())
    mc.join("b", lambda p: got["b"].append(p.seq), loss=DeterministicLoss(period=2))
    for seq in range(4):
        mc.send(Packet(seq=seq))
    env.run(until=10.0)
    assert got["a"] == [0, 1, 2, 3]
    assert got["b"] == [0, 2]
    assert mc.packets_sent == 4
    assert mc.delivered_per_receiver == {"a": 4, "b": 2}


def test_multicast_join_twice_rejected():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    mc.join("a", lambda p: None)
    with pytest.raises(ValueError):
        mc.join("a", lambda p: None)


def test_multicast_leave_stops_delivery():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    got = []
    mc.join("a", lambda p: got.append(p.seq))

    def leaver(env):
        yield env.timeout(0.15)
        mc.leave("a")

    env.process(leaver(env))
    for seq in range(3):
        mc.send(Packet(seq=seq))
    env.run(until=10.0)
    assert got == [0]


def _settle_order(env, channel, packets):
    """Transmit ``packets`` back to back; return (index, time, value)
    for each completion, in the order they fire."""
    fired = []
    for index, packet in enumerate(packets):
        done = channel.transmit(packet)
        done.callbacks.append(
            lambda event, index=index: fired.append(
                (index, env.now, event.value)
            )
        )
    env.run(until=10.0)
    return fired


def test_queued_transmits_settle_in_fifo_order_with_their_own_outcome():
    # The same packet object is queued twice while its first copy is
    # still waiting; each transmit keeps its own completion.
    env = Environment()
    channel = Channel(env, rate_kbps=10.0, loss=DeterministicLoss(period=2))
    a, b = Packet(seq=0), Packet(seq=1)
    fired = _settle_order(env, channel, [a, b, a, b, a])
    assert [(i, round(t, 9), lost) for i, t, lost in fired] == [
        (0, 0.1, False),
        (1, 0.2, True),
        (2, 0.3, False),
        (3, 0.4, True),
        (4, 0.5, False),
    ]


def test_multicast_queued_transmits_settle_in_fifo_order():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    mc.join("a", lambda p: None, loss=NoLoss())
    mc.join("b", lambda p: None, loss=DeterministicLoss(period=2))
    packet = Packet(seq=0)
    fired = _settle_order(env, mc, [packet, packet, packet])
    assert [(i, round(t, 9), out) for i, t, out in fired] == [
        (0, 0.1, {"a": False, "b": False}),
        (1, 0.2, {"a": False, "b": True}),
        (2, 0.3, {"a": False, "b": False}),
    ]


@pytest.mark.parametrize("delay", [0.0, 0.25])
def test_multicast_sinks_receive_the_serviced_packet_itself(delay):
    env = Environment()
    rng = RngStreams(seed=5)
    mc = MulticastChannel(env, rate_kbps=10.0, delay=delay)
    received = []
    for rid, loss in [
        ("clean", NoLoss()),
        ("bern", BernoulliLoss(0.4, rng=rng["bern"])),
        ("det", DeterministicLoss(period=3)),
    ]:
        mc.join(rid, lambda p, rid=rid: received.append((rid, p)), loss=loss)
    serviced = []
    sent = [Packet(seq=seq) for seq in range(12)]
    for packet in sent:
        mc.transmit(packet).callbacks.append(
            lambda event, packet=packet: serviced.append((packet, event.value))
        )
    env.run(until=10.0)
    assert [p for p, _ in serviced] == sent
    expected = [
        (rid, packet)
        for packet, outcomes in serviced
        for rid, lost in outcomes.items()
        if not lost
    ]
    assert len(received) == len(expected) > 12
    for (rid, got), (want_rid, want) in zip(received, expected):
        assert rid == want_rid
        assert got is want

