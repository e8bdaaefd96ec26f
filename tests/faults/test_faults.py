"""Tests for the fault-injection framework (repro.faults)."""

import math

import pytest

from repro.des import Environment, SimulationError
from repro.faults import (
    Fault,
    FaultSchedule,
    LinkOutage,
    LossEpisode,
    Partition,
    ReceiverChurn,
    SenderCrash,
    sender_side,
)
from repro.net import BernoulliLoss, MulticastChannel, Packet
from repro.protocols import (
    ArqSession,
    FeedbackSession,
    GatewaySession,
    OpenLoopSession,
    TwoQueueSession,
)
from repro.sstp import SstpSession


# -- schedule & fault construction ----------------------------------------


def test_schedule_add_chains_and_iterates():
    crash = SenderCrash(at=5.0, down_for=2.0)
    outage = LinkOutage(at=1.0, duration=1.0)
    schedule = FaultSchedule().add(crash).add(outage)
    assert list(schedule) == [crash, outage]
    assert len(schedule) == 2


def test_schedule_rejects_non_faults():
    with pytest.raises(TypeError):
        FaultSchedule().add("crash at 5")


@pytest.mark.parametrize(
    "build",
    [
        lambda: SenderCrash(at=-1.0, down_for=5.0),
        lambda: SenderCrash(at=1.0, down_for=0.0),
        lambda: LinkOutage(at=-0.5, duration=1.0),
        lambda: LinkOutage(at=0.0, duration=0.0),
        lambda: LossEpisode(at=0.0, duration=-2.0),
        lambda: ReceiverChurn(rate=0.0),
        lambda: ReceiverChurn(rate=1.0, down_mean=0.0),
        lambda: ReceiverChurn(rate=1.0, start=5.0, stop=5.0),
        lambda: Partition(groups=[{"a"}], at=3.0, heal_at=3.0),
    ],
)
def test_fault_parameter_validation(build):
    with pytest.raises(ValueError):
        build()


def test_partition_needs_a_group():
    with pytest.raises(ValueError):
        Partition(groups=[], at=1.0, heal_at=2.0)


def test_sender_side_prefers_named_sender_group():
    groups = [{"r1", "r2"}, {"sender", "r3"}]
    assert sender_side(groups) == {"sender", "r3"}


def test_sender_side_falls_back_to_first_group():
    assert sender_side([{"r1"}, {"r2"}]) == {"r1"}
    assert sender_side([]) == set()


def test_missing_hook_is_a_clear_error():
    class Bare:
        pass

    fault = SenderCrash(at=0.0, down_for=1.0)
    with pytest.raises(SimulationError, match="fault_crash_sender"):
        fault._hook(Bare(), "fault_crash_sender")


def test_families_carry_only_the_hooks_they_serve():
    # The gateway takes no fault schedule, so it has no fault hooks to
    # fail mid-run; SSTP publishes through its own API, not insert().
    gateway = GatewaySession(update_rate=1.0)
    fault = SenderCrash(at=0.0, down_for=1.0)
    for hook in (
        "fault_crash_sender",
        "fault_outage_begin",
        "fault_loss_overlay",
        "fault_receiver_leave",
        "fault_partition_begin",
    ):
        with pytest.raises(SimulationError, match=hook):
            fault._hook(gateway, hook)
    sstp = SstpSession()
    for name in ("insert", "update", "delete"):
        assert not hasattr(sstp, name)
    assert callable(sstp.fault_crash_sender)


def test_unsupported_fault_fails_the_run():
    # A session without the hook surface must reject the fault loudly
    # when it fires, not silently no-op.
    from repro.des import RngStreams
    from repro.faults import FaultInjector

    class BareSession:
        def __init__(self):
            self.env = Environment()
            self.rng = RngStreams(seed=0)

    session = BareSession()
    injector = FaultInjector(
        session, FaultSchedule([SenderCrash(at=1.0, down_for=1.0)])
    )
    injector.start()
    with pytest.raises(SimulationError, match="fault_crash_sender"):
        session.env.run()


# -- sender crash ----------------------------------------------------------


def crash_run(session_cls, down_for=8.0, cold=False, **kwargs):
    session = session_cls(
        data_kbps=50.0,
        update_rate=2.0,
        lifetime_mean=20.0,
        loss_rate=0.2,
        seed=3,
        tick=0.25,
        faults=FaultSchedule(
            [SenderCrash(at=60.0, down_for=down_for, cold=cold)]
        ),
        **kwargs,
    )
    return session.run(horizon=120.0, warmup=20.0)


@pytest.mark.parametrize(
    "session_cls", [OpenLoopSession, TwoQueueSession, FeedbackSession]
)
def test_warm_crash_recovers(session_cls):
    result = crash_run(session_cls)
    assert len(result.fault_reports) == 1
    report = result.fault_reports[0]
    assert report.kind == "sender-crash"
    assert report.start == 60.0 and report.end == 68.0
    assert not math.isnan(report.recovery_s)
    # Acceptance bar: back within 5% of the pre-fault baseline, and in
    # O(refresh interval), not O(horizon).
    assert report.recovery_s < 20.0
    assert report.stale_read_s > 0.0


def test_cold_crash_is_worse_than_warm():
    warm = crash_run(TwoQueueSession).fault_reports[0]
    cold = crash_run(TwoQueueSession, cold=True).fault_reports[0]
    assert cold.min_consistency <= warm.min_consistency
    assert cold.stale_read_s >= warm.stale_read_s


def test_arq_crash_recovers_without_false_expiries():
    result = crash_run(ArqSession, rto=2.0)
    report = result.fault_reports[0]
    assert not math.isnan(report.recovery_s)
    assert result.false_expiries == 0


def test_false_expiries_depend_on_hold_multiple():
    from repro.sstp.timers import RefreshEstimator

    def run(multiple):
        return crash_run(
            OpenLoopSession,
            refresh_estimator=RefreshEstimator(
                multiple=multiple, initial_interval=5.0
            ),
        )

    short_hold = run(2.0)
    long_hold = run(12.0)
    assert short_hold.false_expiries > long_hold.false_expiries


# -- outages and loss episodes --------------------------------------------


def test_outage_restores_the_original_loss_object():
    loss = BernoulliLoss(0.2)
    session = OpenLoopSession(
        data_kbps=50.0,
        update_rate=2.0,
        loss_model=loss,
        seed=1,
        tick=0.25,
        faults=FaultSchedule([LinkOutage(at=30.0, duration=5.0)]),
    )
    result = session.run(horizon=90.0, warmup=10.0)
    assert session.data_channel.loss is loss
    report = result.fault_reports[0]
    assert report.kind == "link-outage"
    assert not math.isnan(report.recovery_s)


def test_loss_episode_restores_the_original_loss_object():
    loss = BernoulliLoss(0.1)
    session = TwoQueueSession(
        data_kbps=50.0,
        update_rate=2.0,
        loss_model=loss,
        seed=1,
        tick=0.25,
        faults=FaultSchedule(
            [LossEpisode(at=30.0, duration=10.0, mean_loss=0.6)]
        ),
    )
    result = session.run(horizon=90.0, warmup=10.0)
    assert session.data_channel.loss is loss
    assert result.fault_reports[0].kind == "loss-episode"


# -- determinism -----------------------------------------------------------


def test_faulted_runs_are_deterministic():
    def once():
        result = crash_run(TwoQueueSession)
        report = result.fault_reports[0]
        return (
            result.consistency,
            result.false_expiries,
            report.recovery_s,
            report.stale_read_s,
            report.min_consistency,
        )

    assert once() == once()


def test_fault_rng_does_not_perturb_the_workload():
    # Adding a fault schedule must not shift the workload/loss draws:
    # the pre-fault trajectory matches the fault-free run exactly.
    def series(faults):
        session = TwoQueueSession(
            data_kbps=50.0,
            update_rate=2.0,
            loss_rate=0.2,
            seed=5,
            tick=0.5,
            record_series=True,
            faults=faults,
        )
        session.run(horizon=100.0, warmup=0.0)
        return [
            (t, value) for t, value in session.meter.series if t < 60.0
        ]

    clean = series(None)
    faulted = series(
        FaultSchedule([SenderCrash(at=60.0, down_for=10.0)])
    )
    assert clean == faulted


# -- multicast channel churn primitives ------------------------------------


def packet():
    return Packet(kind="announce", key="k", payload=None, size_bits=1000)


def test_multicast_rejoin_keeps_delivery_count():
    env = Environment()
    channel = MulticastChannel(env, rate_kbps=100.0)
    got = []
    channel.join("r1", got.append)
    channel.send(packet())
    env.run(until=1.0)
    assert channel.delivered_per_receiver["r1"] == 1

    loss, sink = channel.leave("r1")
    channel.send(packet())
    env.run(until=2.0)
    assert channel.delivered_per_receiver["r1"] == 1  # missed while away

    channel.join("r1", sink, loss)
    channel.send(packet())
    env.run(until=3.0)
    assert channel.delivered_per_receiver["r1"] == 2
    assert len(got) == 2


def test_multicast_double_join_rejected():
    env = Environment()
    channel = MulticastChannel(env, rate_kbps=100.0)
    channel.join("r1", lambda p: None)
    with pytest.raises(ValueError):
        channel.join("r1", lambda p: None)


def test_multicast_block_drops_without_advancing_loss():
    class CountingLoss(BernoulliLoss):
        def __init__(self):
            super().__init__(0.0)
            self.calls = 0

        def is_lost(self):
            self.calls += 1
            return False

    env = Environment()
    channel = MulticastChannel(env, rate_kbps=100.0)
    loss = CountingLoss()
    got = []
    channel.join("r1", got.append, loss)
    channel.block("r1")
    channel.send(packet())
    env.run(until=1.0)
    assert got == []
    assert loss.calls == 0  # blocked upstream of the last-hop model

    channel.unblock("r1")
    channel.send(packet())
    env.run(until=2.0)
    assert len(got) == 1
    assert loss.calls == 1


# -- churn & partition on a real session -----------------------------------


def test_receiver_churn_on_unicast_session():
    session = OpenLoopSession(
        data_kbps=50.0,
        update_rate=2.0,
        loss_rate=0.2,
        seed=2,
        tick=0.25,
        faults=FaultSchedule(
            [ReceiverChurn(rate=0.05, down_mean=4.0, start=30.0, stop=90.0)]
        ),
    )
    result = session.run(horizon=150.0, warmup=10.0)
    assert result.fault_reports, "churn produced no fault windows"
    for report in result.fault_reports:
        assert report.kind == "receiver-churn"


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_churned_out_unicast_receiver_sends_no_nacks(cold):
    # A detached receiver sends no feedback.  The retry sweep keeps
    # running while the receiver is away and once sent NACKs from it
    # (14 of 87 in this setup fell inside the down window).
    session = FeedbackSession(
        data_kbps=40.0,
        feedback_kbps=8.0,
        hot_share=0.6,
        update_rate=1.0,
        loss_rate=0.2,
        seed=1,
        faults=FaultSchedule(
            [
                ReceiverChurn(
                    rate=0.05, down_mean=10.0, start=20.0, stop=80.0, cold=cold
                )
            ]
        ),
    )
    sent_at = []
    send = session.feedback_channel.send

    def record(packet):
        sent_at.append(session.env.now)
        send(packet)

    session.feedback_channel.send = record
    result = session.run(horizon=100.0, warmup=10.0)
    windows = session.fault_tracker.windows
    assert windows, "churn never took the receiver down"
    assert len(sent_at) == result.nacks_sent > 0
    inside = [
        t for t in sent_at if any(w.start < t < w.end for w in windows)
    ]
    assert inside == []


def test_partition_heals_on_unicast_session():
    session = TwoQueueSession(
        data_kbps=50.0,
        update_rate=2.0,
        loss_rate=0.2,
        seed=2,
        tick=0.25,
        faults=FaultSchedule(
            [
                Partition(
                    groups=[{"sender"}, {"receiver"}], at=50.0, heal_at=60.0
                )
            ]
        ),
    )
    result = session.run(horizon=120.0, warmup=10.0)
    report = result.fault_reports[0]
    assert report.kind == "partition"
    assert report.start == 50.0 and report.end == 60.0
    assert not math.isnan(report.recovery_s)


def test_base_fault_run_is_abstract():
    with pytest.raises(NotImplementedError):
        next(iter(Fault().run(None)))
