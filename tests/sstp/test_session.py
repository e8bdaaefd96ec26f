"""End-to-end tests for SSTP sessions (protocol + API)."""

import random

import pytest

from repro.sstp import ReliabilityLevel, SstpSession
from repro.sstp.congestion import SteppedCongestionManager


def poisson_publisher(session, rate=2.0, seed=1, prefix=None):
    rng = random.Random(seed)
    categories = prefix or ["news", "sports", "tech"]

    def process(env):
        index = 0
        while True:
            yield env.timeout(rng.expovariate(rate))
            category = rng.choice(categories)
            session.publish(f"{category}/item{index}", {"n": index})
            index += 1

    session.env.process(process(session.env))


def run_session(level, loss, horizon=120.0, seed=1, **kwargs):
    session = SstpSession(
        total_kbps=50.0,
        n_receivers=1,
        loss_rate=loss,
        reliability=level,
        seed=seed,
        adapt_interval=kwargs.pop("adapt_interval", None),
        **kwargs,
    )
    poisson_publisher(session, seed=seed)
    return session, session.run(horizon=horizon, warmup=20.0)


def test_lossless_session_converges_fully():
    _, result = run_session(ReliabilityLevel.RELIABLE, loss=0.0)
    assert result.consistency > 0.99


def test_reliable_beats_open_loop_with_less_data():
    _, open_loop = run_session(ReliabilityLevel.OPEN_LOOP, loss=0.3)
    _, reliable = run_session(ReliabilityLevel.RELIABLE, loss=0.3)
    assert reliable.consistency > open_loop.consistency
    assert reliable.adu_packets < 0.6 * open_loop.adu_packets


def test_reliable_mode_exercises_recursive_descent():
    _, result = run_session(ReliabilityLevel.RELIABLE, loss=0.3)
    assert result.summary_packets > 0
    assert result.digest_packets > 0
    assert result.query_packets > 0
    assert result.repair_requests > 0


def test_open_loop_sends_no_feedback():
    session, result = run_session(ReliabilityLevel.OPEN_LOOP, loss=0.2)
    assert result.query_packets == 0
    assert result.report_packets == 0
    assert all(r.feedback is None for r in session.receivers)


def test_announce_listen_reports_loss_but_never_repairs():
    _, result = run_session(ReliabilityLevel.ANNOUNCE_LISTEN, loss=0.25)
    assert result.report_packets > 0
    assert result.repair_requests == 0
    assert result.estimated_loss == pytest.approx(0.25, abs=0.12)


def test_loss_estimate_tracks_channel_in_reliable_mode():
    _, result = run_session(ReliabilityLevel.RELIABLE, loss=0.3)
    assert result.estimated_loss == pytest.approx(0.3, abs=0.12)


def test_removed_items_are_pruned_at_receivers():
    session = SstpSession(
        total_kbps=50.0, n_receivers=1, loss_rate=0.1,
        reliability=ReliabilityLevel.RELIABLE, seed=2, adapt_interval=None,
    )
    for index in range(5):
        session.publish(f"dir/item{index}", index)

    def withdraw(env):
        yield env.timeout(30.0)
        session.remove("dir/item0")
        session.remove("dir/item1")

    session.env.process(withdraw(session.env))
    session.run(horizon=120.0)
    mirror = session.receivers[0].mirror
    assert mirror.find("dir/item0") is None
    assert mirror.find("dir/item1") is None
    assert mirror.find("dir/item2") is not None


def test_interest_filter_prunes_branch_and_descent():
    session = SstpSession(
        total_kbps=50.0,
        n_receivers=1,
        loss_rate=0.1,
        reliability=ReliabilityLevel.RELIABLE,
        seed=3,
        adapt_interval=None,
        interest_filters={
            "rcv-0": lambda path, meta: not path.startswith("video")
        },
    )
    for index in range(10):
        session.publish(f"video/frame{index}", index, metadata={"media": "video"})
        session.publish(f"text/note{index}", index, metadata={"media": "text"})
    result = session.run(horizon=120.0, warmup=20.0)
    mirror = session.receivers[0].mirror
    assert mirror.find("video") is None
    assert mirror.find("text/note0") is not None
    # Consistency is measured over the interest set only.
    assert result.consistency > 0.95


def test_receiver_callbacks_fire():
    session = SstpSession(
        total_kbps=50.0, n_receivers=1, loss_rate=0.0,
        reliability=ReliabilityLevel.RELIABLE, seed=4, adapt_interval=None,
    )
    updates = []
    session.set_receiver_callbacks(
        "rcv-0", on_update=lambda path, value: updates.append(path)
    )
    session.publish("a/x", 1)
    session.run(horizon=10.0)
    assert "a/x" in updates
    with pytest.raises(ValueError, match="unknown receiver 'ghost'"):
        session.set_receiver_callbacks("ghost")


def test_multiple_receivers_each_converge():
    session = SstpSession(
        total_kbps=60.0, n_receivers=3, loss_rate=0.2,
        reliability=ReliabilityLevel.RELIABLE, seed=5, adapt_interval=None,
    )
    poisson_publisher(session, rate=1.0, seed=5)
    result = session.run(horizon=150.0, warmup=30.0)
    assert len(result.per_receiver_consistency) == 3
    assert all(c > 0.8 for c in result.per_receiver_consistency.values())


def test_rate_limit_notification_fires_under_overload():
    limits = []
    session = SstpSession(
        total_kbps=12.0,
        n_receivers=1,
        loss_rate=0.2,
        reliability=ReliabilityLevel.RELIABLE,
        seed=6,
        adapt_interval=5.0,
        on_rate_limit=limits.append,
    )
    poisson_publisher(session, rate=20.0, seed=6)  # 20 kbps >> capacity
    session.run(horizon=60.0)
    assert limits
    assert all(limit < 12.0 for limit in limits)


def test_adaptation_retunes_hot_share():
    session = SstpSession(
        total_kbps=50.0, n_receivers=1, loss_rate=0.3,
        reliability=ReliabilityLevel.RELIABLE, seed=7, adapt_interval=5.0,
    )
    initial_share = session.sender.scheduler.weight("data/hot")
    poisson_publisher(session, rate=4.0, seed=7)
    session.run(horizon=100.0)
    assert session.sender.loss_estimator.reports_seen > 0
    # The allocator ran and installed *some* plan; shares remain valid.
    final_share = session.sender.scheduler.weight("data/hot")
    assert 0.0 < final_share < 1.0
    assert session.allocation.data_kbps > 0


def test_stepped_congestion_manager_integration():
    cm = SteppedCongestionManager([(0.0, 50.0), (60.0, 20.0)])
    session = SstpSession(
        n_receivers=1, loss_rate=0.1,
        reliability=ReliabilityLevel.RELIABLE,
        congestion=cm, seed=8, adapt_interval=5.0,
    )
    poisson_publisher(session, rate=1.0, seed=8)
    result = session.run(horizon=120.0, warmup=10.0)
    assert result.consistency > 0.6
    # After the rate drop the allocator sees 20 kbps.
    assert session.allocation.total_kbps == 20.0


def test_session_validation():
    with pytest.raises(ValueError):
        SstpSession(n_receivers=0)
    with pytest.raises(ValueError):
        SstpSession(report_interval=0.0)
    session = SstpSession(n_receivers=1)
    with pytest.raises(ValueError):
        session.run(horizon=5.0, warmup=10.0)


def test_seed_determinism():
    def go():
        _, result = run_session(ReliabilityLevel.RELIABLE, loss=0.2, seed=9)
        return result.consistency

    assert go() == go()
