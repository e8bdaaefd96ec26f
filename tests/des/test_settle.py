"""Settling an event in place, and the direct ``Timeout`` constructor.

``Event.settle`` triggers an event under the insertion order ``succeed``
would give it but leaves the heap entry to the run loop: after the
current batch the loop dispatches it in place when nothing pending sorts
before it, and pushes it under its reserved order otherwise.  These
tests pin both branches, the pull-mode channel service built on it (one
heap entry per service), and that pop order is the one ``succeed``
gives.
"""

import pytest

from repro.des import Environment, SimulationError
from repro.des import core
from repro.des.core import Timeout
from repro.net import Channel, Packet
from repro.obs import KERNEL, Tracer, tracing


@pytest.fixture
def pushes(monkeypatch):
    """Every heap entry the kernel pushes, in push order."""
    pushed = []
    real = core._heappush

    def counting(queue, entry):
        pushed.append(entry)
        real(queue, entry)

    monkeypatch.setattr(core, "_heappush", counting)
    return pushed


def _settle_at(env, delay, event, value, log):
    """A timer whose callback settles ``event`` and logs the instant."""
    timer = env.timeout(delay)
    timer.callbacks.append(lambda _t: (log.append("timer"), event.settle(value)))
    return timer


def _pull_sender(env, channel, count, resumed):
    for seq in range(count):
        yield channel.transmit(Packet(seq=seq))
        resumed.append(env.now)


@pytest.mark.parametrize("count", [1, 4, 25])
def test_idle_channel_pushes_one_entry_per_pull_mode_service(pushes, count):
    env = Environment()
    channel = Channel(env, rate_kbps=8.0)  # 0.125 s per packet
    resumed = []
    env.process(_pull_sender(env, channel, count, resumed))
    env.run()
    timers = [entry for entry in pushes if type(entry[3]) is Timeout]
    assert len(timers) == count
    # Fixed overhead: the channel's start entry, the process start and
    # the process end.  No dequeue entry and no completion is pushed.
    assert len(pushes) == count + 3
    assert resumed == [0.125 * (seq + 1) for seq in range(count)]
    assert channel.packets_sent == count


def test_settle_with_no_tie_runs_in_place_before_later_entries(pushes):
    env = Environment()
    log = []
    done = env.event()
    done.callbacks.append(lambda e: log.append(("settled", env.now, e.value)))
    timer = _settle_at(env, 1.0, done, 42, log)
    # Scheduled in the timer's batch, after the reservation: a later
    # same-instant entry.
    timer.callbacks.append(
        lambda _t: env.timeout(0.0).callbacks.append(lambda _e: log.append("later"))
    )
    env.run()
    assert log == ["timer", ("settled", 1.0, 42), "later"]
    assert all(entry[3] is not done for entry in pushes)
    assert done.processed and done.ok


def test_settle_tied_with_lower_order_normal_entry_is_pushed_after_it(pushes):
    env = Environment()
    log = []
    done = env.event()
    done.callbacks.append(lambda _e: log.append("settled"))
    _settle_at(env, 1.0, done, None, log)
    # Same instant, armed after the timer but long before the
    # reservation at t=1: it sorts before the settled event.
    env.timeout(1.0).callbacks.append(lambda _e: log.append("tie"))
    env.run()
    assert log == ["timer", "tie", "settled"]
    assert [entry for entry in pushes if entry[3] is done] == [
        (1.0, core.NORMAL, env._eid, done)
    ]


def test_settle_gives_the_pop_order_of_succeed():
    def scenario(trigger):
        env = Environment()
        log = []
        done = env.event()
        done.callbacks.append(lambda _e: log.append("done"))
        first = env.timeout(1.0)
        first.callbacks.append(lambda _t: trigger(done))
        env.timeout(1.0).callbacks.append(lambda _e: log.append("tie"))
        first.callbacks.append(
            lambda _t: env.timeout(0.0).callbacks.append(lambda _e: log.append("after"))
        )
        env.run()
        return log, env._eid

    assert scenario(lambda e: e.settle()) == scenario(lambda e: e.succeed())


def test_completion_tied_with_urgent_delivery_start_is_pushed():
    # A delay > 0 delivery starts a process (an URGENT entry at now)
    # after the completion's reservation: the sender resumes after it.
    env = Environment()
    channel = Channel(env, rate_kbps=1.0, delay=0.5)
    log = []
    channel.subscribe(lambda p: log.append(("delivered", env.now)))

    def sender(env):
        yield channel.transmit(Packet())
        yield env.timeout(0.5)
        log.append(("sender", env.now))

    env.process(sender(env))
    env.run()
    assert log == [("delivered", 1.5), ("sender", 1.5)]


def test_run_until_an_event_leaves_a_settled_event_pending():
    env = Environment()
    log = []
    done = env.event()
    done.callbacks.append(lambda _e: log.append("settled"))
    timer = _settle_at(env, 1.0, done, None, log)
    env.run(until=timer)
    assert log == ["timer"]
    assert done.triggered and not done.processed
    assert env.peek() == 1.0
    env.run()
    assert log == ["timer", "settled"]


def test_step_pushes_the_settled_event_and_processes_one_event():
    env = Environment()
    log = []
    done = env.event()
    done.callbacks.append(lambda _e: log.append("settled"))
    _settle_at(env, 1.0, done, None, log)
    env.step()
    assert log == ["timer"]
    assert env.peek() == 1.0
    env.step()
    assert log == ["timer", "settled"]


def test_settled_event_survives_a_raising_callback():
    env = Environment()
    log = []
    done = env.event()
    done.callbacks.append(lambda _e: log.append("settled"))
    timer = _settle_at(env, 1.0, done, None, log)

    def boom(_t):
        raise RuntimeError("boom")

    timer.callbacks.append(boom)
    with pytest.raises(RuntimeError):
        env.run()
    env.run()
    assert log == ["timer", "settled"]


def test_peek_inside_the_batch_sees_the_settled_event():
    env = Environment()
    done = env.event()
    env.timeout(5.0)
    seen = []
    timer = _settle_at(env, 1.0, done, None, [])
    timer.callbacks.append(lambda _t: seen.append(env.peek()))
    env.run()
    assert seen == [1.0]


def test_settle_outside_a_batch_runs_at_its_instant():
    env = Environment()
    log = []
    env.timeout(1.0).callbacks.append(lambda _e: log.append(("later", env.now)))
    done = env.event()
    done.callbacks.append(lambda _e: log.append(("settled", env.now)))
    done.settle()
    env.run()
    assert log == [("settled", 0.0), ("later", 1.0)]


def test_settle_twice_raises():
    env = Environment()
    done = env.event()
    done.succeed()
    with pytest.raises(SimulationError):
        done.settle()


def test_timeout_constructor_fires_at_now_plus_delay_with_value():
    env = Environment(initial_time=2.0)
    timer = Timeout(env, 1.5, "value")
    assert env.run(until=timer) == "value"
    assert env.now == 3.5


def test_timeout_constructor_emits_timer_set_when_kernel_traced():
    tracer = Tracer(categories=[KERNEL])
    with tracing(tracer):
        env = Environment()
    env.timeout(1.0)
    timer = Timeout(env, 1.5, "value")
    assert tracer.records()[-1] == (
        0.0, "kernel", "timer_set", {"delay": 1.5, "eid": 2}
    )
    assert (1.5, core.NORMAL, 2, timer) in env._queue


def test_timeout_constructor_rejects_negative_delay():
    env = Environment()
    with pytest.raises(SimulationError):
        Timeout(env, -0.5)
