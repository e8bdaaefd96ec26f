"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.des import (
    Environment,
    Interrupt,
    SimulationError,
)


def test_empty_environment_runs_to_completion():
    env = Environment()
    assert env.run() is None
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)

    env.process(proc(env))
    env.run()
    assert env.now == 5.0


def test_timeout_value_is_delivered():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10.0)

    env.process(proc(env))
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=50.0)
    with pytest.raises(SimulationError):
        env.run(until=10.0)


def test_events_at_same_time_fire_in_creation_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ["a", "b", "c"]:
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_child_process_and_gets_return_value():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(3.0)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        results.append((env.now, value))

    env.process(parent(env))
    env.run()
    assert results == [(3.0, 42)]


def test_exception_in_child_propagates_to_parent():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_surfaces_from_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_interrupt_is_delivered_with_cause():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def attacker(env, target):
        yield env.timeout(4.0)
        target.interrupt(cause="stop now")

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert log == [(4.0, "stop now")]


def test_interrupted_process_can_wait_again():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(5.0)
        log.append(env.now)

    def attacker(env, target):
        yield env.timeout(2.0)
        target.interrupt()

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert log == [7.0]


def test_interrupting_dead_process_raises():
    env = Environment()

    def victim(env):
        yield env.timeout(1.0)

    target = env.process(victim(env))
    env.run()
    with pytest.raises(SimulationError):
        target.interrupt()


def test_event_succeed_wakes_waiter():
    env = Environment()
    log = []

    def waiter(env, event):
        value = yield event
        log.append((env.now, value))

    def firer(env, event):
        yield env.timeout(9.0)
        event.succeed("fired")

    event = env.event()
    env.process(waiter(env, event))
    env.process(firer(env, event))
    env.run()
    assert log == [(9.0, "fired")]


def test_event_cannot_be_triggered_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"
    assert env.now == 2.0


def test_run_until_never_fired_event_raises():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run(until=env.event())


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def proc(env):
        yield "not an event"

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()


def test_peek_reports_next_event_time():
    env = Environment()

    def proc(env):
        yield env.timeout(7.0)

    env.process(proc(env))
    # The initialization event is immediate.
    assert env.peek() == 0.0
    env.step()
    assert env.peek() == 7.0


def test_processed_event_can_be_yielded_again():
    env = Environment()
    log = []

    def proc(env, event):
        yield env.timeout(5.0)
        # The event fired at t=1; yielding it now resumes immediately.
        value = yield event
        log.append((env.now, value))

    event = env.event()
    event.succeed("early")
    env.process(proc(env, event))
    env.run()
    assert log == [(5.0, "early")]
