"""Bulk timer scheduling (timeout_many) and the step() telemetry credit."""

import pytest

from repro.des import Environment, SimulationError
from repro.obs import runtime as _obs


def test_timeout_many_matches_timeout_loop_exactly():
    """Same delays via timeout_many and a timeout() loop: identical fire
    order, times, and values — including creation-order tie-breaks."""
    delays = [0.5, 0.2, 0.2, 0.0, 1.5]
    values = ["a", "b", "c", "d", "e"]

    def record_run(schedule):
        env = Environment()
        fired = []
        events = schedule(env)
        for event in events:
            event.callbacks.append(
                lambda e, env=env, fired=fired: fired.append((env.now, e.value))
            )
        env.run()
        return fired

    loop = record_run(
        lambda env: [env.timeout(d, v) for d, v in zip(delays, values)]
    )
    bulk = record_run(lambda env: env.timeout_many(delays, values))
    assert bulk == loop
    assert bulk == [
        (0.0, "d"),
        (0.2, "b"),
        (0.2, "c"),
        (0.5, "a"),
        (1.5, "e"),
    ]


def test_timeout_many_shares_the_eid_counter():
    env = Environment()
    before = env._eid
    events = env.timeout_many([1.0, 2.0, 3.0])
    assert env._eid == before + 3
    assert [event._delay for event in events] == [1.0, 2.0, 3.0]
    follow_up = env.timeout(0.5)
    assert follow_up._delay == 0.5
    env.run()


def test_timeout_many_default_values_are_none():
    env = Environment()
    seen = []
    for event in env.timeout_many([0.1, 0.2]):
        event.callbacks.append(lambda e: seen.append(e.value))
    env.run()
    assert seen == [None, None]


def test_timeout_many_empty_and_validation():
    env = Environment()
    assert env.timeout_many([]) == []
    with pytest.raises(SimulationError, match="negative delay"):
        env.timeout_many([1.0, -0.1])
    with pytest.raises(SimulationError, match="2 delays but 3 values"):
        env.timeout_many([1.0, 2.0], values=["a", "b", "c"])
    # A rejected batch schedules nothing.
    assert env.peek() == float("inf")


def test_timeout_many_events_are_yieldable():
    env = Environment()
    log = []

    def waiter(env, event, label):
        value = yield event
        log.append((env.now, label, value))

    events = env.timeout_many([0.3, 0.1], values=["slow", "fast"])
    env.process(waiter(env, events[0], "first"))
    env.process(waiter(env, events[1], "second"))
    env.run()
    assert log == [(0.1, "second", "fast"), (0.3, "first", "slow")]


def test_step_credits_kernel_events_to_telemetry():
    """step()-driven runs must report kernel events, not zero (the old
    undercount: only run() called _note_events)."""
    with _obs.cell_context() as ctx:
        env = Environment()
        env.timeout_many([0.1, 0.2, 0.3])
        while env.peek() != float("inf"):
            env.step()
        assert ctx.events == env._eid
        assert ctx.events >= 3


def test_run_and_step_credit_events_identically():
    def drive(stepper):
        with _obs.cell_context() as ctx:
            env = Environment()

            def proc(env):
                yield env.timeout(1.0)
                yield env.timeout(1.0)

            env.process(proc(env))
            stepper(env)
            return ctx.events

    def by_steps(env):
        while env.peek() != float("inf"):
            env.step()

    by_run = drive(lambda env: env.run())
    assert drive(by_steps) == by_run
    assert by_run > 0
