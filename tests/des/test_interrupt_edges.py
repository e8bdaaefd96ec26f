"""Edge cases for Process.interrupt — the fault framework's foundation.

``repro.faults`` crashes senders by interrupting their kernel processes,
so the interrupt semantics these tests pin down are load-bearing: the
cause object rides along, orphaned timeouts still fire (with nobody
waiting), and an interrupted schedule replays identically run-to-run.
"""

import pytest

from repro.des import Environment, Interrupt, SimulationError


def test_interrupt_delivers_cause():
    env = Environment()
    seen = []

    def victim(env):
        try:
            yield env.timeout(10.0)
        except Interrupt as interrupt:
            seen.append((env.now, interrupt.cause))

    def attacker(env, proc):
        yield env.timeout(3.0)
        proc.interrupt("boom")

    proc = env.process(victim(env))
    env.process(attacker(env, proc))
    env.run()
    assert seen == [(3.0, "boom")]


def test_interrupt_without_cause_has_none_cause():
    env = Environment()
    seen = []

    def victim(env):
        try:
            yield env.timeout(10.0)
        except Interrupt as interrupt:
            seen.append(interrupt.cause)

    def attacker(env, proc):
        yield env.timeout(1.0)
        proc.interrupt()

    proc = env.process(victim(env))
    env.process(attacker(env, proc))
    env.run()
    assert seen == [None]


def test_orphaned_timeout_still_fires_after_interrupt():
    """The abandoned timeout stays in the queue and fires with no waiter."""
    env = Environment()

    def victim(env):
        try:
            yield env.timeout(10.0)
        except Interrupt:
            pass
        # The victim finishes immediately; nothing else is scheduled
        # except the orphaned timeout at t=10.

    def attacker(env, proc):
        yield env.timeout(2.0)
        proc.interrupt()

    proc = env.process(victim(env))
    env.process(attacker(env, proc))
    env.run()
    assert env.now == 10.0


def test_interrupted_process_can_wait_again():
    env = Environment()
    trace = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            trace.append(("down", env.now, interrupt.cause))
            yield env.timeout(interrupt.cause)  # the outage length
            trace.append(("up", env.now))
        yield env.timeout(1.0)
        trace.append(("done", env.now))

    def attacker(env, proc):
        yield env.timeout(5.0)
        proc.interrupt(7.0)

    proc = env.process(victim(env))
    env.process(attacker(env, proc))
    env.run()
    assert trace == [("down", 5.0, 7.0), ("up", 12.0), ("done", 13.0)]


def test_double_interrupt_at_same_instant():
    """Two interrupts queued back to back both reach the generator."""
    env = Environment()
    causes = []

    def victim(env):
        for _ in range(2):
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                causes.append(interrupt.cause)

    def attacker(env, proc):
        yield env.timeout(1.0)
        proc.interrupt("first")
        proc.interrupt("second")

    proc = env.process(victim(env))
    env.process(attacker(env, proc))
    env.run(until=50.0)
    assert causes == ["first", "second"]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def victim(env):
        yield env.timeout(1.0)

    proc = env.process(victim(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupt_unstarted_process_raises():
    env = Environment()

    def victim(env):
        yield env.timeout(1.0)

    proc = env.process(victim(env))
    # The environment has not run yet: the generator has no target.
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_uncaught_interrupt_fails_the_process():
    env = Environment()

    def victim(env):
        yield env.timeout(10.0)

    def attacker(env, proc):
        yield env.timeout(1.0)
        proc.interrupt("unhandled")

    proc = env.process(victim(env))
    env.process(attacker(env, proc))
    with pytest.raises(Interrupt):
        env.run()


def test_interrupt_schedule_is_deterministic():
    def once():
        env = Environment()
        trace = []

        def victim(env, name):
            while True:
                try:
                    yield env.timeout(10.0)
                    trace.append((name, "cycle", env.now))
                except Interrupt:
                    trace.append((name, "interrupted", env.now))
                    yield env.timeout(2.5)

        def attacker(env, procs):
            for delay in (3.0, 4.0, 6.0):
                yield env.timeout(delay)
                procs[int(env.now) % 2].interrupt()

        procs = [
            env.process(victim(env, "a")),
            env.process(victim(env, "b")),
        ]
        env.process(attacker(env, procs))
        env.run(until=40.0)
        return trace

    assert once() == once()
