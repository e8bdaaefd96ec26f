"""Edge-case tests for the simulation kernel's core."""

import pytest

from repro.des import Environment, SimulationError


def test_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_non_generator_process_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_repr_smoke():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    handle = env.process(proc(env))
    assert "Process" in repr(handle)
    assert "Environment" in repr(env)
    assert "Timeout" in repr(env.timeout(1.0))
    assert "pending" in repr(env.event())
    env.run()
