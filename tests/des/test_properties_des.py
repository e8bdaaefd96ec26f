"""Property-based tests for the simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=30)
)
def test_clock_never_goes_backwards(delays):
    env = Environment()
    times = []

    def proc(env, delay):
        yield env.timeout(delay)
        times.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert times == sorted(times)
    assert env.now == pytest.approx(max(delays))
