"""Unit tests for the workload generators."""

import math
import random

import pytest

from repro.des import Environment
from repro.workloads import PoissonUpdateWorkload


class RecordingActions:
    """Captures workload mutations for inspection."""

    def __init__(self, env):
        self.env = env
        self.inserts = []
        self.updates = []
        self.deletes = []

    def insert(self, key, value, lifetime=math.inf):
        self.inserts.append((self.env.now, key, value, lifetime))

    def update(self, key, value):
        self.updates.append((self.env.now, key, value))

    def delete(self, key):
        self.deletes.append((self.env.now, key))


def run_workload(workload, horizon, seed=1):
    env = Environment()
    actions = RecordingActions(env)
    env.process(workload.run(env, actions, random.Random(seed)))
    env.run(until=horizon)
    return actions


# -- Poisson -------------------------------------------------------------------


def test_poisson_arrival_rate_is_respected():
    workload = PoissonUpdateWorkload(arrival_rate=5.0, lifetime_mean=10.0)
    actions = run_workload(workload, horizon=2000.0)
    rate = len(actions.inserts) / 2000.0
    assert rate == pytest.approx(5.0, rel=0.05)


def test_poisson_unique_keys():
    workload = PoissonUpdateWorkload(arrival_rate=10.0)
    actions = run_workload(workload, horizon=100.0)
    keys = [key for _, key, _, _ in actions.inserts]
    assert len(keys) == len(set(keys))


def test_poisson_exponential_lifetimes_have_right_mean():
    workload = PoissonUpdateWorkload(arrival_rate=20.0, lifetime_mean=7.0)
    actions = run_workload(workload, horizon=1000.0)
    lifetimes = [lifetime for _, _, _, lifetime in actions.inserts]
    assert sum(lifetimes) / len(lifetimes) == pytest.approx(7.0, rel=0.1)


def test_poisson_fixed_lifetime_option():
    workload = PoissonUpdateWorkload(
        arrival_rate=5.0, lifetime_mean=3.0, fixed_lifetime=True
    )
    actions = run_workload(workload, horizon=50.0)
    assert all(lifetime == 3.0 for _, _, _, lifetime in actions.inserts)


def test_poisson_update_fraction_produces_updates():
    workload = PoissonUpdateWorkload(arrival_rate=10.0, update_fraction=0.5)
    actions = run_workload(workload, horizon=500.0)
    total = len(actions.inserts) + len(actions.updates)
    assert len(actions.updates) / total == pytest.approx(0.5, abs=0.05)
    updated_keys = {key for _, key, _ in actions.updates}
    inserted_keys = {key for _, key, _, _ in actions.inserts}
    assert updated_keys <= inserted_keys


def test_poisson_note_death_stops_updates_to_dead_keys():
    workload = PoissonUpdateWorkload(arrival_rate=10.0, update_fraction=1.0)
    env = Environment()
    actions = RecordingActions(env)
    env.process(workload.run(env, actions, random.Random(2)))
    env.run(until=10.0)
    first_key = actions.inserts[0][1]
    workload.note_death(first_key)
    before = len([u for u in actions.updates if u[1] == first_key])
    env.run(until=200.0)
    after = len([u for u in actions.updates if u[1] == first_key])
    assert after == before


def test_poisson_validation():
    with pytest.raises(ValueError):
        PoissonUpdateWorkload(arrival_rate=0.0)
    with pytest.raises(ValueError):
        PoissonUpdateWorkload(arrival_rate=1.0, lifetime_mean=0.0)
    with pytest.raises(ValueError):
        PoissonUpdateWorkload(arrival_rate=1.0, update_fraction=2.0)


def test_poisson_describe():
    text = PoissonUpdateWorkload(arrival_rate=15.0, lifetime_mean=30.0).describe()
    assert "15" in text and "30" in text


# -- Static bulk ---------------------------------------------------------------


def test_static_bulk_publishes_everything_at_time_zero():
    from repro.workloads import StaticBulkWorkload

    workload = StaticBulkWorkload(n_records=25)
    actions = run_workload(workload, horizon=1.0)
    assert len(actions.inserts) == 25
    assert all(t == 0.0 for t, _, _, _ in actions.inserts)
    assert all(lifetime == math.inf for _, _, _, lifetime in actions.inserts)


def test_static_bulk_unique_keys_and_values():
    from repro.workloads import StaticBulkWorkload

    workload = StaticBulkWorkload(
        n_records=10, value_factory=lambda i: i * i, key_prefix="item"
    )
    actions = run_workload(workload, horizon=1.0)
    keys = [key for _, key, _, _ in actions.inserts]
    assert len(set(keys)) == 10
    assert keys[0] == "item-0"
    assert actions.inserts[3][2] == 9


def test_static_bulk_validation():
    from repro.workloads import StaticBulkWorkload

    with pytest.raises(ValueError):
        StaticBulkWorkload(n_records=0)
