"""Chaos harness: generation validity, determinism, pinned smoke."""

import json

import pytest

from repro.spec import chaos as chaos_harness
from repro.spec.chaos import (
    _build_schedule,
    _chaos_cell,
    _receiver_ids,
    _sanitize,
)

pytestmark = pytest.mark.skipif(
    not chaos_harness.HAVE_HYPOTHESIS, reason="hypothesis not installed"
)


# -- scenario generation ---------------------------------------------------


def test_generation_is_deterministic_for_a_seed():
    first = chaos_harness.generate_scenarios(runs=10, seed=42)
    second = chaos_harness.generate_scenarios(runs=10, seed=42)
    assert first == second
    assert len(first) >= 1
    assert first != chaos_harness.generate_scenarios(runs=10, seed=43)


def test_generated_schedules_construct_without_errors():
    # Every sanitized scenario must survive the fault library's own
    # validation (overlap, sign, horizon) — by construction.
    for scenario in chaos_harness.generate_scenarios(runs=25, seed=11):
        ids = _receiver_ids(scenario["session"], scenario.get("n_receivers"))
        schedule = _build_schedule(scenario["faults"], ids)
        if schedule is not None:
            schedule.validate(scenario["horizon"])


def test_sanitize_drops_overlap_and_out_of_horizon():
    drafts = [
        ("outage", 10.0, 5.0),
        ("outage", 12.0, 5.0),  # overlaps the first on the link claim
        ("crash", 12.0, 5.0),  # different claim: kept
        ("outage", 80.0, 5.0),  # beyond the horizon: dropped
        ("churn", 0.1, 5.0, 70.0, 75.0),  # starts beyond horizon: dropped
    ]
    kept = _sanitize(drafts, horizon=60.0)
    assert kept == (("outage", 10.0, 5.0), ("crash", 12.0, 5.0))


# -- execution -------------------------------------------------------------


def test_chaos_cell_runs_and_checks_a_faulted_scenario():
    verdict = _chaos_cell(
        session="twoqueue",
        horizon=40.0,
        seed=9,
        loss_rate=0.2,
        update_rate=1.0,
        data_kbps=50.0,
        faults=(("crash", 10.0, 5.0, False), ("outage", 20.0, 4.0)),
    )
    assert verdict["ok"], verdict["violations"]
    assert verdict["events"] > 0


def test_chaos_cell_runs_a_faulted_multicast_group():
    # The group shares the fault surface: churn and a partition cut off
    # members while a cold crash and a loss episode hit the sender side.
    verdict = _chaos_cell(
        session="multicast",
        horizon=60.0,
        seed=7,
        loss_rate=0.2,
        update_rate=1.0,
        data_kbps=50.0,
        n_receivers=3,
        faults=(
            ("crash", 10.0, 5.0, True),
            ("loss", 18.0, 6.0, 0.5, 4.0),
            ("churn", 0.1, 5.0, 5.0, 50.0),
            ("partition", 30.0, 38.0),
        ),
    )
    assert verdict["ok"], verdict["violations"]
    assert verdict["events"] > 0


def test_generation_covers_the_multicast_group():
    scenarios = chaos_harness.generate_scenarios(runs=40, seed=5)
    groups = [s for s in scenarios if s["session"] == "multicast"]
    assert groups, "no multicast scenario in 40 draws"
    assert all(1 <= s["n_receivers"] <= 4 for s in groups)
    assert _receiver_ids("multicast", 2) == ["rcv-0", "rcv-1"]


def test_run_chaos_report_is_byte_identical_across_jobs():
    first = chaos_harness.run_chaos(runs=4, seed=3, jobs=1)
    second = chaos_harness.run_chaos(runs=4, seed=3, jobs=2)
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )
    assert first["failures"] == 0
    assert first["scenarios_executed"] >= 1


def test_run_chaos_requires_hypothesis(monkeypatch):
    monkeypatch.setattr(chaos_harness, "HAVE_HYPOTHESIS", False)
    with pytest.raises(RuntimeError, match="hypothesis"):
        chaos_harness.run_chaos(runs=1, seed=0)
