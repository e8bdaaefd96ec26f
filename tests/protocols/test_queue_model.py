"""The central validation: simulation vs the Section 3 closed forms."""

import hashlib
import math

import pytest

from repro.analysis import OpenLoopModel
from repro.protocols import QueueModelSim


def run_pair(p_loss, p_death, lam=2.0, mu=16.0, horizon=4000.0, seed=7):
    sim = QueueModelSim(
        update_rate=lam,
        channel_rate=mu,
        p_loss=p_loss,
        p_death=p_death,
        seed=seed,
    ).run(horizon=horizon, warmup=horizon * 0.1)
    closed = OpenLoopModel(lam, mu, p_loss, p_death).solve()
    return sim, closed


@pytest.mark.parametrize(
    "p_loss,p_death",
    [(0.0, 0.25), (0.1, 0.2), (0.2, 0.25), (0.4, 0.3), (0.6, 0.5)],
)
def test_simulated_consistency_matches_formula(p_loss, p_death):
    sim, closed = run_pair(p_loss, p_death)
    assert sim.consistency == pytest.approx(
        closed.expected_consistency, abs=0.03
    )


@pytest.mark.parametrize(
    "p_loss,p_death", [(0.0, 0.25), (0.1, 0.1), (0.3, 0.25), (0.5, 0.4)]
)
def test_simulated_redundancy_matches_formula(p_loss, p_death):
    sim, closed = run_pair(p_loss, p_death, lam=1.0)
    assert sim.redundant_fraction == pytest.approx(
        closed.redundant_fraction, abs=0.03
    )


def test_simulated_receive_latency_matches_approximation():
    sim, closed = run_pair(0.2, 0.25)
    assert sim.mean_receive_latency == pytest.approx(
        closed.mean_receive_latency, rel=0.2
    )


def test_receipt_fraction_matches_formula():
    sim, closed = run_pair(0.4, 0.3, lam=1.0)
    assert sim.receipt_fraction == pytest.approx(
        closed.receipt_probability, abs=0.03
    )


def test_mean_queue_length_matches_mm1():
    """Total occupancy should behave like M/M/1 at rate lam/p_death."""
    sim, closed = run_pair(0.2, 0.25, lam=2.0, mu=16.0)
    rho = closed.utilization
    assert sim.mean_queue_length == pytest.approx(
        rho / (1.0 - rho), rel=0.15
    )


def test_overloaded_queue_formula_is_an_optimistic_bound():
    """For rho > 1 the extended formula q*min(rho,1) upper-bounds reality.

    An overloaded queue accumulates never-served (inconsistent)
    arrivals, so measured consistency falls below the extension and
    keeps degrading with the horizon.
    """
    closed = OpenLoopModel(8.0, 16.0, 0.1, 0.2).solve()
    assert not closed.stable
    short = QueueModelSim(
        update_rate=8.0, channel_rate=16.0, p_loss=0.1, p_death=0.2, seed=3
    ).run(horizon=1000.0, warmup=100.0)
    long = QueueModelSim(
        update_rate=8.0, channel_rate=16.0, p_loss=0.1, p_death=0.2, seed=3
    ).run(horizon=4000.0, warmup=100.0)
    assert short.consistency < closed.expected_consistency
    assert long.consistency < short.consistency


def test_marginally_overloaded_queue_stays_near_formula():
    """Just past rho = 1 the extension still tracks simulation closely
    over session-length horizons (the Figure 3 operating regime)."""
    closed = OpenLoopModel(3.4, 16.0, 0.1, 0.2).solve()  # rho = 1.06
    sim = QueueModelSim(
        update_rate=3.4, channel_rate=16.0, p_loss=0.1, p_death=0.2, seed=3
    ).run(horizon=3000.0, warmup=300.0)
    assert sim.consistency == pytest.approx(
        closed.expected_consistency, abs=0.12
    )


def test_counters_are_plausible():
    sim, _ = run_pair(0.2, 0.25, horizon=1000.0)
    assert sim.arrivals > 0
    assert sim.services > sim.arrivals  # retransmissions happen
    assert sim.deaths > 0


#: sha256 prefixes of ``repr(result)`` for ``run(horizon=400.0,
#: warmup=50.0)``: offered load 0.95 (every record served 1/p_death times
#: on average), no loss, and a short-lived lossy set, at seeds 0-2.
PINNED_REPR_DIGESTS = {
    (3.8, 16.0, 0.2, 0.25): ("6dd29ba28678675c", "46c3efa943d5d187", "5dd3ea0b0812ea31"),
    (2.0, 16.0, 0.0, 0.25): ("f50be567e2ec20f0", "ecf43b675eeb1f97", "9be00f37c5c6d89b"),
    (1.0, 8.0, 0.4, 0.5): ("6e4889e8d010a5e5", "ac2a2e973f10c46e", "d51511748354aaf0"),
}


@pytest.mark.parametrize("params", sorted(PINNED_REPR_DIGESTS))
def test_results_match_pinned_repr_digests(params):
    got = tuple(
        hashlib.sha256(
            repr(
                QueueModelSim(*params, seed=seed).run(
                    horizon=400.0, warmup=50.0
                )
            ).encode()
        ).hexdigest()[:16]
        for seed in range(3)
    )
    assert got == PINNED_REPR_DIGESTS[params]


def test_seed_determinism():
    a = QueueModelSim(2.0, 16.0, 0.2, 0.25, seed=5).run(horizon=300.0)
    b = QueueModelSim(2.0, 16.0, 0.2, 0.25, seed=5).run(horizon=300.0)
    assert a == b


def test_different_seeds_differ():
    a = QueueModelSim(2.0, 16.0, 0.2, 0.25, seed=5).run(horizon=300.0)
    b = QueueModelSim(2.0, 16.0, 0.2, 0.25, seed=6).run(horizon=300.0)
    assert a != b


def test_parameter_validation():
    with pytest.raises(ValueError):
        QueueModelSim(0.0, 16.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        QueueModelSim(1.0, 0.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        QueueModelSim(1.0, 16.0, -0.1, 0.2)
    with pytest.raises(ValueError):
        QueueModelSim(1.0, 16.0, 0.1, 0.0)
    sim = QueueModelSim(1.0, 16.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        sim.run(horizon=10.0, warmup=10.0)


def test_no_loss_no_death_edge():
    """p_loss=1 means nothing is ever received."""
    result = QueueModelSim(
        update_rate=1.0, channel_rate=16.0, p_loss=1.0, p_death=0.5, seed=2
    ).run(horizon=500.0)
    assert result.consistency == 0.0
    assert math.isnan(result.mean_receive_latency)
