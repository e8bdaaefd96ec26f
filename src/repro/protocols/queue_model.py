"""An exact discrete-event twin of the Section 3 queueing model.

This simulator reproduces the paper's analytic model *literally*: a
single FIFO queue with exponential service at rate ``mu``; Poisson
record arrivals at rate ``lam`` entering in the "inconsistent" class;
per-service independent loss (probability ``p_loss``) and death
(probability ``p_death``); surviving records re-enter the queue tail in
the class given by Table 1.

It exists to *validate the closed forms against simulation*: the
measured time-average of n_C / (n_I + n_C) (counting empty instants as
zero) must match ``expected_consistency``, and the fraction of services
spent on consistent records must match ``redundant_bandwidth_fraction``.
The integration tests do exactly that comparison.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.des import Environment, Event, RngStreams


@dataclass(frozen=True)
class QueueModelResult:
    """Measured statistics of one simulation run."""

    consistency: float
    redundant_fraction: float
    mean_receive_latency: float
    receipt_fraction: float
    services: int
    arrivals: int
    deaths: int
    mean_queue_length: float
    #: Empirical Table 1: {"I": {"I": n, "C": n, "exit": n}, "C": {...}}.
    transitions: "dict[str, dict[str, int]]" = None  # type: ignore[assignment]

    def transition_probabilities(self) -> "dict[str, dict[str, float]]":
        """Row-normalized empirical state-change probabilities."""
        result: dict[str, dict[str, float]] = {}
        for src, row in (self.transitions or {}).items():
            total = sum(row.values())
            result[src] = {
                dst: (count / total if total else 0.0)
                for dst, count in row.items()
            }
        return result


class _Job:
    """One record circulating through the queue."""

    __slots__ = ("consistent", "arrived_at", "received_at")

    def __init__(self, arrived_at: float) -> None:
        self.consistent = False
        self.arrived_at = arrived_at
        self.received_at: Optional[float] = None


class QueueModelSim:
    """Simulate the open-loop announce/listen queueing model."""

    def __init__(
        self,
        update_rate: float,
        channel_rate: float,
        p_loss: float,
        p_death: float,
        seed: int = 0,
    ) -> None:
        if update_rate <= 0:
            raise ValueError(f"update_rate must be positive, got {update_rate}")
        if channel_rate <= 0:
            raise ValueError(
                f"channel_rate must be positive, got {channel_rate}"
            )
        if not 0.0 <= p_loss <= 1.0:
            raise ValueError(f"p_loss must be in [0, 1], got {p_loss}")
        if not 0.0 < p_death <= 1.0:
            raise ValueError(f"p_death must be in (0, 1], got {p_death}")
        self.update_rate = update_rate
        self.channel_rate = channel_rate
        self.p_loss = p_loss
        self.p_death = p_death
        self.seed = seed

    def run(self, horizon: float, warmup: float = 0.0) -> QueueModelResult:
        """Simulate for ``horizon`` seconds (statistics skip ``warmup``)."""
        if horizon <= warmup:
            raise ValueError(
                f"horizon ({horizon}) must exceed warmup ({warmup})"
            )
        env = Environment()
        rng = RngStreams(seed=self.seed)
        queue: deque = deque()
        state = _Stats(warmup)
        # The server's wake-up event while the queue is empty.
        idle: Optional[Event] = None

        def arrivals():
            nonlocal idle
            while True:
                yield env.timeout(
                    rng["arrivals"].expovariate(self.update_rate)
                )
                state.note_change(env.now)
                job = _Job(env.now)
                state.arrivals += 1
                state.n_inconsistent += 1
                queue.append(job)
                if idle is not None:
                    idle.succeed()
                    idle = None

        def server():
            nonlocal idle
            service_rng = rng["service"]
            loss_rng = rng["loss"]
            death_rng = rng["death"]
            while True:
                if not queue:
                    idle = env.event()
                    yield idle
                job = queue.popleft()
                yield env.timeout(service_rng.expovariate(self.channel_rate))
                state.note_change(env.now)
                state.services += 1
                entered_consistent = job.consistent
                if job.consistent:
                    state.redundant_services += 1
                lost = loss_rng.random() < self.p_loss
                died = death_rng.random() < self.p_death
                if not lost and not job.consistent:
                    job.consistent = True
                    job.received_at = env.now
                    state.n_inconsistent -= 1
                    state.n_consistent += 1
                    if env.now >= warmup:
                        state.latencies.append(env.now - job.arrived_at)
                source = "C" if entered_consistent else "I"
                target = (
                    "exit" if died else ("C" if job.consistent else "I")
                )
                state.transitions[source][target] += 1
                if died:
                    state.deaths += 1
                    if job.consistent:
                        state.n_consistent -= 1
                    else:
                        state.n_inconsistent -= 1
                        state.never_received += 1
                else:
                    queue.append(job)

        env.process(arrivals())
        env.process(server())
        env.run(until=horizon)
        state.note_change(horizon)
        return state.result()


class _Stats:
    """Time-weighted accumulators for the queue-model run."""

    def __init__(self, warmup: float) -> None:
        self.warmup = warmup
        self.n_inconsistent = 0
        self.n_consistent = 0
        self.last_time = warmup
        self.consistency_integral = 0.0
        self.queue_integral = 0.0
        self.duration = 0.0
        self.arrivals = 0
        self.services = 0
        self.redundant_services = 0
        self.deaths = 0
        self.never_received = 0
        self.latencies: list[float] = []
        self.transitions = {
            "I": {"I": 0, "C": 0, "exit": 0},
            "C": {"I": 0, "C": 0, "exit": 0},
        }

    def note_change(self, now: float) -> None:
        """Fold the elapsed interval in *before* applying a state change."""
        if now <= self.warmup:
            return
        start = max(self.last_time, self.warmup)
        interval = now - start
        if interval > 0:
            total = self.n_inconsistent + self.n_consistent
            value = self.n_consistent / total if total > 0 else 0.0
            self.consistency_integral += value * interval
            self.queue_integral += total * interval
            self.duration += interval
        self.last_time = now

    def result(self) -> QueueModelResult:
        received = len(self.latencies)
        finished = received + self.never_received
        return QueueModelResult(
            consistency=(
                self.consistency_integral / self.duration
                if self.duration
                else 0.0
            ),
            redundant_fraction=(
                self.redundant_services / self.services
                if self.services
                else 0.0
            ),
            mean_receive_latency=(
                sum(self.latencies) / received if received else math.nan
            ),
            receipt_fraction=(
                received / finished if finished else math.nan
            ),
            services=self.services,
            arrivals=self.arrivals,
            deaths=self.deaths,
            mean_queue_length=(
                self.queue_integral / self.duration if self.duration else 0.0
            ),
            transitions={
                src: dict(row) for src, row in self.transitions.items()
            },
        )
