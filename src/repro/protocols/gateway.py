"""Soft-state gateways bridging bandwidth islands (Amir et al. [2]).

The paper's related work describes "soft state gateways and multiple
transmission queues for the scalable exchange of RTCP-like control
traffic between islands of high bandwidth bridged by low bandwidth
links", and notes the scheme "is a specific instantiation of our more
general parameterized SSTP framework".  This module builds that
instantiation:

* **island A** — a publisher chattering on a fast local channel;
* **gateway** — subscribes locally, keeps its *own* soft-state table,
  and re-announces across the bottleneck with a hot/cold scheduler at
  the bottleneck's rate.  Because it always transmits the *latest*
  value of each key, local update bursts collapse into at most one
  pending bottleneck transmission per key;
* **island B** — a remote receiver mirroring state from the gateway.

The contrast mode (``mode="forwarder"``) queues every local
announcement into the bottleneck FIFO verbatim.  Whenever the local
announcement rate exceeds the bottleneck rate, that queue grows without
bound and island B's view becomes arbitrarily stale — the failure the
soft-state gateway exists to prevent.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core import BandwidthLedger, ConsistencyMeter, LatencyRecorder, SoftStateTable
from repro.des import Environment, RngStreams
from repro.net import BernoulliLoss, Channel, Packet
from repro.obs import runtime as _obs
from repro.workloads import PoissonUpdateWorkload, Workload

MODES = ("soft_state", "forwarder")


@dataclass
class GatewayResult:
    """Measured outcome of a gateway run."""

    end_to_end_consistency: float
    gateway_consistency: float
    mean_remote_latency: float
    local_packets: int
    bottleneck_packets: int
    bottleneck_backlog_end: int
    mode: str
    bandwidth_bits: Dict[str, float] = field(default_factory=dict)


class GatewaySession:
    """Two bandwidth islands bridged by a (possibly soft-state) gateway."""

    def __init__(
        self,
        local_kbps: float = 100.0,
        bottleneck_kbps: float = 8.0,
        local_loss: float = 0.01,
        bottleneck_loss: float = 0.05,
        hot_share: float = 0.6,
        mode: str = "soft_state",
        update_rate: Optional[float] = None,
        lifetime_mean: float = 60.0,
        workload: Optional[Workload] = None,
        announce_interval: float = 0.25,
        seed: int = 0,
        tick: float = 1.0,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if local_kbps <= 0 or bottleneck_kbps <= 0:
            raise ValueError("link rates must be positive")
        if not 0.0 < hot_share < 1.0:
            raise ValueError(f"hot_share must be in (0, 1), got {hot_share}")
        if announce_interval <= 0:
            raise ValueError(
                f"announce_interval must be positive, got {announce_interval}"
            )
        if workload is None:
            if update_rate is None:
                raise ValueError("provide either update_rate or workload")
            workload = PoissonUpdateWorkload(
                arrival_rate=update_rate,
                lifetime_mean=lifetime_mean,
                update_fraction=0.5,
            )
        self.env = Environment()
        self.rng = RngStreams(seed=seed)
        self.mode = mode
        self.workload = workload
        self.announce_interval = announce_interval
        self.tick = tick
        session_label = _obs.next_session_label()
        protocol = type(self).__name__
        self.ledger = BandwidthLedger(session=session_label, protocol=protocol)
        self.latency = LatencyRecorder(
            session=session_label, protocol=protocol
        )

        # Island A: publisher + fast local channel into the gateway.
        self.publisher = SoftStateTable("publisher")
        self.local_channel = Channel(
            self.env,
            local_kbps,
            loss=BernoulliLoss(local_loss, rng=self.rng["local-loss"]),
        )
        self.local_channel.subscribe(self._gateway_receive)

        # The gateway's own soft state.
        self.gateway_table = SoftStateTable("subscriber")

        # The bottleneck into island B.
        self.bottleneck = Channel(
            self.env,
            bottleneck_kbps,
            loss=BernoulliLoss(
                bottleneck_loss, rng=self.rng["bottleneck-loss"]
            ),
        )
        self.bottleneck.subscribe(self._remote_receive)
        self.remote_table = SoftStateTable("subscriber")

        # Gateway scheduling state (soft_state mode).
        self._hot: deque[Any] = deque()
        self._hot_set: set[Any] = set()
        self._cold: deque[Any] = deque()
        self._hot_share = hot_share
        self._hot_credit = 0.0
        self._wakeup = None

        # Island A announcement ring: insert() appends new keys, the
        # announcer cycles them and drops the dead ones as it pops.
        self._local_ring: deque[Any] = deque()

        self.meter: Optional[ConsistencyMeter] = None
        self.gateway_meter: Optional[ConsistencyMeter] = None
        self._last_observed = -math.inf

    # -- island A publisher actions (workload interface) ----------------------
    def insert(self, key: Any, value: Any, lifetime: float = math.inf) -> None:
        now = self.env.now
        record = self.publisher.put(key, value, now=now, lifetime=lifetime)
        self.latency.introduced(key, record.version, now)
        self._local_ring.append(key)
        if lifetime != math.inf:
            self._schedule_death(key, lifetime)
        self._observe()

    def update(self, key: Any, value: Any) -> None:
        now = self.env.now
        record = self.publisher.get(key)
        if record is None or not record.is_publisher_live(now):
            return
        self.publisher.revise(key, value, now)
        self.latency.introduced(key, record.version, now)
        self._observe()

    def delete(self, key: Any) -> None:
        self._kill(key)

    def _schedule_death(self, key: Any, lifetime: float) -> None:
        # A bare Timeout + callback: one heap entry per record death
        # instead of the three events a generator process costs.
        self.env.timeout(lifetime).callbacks.append(
            lambda _event, key=key: self._kill(key)
        )

    def _kill(self, key: Any) -> None:
        record = self.publisher.get(key)
        if record is None:
            return
        self.latency.abandoned(key, record.version)
        self.publisher.delete(key)
        if hasattr(self.workload, "note_death"):
            self.workload.note_death(key)
        self._drop_gateway_key(key)
        self._observe()

    def _drop_gateway_key(self, key: Any) -> None:
        self._hot_set.discard(key)
        for queue in (self._hot, self._cold):
            try:
                queue.remove(key)
            except ValueError:
                pass

    # -- island A announcement loop --------------------------------------------
    def _local_announcer(self):
        """The publisher chatters its whole table on the fast channel.

        The announcement ring is maintained incrementally: ``insert``
        appends new keys, dead keys are dropped as they are popped, so
        every live key keeps its place in the cycle.
        """
        ring = self._local_ring
        while True:
            now = self.env.now
            self.publisher.expire(now)
            if not ring:
                yield self.env.timeout(self.announce_interval)
                continue
            key = ring.popleft()
            record = self.publisher.get(key)
            if record is None or not record.is_publisher_live(now):
                continue
            ring.append(key)
            packet = Packet(
                kind="announce",
                key=key,
                payload={
                    "key": key,
                    "value": record.value,
                    "version": record.version,
                    "expires_at": record.publisher_expiry,
                },
            )
            self.ledger.add("new", packet.size_bits)
            yield self.local_channel.transmit(packet)
            yield self.env.timeout(self.announce_interval / 10.0)

    # -- gateway -------------------------------------------------------------------
    def _gateway_receive(self, packet: Packet) -> None:
        payload = packet.payload
        now = self.env.now
        key = payload["key"]
        existing = self.gateway_table.get(key)
        fresh = existing is None or existing.version < payload["version"]
        self.gateway_table.put(
            key,
            payload["value"],
            now=now,
            version=payload["version"],
            hold_time=max(payload["expires_at"] - now, 1e-9),
        )
        self.gateway_table.expire(now)
        if self.mode == "forwarder":
            # Verbatim relay: every local announcement joins the FIFO.
            self.ledger.add("redundant", packet.size_bits)
            self.bottleneck.send(packet.copy_for("island-b"))
        elif fresh:
            # Soft state: a changed key owes exactly one hot transmission.
            if key not in self._hot_set:
                self._hot_set.add(key)
                self._hot.append(key)
                try:
                    self._cold.remove(key)
                except ValueError:
                    pass
            self._wake()
        self._observe()

    def _wake(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _gateway_sender(self):
        """Hot/cold re-announcement over the bottleneck (soft state)."""
        while True:
            key = self._next_key()
            if key is None:
                self._wakeup = self.env.event()
                yield self._wakeup
                self._wakeup = None
                continue
            record = self.gateway_table.get(key)
            if record is None or not record.is_subscriber_live(self.env.now):
                self._drop_gateway_key(key)
                continue
            packet = Packet(
                kind="announce",
                key=key,
                payload={
                    "key": key,
                    "value": record.value,
                    "version": record.version,
                    "expires_at": record.subscriber_expiry,
                },
            )
            self.ledger.add("repair", packet.size_bits)
            yield self.bottleneck.transmit(packet)
            if self.gateway_table.get(key) is not None:
                self._cold.append(key)
            self._observe()

    def _next_key(self) -> Optional[Any]:
        # Deterministic proportional share via a credit counter.
        for _ in range(2):
            use_hot = self._hot and (
                self._hot_credit >= 0 or not self._cold
            )
            if use_hot:
                key = self._hot.popleft()
                self._hot_set.discard(key)
                self._hot_credit -= 1.0 - self._hot_share
                return key
            if self._cold:
                self._hot_credit += self._hot_share
                return self._cold.popleft()
        return None

    # -- island B ----------------------------------------------------------------------
    def _remote_receive(self, packet: Packet) -> None:
        payload = packet.payload
        now = self.env.now
        existing = self.remote_table.get(payload["key"])
        if (
            existing is None
            or existing.version < payload["version"]
            or not existing.is_subscriber_live(now)
        ):
            self.remote_table.put(
                payload["key"],
                payload["value"],
                now=now,
                version=payload["version"],
                hold_time=max(payload["expires_at"] - now, 1e-9),
            )
            self.latency.received(payload["key"], payload["version"], now)
        else:
            self.remote_table.refresh(payload["key"], now)
        self.remote_table.expire(now)
        self._observe()

    # -- metering ----------------------------------------------------------------------
    def _observe(self, force: bool = False) -> None:
        now = self.env.now
        if self.meter is None:
            return
        if not force and now - self._last_observed < self.tick / 2.0:
            return
        self._last_observed = now
        self.remote_table.expire(now)
        self.gateway_table.expire(now)
        self.meter.observe(now)
        self.gateway_meter.observe(now)

    def _ticker(self):
        while True:
            yield self.env.timeout(self.tick)
            self._observe()

    # -- running ------------------------------------------------------------------------
    def run(self, horizon: float, warmup: float = 0.0) -> GatewayResult:
        if horizon <= warmup:
            raise ValueError(
                f"horizon ({horizon}) must exceed warmup ({warmup})"
            )
        self.env.process(
            self.workload.run(self.env, self, self.rng["workload"])
        )
        self.env.process(self._local_announcer())
        if self.mode == "soft_state":
            self.env.process(self._gateway_sender())
        self.env.process(self._ticker())
        self.env.run(until=warmup)
        self.meter = ConsistencyMeter(
            self.publisher, [self.remote_table], start_time=warmup
        )
        self.gateway_meter = ConsistencyMeter(
            self.publisher, [self.gateway_table], start_time=warmup
        )
        self._observe(force=True)
        self.env.run(until=horizon)
        self._observe(force=True)
        return GatewayResult(
            end_to_end_consistency=self.meter.average(),
            gateway_consistency=self.gateway_meter.average(),
            mean_remote_latency=self.latency.mean(),
            local_packets=self.local_channel.packets_sent,
            bottleneck_packets=self.bottleneck.packets_sent,
            bottleneck_backlog_end=self.bottleneck.backlog,
            mode=self.mode,
            bandwidth_bits=self.ledger.as_dict(),
        )
