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

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core import ConsistencyMeter, SoftStateTable
from repro.net import BernoulliLoss, Channel, Packet
from repro.protocols.session import PublisherLifecycle, Session
from repro.workloads import Workload

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


class GatewaySession(PublisherLifecycle, Session):
    """Two bandwidth islands bridged by a (possibly soft-state) gateway."""

    SAMPLE_FRACTION = 0.5

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
        workload = self._default_workload(
            workload, update_rate, lifetime_mean, update_fraction=0.5
        )
        super().__init__(seed=seed, tick=tick, workload=workload)
        self.mode = mode
        self.announce_interval = announce_interval

        # Island A: publisher + fast local channel into the gateway.
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

        # Gateway scheduling state (soft_state mode).  The gateway
        # sender has its own wakeup: island A's announcer polls.
        self._hot: deque[Any] = deque()
        self._hot_set: set[Any] = set()
        self._cold: deque[Any] = deque()
        self._hot_share = hot_share
        self._hot_credit = 0.0
        self._gateway_wakeup = None

        # Island A announcement ring: insert() appends new keys, the
        # announcer cycles them and drops the dead ones as it pops.
        self._local_ring: deque[Any] = deque()

        self.gateway_meter: Optional[ConsistencyMeter] = None

    # -- island A publisher hooks -------------------------------------------------
    def _enqueue_new(self, key: Any) -> None:
        self._local_ring.append(key)

    def _updated(self, key: Any, version: int) -> None:
        """The key already holds its place in the announcement ring."""

    def _drop_from_queues(self, key: Any) -> None:
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
            self.bottleneck.send(packet)
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
        self._observe(self.env.now)

    def _wake(self) -> None:
        wakeup = self._gateway_wakeup
        if wakeup is not None and not wakeup.triggered:
            wakeup.succeed()

    def _gateway_sender(self):
        """Hot/cold re-announcement over the bottleneck (soft state)."""
        while True:
            key = self._next_key()
            if key is None:
                self._gateway_wakeup = self.env.event()
                yield self._gateway_wakeup
                self._gateway_wakeup = None
                continue
            record = self.gateway_table.get(key)
            if record is None or not record.is_subscriber_live(self.env.now):
                self._drop_from_queues(key)
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
            self._observe(self.env.now)

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
        self._observe(self.env.now)

    # -- metering and running --------------------------------------------------------
    def _mirror_tables(self) -> List[SoftStateTable]:
        return [self.remote_table]

    def _sample(self, now: float) -> Optional[float]:
        # Remote before gateway: records expired together are traced in
        # this order.  The base sample's own remote expire is then a no-op.
        self.remote_table.expire(now)
        self.gateway_table.expire(now)
        return super()._sample(now)

    def _extra_meters(self, warmup: float) -> List[ConsistencyMeter]:
        self.gateway_meter = ConsistencyMeter(
            self.publisher, [self.gateway_table], start_time=warmup
        )
        return [self.gateway_meter]

    def _start_processes(self) -> None:
        self.workload_process = self.env.process(
            self.workload.run(self.env, self, self.rng["workload"])
        )
        self.env.process(self._local_announcer())
        if self.mode == "soft_state":
            self.env.process(self._gateway_sender())
        self.env.process(self._ticker())

    def _result(self, duration: float) -> GatewayResult:
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
