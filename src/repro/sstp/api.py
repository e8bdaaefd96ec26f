"""The SSTP application API: sessions, reliability levels, adaptation.

This is the facade a downstream application uses.  It assembles the
sender, receivers, multicast data channel, per-receiver feedback
channels, the profile-driven allocator, and the periodic adaptation
loop, and exposes:

* ``publish(path, value, ...)`` / ``remove(path)`` — ALF-named ADUs;
* per-receiver ``on_update`` / ``on_remove`` callbacks and interest
  filters;
* a **reliability level** on the paper's continuum — from pure
  open-loop announce/listen (no feedback channel at all) to
  feedback-based reliable transport — or explicit knob settings;
* ``on_rate_limit`` — the notification the paper specifies when the
  application's offered load exceeds the hot-queue bandwidth.

Example
-------
>>> from repro.sstp import SstpSession, ReliabilityLevel
>>> session = SstpSession(total_kbps=50.0, n_receivers=2,
...                       loss_rate=0.2,
...                       reliability=ReliabilityLevel.RELIABLE)
>>> session.publish("news/tech/item1", {"headline": "soft state works"})
>>> result = session.run(horizon=120.0)
>>> result.consistency > 0.5
True
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import SoftStateTable
from repro.net import BernoulliLoss, Channel, LossModel, MulticastChannel, Packet
from repro.protocols.session import FaultSurface, Session
from repro.sstp.allocator import ProfileDrivenAllocator
from repro.sstp.congestion import CongestionManager, StaticCongestionManager
from repro.sstp.protocol import (
    SstpReceiver,
    SstpResult,
    SstpSender,
    _MirrorMeter,
)


class ReliabilityLevel(enum.Enum):
    """The paper's continuum of reliability semantics, discretized.

    * ``OPEN_LOOP`` — no feedback channel: receivers rely purely on the
      sender's announcements (summaries still flow, but mismatches
      cannot be reported).  Cheapest; weakest consistency.
    * ``ANNOUNCE_LISTEN`` — feedback restricted to receiver reports
      (loss monitoring for the allocator) but no repair requests.
    * ``RELIABLE`` — full recursive-descent repair with NACK-like
      queries; approaches ARQ-grade delivery while retaining soft-state
      robustness.
    """

    OPEN_LOOP = "open-loop"
    ANNOUNCE_LISTEN = "announce-listen"
    RELIABLE = "reliable"


class SstpSession(FaultSurface, Session):
    """One SSTP publisher with a multicast group of receivers.

    It runs on the :class:`~repro.protocols.session.Session` skeleton
    and its fault surface, with its own namespace sender and publishing
    API instead of a workload, and per-receiver mirror meters sampled
    every half second.
    """

    SAMPLE_FRACTION = 0.0

    def __init__(
        self,
        total_kbps: float = 50.0,
        n_receivers: int = 1,
        loss_rate: float = 0.0,
        reliability: ReliabilityLevel = ReliabilityLevel.RELIABLE,
        congestion: Optional[CongestionManager] = None,
        allocator: Optional[ProfileDrivenAllocator] = None,
        feedback_share: Optional[float] = None,
        hot_share: Optional[float] = None,
        report_interval: float = 5.0,
        adapt_interval: Optional[float] = 10.0,
        update_kbps_hint: float = 5.0,
        loss_models: Optional[Dict[str, LossModel]] = None,
        interest_filters: Optional[
            Dict[str, Callable[[str, Dict[str, Any]], bool]]
        ] = None,
        on_rate_limit: Optional[Callable[[float], None]] = None,
        seed: int = 0,
        faults=None,
    ) -> None:
        if n_receivers < 1:
            raise ValueError(f"need at least one receiver, got {n_receivers}")
        if report_interval <= 0:
            raise ValueError(
                f"report_interval must be positive, got {report_interval}"
            )
        super().__init__(seed=seed, tick=0.5, faults=faults)
        self.reliability = reliability
        self.congestion = congestion or StaticCongestionManager(total_kbps)
        self.allocator = allocator or ProfileDrivenAllocator(self.congestion)
        self.report_interval = report_interval
        self.adapt_interval = adapt_interval
        self.update_kbps_hint = update_kbps_hint
        self.on_rate_limit = on_rate_limit
        self._offered_kbps = 0.0
        self._publish_count = 0

        # Initial allocation from the profile (loss unknown: assume the
        # configured rate for a sensible start).
        initial = self.allocator.allocate(
            now=0.0, loss_rate=loss_rate, update_kbps=update_kbps_hint
        )
        if reliability is ReliabilityLevel.OPEN_LOOP:
            feedback_kbps = 0.0
            data_kbps = self.congestion.available_kbps(0.0)
        else:
            share = (
                feedback_share
                if feedback_share is not None
                else initial.feedback_share
            )
            feedback_kbps = share * self.congestion.available_kbps(0.0)
            data_kbps = self.congestion.available_kbps(0.0) - feedback_kbps
        if data_kbps <= 0:
            raise ValueError("allocation leaves no data bandwidth")
        self.allocation = initial

        self.data_channel = MulticastChannel(self.env, data_kbps)
        self.sender = SstpSender(
            self.env,
            self.data_channel,
            hot_share=(
                hot_share if hot_share is not None else initial.hot_share
            ),
            cold_content=(
                "summaries"
                if reliability is ReliabilityLevel.RELIABLE
                else "adus"
            ),
            latency=self.latency,
        )

        self._receiver_loss: Dict[str, LossModel] = {}
        self._feedback_channels: Dict[str, Optional[Channel]] = {}
        loss_models = loss_models or {}
        interest_filters = interest_filters or {}
        for index in range(n_receivers):
            receiver_id = f"rcv-{index}"
            loss = loss_models.get(receiver_id)
            if loss is None:
                loss = BernoulliLoss(
                    loss_rate, rng=self.rng.spawn(receiver_id)["loss"]
                )
            self._receiver_loss[receiver_id] = loss
            feedback: Optional[Channel] = None
            if reliability is not ReliabilityLevel.OPEN_LOOP:
                per_receiver_fb = feedback_kbps / n_receivers
                if per_receiver_fb > 0:
                    feedback = Channel(
                        self.env,
                        per_receiver_fb,
                        loss=BernoulliLoss(
                            loss_rate,
                            rng=self.rng.spawn(receiver_id)["fb-loss"],
                        ),
                    )
                    feedback.subscribe(self._sender_feedback_gate)
            receiver = SstpReceiver(
                receiver_id,
                self.env,
                feedback=feedback,
                interest=interest_filters.get(receiver_id),
                latency=self.latency,
            )
            self._add_receiver(receiver)
            self._feedback_channels[receiver_id] = feedback
            self.data_channel.join(receiver_id, receiver.deliver, loss=loss)
        self.feedback_kbps = feedback_kbps
        #: Mean mirror consistency per sample, for recovery analysis.
        self._series: List[Tuple[float, float]] = []

    # -- wiring helpers ------------------------------------------------------------
    def _sender_feedback_gate(self, packet: Packet) -> None:
        """Route feedback to the sender, honouring the reliability level."""
        if (
            self.reliability is ReliabilityLevel.ANNOUNCE_LISTEN
            and packet.kind == "query"
        ):
            return  # repair requests disabled at this level
        self.sender.handle_feedback(packet)

    # -- application surface ----------------------------------------------------------
    def publish(
        self,
        path: str,
        value: Any,
        size_bytes: int = 125,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._publish_count += 1
        self.sender.publish(path, value, size_bytes=size_bytes, metadata=metadata)

    def remove(self, path: str) -> None:
        self.sender.remove(path)

    def set_receiver_callbacks(
        self,
        receiver_id: str,
        on_update: Optional[Callable[[str, Any], None]] = None,
        on_remove: Optional[Callable[[str], None]] = None,
    ) -> None:
        receiver = self._receiver_by_id.get(receiver_id)
        if receiver is None:
            raise ValueError(f"unknown receiver {receiver_id!r}")
        receiver.on_update = on_update
        receiver.on_remove = on_remove

    # -- periodic processes -------------------------------------------------------------
    def _report_loop(self):
        while True:
            yield self.env.timeout(self.report_interval)
            for receiver in self.receivers:
                receiver.send_report()

    def _adapt_loop(self):
        """Re-tune hot/cold from measured loss; notify on rate limits."""
        while True:
            yield self.env.timeout(self.adapt_interval)
            loss = self.sender.loss_estimator.estimate
            offered = self._measure_offered_kbps()
            allocation = self.allocator.allocate(
                now=self.env.now,
                loss_rate=min(loss, 0.99),
                update_kbps=max(offered, 1e-3),
            )
            self.allocation = allocation
            self.sender.set_hot_share(allocation.hot_share)
            if (
                self.on_rate_limit is not None
                and offered > allocation.max_update_kbps
            ):
                self.on_rate_limit(allocation.max_update_kbps)

    def _measure_offered_kbps(self) -> float:
        """New-data rate offered since the last adaptation tick."""
        count = self._publish_count
        self._publish_count = 0
        bits = count * self.sender.adu_size_bits
        return bits / 1000.0 / max(self.adapt_interval, 1e-9)

    # -- sampling and running ----------------------------------------------------------
    def _mirror_tables(self) -> List[SoftStateTable]:
        # Mirrors are namespaces without refresh timers (pruning is
        # digest-driven), so no false expiry can happen.
        return []

    def _start_processes(self) -> None:
        if self.reliability is not ReliabilityLevel.OPEN_LOOP:
            self.env.process(self._report_loop())
        if self.adapt_interval is not None:
            self.env.process(self._adapt_loop())
        self.env.process(self._ticker())

    def _start_meters(self, warmup: float) -> None:
        self._meters = [_MirrorMeter(warmup) for _ in self.receivers]

    def _sample(self, now: float) -> float:
        values = []
        for receiver, meter in zip(self.receivers, self._meters):
            meter.observe(now, self._mirror_consistency(receiver))
            values.append(meter.value)
        mean = sum(values) / len(values)
        if self.fault_tracker is not None:
            self._series.append((now, mean))
        return mean

    def _mirror_consistency(self, receiver: SstpReceiver) -> Optional[float]:
        """Fraction of the sender's ADUs (of interest) mirrored exactly."""
        sender_leaves = list(self.sender.namespace.leaves())
        relevant = [
            leaf
            for leaf in sender_leaves
            if receiver.interest is None
            or receiver.interest(leaf.path, leaf.metadata)
        ]
        if not relevant:
            return None
        matched = 0
        for leaf in relevant:
            mine = receiver.mirror.find(leaf.path)
            if mine is not None and mine.digest(
                receiver.mirror.algorithm
            ) == leaf.digest(self.sender.namespace.algorithm):
                matched += 1
        return matched / len(relevant)

    # -- fault surface ------------------------------------------------------------------
    def fault_crash_sender(self, crash) -> None:
        self.sender.crash(crash)

    def _fault_channels(self) -> list:
        return [self.data_channel] + [
            channel
            for channel in self._feedback_channels.values()
            if channel is not None
        ]

    def _result(self, duration: float) -> SstpResult:
        per_receiver = {
            receiver.receiver_id: meter.average()
            for receiver, meter in zip(self.receivers, self._meters)
        }
        overall = sum(per_receiver.values()) / len(per_receiver)
        total_queries = sum(r.queries_sent for r in self.receivers)
        return SstpResult(
            consistency=overall,
            per_receiver_consistency=per_receiver,
            mean_receive_latency=self.latency.mean(),
            adu_packets=self.sender.adu_packets,
            summary_packets=self.sender.summary_packets,
            digest_packets=self.sender.digest_packets,
            query_packets=total_queries,
            repair_requests=self.sender.repair_requests,
            report_packets=self.sender.report_packets,
            data_packets_sent=self.data_channel.packets_sent,
            bandwidth_bits=self.sender.ledger.as_dict(),
            estimated_loss=self.sender.loss_estimator.estimate,
            **self._fault_fields(self._series),
        )
