"""Multicast announce/listen with scalable NACK suppression.

The paper: "SSTP may be applied to multicast as well as unicast
transport.  In the case of multicast, a scalable mechanism such as
slotting and damping [11, 20] may be used in managing feedback traffic."
This module implements that mechanism over the protocol ladder:

* one sender multicasts announcements through a hot/cold scheduler
  (as in Section 4/5) over a :class:`~repro.net.MulticastChannel` with
  independent per-receiver loss;
* receivers detect losses by sequence gaps, exactly as in the unicast
  feedback protocol;
* instead of NACKing immediately, a receiver **slots**: it draws a
  random delay before sending, and **damps**: NACKs are multicast to
  the whole group, so a receiver that hears another member request the
  same sequence suppresses its own pending request (SRM's
  slotting-and-damping, the paper's references [11, 20]);
* a single retransmission (moved cold -> hot, as in Figure 7) repairs
  every receiver that missed the packet.

The headline property — total NACK traffic grows sublinearly in the
group size — is asserted by the suppression bench and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core import ConsistencyMeter, FaultReport, SoftStateTable
from repro.net import BernoulliLoss, MulticastChannel, Packet
from repro.obs.trace import RECORD as _RECORD
from repro.protocols.feedback import NackRepair
from repro.protocols.session import FaultSurface, PublisherLifecycle, Session
from repro.protocols.two_queue import HotColdQueues
from repro.workloads import Workload

NACK_BITS = 100


@dataclass
class MulticastResult:
    """Measured outcome of a multicast feedback session."""

    consistency: float
    per_receiver_consistency: Dict[str, float]
    mean_receive_latency: float
    data_packets: int
    nacks_sent: int
    nacks_suppressed: int
    repairs_transmitted: int
    duration: float
    bandwidth_bits: Dict[str, float] = field(default_factory=dict)
    fault_reports: List[FaultReport] = field(default_factory=list)
    false_expiries: int = 0

    @property
    def nacks_per_loss_event(self) -> float:
        """Feedback economy: requests sent per repair performed."""
        if self.repairs_transmitted == 0:
            return math.nan
        return self.nacks_sent / self.repairs_transmitted


class _GroupReceiver:
    """One group member: mirror table, gap detection, slotted NACKs."""

    def __init__(
        self,
        receiver_id: str,
        session: "MulticastFeedbackSession",
        seed_rng,
    ) -> None:
        self.receiver_id = receiver_id
        self.session = session
        self.env = session.env
        self.table = SoftStateTable("subscriber")
        self._rng = seed_rng
        self._next_seq = 0
        self.missing: Set[int] = set()
        #: Sequences with a slotting timer armed locally.
        self._pending: Set[int] = set()
        #: Sequences whose request we heard from another member.
        self._heard: Dict[int, float] = {}
        #: Request attempts per sequence, for exponential backoff: when
        #: the feedback channel is congested, re-requesting at a fixed
        #: interval melts it down (each late repair spawns more NACKs
        #: than it resolves).  SRM's answer, used here, is to double the
        #: retry timer per attempt.
        self._attempts: Dict[int, int] = {}
        self.nacks_sent = 0
        self.nacks_suppressed = 0
        #: Set while the member is off the network (churn, partition):
        #: its slot timers keep ticking but no NACK can be transmitted.
        self.detached = False

    def forget(self) -> None:
        """A crash: the mirror and every pending request are gone."""
        self.table.clear()
        self.missing.clear()
        self._heard.clear()
        self._attempts.clear()

    def resync(self, next_seq: int) -> None:
        """Resume gap detection at ``next_seq``, owing nothing before it."""
        self._next_seq = next_seq
        self.missing.clear()

    # -- data path --------------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        payload = packet.payload
        now = self.env.now
        if packet.seq is not None:
            if packet.seq >= self._next_seq:
                fresh = range(self._next_seq, packet.seq)
                self._next_seq = packet.seq + 1
                needed = [
                    seq
                    for seq in fresh
                    if self.session.receiver_needs(self, seq)
                ]
                if needed:
                    self.missing.update(needed)
                    self._arm_slots(needed)
            for repaired in payload.get("repairs", ()):
                self.missing.discard(repaired)
                self._heard.pop(repaired, None)
                self._attempts.pop(repaired, None)
        key = payload["key"]
        version = payload["version"]
        existing = self.table.get(key)
        if (
            existing is not None
            and existing.version >= version
            and existing.is_subscriber_live(now)
        ):
            self.table.refresh(key, now)
        else:
            self.table.put(
                key,
                payload["value"],
                now=now,
                version=version,
                hold_time=max(payload["expires_at"] - now, 1e-9),
            )
            self.session.latency.received(
                (self.receiver_id, key), version, now
            )
        self.table.expire(now)
        self.session._observe(now)

    # -- slotting and damping ------------------------------------------------------
    def _arm_slots(self, seqs: List[int]) -> None:
        """Arm a slotting timer for each sequence not already pending.

        A multi-packet loss burst surfaces as one gap with many
        sequences; all slot delays are drawn up front (one draw per seq,
        in seq order) and pushed through :meth:`Environment.timeout_many`,
        one heap entry per timer.  Backoff retries re-arm one seq.
        """
        pending = self._pending
        to_arm = [seq for seq in seqs if seq not in pending]
        if not to_arm:
            return
        pending.update(to_arm)
        uniform = self._rng.uniform
        slot_min = self.session.slot_min
        slot_max = self.session.slot_max
        delays = [uniform(slot_min, slot_max) for _ in to_arm]
        events = self.env.timeout_many(delays)
        fired = self._slot_fired
        for seq, event in zip(to_arm, events):
            event.callbacks.append(partial(fired, seq))

    def _slot_fired(self, seq: int, _event) -> None:
        self._pending.discard(seq)
        if seq not in self.missing:
            return  # repaired while we waited
        if not self.session.receiver_needs(self, seq):
            self.missing.discard(seq)
            return
        heard_at = self._heard.get(seq)
        if heard_at is not None and (
            self.env.now - heard_at < self.session.damp_interval
        ):
            # Someone else already asked: damp our request and back off.
            self.nacks_suppressed += 1
            self.session.nacks_suppressed += 1
            self._schedule_backoff(seq)
            return
        self._send_nack(seq)
        self._schedule_backoff(seq)

    def _schedule_backoff(self, seq: int) -> None:
        """Re-arm the request if the repair never shows up.

        Exponentially backed off per attempt (capped), so a congested
        feedback channel drains instead of melting down.
        """
        attempt = self._attempts.get(seq, 0) + 1
        self._attempts[seq] = attempt
        delay = self.session.retry_interval * min(2 ** (attempt - 1), 32)
        self.env.timeout(delay).callbacks.append(
            partial(self._backoff_fired, seq)
        )

    def _backoff_fired(self, seq: int, _event) -> None:
        if seq in self.missing and self.session.receiver_needs(self, seq):
            self._arm_slots([seq])
        else:
            self.missing.discard(seq)
            self._attempts.pop(seq, None)

    def _send_nack(self, seq: int) -> None:
        if self.detached:
            return
        self.nacks_sent += 1
        self.session.nacks_sent += 1
        self.session.ledger.add("feedback", NACK_BITS)
        tr = self.session._trace
        if tr is not None and tr.record:
            # Span-opening marker (docs/SPANS.md): backoff retries
            # re-emit for the same seq and deepen the repair chain.
            tr.emit(
                _RECORD,
                "repair_requested",
                self.env.now,
                seq=seq,
                receiver=self.receiver_id,
            )
        self.session.feedback_channel.send(
            Packet(
                kind="nack",
                payload={"seq": seq, "from": self.receiver_id},
                size_bits=NACK_BITS,
            )
        )

    def hear_nack(self, packet: Packet) -> None:
        """Another member's (or our own) multicast NACK reaches us."""
        seq = packet.payload["seq"]
        if packet.payload["from"] == self.receiver_id:
            return
        self._heard[seq] = self.env.now


class MulticastFeedbackSession(
    NackRepair, HotColdQueues, FaultSurface, PublisherLifecycle, Session
):
    """A multicast group with slotted-and-damped NACK feedback.

    The sender is the unicast ladder's: :class:`HotColdQueues` schedules
    announcements and :class:`NackRepair` answers NACKs, over one
    multicast data channel and a multicast NACK channel every member
    hears.
    """

    SAMPLE_FRACTION = 0.5

    def __init__(
        self,
        n_receivers: int,
        data_kbps: float,
        feedback_kbps: float,
        loss_rate: float = 0.0,
        shared_loss_rate: float = 0.0,
        hot_share: float = 0.7,
        update_rate: Optional[float] = None,
        lifetime_mean: float = 20.0,
        workload: Optional[Workload] = None,
        slot_min: float = 0.05,
        slot_max: float = 0.5,
        slot_scale_with_group: bool = True,
        damp_interval: float = 1.0,
        retry_interval: float = 1.5,
        scheduler: str = "stride",
        seed: int = 0,
        tick: float = 1.0,
        join_times: Optional[Dict[str, float]] = None,
        faults=None,
    ) -> None:
        if n_receivers < 1:
            raise ValueError(f"need at least one receiver, got {n_receivers}")
        if data_kbps <= 0:
            raise ValueError(f"data_kbps must be positive, got {data_kbps}")
        if feedback_kbps <= 0:
            raise ValueError(
                f"feedback_kbps must be positive, got {feedback_kbps}"
            )
        if not 0.0 < hot_share < 1.0:
            raise ValueError(f"hot_share must be in (0, 1), got {hot_share}")
        if not 0.0 <= slot_min < slot_max:
            raise ValueError(
                f"need 0 <= slot_min < slot_max, got {slot_min}, {slot_max}"
            )
        workload = self._default_workload(workload, update_rate, lifetime_mean)
        super().__init__(seed=seed, tick=tick, faults=faults, workload=workload)
        self.slot_min = slot_min
        # SRM-style timer scaling: the slot window must grow with the
        # group, or every member fires its request before it can hear
        # anyone else's and the feedback channel melts down.  A window
        # of ~N/8 base widths keeps expected requests per loss O(1).
        if slot_scale_with_group:
            slot_max = slot_max * max(1.0, n_receivers / 8.0)
        self.slot_max = slot_max
        self.damp_interval = max(damp_interval, self.slot_max)
        self.retry_interval = retry_interval

        # shared_loss_rate models a lossy upstream link whose drops hit
        # every group member at once — the regime where slotting and
        # damping pay off (members request the same repairs).
        self.data_channel = MulticastChannel(
            self.env,
            data_kbps,
            shared_loss=BernoulliLoss(
                shared_loss_rate, rng=self.rng["shared-loss"]
            ),
        )
        self.feedback_channel = MulticastChannel(self.env, feedback_kbps)
        self._init_hot_cold(scheduler, hot_share)
        self._init_repairs()
        self.nacks_sent = 0
        self.nacks_suppressed = 0

        join_times = join_times or {}
        self._receiver_loss: Dict[str, BernoulliLoss] = {}
        late_joiners: List[Tuple[_GroupReceiver, float]] = []
        for index in range(n_receivers):
            receiver_id = f"rcv-{index}"
            family = self.rng.spawn(receiver_id)
            receiver = _GroupReceiver(receiver_id, self, family["slots"])
            self._add_receiver(receiver)
            join_at = join_times.get(receiver_id, 0.0)
            data_loss = BernoulliLoss(loss_rate, rng=family["loss"])
            self._receiver_loss[receiver_id] = data_loss
            if join_at <= 0.0:
                self.data_channel.join(
                    receiver_id, receiver.deliver, loss=data_loss
                )
            else:
                # A late joiner: it catches up purely from the cold
                # announcement cycle once it tunes in — the benefit the
                # paper credits periodic retransmissions with.
                late_joiners.append((receiver, join_at))
            # Receivers hear each other's NACKs (damping); they may be
            # lost independently like any multicast packet.
            self.feedback_channel.join(
                receiver_id,
                receiver.hear_nack,
                loss=BernoulliLoss(loss_rate, rng=family["nack-loss"]),
            )
        if late_joiners:
            # One bulk schedule for the whole join wave.  Tuning in late
            # is rejoining: the sequence space that predates the join was
            # not "lost", the member simply was not listening yet.
            events = self.env.timeout_many(
                [join_at for _receiver, join_at in late_joiners]
            )
            for (receiver, _join_at), event in zip(late_joiners, events):
                event.callbacks.append(
                    lambda _event, receiver=receiver: self._reconnect(
                        receiver, join=True
                    )
                )
        self.feedback_channel.join(
            "sender",
            self._handle_nack,
            loss=BernoulliLoss(loss_rate, rng=self.rng["sender-nack-loss"]),
        )
        self._per_receiver_meters: Dict[str, ConsistencyMeter] = {}

    # -- helpers receivers call ------------------------------------------------------
    def receiver_needs(self, receiver: _GroupReceiver, seq: int) -> bool:
        """ALF naming: would this receiver benefit from a repair of seq?"""
        resolved = self._seq_to_key.get(seq)
        if resolved is None:
            return False
        key, version = resolved
        record = self.publisher.get(key)
        if record is None or not record.is_publisher_live(self.env.now):
            return False
        mirror = receiver.table.get(key)
        return (
            mirror is None
            or mirror.version < version
            or not mirror.is_subscriber_live(self.env.now)
        )

    # -- per-receiver latency keys ------------------------------------------------------
    def _introduced(self, key: Any, version: int, now: float) -> None:
        for receiver in self.receivers:
            self.latency.introduced((receiver.receiver_id, key), version, now)

    def _abandoned(self, key: Any, version: int) -> None:
        for receiver in self.receivers:
            self.latency.abandoned((receiver.receiver_id, key), version)

    # -- sender ---------------------------------------------------------------------------
    def _handle_nack(self, packet: Packet) -> None:
        self._repair(packet.payload["seq"])

    def _account_transmission(self, key: Any, packet: Packet) -> None:
        category = "repair" if packet.payload["repairs"] else "new"
        self.ledger.add(category, packet.size_bits)

    # -- fault support ---------------------------------------------------------------------
    def _fault_channels(self) -> list:
        return [self.data_channel, self.feedback_channel]

    def _cut_off(self, receiver, leave: bool) -> None:
        super()._cut_off(receiver, leave)
        self.feedback_channel.block(receiver.receiver_id)

    def _reconnect(self, receiver, join: bool) -> None:
        # The sequence space that passed while away is unknown state to
        # relearn from the announcement cycle, not a burst of gaps.
        receiver.resync(self._seq)
        super()._reconnect(receiver, join)
        self.feedback_channel.unblock(receiver.receiver_id)

    # -- running ------------------------------------------------------------------------------
    def _extra_meters(self, warmup: float) -> List[ConsistencyMeter]:
        for receiver in self.receivers:
            self._per_receiver_meters[receiver.receiver_id] = (
                ConsistencyMeter(
                    self.publisher, [receiver.table], start_time=warmup
                )
            )
        return list(self._per_receiver_meters.values())

    def _result(self, duration: float) -> MulticastResult:
        return MulticastResult(
            consistency=self.meter.average(),
            per_receiver_consistency={
                receiver_id: meter.average()
                for receiver_id, meter in self._per_receiver_meters.items()
            },
            mean_receive_latency=self.latency.mean(),
            data_packets=self.data_channel.packets_sent,
            nacks_sent=self.nacks_sent,
            nacks_suppressed=self.nacks_suppressed,
            repairs_transmitted=self.repairs_transmitted,
            duration=duration,
            bandwidth_bits=self.ledger.as_dict(),
            **self._fault_fields(self.meter.series),
        )
