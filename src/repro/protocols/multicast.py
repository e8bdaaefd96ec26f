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

from repro.core import (
    BandwidthLedger,
    ConsistencyMeter,
    FaultReport,
    LatencyRecorder,
    RecoveryTracker,
    SoftStateTable,
)
from repro.des import Environment, Interrupt, RngStreams, SimulationError
from repro.faults import FaultInjector, sender_side
from repro.obs import runtime as _obs
from repro.obs.trace import RECORD as _RECORD, RUN as _RUN
from repro.net import BernoulliLoss, CombinedLoss, MulticastChannel, Packet, TotalLoss
from repro.protocols.states import RecordState, RecordStateMachine
from repro.protocols.two_queue import COLD, HOT, make_scheduler
from repro.workloads import PoissonUpdateWorkload, Workload

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
        self.unreachable = False

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
        self.session.observe()

    # -- slotting and damping ------------------------------------------------------
    def _arm_timer(self, seq: int) -> None:
        if seq in self._pending:
            return
        self._pending.add(seq)
        delay = self._rng.uniform(
            self.session.slot_min, self.session.slot_max
        )
        self.env.timeout(delay).callbacks.append(
            partial(self._slot_fired, seq)
        )

    def _arm_slots(self, seqs: List[int]) -> None:
        """Arm slotting timers for a whole gap in one bulk schedule.

        A multi-packet loss burst surfaces as one gap with many
        sequences; drawing all slot delays up front (one draw per seq,
        in seq order — the ``slots`` stream has no other consumer, so
        the draw sequence matches the per-timer path) and pushing them
        through :meth:`Environment.timeout_many` costs one heap entry
        per timer instead of a three-event process spawn each.
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
            self._arm_timer(seq)
        else:
            self.missing.discard(seq)
            self._attempts.pop(seq, None)

    def _send_nack(self, seq: int) -> None:
        if self.unreachable:
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


class MulticastFeedbackSession:
    """A multicast group with slotted-and-damped NACK feedback."""

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
        if workload is None:
            if update_rate is None:
                raise ValueError("provide either update_rate or workload")
            workload = PoissonUpdateWorkload(
                arrival_rate=update_rate, lifetime_mean=lifetime_mean
            )
        self.env = Environment()
        self.rng = RngStreams(seed=seed)
        self.workload = workload
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
        self.tick = tick

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

        self.publisher = SoftStateTable("publisher")
        session_label = _obs.next_session_label()
        self._session_label = session_label
        #: Ambient tracer, cached at construction (guarded attribute).
        self._trace = _obs.current_tracer()
        protocol = type(self).__name__
        self.latency = LatencyRecorder(
            session=session_label, protocol=protocol
        )
        self.ledger = BandwidthLedger(session=session_label, protocol=protocol)
        self.scheduler = make_scheduler(scheduler, self.rng["scheduler"])
        self.scheduler.add_class(HOT, weight=hot_share)
        self.scheduler.add_class(COLD, weight=1.0 - hot_share)
        self._location: Dict[Any, str] = {}
        self.machines: Dict[Any, RecordStateMachine] = {}
        self._seq = 0
        self._seq_to_key: Dict[int, Tuple[Any, int]] = {}
        self._pending_repairs: Dict[Any, Set[int]] = {}
        self._wakeup = None
        self.nacks_sent = 0
        self.nacks_suppressed = 0
        self.repairs_transmitted = 0

        join_times = join_times or {}
        self.receivers: List[_GroupReceiver] = []
        self._receiver_by_id: Dict[str, _GroupReceiver] = {}
        self._receiver_loss: Dict[str, BernoulliLoss] = {}
        late_joiners: List[Tuple[_GroupReceiver, float, BernoulliLoss]] = []
        for index in range(n_receivers):
            receiver_id = f"rcv-{index}"
            family = self.rng.spawn(receiver_id)
            receiver = _GroupReceiver(receiver_id, self, family["slots"])
            self.receivers.append(receiver)
            self._receiver_by_id[receiver_id] = receiver
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
                late_joiners.append((receiver, join_at, data_loss))
            # Receivers hear each other's NACKs (damping); they may be
            # lost independently like any multicast packet.
            self.feedback_channel.join(
                receiver_id,
                receiver.hear_nack,
                loss=BernoulliLoss(loss_rate, rng=family["nack-loss"]),
            )
        if late_joiners:
            # One bulk schedule for the whole join wave: each timer's
            # callback performs the join at its receiver's tune-in time.
            events = self.env.timeout_many(
                [join_at for _receiver, join_at, _loss in late_joiners]
            )
            for (receiver, _join_at, loss), event in zip(late_joiners, events):
                event.callbacks.append(
                    partial(self._late_join_fired, receiver, loss)
                )
        self.feedback_channel.join(
            "sender",
            self._handle_nack,
            loss=BernoulliLoss(loss_rate, rng=self.rng["sender-nack-loss"]),
        )
        self.meter: Optional[ConsistencyMeter] = None
        self._per_receiver_meters: Dict[str, ConsistencyMeter] = {}
        self._last_observed = -float("inf")

        #: Fault-injection state (same contract as BaseSession).
        self.faults = faults
        self.fault_tracker: Optional[RecoveryTracker] = None
        if faults is not None:
            self.fault_tracker = RecoveryTracker()
            for receiver in self.receivers:
                receiver.table.on_expire(self._note_receiver_expiry)
        self.sender_process = None
        self._partition_state: List[Tuple[str, "_GroupReceiver"]] = []

    def _late_join_fired(self, receiver: "_GroupReceiver", loss, _event) -> None:
        # Skip the sequence space that predates the join: those packets
        # were not "lost", the member simply was not listening yet.
        receiver._next_seq = self._seq
        self.data_channel.join(receiver.receiver_id, receiver.deliver, loss=loss)

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

    def observe(self, force: bool = False) -> None:
        """Sample the consistency meters.

        A sample costs O(receivers x keys changed since the last
        sample).  Deliveries arrive N-per-packet, so the meters are
        still sampled at most every ``tick/2`` seconds (plus the forced
        end-of-run sample): that grid defines the sampled time-average
        every render reports, and at hundreds of live records it
        converges the same way with bounded per-sample error.
        """
        now = self.env.now
        if self.meter is None:
            return
        if not force and now - self._last_observed < self.tick / 2.0:
            return
        self._last_observed = now
        for receiver in self.receivers:
            receiver.table.expire(now)
        self.meter.observe(now)
        for meter in self._per_receiver_meters.values():
            meter.observe(now)
        tr = self._trace
        if tr is not None and tr.run:
            tr.emit(
                _RUN,
                "consistency_sample",
                now,
                value=self.meter._effective_value(self.meter._last_value),
                session=self._session_label,
            )

    # -- publisher actions --------------------------------------------------------------
    def insert(self, key: Any, value: Any, lifetime: float = math.inf) -> None:
        now = self.env.now
        record = self.publisher.put(key, value, now=now, lifetime=lifetime)
        for receiver in self.receivers:
            self.latency.introduced(
                (receiver.receiver_id, key), record.version, now
            )
        self._promote(key)
        if lifetime != math.inf:
            self._schedule_death(key, lifetime)
        self.observe()

    def update(self, key: Any, value: Any) -> None:
        now = self.env.now
        record = self.publisher.get(key)
        if record is None or not record.is_publisher_live(now):
            return
        self.publisher.revise(key, value, now)
        for receiver in self.receivers:
            self.latency.introduced(
                (receiver.receiver_id, key), record.version, now
            )
        self._promote(key)
        self.observe()

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
        for receiver in self.receivers:
            self.latency.abandoned(
                (receiver.receiver_id, key), record.version
            )
        self.publisher.delete(key)
        location = self._location.pop(key, None)
        if location is not None:
            self.scheduler.remove(location, key)
        machine = self.machines.pop(key, None)
        if machine is not None:
            machine.on_death()
        self._pending_repairs.pop(key, None)
        if hasattr(self.workload, "note_death"):
            self.workload.note_death(key)
        self.observe()

    # -- sender ---------------------------------------------------------------------------
    def _promote(self, key: Any) -> None:
        location = self._location.get(key)
        if location == HOT:
            return
        if location == COLD:
            self.scheduler.remove(COLD, key)
        machine = self.machines.get(key)
        if machine is None:
            machine = RecordStateMachine()
            self.machines[key] = machine
        elif machine.state is RecordState.COLD:
            machine.on_nack()
        self.scheduler.enqueue(HOT, key)
        self._location[key] = HOT
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _handle_nack(self, packet: Packet) -> None:
        seq = packet.payload["seq"]
        resolved = self._seq_to_key.get(seq)
        if resolved is None:
            return
        key, version = resolved
        record = self.publisher.get(key)
        if (
            record is None
            or not record.is_publisher_live(self.env.now)
            or record.version != version
        ):
            return
        self._pending_repairs.setdefault(key, set()).add(seq)
        if self._location.get(key) == COLD:
            self.repairs_transmitted += 1
            self._promote(key)

    def _sender_loop(self):
        while True:
            try:
                while True:
                    self.publisher.expire(self.env.now)
                    entry = self.scheduler.dequeue()
                    if entry is None:
                        self._wakeup = self.env.event()
                        yield self._wakeup
                        self._wakeup = None
                        continue
                    _, key = entry
                    self._location.pop(key, None)
                    record = self.publisher.get(key)
                    if record is None or not record.is_publisher_live(
                        self.env.now
                    ):
                        continue
                    seq = self._seq
                    self._seq += 1
                    self._seq_to_key[seq] = (key, record.version)
                    repairs = tuple(sorted(self._pending_repairs.pop(key, ())))
                    if repairs:
                        tr = self._trace
                        if tr is not None and tr.record:
                            # Span-closing marker: these seqs ride the
                            # announce queued below (docs/SPANS.md).
                            tr.emit(
                                _RECORD,
                                "repair_sent",
                                self.env.now,
                                key=key,
                                seqs=repairs,
                            )
                    packet = Packet(
                        kind="announce",
                        key=key,
                        seq=seq,
                        payload={
                            "key": key,
                            "value": record.value,
                            "version": record.version,
                            "expires_at": record.publisher_expiry,
                            "repairs": repairs,
                        },
                    )
                    self.ledger.add(
                        "repair" if repairs else "new", packet.size_bits
                    )
                    record.announcements += 1
                    yield self.data_channel.transmit(packet)
                    self.observe()
                    if self.publisher.get(key) is not None:
                        machine = self.machines[key]
                        machine.on_transmitted()
                        if self._location.get(key) != HOT:
                            self.scheduler.enqueue(COLD, key)
                            self._location[key] = COLD
            except Interrupt as interrupt:
                yield from self._crashed_sender(interrupt.cause)

    # -- fault support ---------------------------------------------------------------------
    def _note_receiver_expiry(self, record, now: float) -> None:
        if self.fault_tracker is None:
            return
        mine = self.publisher.get(record.key)
        if mine is not None and mine.is_publisher_live(now):
            self.fault_tracker.note_false_expiry(now, record.key)

    def _crashed_sender(self, crash):
        self._wakeup = None
        if getattr(crash, "cold", False):
            for key, location in list(self._location.items()):
                self.scheduler.remove(location, key)
            self._location.clear()
            for machine in self.machines.values():
                machine.on_death()
            self.machines.clear()
            self._pending_repairs.clear()
            for record in list(self.publisher):
                for receiver in self.receivers:
                    self.latency.abandoned(
                        (receiver.receiver_id, record.key), record.version
                    )
                if hasattr(self.workload, "note_death"):
                    self.workload.note_death(record.key)
            self.publisher.clear()
        yield self.env.timeout(crash.down_for)
        # Warm restart: unscheduled survivors rejoin the background
        # cycle; recovery happens at cold speed, as the paper predicts.
        for record in self.publisher.live_records(self.env.now):
            key = record.key
            if key in self._location:
                continue
            if key not in self.machines:
                self._promote(key)
                continue
            self.scheduler.enqueue(COLD, key)
            self._location[key] = COLD
        self.observe(force=True)

    def fault_crash_sender(self, crash) -> None:
        if self.sender_process is None:
            raise SimulationError(
                "session is not running; there is no sender to crash"
            )
        self.sender_process.interrupt(crash)

    def fault_outage_begin(self):
        token = []
        for channel in (self.data_channel, self.feedback_channel):
            token.append((channel, channel.shared_loss))
            channel.shared_loss = TotalLoss()
        return token

    def fault_outage_end(self, token) -> None:
        for channel, loss in token:
            channel.shared_loss = loss

    def fault_loss_overlay(self, make_model):
        token = [(self.data_channel, self.data_channel.shared_loss)]
        self.data_channel.shared_loss = CombinedLoss(
            [self.data_channel.shared_loss, make_model()]
        )
        return token

    def fault_loss_restore(self, token) -> None:
        for channel, loss in token:
            channel.shared_loss = loss

    def fault_receiver_ids(self) -> List[str]:
        return [receiver.receiver_id for receiver in self.receivers]

    def fault_receiver_leave(self, receiver_id: str, cold: bool = True) -> None:
        receiver = self._receiver_by_id[receiver_id]
        self.data_channel.leave(receiver_id)
        self.feedback_channel.block(receiver_id)
        receiver.unreachable = True
        if cold:
            receiver.table.clear()
            receiver.missing.clear()
            receiver._heard.clear()
            receiver._attempts.clear()
        self.observe(force=True)

    def fault_receiver_rejoin(self, receiver_id: str) -> None:
        receiver = self._receiver_by_id[receiver_id]
        # The sequence space that passed while away is unknown state to
        # relearn from the announcement cycle, not a burst of gaps.
        receiver._next_seq = self._seq
        receiver.missing.clear()
        receiver.unreachable = False
        self.data_channel.join(
            receiver_id,
            receiver.deliver,
            loss=self._receiver_loss[receiver_id],
        )
        self.feedback_channel.unblock(receiver_id)
        self.observe(force=True)

    def fault_partition_begin(self, groups) -> None:
        connected = sender_side(groups)
        for receiver in self.receivers:
            if receiver.receiver_id in connected:
                continue
            self.data_channel.block(receiver.receiver_id)
            self.feedback_channel.block(receiver.receiver_id)
            receiver.unreachable = True
            self._partition_state.append((receiver.receiver_id, receiver))
        self.observe(force=True)

    def fault_partition_end(self) -> None:
        for receiver_id, receiver in self._partition_state:
            self.data_channel.unblock(receiver_id)
            self.feedback_channel.unblock(receiver_id)
            # Partitioned members kept listening state; missed sequence
            # numbers are relearned, not NACK-stormed.
            receiver._next_seq = self._seq
            receiver.missing.clear()
            receiver.unreachable = False
        self._partition_state = []
        self.observe(force=True)

    def _ticker(self):
        while True:
            yield self.env.timeout(self.tick)
            self.observe()

    # -- running ------------------------------------------------------------------------------
    def run(self, horizon: float, warmup: float = 0.0) -> MulticastResult:
        if horizon <= warmup:
            raise ValueError(
                f"horizon ({horizon}) must exceed warmup ({warmup})"
            )
        self.env.process(
            self.workload.run(self.env, self, self.rng["workload"])
        )
        self.sender_process = self.env.process(self._sender_loop())
        self.env.process(self._ticker())
        if self.faults is not None:
            FaultInjector(self, self.faults, self.fault_tracker).start(
                horizon=horizon
            )
        self.env.run(until=warmup)
        self.meter = ConsistencyMeter(
            self.publisher,
            [receiver.table for receiver in self.receivers],
            start_time=warmup,
        )
        if self.fault_tracker is not None:
            self.meter.enable_series()
        for receiver in self.receivers:
            self._per_receiver_meters[receiver.receiver_id] = (
                ConsistencyMeter(
                    self.publisher, [receiver.table], start_time=warmup
                )
            )
        self.observe(force=True)
        self.env.run(until=horizon)
        self.observe(force=True)
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
            duration=horizon - warmup,
            bandwidth_bits=self.ledger.as_dict(),
            fault_reports=(
                self.fault_tracker.analyze(self.meter.series)
                if self.fault_tracker is not None
                else []
            ),
            false_expiries=(
                self.fault_tracker.false_expiries
                if self.fault_tracker is not None
                else 0
            ),
        )
