"""Shared machinery for protocol-level simulations.

Each protocol variant is packaged as a *session*: a publisher table
driven by a workload, a lossy data channel, one receiver, and the
metrics plumbing (consistency meter, latency recorder, bandwidth
ledger).  Sessions differ only in how the sender schedules
announcements and how (whether) the receiver feeds back.

The common lifecycle is::

    session = TwoQueueSession(...parameters...)
    result = session.run(horizon=2000.0, warmup=200.0)

``run`` executes the simulation and returns a :class:`ProtocolResult`.
Consistency statistics exclude the warmup interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

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
from repro.net import (
    BernoulliLoss,
    Channel,
    CombinedLoss,
    LossModel,
    Packet,
    TotalLoss,
)
from repro.obs import runtime as _obs
from repro.obs.trace import RECORD as _RECORD, RUN as _RUN
from repro.workloads import PoissonUpdateWorkload, Workload


@dataclass
class ProtocolResult:
    """Measured outcome of one protocol session run."""

    consistency: float
    mean_receive_latency: float
    latency_p95: float
    redundant_fraction: float
    data_packets: int
    delivered_packets: int
    observed_loss_rate: float
    feedback_packets: int = 0
    nacks_sent: int = 0
    nacks_delivered: int = 0
    duration: float = 0.0
    live_records: int = 0
    bandwidth_bits: Dict[str, float] = field(default_factory=dict)
    consistency_series: List[Tuple[float, float]] = field(default_factory=list)
    fault_reports: List[FaultReport] = field(default_factory=list)
    false_expiries: int = 0

    def as_row(self) -> Dict[str, float]:
        return {
            "consistency": self.consistency,
            "latency": self.mean_receive_latency,
            "redundant_fraction": self.redundant_fraction,
            "loss": self.observed_loss_rate,
        }


class SoftStateReceiver:
    """A subscriber: mirrors the table, detects losses by sequence gaps.

    Announcement packets carry ``(key, value, version, expires_at,
    repairs)``.  The receiver refreshes its copy, clears repaired gaps,
    and reports newly detected gaps to an optional ``on_gap`` callback
    (installed by the feedback protocol to emit NACKs).
    """

    def __init__(
        self,
        env: Environment,
        latency: LatencyRecorder,
        on_event=None,
        hold_multiple: Optional[float] = None,
        announce_interval_hint: Optional[float] = None,
        refresh_estimator=None,
    ) -> None:
        self.env = env
        self.table = SoftStateTable("subscriber")
        self.latency = latency
        #: Ambient tracer, cached at construction (guarded attribute).
        self._trace = _obs.current_tracer()
        #: Optional scalable-timers estimator (repro.sstp.timers): when
        #: set, hold times come from measured refresh intervals instead
        #: of a static announce_interval_hint.
        self.refresh_estimator = refresh_estimator
        self._on_event = on_event
        self.on_gap = None
        #: Optional callback invoked with every delivered packet
        #: (used by the ARQ baseline to emit per-packet ACKs).
        self.on_deliver = None
        self.hold_multiple = hold_multiple
        self.announce_interval_hint = announce_interval_hint
        self._next_seq = 0
        self.missing_seqs: set[int] = set()
        #: Bound on tracked holes: under hot-queue starvation losses
        #: outpace repairs indefinitely, and an unbounded set would turn
        #: the retry sweep quadratic.  Oldest holes are dropped first —
        #: the periodic cold announcements repair those eventually anyway.
        self.max_missing = 10000
        self.duplicates = 0
        self.receptions = 0

    def _hold_time(self, key: Any, expires_at: float) -> float:
        """Receiver-side expiry: publisher-announced death time, and
        optionally a soft-state timer of ``hold_multiple`` announcement
        intervals (the Sharma et al. scalable-timers knob) — either a
        static hint or a measured estimate."""
        hold = max(expires_at - self.env.now, 1e-9)
        if self.refresh_estimator is not None:
            return min(hold, self.refresh_estimator.hold_time(key))
        if self.hold_multiple is not None:
            if self.announce_interval_hint is None:
                raise ValueError(
                    "hold_multiple requires announce_interval_hint"
                )
            hold = min(
                hold, self.hold_multiple * self.announce_interval_hint
            )
        return hold

    def deliver(self, packet: Packet) -> None:
        """Channel sink for data packets."""
        self.receptions += 1
        payload = packet.payload
        now = self.env.now
        # Gap detection on the channel sequence number.
        if packet.seq is not None:
            if packet.seq >= self._next_seq:
                new_missing = set(range(self._next_seq, packet.seq))
                self._next_seq = packet.seq + 1
                if new_missing:
                    self.missing_seqs |= new_missing
                    if len(self.missing_seqs) > self.max_missing:
                        for stale in sorted(self.missing_seqs)[
                            : len(self.missing_seqs) - self.max_missing
                        ]:
                            self.missing_seqs.discard(stale)
                    if self.on_gap is not None:
                        self.on_gap(sorted(new_missing))
            # Clear any gaps this packet explicitly repairs.
            for repaired in payload.get("repairs", ()):
                self.missing_seqs.discard(repaired)

        key = payload["key"]
        version = payload["version"]
        if self.refresh_estimator is not None:
            self.refresh_estimator.observe(key, now)
        existing = self.table.get(key)
        if (
            existing is not None
            and existing.version >= version
            and existing.is_subscriber_live(now)
        ):
            self.duplicates += 1
            self.table.refresh(key, now)
            if self.refresh_estimator is not None:
                existing.hold_time = self._hold_time(
                    key, payload["expires_at"]
                )
                # Direct timer edit bypasses put(): a shrink must reach
                # the table's expiry heap and its watchers.
                self.table.bound_expiry(key)
            tr = self._trace
            if tr is not None and tr.record:
                # ``hold`` is the timer actually granted — the spec
                # checker derives each record's true expiry deadline
                # from (refresh time, hold) pairs.
                tr.emit(
                    _RECORD,
                    "refresh_received",
                    now,
                    key=key,
                    version=existing.version,
                    hold=existing.hold_time,
                    table=self.table.trace_id,
                )
        else:
            stored = self.table.put(
                key,
                payload["value"],
                now=now,
                version=version,
                hold_time=self._hold_time(key, payload["expires_at"]),
            )
            self.latency.received(key, version, now)
            tr = self._trace
            if tr is not None and tr.record:
                tr.emit(
                    _RECORD,
                    "refresh_received",
                    now,
                    key=key,
                    version=stored.version,
                    hold=stored.hold_time,
                    table=self.table.trace_id,
                )
        self.table.expire(now)
        if self.on_deliver is not None:
            self.on_deliver(packet)
        if self._on_event is not None:
            self._on_event(now)

    def expire_now(self) -> None:
        self.table.expire(self.env.now)


class BaseSession:
    """Common state and helpers for the soft-state protocol sessions."""

    def __init__(
        self,
        data_kbps: float,
        loss_rate: float = 0.0,
        update_rate: Optional[float] = None,
        lifetime_mean: float = 20.0,
        workload: Optional[Workload] = None,
        seed: int = 0,
        loss_model: Optional[LossModel] = None,
        hold_multiple: Optional[float] = None,
        refresh_estimator=None,
        tick: float = 1.0,
        record_series: bool = False,
        empty_policy: str = "zero",
        faults=None,
    ) -> None:
        if data_kbps <= 0:
            raise ValueError(f"data_kbps must be positive, got {data_kbps}")
        if workload is None:
            if update_rate is None:
                raise ValueError("provide either update_rate or workload")
            workload = PoissonUpdateWorkload(
                arrival_rate=update_rate, lifetime_mean=lifetime_mean
            )
        self.env = Environment()
        self.rng = RngStreams(seed=seed)
        self.data_kbps = data_kbps
        self.workload = workload
        self.tick = tick
        self.record_series = record_series
        self.empty_policy = empty_policy

        loss = loss_model
        if loss is None:
            loss = BernoulliLoss(loss_rate, rng=self.rng["loss"])
        self.data_channel = Channel(self.env, data_kbps, loss=loss)

        self.publisher = SoftStateTable("publisher")
        # Deterministic per-cell session label ("s0", "s1", ...) keys
        # this session's series in the ambient metric registry.
        session_label = _obs.next_session_label()
        self._session_label = session_label
        #: Ambient tracer, cached at construction (guarded attribute).
        self._trace = _obs.current_tracer()
        protocol = type(self).__name__
        self.latency = LatencyRecorder(
            session=session_label, protocol=protocol
        )
        self.ledger = BandwidthLedger(session=session_label, protocol=protocol)
        self.receiver = SoftStateReceiver(
            self.env,
            self.latency,
            on_event=self._observe,
            hold_multiple=hold_multiple,
            announce_interval_hint=self._announce_interval_hint(),
            refresh_estimator=refresh_estimator,
        )
        self.data_channel.subscribe(self._deliver_data)

        self.meter: Optional[ConsistencyMeter] = None
        self._last_observe = -math.inf
        self._seq = 0
        self._seq_to_key: Dict[int, Tuple[Any, int]] = {}
        self._wakeup = None
        self._first_tx_done: set[Tuple[Any, int]] = set()
        self.nacks_sent = 0
        self.nacks_delivered = 0

        #: Fault-injection state.  A schedule forces series recording
        #: (recovery analysis needs the consistency time series) and
        #: hooks receiver-side expirations for false-expiry counting.
        self.faults = faults
        self.fault_tracker: Optional[RecoveryTracker] = None
        if faults is not None:
            self.fault_tracker = RecoveryTracker()
            self.record_series = True
            self.receiver.table.on_expire(self._note_receiver_expiry)
        self.sender_process = None
        self._receiver_attached = True
        self._partition_token = None

    # -- subclass responsibilities ---------------------------------------------
    def _enqueue_new(self, key: Any) -> None:
        """Place a newly inserted/updated record for transmission."""
        raise NotImplementedError

    def _dequeue_next(self):
        """Pick the next record key to announce, or None when idle."""
        raise NotImplementedError

    def _after_service(self, key: Any, lost: bool) -> None:
        """Post-transmission bookkeeping (re-enqueue, state machine)."""
        raise NotImplementedError

    def _drop_from_queues(self, key: Any) -> None:
        """Remove a dying record from all transmission queues."""
        raise NotImplementedError

    def _clear_queues(self) -> None:
        """Empty every transmission queue (cold sender restart)."""
        raise NotImplementedError

    def _requeue_missing(self, key: Any) -> None:
        """Ensure a live record is scheduled again (warm sender restart).

        The default treats it like a fresh insert; schedulers that would
        be distorted by a full-table burst (e.g. the two-queue HOT list)
        override this to requeue only records not already scheduled.
        """
        self._enqueue_new(key)

    def _announce_interval_hint(self) -> Optional[float]:
        """Expected per-record announcement interval (for hold timers)."""
        return None

    def feedback_packets_count(self) -> int:
        return 0

    # -- publisher actions (workload-facing) -------------------------------------
    def insert(self, key: Any, value: Any, lifetime: float = math.inf) -> None:
        now = self.env.now
        record = self.publisher.put(key, value, now=now, lifetime=lifetime)
        self.latency.introduced(key, record.version, now)
        self._enqueue_new(key)
        if lifetime != math.inf:
            self._schedule_death(key, lifetime)
        self._observe(now)
        self._wake_sender()

    def update(self, key: Any, value: Any) -> None:
        now = self.env.now
        record = self.publisher.get(key)
        if record is None or not record.is_publisher_live(now):
            return
        self.publisher.revise(key, value, now)
        self.latency.introduced(key, record.version, now)
        self._first_tx_done.discard((key, record.version))
        self._enqueue_new(key)
        self._observe(now)
        self._wake_sender()

    def delete(self, key: Any) -> None:
        self._kill(key)

    # -- internals -----------------------------------------------------------------
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
        self._drop_from_queues(key)
        if hasattr(self.workload, "note_death"):
            self.workload.note_death(key)
        # The receiver's copy expires on its own announced timer (the
        # paper's synchronized elimination from both tables).
        self._observe(self.env.now)

    def _wake_sender(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _observe(self, now: float, force: bool = False) -> None:
        """Sample the consistency meter.

        A sample costs O(keys changed since the last sample): the meter
        re-evaluates only reported and timed-out keys.  Samples stay
        rate-limited to every ``tick/4`` seconds (the run start/end are
        forced) because that grid defines the sampled time-average every
        render reports; with live sets of hundreds of records it matches
        the exact one to well under 0.01.
        """
        if self.meter is None:
            return
        if not force and now - self._last_observe < self.tick / 4.0:
            return
        self._last_observe = now
        self.receiver.table.expire(now)
        self.meter.observe(now)
        tr = self._trace
        if tr is not None and tr.run:
            tr.emit(
                _RUN,
                "consistency_sample",
                now,
                value=self.meter._effective_value(self.meter._last_value),
                session=self._session_label,
            )

    def _make_packet(self, key: Any, repairs: Tuple[int, ...] = ()) -> Packet:
        record = self.publisher.get(key)
        seq = self._seq
        self._seq += 1
        self._seq_to_key[seq] = (key, record.version)
        # Bound the seq map: old entries are useless once repaired/expired.
        if len(self._seq_to_key) > 100000:
            for stale in sorted(self._seq_to_key)[:50000]:
                del self._seq_to_key[stale]
        return Packet(
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

    def _account_transmission(self, key: Any, packet: Packet) -> None:
        """Classify the transmission for the bandwidth ledger
        (omniscient view, as a simulator may have)."""
        record = self.publisher.get(key)
        identity = (key, record.version)
        mirror = self.receiver.table.get(key)
        if identity not in self._first_tx_done:
            self._first_tx_done.add(identity)
            category = "new"
        elif (
            mirror is not None
            and mirror.version >= record.version
            and mirror.is_subscriber_live(self.env.now)
        ):
            category = "redundant"
        else:
            category = "repair"
        self.ledger.add(category, packet.size_bits)

    def _sender_loop(self):
        while True:
            try:
                while True:
                    self.publisher.expire(self.env.now)
                    key = self._dequeue_next()
                    if key is None:
                        self._wakeup = self.env.event()
                        yield self._wakeup
                        self._wakeup = None
                        continue
                    record = self.publisher.get(key)
                    if record is None or not record.is_publisher_live(
                        self.env.now
                    ):
                        continue
                    packet = self._make_packet(key)
                    self._account_transmission(key, packet)
                    record.announcements += 1
                    lost = yield self.data_channel.transmit(packet)
                    self._observe(self.env.now)
                    self._after_service(key, lost)
            except Interrupt as interrupt:
                yield from self._crashed_sender(interrupt.cause)

    # -- fault support -------------------------------------------------------------
    def _deliver_data(self, packet: Packet) -> None:
        """Channel sink: gate deliveries on receiver membership.

        A receiver taken down by churn or a crash simply stops hearing
        announcements; its soft state then ages out on its own timers.
        """
        if self._receiver_attached:
            self.receiver.deliver(packet)

    def _note_receiver_expiry(self, record, now: float) -> None:
        """Count receiver expirations of data the publisher still holds.

        This is the scalable-timers false-sharing cost: with a small
        hold multiple, a crashed (but recovering) sender looks dead and
        receivers discard perfectly valid state.
        """
        if self.fault_tracker is None:
            return
        mine = self.publisher.get(record.key)
        if mine is not None and mine.is_publisher_live(now):
            self.fault_tracker.note_false_expiry(now, record.key)

    def _crashed_sender(self, crash):
        """Resumed inside the sender process after an interrupt."""
        self._wakeup = None
        if getattr(crash, "cold", False):
            self._lose_publisher_state()
        yield self.env.timeout(crash.down_for)
        self._restart_sender()
        self._observe(self.env.now, force=True)

    def _restart_sender(self) -> None:
        """Warm restart: rescan the surviving table into the queues."""
        for record in self.publisher.live_records(self.env.now):
            self._requeue_missing(record.key)

    def _lose_publisher_state(self) -> None:
        """Cold restart: the publisher table itself is gone."""
        for record in list(self.publisher):
            self.latency.abandoned(record.key, record.version)
            if hasattr(self.workload, "note_death"):
                self.workload.note_death(record.key)
        self.publisher.clear()
        self._clear_queues()

    # Hooks consumed by repro.faults (duck-typed; absence of a hook
    # means the session rejects that fault class).
    def fault_crash_sender(self, crash) -> None:
        """Interrupt the sender process for ``crash.down_for`` seconds."""
        if self.sender_process is None:
            raise SimulationError(
                "session is not running; there is no sender to crash"
            )
        self.sender_process.interrupt(crash)

    def _fault_channels(self) -> List[Channel]:
        """Every channel severed by an outage or partition."""
        return [self.data_channel]

    def _fault_data_channels(self) -> List[Channel]:
        """Forward-path channels overlaid by a loss episode."""
        return [self.data_channel]

    def fault_outage_begin(self):
        token = []
        for channel in self._fault_channels():
            token.append((channel, channel.loss))
            channel.loss = TotalLoss()
        return token

    def fault_outage_end(self, token) -> None:
        for channel, loss in token:
            channel.loss = loss

    def fault_loss_overlay(self, make_model):
        token = []
        for channel in self._fault_data_channels():
            token.append((channel, channel.loss))
            channel.loss = CombinedLoss([channel.loss, make_model()])
        return token

    def fault_loss_restore(self, token) -> None:
        for channel, loss in token:
            channel.loss = loss

    def fault_receiver_ids(self) -> List[Any]:
        return ["receiver"]

    def fault_receiver_leave(self, receiver_id: Any, cold: bool = True) -> None:
        self._receiver_attached = False
        if cold:
            # Not an expiry: the receiver lost its state, it did not
            # time anything out, so no false-expiry events fire.
            self.receiver.table.clear()
        self._observe(self.env.now, force=True)

    def fault_receiver_rejoin(self, receiver_id: Any) -> None:
        self._receiver_attached = True
        # Sequence numbering restarts from "now": everything missed
        # while away is not a gap to NACK, it is simply unknown state
        # to be relearned from the announcement stream.
        self.receiver._next_seq = self._seq
        self.receiver.missing_seqs.clear()
        self._observe(self.env.now, force=True)

    def fault_partition_begin(self, groups) -> None:
        if "receiver" in sender_side(groups):
            self._partition_token = None
        else:
            self._partition_token = self.fault_outage_begin()

    def fault_partition_end(self) -> None:
        if self._partition_token is not None:
            self.fault_outage_end(self._partition_token)
            self._partition_token = None

    def _ticker(self):
        while True:
            yield self.env.timeout(self.tick)
            self._observe(self.env.now)

    # -- running -------------------------------------------------------------------
    def run(self, horizon: float, warmup: float = 0.0) -> ProtocolResult:
        if horizon <= warmup:
            raise ValueError(
                f"horizon ({horizon}) must exceed warmup ({warmup})"
            )
        #: Kept so failure-injection tests can interrupt the workload
        #: (e.g. to model a publisher crash that stops all updates).
        self.workload_process = self.env.process(
            self.workload.run(self.env, self, self.rng["workload"])
        )
        self.sender_process = self.env.process(self._sender_loop())
        self.env.process(self._ticker())
        self._start_extra_processes()
        if self.faults is not None:
            FaultInjector(self, self.faults, self.fault_tracker).start(
                horizon=horizon
            )
        self.env.run(until=warmup)
        self.meter = ConsistencyMeter(
            self.publisher,
            [self.receiver.table],
            empty_policy=self.empty_policy,
            start_time=warmup,
        )
        if self.record_series:
            self.meter.enable_series()
        self._observe(warmup, force=True)  # seed the meter at warmup
        self.env.run(until=horizon)
        self._observe(horizon, force=True)
        return self._result(horizon - warmup)

    def _start_extra_processes(self) -> None:
        """Hook for subclasses (feedback loops, report timers)."""

    def _result(self, duration: float) -> ProtocolResult:
        channel = self.data_channel
        return ProtocolResult(
            consistency=self.meter.average(),
            mean_receive_latency=self.latency.mean(),
            latency_p95=self.latency.percentile(95),
            redundant_fraction=self.ledger.redundant_fraction(),
            data_packets=channel.packets_sent,
            delivered_packets=channel.packets_delivered,
            observed_loss_rate=channel.observed_loss_rate,
            feedback_packets=self.feedback_packets_count(),
            nacks_sent=self.nacks_sent,
            nacks_delivered=self.nacks_delivered,
            duration=duration,
            live_records=len(self.publisher.live_records(self.env.now)),
            bandwidth_bits=self.ledger.as_dict(),
            consistency_series=(
                self.meter.running_average_series()
                if self.record_series
                else []
            ),
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
