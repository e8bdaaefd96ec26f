"""The unicast protocol ladder's session and receiver.

Each unicast protocol variant is a :class:`BaseSession`: the shared
:mod:`~repro.protocols.session` skeleton (publisher table, workload,
run loop, fault surface) over one lossy data channel and one
:class:`SoftStateReceiver`.  Variants differ only in how the sender
schedules announcements and how (whether) the receiver feeds back.

The common lifecycle is::

    session = TwoQueueSession(...parameters...)
    result = session.run(horizon=2000.0, warmup=200.0)

``run`` executes the simulation and returns a :class:`ProtocolResult`.
Consistency statistics exclude the warmup interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core import FaultReport, LatencyRecorder, SoftStateTable
from repro.des import Environment
from repro.faults import sender_side
from repro.net import BernoulliLoss, Channel, LossModel, Packet
from repro.obs import runtime as _obs
from repro.obs.trace import RECORD as _RECORD
from repro.protocols.session import FaultSurface, PublisherLifecycle, Session
from repro.workloads import Workload


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
        self.receiver_id = "receiver"
        #: Set while churned out: deliveries stop and no feedback leaves.
        self.detached = False

    def forget(self) -> None:
        """A crash: the mirror is gone (gap state waits for :meth:`resync`)."""
        self.table.clear()

    def resync(self, next_seq: int) -> None:
        """Resume gap detection at ``next_seq``, owing nothing before it."""
        self._next_seq = next_seq
        self.missing_seqs.clear()

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
        seq = packet.seq
        if seq is not None:
            if seq == self._next_seq:
                self._next_seq = seq + 1
            elif seq > self._next_seq:
                new_missing = set(range(self._next_seq, seq))
                self._next_seq = seq + 1
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
            stored = existing
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
            # ``hold`` is the timer actually granted — the spec checker
            # derives each record's true expiry deadline from (refresh
            # time, hold) pairs.
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


class BaseSession(FaultSurface, PublisherLifecycle, Session):
    """A unicast session: one data channel, one :class:`SoftStateReceiver`.

    Subclasses supply the :class:`PublisherLifecycle` queue hooks; the
    ledger classifies each announcement from an omniscient view of the
    receiver (new / redundant / repair).
    """

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
        faults=None,
    ) -> None:
        if data_kbps <= 0:
            raise ValueError(f"data_kbps must be positive, got {data_kbps}")
        workload = self._default_workload(workload, update_rate, lifetime_mean)
        super().__init__(seed=seed, tick=tick, faults=faults, workload=workload)
        self.data_kbps = data_kbps
        self.record_series = record_series or faults is not None

        loss = loss_model
        if loss is None:
            loss = BernoulliLoss(loss_rate, rng=self.rng["loss"])
        self.data_channel = Channel(self.env, data_kbps, loss=loss)
        self.receiver = SoftStateReceiver(
            self.env,
            self.latency,
            on_event=self._observe,
            hold_multiple=hold_multiple,
            refresh_estimator=refresh_estimator,
        )
        self._add_receiver(self.receiver)
        self.data_channel.subscribe(self._deliver_data)

        self._first_tx_done: set[Tuple[Any, int]] = set()
        self.nacks_sent = 0
        self.nacks_delivered = 0
        self._partition_token = None

    def feedback_packets_count(self) -> int:
        return 0

    def _updated(self, key: Any, version: int) -> None:
        self._first_tx_done.discard((key, version))
        self._enqueue_new(key)

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

    # -- fault support -------------------------------------------------------------
    def _deliver_data(self, packet: Packet) -> None:
        """Channel sink: gate deliveries on receiver membership.

        A receiver taken down by churn or a crash simply stops hearing
        announcements; its soft state then ages out on its own timers.
        """
        if not self.receiver.detached:
            self.receiver.deliver(packet)

    def _cut_off(self, receiver, leave: bool) -> None:
        # Unicast channels have no membership: deliveries are gated in
        # _deliver_data instead.
        receiver.detached = True

    def _reconnect(self, receiver, join: bool) -> None:
        receiver.detached = False
        # Sequence numbering restarts from "now": everything missed
        # while away is not a gap to NACK, it is simply unknown state
        # to be relearned from the announcement stream.
        receiver.resync(self._seq)

    def fault_partition_begin(self, groups) -> None:
        # One receiver: cutting it off severs every channel of the path.
        if "receiver" in sender_side(groups):
            self._partition_token = None
        else:
            self._partition_token = self.fault_outage_begin()

    def fault_partition_end(self) -> None:
        if self._partition_token is not None:
            self.fault_outage_end(self._partition_token)
            self._partition_token = None

    # -- results -------------------------------------------------------------------
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
            **self._fault_fields(self.meter.series),
        )
