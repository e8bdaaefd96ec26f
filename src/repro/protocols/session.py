"""The session skeleton every protocol family shares.

A *session* is one publisher, its receivers and the channels between
them, driven for a fixed horizon.  The families differ in how they
schedule and repair announcements, not in how a run is driven:

* the unicast ladder (:mod:`repro.protocols.base` and its subclasses);
* the multicast group (:mod:`repro.protocols.multicast`);
* the island gateway (:mod:`repro.protocols.gateway`);
* SSTP (:mod:`repro.sstp.api`).

:class:`Session` owns what they all share: the construction preamble
(kernel, RNG streams, session label, cached tracer, latency recorder,
fault tracker and, for workload-driven families, the publisher table,
bandwidth ledger and workload), rate-limited consistency sampling, the
sample ticker and the ``run(horizon, warmup)`` template.  Two mixins
carry what only some families have:

* :class:`PublisherLifecycle` — the publisher the workload drives
  (``insert``/``update``/``delete`` and death timers) and the
  crash-tolerant announcement loop over the family's queue hooks (the
  unicast ladder, the multicast group and the gateway);
* :class:`FaultSurface` — one fault surface over the session's channels
  and receivers (every family but the gateway).

A family names its channels and receivers and supplies its queue hooks
(or its own sender loop), its meters and its result row.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.core import (
    BandwidthLedger,
    ConsistencyMeter,
    LatencyRecorder,
    RecoveryTracker,
    SoftStateTable,
)
from repro.des import Environment, Interrupt, RngStreams, SimulationError
from repro.faults import FaultInjector, sender_side
from repro.net import CombinedLoss, Packet, TotalLoss
from repro.obs import runtime as _obs
from repro.obs.trace import RUN as _RUN
from repro.workloads import PoissonUpdateWorkload, Workload


class Session:
    """Construction preamble, sampling and run loop of one session."""

    #: Consistency is sampled at most every ``tick * SAMPLE_FRACTION``
    #: seconds (forced samples aside); 0 samples on every call.  The
    #: grid defines the sampled time-average every render reports.
    SAMPLE_FRACTION = 0.25

    def __init__(
        self,
        seed: int = 0,
        tick: float = 1.0,
        faults=None,
        workload: Optional[Workload] = None,
    ) -> None:
        self.env = Environment()
        self.rng = RngStreams(seed=seed)
        self.tick = tick
        self._sample_every = tick * self.SAMPLE_FRACTION
        # Deterministic per-cell session label ("s0", "s1", ...) keys
        # this session's series in the ambient metric registry.
        self._session_label = _obs.next_session_label()
        #: Ambient tracer, cached at construction (guarded attribute).
        self._trace = _obs.current_tracer()
        protocol = type(self).__name__
        self.latency = LatencyRecorder(
            session=self._session_label, protocol=protocol
        )
        #: Fault-injection state.  A schedule forces series recording:
        #: recovery analysis needs the consistency time series.
        self.faults = faults
        self.fault_tracker: Optional[RecoveryTracker] = None
        if faults is not None:
            self.fault_tracker = RecoveryTracker()
        self.record_series = faults is not None
        #: The update process driving the publisher table; None for a
        #: family that publishes through its own API (SSTP).
        self.workload = workload
        if workload is not None:
            self.publisher = SoftStateTable("publisher")
            self.ledger = BandwidthLedger(
                session=self._session_label, protocol=protocol
            )
        self.receivers: List[Any] = []
        self._receiver_by_id: Dict[Any, Any] = {}
        self._partitioned: List[Any] = []
        self.meter: Optional[ConsistencyMeter] = None
        self._meters: List[Any] = []
        self._last_observe = -math.inf
        self.sender_process = None
        self.workload_process = None
        self._wakeup = None
        self._seq = 0
        self._seq_to_key: Dict[int, Tuple[Any, int]] = {}

    @staticmethod
    def _default_workload(
        workload: Optional[Workload],
        update_rate: Optional[float],
        lifetime_mean: float,
        **kwargs,
    ) -> Workload:
        """``workload``, else a Poisson process at ``update_rate``."""
        if workload is not None:
            return workload
        if update_rate is None:
            raise ValueError("provide either update_rate or workload")
        return PoissonUpdateWorkload(
            arrival_rate=update_rate, lifetime_mean=lifetime_mean, **kwargs
        )

    def _add_receiver(self, receiver) -> None:
        self.receivers.append(receiver)
        self._receiver_by_id[receiver.receiver_id] = receiver

    # -- family responsibilities ---------------------------------------------------
    def _start_processes(self) -> None:
        """Start the family's processes and the sample ticker."""
        raise NotImplementedError

    def _result(self, duration: float):
        raise NotImplementedError

    # -- sampling --------------------------------------------------------------------
    def _mirror_tables(self) -> List[SoftStateTable]:
        """The receiver tables the main consistency meter compares."""
        return [receiver.table for receiver in self.receivers]

    def _extra_meters(self, warmup: float) -> List[ConsistencyMeter]:
        """Meters sampled alongside the main one (per-receiver, ...)."""
        return []

    def _start_meters(self, warmup: float) -> None:
        """Build the meters at the end of warmup and take a first sample."""
        self.meter = ConsistencyMeter(
            self.publisher,
            self._mirror_tables(),
            start_time=warmup,
        )
        if self.record_series:
            self.meter.enable_series()
        self._meters = [self.meter, *self._extra_meters(warmup)]
        self._observe(warmup, force=True)

    def _sample(self, now: float) -> Optional[float]:
        """Sample every meter at ``now``; return the value to trace."""
        for table in self._mirror_tables():
            table.expire(now)
        for meter in self._meters:
            meter.observe(now)
        return self.meter._last_value or 0.0

    def _observe(self, now: float, force: bool = False) -> None:
        """Sample the consistency meters, rate-limited.

        A sample costs O(keys changed since the last sample): the meter
        re-evaluates only reported and timed-out keys.  Samples stay
        rate-limited to the ``SAMPLE_FRACTION`` grid (the run start/end
        and fault edges are forced); with live sets of hundreds of
        records the sampled average matches the exact one to well under
        0.01.
        """
        if not self._meters:
            return
        if not force and now - self._last_observe < self._sample_every:
            return
        self._last_observe = now
        value = self._sample(now)
        tr = self._trace
        if tr is not None and tr.run:
            tr.emit(
                _RUN,
                "consistency_sample",
                now,
                value=value,
                session=self._session_label,
            )

    def _ticker(self):
        while True:
            yield self.env.timeout(self.tick)
            self._observe(self.env.now)

    # -- running -------------------------------------------------------------------
    def run(self, horizon: float, warmup: float = 0.0):
        """Simulate to ``horizon``; statistics exclude the warmup."""
        if horizon <= warmup:
            raise ValueError(
                f"horizon ({horizon}) must exceed warmup ({warmup})"
            )
        self._start_processes()
        if self.fault_tracker is not None:
            for table in self._mirror_tables():
                table.on_expire(self._note_receiver_expiry)
            FaultInjector(self, self.faults, self.fault_tracker).start(
                horizon=horizon
            )
        self.env.run(until=warmup)
        self._start_meters(warmup)
        self.env.run(until=horizon)
        self._observe(horizon, force=True)
        return self._result(horizon - warmup)

    def _fault_fields(self, series) -> Dict[str, Any]:
        """The result fields every fault-aware family reports."""
        tracker = self.fault_tracker
        return {
            "fault_reports": (
                tracker.analyze(series) if tracker is not None else []
            ),
            "false_expiries": (
                tracker.false_expiries if tracker is not None else 0
            ),
        }

    def _note_receiver_expiry(self, record, now: float) -> None:
        """Count receiver expirations of data the publisher still holds.

        This is the scalable-timers false-sharing cost: with a small
        hold multiple, a crashed (but recovering) sender looks dead and
        receivers discard perfectly valid state.
        """
        mine = self.publisher.get(record.key)
        if mine is not None and mine.is_publisher_live(now):
            self.fault_tracker.note_false_expiry(now, record.key)


class PublisherLifecycle:
    """The workload-driven publisher and its announcement loop.

    A mixin for :class:`Session` families that announce a publisher
    table: the workload drives ``insert``/``update``/``delete`` and the
    family supplies the queue hooks the sender loop calls.
    """

    # -- family responsibilities ---------------------------------------------------
    def _enqueue_new(self, key: Any) -> None:
        """Place a newly inserted/updated record for transmission."""
        raise NotImplementedError

    def _dequeue_next(self):
        """Pick the next record key to announce, or None when idle."""
        raise NotImplementedError

    def _after_service(self, key: Any, lost) -> None:
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

    def _updated(self, key: Any, version: int) -> None:
        """Schedule a revised record: it is new data again."""
        self._enqueue_new(key)

    def _account_transmission(self, key: Any, packet: Packet) -> None:
        """Book one announcement in the bandwidth ledger."""
        raise NotImplementedError

    def _introduced(self, key: Any, version: int, now: float) -> None:
        self.latency.introduced(key, version, now)

    def _abandoned(self, key: Any, version: int) -> None:
        self.latency.abandoned(key, version)

    def _start_processes(self) -> None:
        """Start the workload, the sender and the sample ticker."""
        #: Kept so failure-injection tests can interrupt the workload
        #: (e.g. to model a publisher crash that stops all updates).
        self.workload_process = self.env.process(
            self.workload.run(self.env, self, self.rng["workload"])
        )
        self.sender_process = self.env.process(self._sender_loop())
        self.env.process(self._ticker())

    # -- publisher actions (workload-facing) -------------------------------------
    def insert(self, key: Any, value: Any, lifetime: float = math.inf) -> None:
        now = self.env.now
        record = self.publisher.put(key, value, now=now, lifetime=lifetime)
        self._introduced(key, record.version, now)
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
        self._introduced(key, record.version, now)
        self._updated(key, record.version)
        self._observe(now)
        self._wake_sender()

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
        self._abandoned(key, record.version)
        self.publisher.delete(key)
        self._drop_from_queues(key)
        self.workload.note_death(key)
        # The receiver's copy expires on its own announced timer (the
        # paper's synchronized elimination from both tables).
        self._observe(self.env.now)

    # -- the announcement loop -----------------------------------------------------
    def _wake_sender(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

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

    def _crashed_sender(self, crash):
        """Resumed inside the sender process after an interrupt."""
        self._wakeup = None
        if crash.cold:
            self._lose_publisher_state()
        yield self.env.timeout(crash.down_for)
        # Warm restart: rescan the surviving table into the queues.
        for record in self.publisher.live_records(self.env.now):
            self._requeue_missing(record.key)
        self._observe(self.env.now, force=True)

    def _lose_publisher_state(self) -> None:
        """Cold restart: the publisher table itself is gone."""
        for record in list(self.publisher):
            self._abandoned(record.key, record.version)
            self.workload.note_death(record.key)
        self.publisher.clear()
        self._clear_queues()


class FaultSurface:
    """The fault hooks :mod:`repro.faults` drives, for :class:`Session`.

    Duck-typed: the absence of a hook means the session rejects that
    fault class, so only families that serve every hook take this
    mixin.  A family gets the whole surface by naming its channels
    (``_fault_channels``) and registering its receivers.
    """

    def _fault_channels(self) -> list:
        """Every channel an outage severs."""
        return [self.data_channel]

    def _fault_data_channels(self) -> list:
        """Forward-path channels a loss episode overlays."""
        return [self.data_channel]

    def fault_crash_sender(self, crash) -> None:
        """Interrupt the sender process for ``crash.down_for`` seconds."""
        if self.sender_process is None:
            raise SimulationError(
                "session is not running; there is no sender to crash"
            )
        self.sender_process.interrupt(crash)

    @staticmethod
    def _swap_losses(channels, replace) -> list:
        token = []
        for channel in channels:
            token.append((channel, channel.loss))
            channel.loss = replace(channel.loss)
        return token

    def fault_outage_begin(self):
        return self._swap_losses(
            self._fault_channels(), lambda loss: TotalLoss()
        )

    def fault_outage_end(self, token) -> None:
        for channel, loss in token:
            channel.loss = loss

    def fault_loss_overlay(self, make_model):
        return self._swap_losses(
            self._fault_data_channels(),
            lambda loss: CombinedLoss([loss, make_model()]),
        )

    fault_loss_restore = fault_outage_end

    def fault_receiver_ids(self) -> List[Any]:
        return [receiver.receiver_id for receiver in self.receivers]

    def fault_receiver_leave(self, receiver_id: Any, cold: bool = True) -> None:
        receiver = self._receiver_by_id[receiver_id]
        self._cut_off(receiver, leave=True)
        if cold:
            # Not an expiry: the receiver lost its state, it did not
            # time anything out, so no false-expiry events fire.
            receiver.forget()
        self._observe(self.env.now, force=True)

    def fault_receiver_rejoin(self, receiver_id: Any) -> None:
        self._reconnect(self._receiver_by_id[receiver_id], join=True)
        self._observe(self.env.now, force=True)

    def fault_partition_begin(self, groups) -> None:
        connected = sender_side(groups)
        self._partitioned = [
            receiver
            for receiver in self.receivers
            if receiver.receiver_id not in connected
        ]
        for receiver in self._partitioned:
            self._cut_off(receiver, leave=False)
        self._observe(self.env.now, force=True)

    def fault_partition_end(self) -> None:
        # Partitioned members kept their state and simply aged.
        for receiver in self._partitioned:
            self._reconnect(receiver, join=False)
        self._partitioned = []
        self._observe(self.env.now, force=True)

    def _cut_off(self, receiver, leave: bool) -> None:
        """Take ``receiver`` off the network (churn ``leave`` or a
        partition).  A detached receiver hears nothing and sends no
        feedback: every receiver's feedback path checks ``detached``."""
        receiver.detached = True
        if leave:
            self.data_channel.leave(receiver.receiver_id)
        else:
            self.data_channel.block(receiver.receiver_id)

    def _reconnect(self, receiver, join: bool) -> None:
        """Undo :meth:`_cut_off`: rejoin with the receiver's own loss."""
        receiver.detached = False
        receiver_id = receiver.receiver_id
        if join:
            self.data_channel.join(
                receiver_id,
                receiver.deliver,
                loss=self._receiver_loss[receiver_id],
            )
        else:
            self.data_channel.unblock(receiver_id)
