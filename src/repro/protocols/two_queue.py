"""The two-transmission-queue schemes (Section 4).

Two variants:

* :class:`TwoQueueSession` — one data channel whose bandwidth is shared
  *proportionally* between hot and cold queues (work-conserving, the
  paper's preferred arrangement for Figure 5);
* :class:`RateCappedTwoQueueSession` — hot and cold each get a strict
  rate cap with no borrowing (separate serializers).  Figure 6's sweep
  "increasing mu_cold (and hence mu_data) while maintaining mu_hot just
  above the arrival rate" needs this variant: with borrowing, idle hot
  bandwidth would flow to cold and erase the mu_cold axis.

The sender differentiates new from old data: a "hot" (foreground) queue
carries records never yet transmitted (or just updated), and a "cold"
(background) queue cycles through everything transmitted at least once.
In the proportional variant the paper suggests lottery scheduling, WFQ,
or stride scheduling; all are available here.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Dict, Optional

from repro.des import Interrupt
from repro.net import BernoulliLoss, Channel
from repro.protocols.base import BaseSession, ProtocolResult
from repro.protocols.states import RecordState, RecordStateMachine
from repro.sched import (
    DrrScheduler,
    LotteryScheduler,
    Scheduler,
    StrideScheduler,
    WfqScheduler,
)

HOT = "hot"
COLD = "cold"

_SCHEDULERS = {
    "stride": lambda rng: StrideScheduler(),
    "lottery": lambda rng: LotteryScheduler(rng=rng),
    "wfq": lambda rng: WfqScheduler(),
    "drr": lambda rng: DrrScheduler(),
}


def make_scheduler(name: str, rng: random.Random) -> Scheduler:
    """Build one of the proportional-share schedulers by name."""
    try:
        factory = _SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(_SCHEDULERS)}"
        ) from None
    return factory(rng)


class HotColdQueues:
    """The hot/cold transmission queues of Section 4, as queue hooks.

    A "hot" (foreground) class carries records never yet transmitted or
    just updated; a "cold" (background) class cycles through everything
    transmitted at least once, and each record follows Figure 7's state
    machine.  Mixed into a
    :class:`~repro.protocols.session.PublisherLifecycle` family: the
    unicast :class:`TwoQueueSession` and the multicast group.
    """

    def _init_hot_cold(self, scheduler: str, hot_share: float) -> None:
        self.scheduler = make_scheduler(scheduler, self.rng["scheduler"])
        self.scheduler.add_class(HOT, weight=hot_share)
        self.scheduler.add_class(COLD, weight=1.0 - hot_share)
        #: Where each live key currently sits (HOT/COLD), if queued.
        self._location: Dict[Any, str] = {}
        self.machines: Dict[Any, RecordStateMachine] = {}

    def _enqueue_new(self, key: Any) -> None:
        location = self._location.get(key)
        if location == HOT:
            return  # already awaiting a hot transmission
        if location == COLD:
            # An updated record is new data again: promote it.
            self.scheduler.remove(COLD, key)
        machine = self.machines.get(key)
        if machine is None:
            machine = RecordStateMachine()
            self.machines[key] = machine
        elif machine.state is RecordState.COLD:
            machine.on_nack()  # reuse the COLD->HOT edge for promotion
        self.scheduler.enqueue(HOT, key)
        self._location[key] = HOT

    def _dequeue_next(self) -> Optional[Any]:
        while True:
            entry = self.scheduler.dequeue()
            if entry is None:
                return None
            _, key = entry
            self._location.pop(key, None)
            record = self.publisher.get(key)
            if record is not None and record.is_publisher_live(self.env.now):
                return key

    def _after_service(self, key: Any, lost) -> None:
        record = self.publisher.get(key)
        if record is None or not record.is_publisher_live(self.env.now):
            return
        machine = self.machines[key]
        machine.on_transmitted()
        if self._location.get(key) == HOT:
            return  # an update raced in and re-queued it hot
        self.scheduler.enqueue(COLD, key)
        self._location[key] = COLD

    def _drop_from_queues(self, key: Any) -> None:
        location = self._location.pop(key, None)
        if location is not None:
            self.scheduler.remove(location, key)
        machine = self.machines.pop(key, None)
        if machine is not None:
            machine.on_death()

    def _clear_queues(self) -> None:
        for key, location in list(self._location.items()):
            self.scheduler.remove(location, key)
        self._location.clear()
        for machine in self.machines.values():
            machine.on_death()
        self.machines.clear()

    def _requeue_missing(self, key: Any) -> None:
        # A warm restart must not promote the whole table to HOT (that
        # would let the foreground queue mask the crash); unscheduled
        # survivors rejoin the background cycle and recover at cold
        # speed — O(refresh interval), the paper's claim.
        if key in self._location:
            return
        machine = self.machines.get(key)
        if machine is None:
            self._enqueue_new(key)
            return
        self.scheduler.enqueue(COLD, key)
        self._location[key] = COLD


class TwoQueueSession(HotColdQueues, BaseSession):
    """Hot/cold scheduling of announcements.

    ``hot_share`` is the fraction of the data bandwidth allocated to the
    hot queue (the paper's mu_hot / mu_data); the remainder drives cold
    background retransmissions.
    """

    def __init__(
        self,
        hot_share: float = 0.5,
        scheduler: str = "stride",
        **kwargs,
    ) -> None:
        if not 0.0 < hot_share < 1.0:
            raise ValueError(
                f"hot_share must be in (0, 1), got {hot_share}"
            )
        super().__init__(**kwargs)
        self.hot_share = hot_share
        self.scheduler_name = scheduler
        self._init_hot_cold(scheduler, hot_share)

    @property
    def hot_kbps(self) -> float:
        return self.hot_share * self.data_kbps

    @property
    def cold_kbps(self) -> float:
        return (1.0 - self.hot_share) * self.data_kbps

    def set_hot_share(self, hot_share: float) -> None:
        """Re-tune the hot/cold split mid-run (allocator hook)."""
        if not 0.0 < hot_share < 1.0:
            raise ValueError(f"hot_share must be in (0, 1), got {hot_share}")
        self.hot_share = hot_share
        self.scheduler.set_weight(HOT, hot_share)
        self.scheduler.set_weight(COLD, 1.0 - hot_share)


class RateCappedTwoQueueSession(BaseSession):
    """Hot and cold queues with strict, independent rate caps.

    The base session's data channel serves as the hot path
    (``hot_kbps``); a second serializer carries the cold ring at
    ``cold_kbps`` with no borrowing in either direction.  ``cold_kbps``
    may be zero, modelling the paper's "data items are never
    retransmitted" endpoint of Figure 6.
    """

    def __init__(
        self,
        hot_kbps: float,
        cold_kbps: float,
        loss_rate: float = 0.0,
        **kwargs,
    ) -> None:
        if cold_kbps < 0:
            raise ValueError(f"cold_kbps must be non-negative, got {cold_kbps}")
        super().__init__(data_kbps=hot_kbps, loss_rate=loss_rate, **kwargs)
        self.hot_kbps = hot_kbps
        self.cold_kbps = cold_kbps
        self.cold_channel: Optional[Channel] = None
        if cold_kbps > 0:
            self.cold_channel = Channel(
                self.env,
                cold_kbps,
                loss=BernoulliLoss(loss_rate, rng=self.rng["cold-loss"]),
            )
            self.cold_channel.subscribe(self._deliver_data)
        self._hot_queue: deque[Any] = deque()
        self._cold_ring: deque[Any] = deque()
        self._cold_wakeup = None
        self._cold_process = None

    # -- hot path (runs inside the base sender loop) -------------------------
    def _enqueue_new(self, key: Any) -> None:
        if key not in self._hot_queue:
            self._hot_queue.append(key)

    def _dequeue_next(self) -> Optional[Any]:
        return self._pop_live(self._hot_queue)

    def _pop_live(self, queue: deque) -> Optional[Any]:
        """Pop keys off ``queue`` until one is live; None when empty."""
        now = self.env.now
        while queue:
            key = queue.popleft()
            record = self.publisher.get(key)
            if record is not None and record.is_publisher_live(now):
                return key
        return None

    def _after_service(self, key: Any, lost: bool) -> None:
        record = self.publisher.get(key)
        if record is not None and record.is_publisher_live(self.env.now):
            self._to_cold(key)

    def _to_cold(self, key: Any) -> None:
        self._cold_ring.append(key)
        if self._cold_wakeup is not None and not self._cold_wakeup.triggered:
            self._cold_wakeup.succeed()

    def _drop_from_queues(self, key: Any) -> None:
        for queue in (self._hot_queue, self._cold_ring):
            try:
                queue.remove(key)
            except ValueError:
                pass

    def _clear_queues(self) -> None:
        self._hot_queue.clear()
        self._cold_ring.clear()

    def _requeue_missing(self, key: Any) -> None:
        # Survivors of a warm restart resume background cycling; only
        # genuinely unscheduled records re-enter, and via the cold ring
        # rather than the (strictly capped) hot path.
        if key not in self._hot_queue and key not in self._cold_ring:
            self._to_cold(key)

    # -- fault support -----------------------------------------------------------
    def _fault_channels(self):
        channels = super()._fault_channels()
        if self.cold_channel is not None:
            channels.append(self.cold_channel)
        return channels

    _fault_data_channels = _fault_channels

    def fault_crash_sender(self, crash) -> None:
        # Both serializers die together: the crash takes out the whole
        # sender host, not just the foreground loop.
        super().fault_crash_sender(crash)
        if self._cold_process is not None:
            self._cold_process.interrupt(crash)

    # -- cold path --------------------------------------------------------------
    def _start_processes(self) -> None:
        super()._start_processes()
        if self.cold_channel is not None:
            self._cold_process = self.env.process(self._cold_loop())

    def _cold_loop(self):
        while True:
            try:
                while True:
                    key = self._pop_live(self._cold_ring)
                    if key is None:
                        self._cold_wakeup = self.env.event()
                        yield self._cold_wakeup
                        self._cold_wakeup = None
                        continue
                    packet = self._make_packet(key)
                    self._account_transmission(key, packet)
                    self.publisher.get(key).announcements += 1
                    yield self.cold_channel.transmit(packet)
                    self._observe(self.env.now)
                    record = self.publisher.get(key)
                    if record is not None and record.is_publisher_live(
                        self.env.now
                    ):
                        self._cold_ring.append(key)
            except Interrupt as interrupt:
                # The base sender's crash handler owns state cleanup and
                # requeueing; this loop just goes quiet for the outage.
                self._cold_wakeup = None
                yield self.env.timeout(interrupt.cause.down_for)

    # -- results ---------------------------------------------------------------
    def _result(self, duration: float) -> ProtocolResult:
        result = super()._result(duration)
        if self.cold_channel is not None:
            sent = result.data_packets + self.cold_channel.packets_sent
            dropped = (
                self.data_channel.packets_dropped
                + self.cold_channel.packets_dropped
            )
            result.data_packets = sent
            result.delivered_packets += self.cold_channel.packets_delivered
            result.observed_loss_rate = dropped / sent if sent else 0.0
        return result
