"""The paper's consistency metric.

Section 2.1 defines, for a live key k, c(k,t) = Pr[P.val(k) = Q.val(k)];
the instantaneous system consistency c(t) is the average of c(k,t) over
the live data set L(t), and the average system consistency E[c(t)] is
the long-run time average of c(t).  Empirically (in a single simulation
run) c(k,t) is the 0/1 indicator that subscriber and publisher agree on
k, so c(t) is simply the matched fraction of L(t), and E[c(t)] is its
time integral divided by the horizon — exactly how the paper says the
metric "provides us with a method to empirically compute" it.

The paper's closed forms implicitly count instants with an empty live
set as zero consistency (the busy-probability factor rho in E[c]), and
so does the meter.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.record import DeadlineHeap, SoftStateTable


class ConsistencyMeter:
    """Time-weighted consistency between one publisher and subscribers.

    The meter samples c(t) lazily: call :meth:`observe` whenever system
    state may have changed (packet delivery, arrival, expiry).  Between
    observations c(t) is treated as constant, which is exact when every
    state change is followed by an observe() — the protocol simulators
    do exactly that.

    c(t) is kept incrementally.  The meter watches every table
    (:meth:`SoftStateTable.watch`) and holds, for each publisher key
    live at its last evaluation, the number of subscribers with a live
    matching copy.  A sample re-evaluates only the keys reported since
    the previous sample and the keys whose earliest timer (publisher
    deadline, or the deadline of a matching mirror) has lapsed, so it
    costs O(changed keys x subscribers), not O(live set x subscribers).
    Samples must come in non-decreasing time order.
    """

    def __init__(
        self,
        publisher: SoftStateTable,
        subscribers: Iterable[SoftStateTable],
        start_time: float = 0.0,
    ) -> None:
        self.publisher = publisher
        self.subscribers = list(subscribers)
        if not self.subscribers:
            raise ValueError("need at least one subscriber")
        self._last_time = start_time
        self._last_value: Optional[float] = None  # None = live set empty
        self._weighted_sum = 0.0
        self._observed_duration = 0.0
        self._series: List[Tuple[float, float]] = []
        self._record_series = False
        #: Matched-subscriber count per publisher key live at its last
        #: evaluation, and their sum.
        self._matched: Dict[Any, int] = {}
        self._matched_total = 0
        #: Keys any watched table reported since the last sample; every
        #: key already in the publisher starts out unevaluated.
        self._stale: Set[Any] = {record.key for record in publisher}
        #: When each key's evaluation lapses without a reported change,
        #: ordered by push count.
        self._timers = DeadlineHeap()
        self._pushes = 0
        self._clock = -math.inf
        for table in [publisher, *self.subscribers]:
            table.watch(self._stale.add)

    # -- sampling -----------------------------------------------------------
    def instantaneous(self, now: float) -> Optional[float]:
        """c(t) right now, or None if the live set is empty."""
        if now < self._clock:
            raise ValueError(f"time went backwards: {now} < {self._clock}")
        self._clock = now
        stale = self._stale
        timers = self._timers
        for entry in timers.pop_due(now):
            key = entry[2]
            del timers.current[key]
            stale.add(key)
        if stale:
            for key in stale:
                self._evaluate(key, now)
            stale.clear()
        live = len(self._matched)
        if not live:
            return None
        return self._matched_total / (live * len(self.subscribers))

    def _evaluate(self, key: Any, now: float) -> None:
        """Recount ``key``'s matching subscribers and arm its next timer."""
        previous = self._matched.pop(key, None)
        if previous is not None:
            self._matched_total -= previous
        record = self.publisher.get(key)
        if record is None:
            return
        lapses = record.created_at + record.lifetime
        if not now < lapses:
            return
        value = record.value
        matched = 0
        for subscriber in self.subscribers:
            mirror = subscriber.get(key)
            if mirror is None:
                continue
            deadline = mirror.last_refreshed + mirror.hold_time
            if now < deadline and mirror.value == value:
                matched += 1
                if deadline < lapses:
                    lapses = deadline
        self._matched[key] = matched
        self._matched_total += matched
        if lapses < math.inf:
            current = self._timers.current.get(key)
            # An earlier current entry only costs one spare re-evaluation.
            if current is None or lapses < current[0]:
                self._timers.push(key, self._pushes, lapses)
                self._pushes += 1

    def observe(self, now: float) -> None:
        """Fold the interval since the last observation into the average."""
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time}"
            )
        interval = now - self._last_time
        if interval > 0:
            # An empty live set (None) counts as c(t) = 0.
            if self._last_value is not None:
                self._weighted_sum += self._last_value * interval
            self._observed_duration += interval
            self._last_time = now
        self._last_value = self.instantaneous(now)
        if self._record_series:
            self._series.append((now, self._last_value or 0.0))

    # -- results --------------------------------------------------------------
    def average(self) -> float:
        """E[c(t)]: the time average of c(t) so far."""
        if self._observed_duration == 0:
            return 0.0
        return self._weighted_sum / self._observed_duration

    @property
    def duration(self) -> float:
        """Total time folded into the average."""
        return self._observed_duration

    def enable_series(self) -> None:
        """Record a (time, c(t)) series at every observation (Figure 8)."""
        self._record_series = True

    @property
    def series(self) -> List[Tuple[float, float]]:
        return list(self._series)

    def running_average_series(self) -> List[Tuple[float, float]]:
        """(time, running E[c]) pairs — what Figure 8 actually plots."""
        result = []
        weighted = 0.0
        duration = 0.0
        for (t0, value), (t1, _) in zip(self._series, self._series[1:]):
            weighted += value * (t1 - t0)
            duration += t1 - t0
            if duration > 0:
                result.append((t1, weighted / duration))
        return result
