"""The invariant library: the paper's claims as trace state machines.

Each :class:`Invariant` consumes a stream of trace events (routed by
``(cat, ev)`` interest) and accumulates :class:`Violation` records.
The catalog, with the claim each invariant encodes (full derivations
in ``docs/SPEC.md``):

* :class:`MonotoneClock` — simulation time never runs backwards within
  a cell (kernel sanity; every other invariant leans on it).
* :class:`MonotoneTransferIds` — per-channel transfer ids on serviced
  packets strictly increase (Section 5: receivers detect losses by
  sequence gaps, which is only sound if senders never reuse or reorder
  ids on a FIFO channel).
* :class:`DeliveryConservation` — every delivery is backed by exactly
  one prior transmission: delivered ≤ sent per channel, no receiver
  hears one transmission twice (the channel model of Section 3 —
  packets are lost, never duplicated or conjured).
* :class:`NoFalseExpiry` — a subscriber record expires only at its
  announced deadline, and never while a refresh inside the hold time
  is on the books (Section 7: state is eliminated when, and only when,
  refreshes stop for a full timeout multiple).
* :class:`DigestAgreement` — equal summary digests imply equal
  namespace content, checked through a digest-machinery-independent
  content fingerprint (Section 6: the namespace digest *is* the
  consistency check, so digest collisions across different content
  would break SSTP's convergence argument).
* :class:`BoundedReconsistency` — after an injected fault window
  clears, session consistency returns to its pre-fault baseline within
  a bound (Section 7: soft-state sessions re-converge in O(refresh
  interval) with no repair protocol).  Fault windows come from the
  injector's own trace events, which is how the checker distinguishes
  *expected* disruption (inside/overlapping a window) from a real
  violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.fold import ALL_EVENTS

__all__ = [
    "ALL_EVENTS",
    "DEFAULT_INVARIANTS",
    "BoundedReconsistency",
    "DeliveryConservation",
    "DigestAgreement",
    "Invariant",
    "MonotoneClock",
    "MonotoneTransferIds",
    "NoFalseExpiry",
    "Violation",
]

#: Absolute slack for float time comparisons.  Deadlines and event
#: times come from the same float arithmetic, so the true tolerance is
#: a few ulps; 1e-9 seconds is far above that and far below any timer.
_EPS = 1e-9

#: Memory bound for per-key state maps.  Long traces retire state
#: naturally (expiries, delivered packets); what is left is lost
#: packets and stale keys, which are evicted oldest-first.
_STATE_CAP = 200_000


@dataclass(slots=True)
class Violation:
    """One invariant breach, pinned to the violating event."""

    invariant: str
    index: int
    t: Optional[float]
    message: str
    event: Dict[str, Any]
    cell: Optional[int] = None

    def describe(self) -> str:
        where = f"event {self.index}"
        if self.cell is not None:
            where += f" (cell {self.cell})"
        clock = "t=?" if self.t is None else f"t={self.t:g}"
        return f"[{self.invariant}] {where} {clock}: {self.message}"


class Invariant:
    """Base class: feed events, accumulate violations, then finish."""

    name = "invariant"
    #: ``(cat, ev)`` pairs to route to :meth:`feed`, or :data:`ALL_EVENTS`.
    interests: Any = ()

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def feed(
        self,
        index: int,
        t: Optional[float],
        cat: str,
        ev: str,
        fields: Dict[str, Any],
    ) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """End of stream/cell: settle liveness-style checks."""

    def _violate(
        self,
        index: int,
        t: Optional[float],
        cat: str,
        ev: str,
        fields: Dict[str, Any],
        message: str,
    ) -> None:
        row: Dict[str, Any] = {"t": t, "cat": cat, "ev": ev}
        row.update(fields)
        self.violations.append(
            Violation(
                invariant=self.name,
                index=index,
                t=t,
                message=message,
                event=row,
            )
        )


class MonotoneClock(Invariant):
    """Timestamps never decrease within one cell."""

    name = "monotone-clock"
    interests = ALL_EVENTS

    def __init__(self) -> None:
        super().__init__()
        self._last: Optional[float] = None

    def feed(self, index, t, cat, ev, fields) -> None:
        if t is None:
            return
        last = self._last
        if last is not None and t < last:
            self.backwards(index, t, cat, ev, fields, last)
        self._last = t

    def backwards(self, index, t, cat, ev, fields, last) -> None:
        """The violation; the fold driver's inline clock check calls it."""
        self._violate(
            index, t, cat, ev, fields,
            f"time ran backwards: {t:g} after {last:g}",
        )


class MonotoneTransferIds(Invariant):
    """Serviced transfer ids strictly increase per channel."""

    name = "monotone-transfer-ids"
    interests = (("packet", "packet_sent"),)

    def __init__(self) -> None:
        super().__init__()
        self._last_seq: Dict[Any, int] = {}

    def feed(self, index, t, cat, ev, fields) -> None:
        seq = fields.get("seq")
        if seq is None:
            return  # unsequenced packet
        chan = fields.get("chan")
        if chan is None:
            return  # a pre-`chan` trace
        last_seq = self._last_seq
        last = last_seq.get(chan)
        if last is not None and seq <= last:
            self.regressed(index, t, cat, ev, fields, last)
        last_seq[chan] = seq

    def regressed(self, index, t, cat, ev, fields, last) -> None:
        """The violation.  When :class:`DeliveryConservation` runs in the
        same checker, its ``packet_sent`` handler keeps the per-channel
        last id and calls this instead of :meth:`feed`."""
        self._violate(
            index, t, cat, ev, fields,
            f"transfer id {fields['seq']} on {fields['chan']} not greater "
            f"than previously serviced {last}",
        )


class DeliveryConservation(Invariant):
    """Deliveries never exceed transmissions, per channel and receiver.

    Bookkeeping: a serviced ``packet_sent`` opens ``(chan, seq)`` with
    its surviving-delivery budget (1 for a unicast survivor, receivers
    − lost for multicast); each ``packet_delivered`` spends one unit
    and, when a receiver id is present, must be a receiver that has not
    already heard this transmission.
    """

    name = "delivery-conservation"
    interests = (
        ("packet", "packet_sent"),
        ("packet", "packet_delivered"),
    )

    def __init__(self) -> None:
        super().__init__()
        #: (chan, seq) -> [budget, receivers already served or None]
        self._open: Dict[Tuple[Any, Any], list] = {}
        #: Multicast fan-out emits per-receiver deliveries *before* the
        #: aggregate ``packet_sent`` of the same service instant, so a
        #: delivery for a not-yet-seen transmission is parked here and
        #: reconciled when (if ever) the send arrives.
        self._orphans: Dict[Tuple[Any, Any], List[Tuple]] = {}
        self._last_sent: Dict[Any, int] = {}
        #: ``MonotoneTransferIds.regressed`` when the checker folds that
        #: invariant in here, else None.
        self.regressed: Optional[Callable[..., None]] = None

    def feed(self, index, t, cat, ev, fields) -> None:
        seq = fields.get("seq")
        if seq is None:
            return
        chan = fields.get("chan")
        if chan is None:
            return
        key = (chan, seq)
        if ev == "packet_sent":
            receivers = fields.get("receivers")
            if receivers is not None:  # multicast service
                budget = receivers - fields.get("lost", 0)
                served: Optional[set] = set()
            else:  # unicast service: lost is a bool
                budget = 0 if fields.get("lost") else 1
                served = None
            last_sent = self._last_sent
            last = last_sent.get(chan)
            if last is not None and seq <= last and self.regressed:
                self.regressed(index, t, cat, ev, fields, last)
            last_sent[chan] = seq
            orphans = self._orphans.pop(key, None)
            if orphans is not None:
                # Reconcile the fan-out deliveries that preceded this
                # service instant, one inline pass (this runs for every
                # multicast transmission — no per-delivery call).
                for oindex, ot, ofields in orphans:
                    if served is not None:
                        receiver = ofields.get("receiver")
                        if receiver is not None:
                            if receiver in served:
                                self._violate(
                                    oindex, ot, "packet",
                                    "packet_delivered", ofields,
                                    f"receiver {receiver!r} heard {chan} "
                                    f"seq {seq} twice",
                                )
                                continue
                            served.add(receiver)
                    if budget <= 0:
                        self._violate(
                            oindex, ot, "packet", "packet_delivered",
                            ofields,
                            f"delivery of {chan} seq {seq} exceeds the "
                            "transmission's surviving-receiver count",
                        )
                        continue
                    budget -= 1
            if budget > 0:
                opened = self._open
                opened[key] = [budget, served]
                if len(opened) > _STATE_CAP:
                    opened.pop(next(iter(opened)))
            return
        entry = self._open.get(key)
        if entry is None:
            last = self._last_sent.get(chan)
            if last is not None and seq <= last:
                # The transmission's service already passed: this
                # delivery has no budget left to draw on.
                self._violate(
                    index, t, cat, ev, fields,
                    f"delivery of {chan} seq {seq} without a surviving "
                    "transmission (lost or already fully delivered)",
                )
                return
            orphans = self._orphans
            pending = orphans.get(key)
            if pending is None:
                pending = orphans[key] = []
                if len(orphans) > _STATE_CAP:
                    orphans.pop(next(iter(orphans)))
            pending.append((index, t, fields))
            return
        served = entry[1]
        if served is not None:
            receiver = fields.get("receiver")
            if receiver is not None:
                if receiver in served:
                    self._violate(
                        index, t, cat, ev, fields,
                        f"receiver {receiver!r} heard {chan} seq {seq} "
                        "twice",
                    )
                    return
                served.add(receiver)
        budget = entry[0] - 1
        if budget < 0:
            self._violate(
                index, t, cat, ev, fields,
                f"delivery of {chan} seq {seq} exceeds the "
                "transmission's surviving-receiver count",
            )
            return
        entry[0] = budget
        if budget == 0:
            del self._open[key]

    def finish(self) -> None:
        for key in sorted(self._orphans, key=repr):
            chan, seq = key
            for index, t, fields in self._orphans[key]:
                self._violate(
                    index, t, "packet", "packet_delivered", fields,
                    f"delivery of {chan} seq {seq} for a transmission "
                    "that was never serviced",
                )


class NoFalseExpiry(Invariant):
    """Subscriber expiries honor the announced deadline and refreshes.

    Two checks on every subscriber-side ``record_expired``:

    * the expiry time is not before the deadline the table itself
      reported (an early-firing timer is exactly the off-by-one this
      guards against);
    * the last ``refresh_received`` for that (table, key) plus its
      granted hold does not extend past the expiry time — if it does,
      a refresh was received in time and then ignored (dropped refresh
      handling).  During crashes and outages refreshes genuinely stop,
      so this check needs no fault-window exemption.
    """

    name = "no-false-expiry"
    interests = (
        ("record", "refresh_received"),
        ("record", "record_expired"),
    )

    def __init__(self) -> None:
        super().__init__()
        #: (table, key) -> (last refresh time, granted hold)
        self._refreshed: Dict[Tuple[Any, Any], Tuple[float, float]] = {}

    def feed(self, index, t, cat, ev, fields) -> None:
        table = fields.get("table")
        key = fields.get("key")
        if table is None or key is None:
            return  # pre-`table` trace
        state_key = (table, key)
        if ev == "refresh_received":
            hold = fields.get("hold")
            if t is None or hold is None:
                return
            refreshed = self._refreshed
            refreshed[state_key] = (t, hold)
            if len(refreshed) > _STATE_CAP:
                refreshed.pop(next(iter(refreshed)))
            return
        if fields.get("role") != "subscriber" or t is None:
            return
        deadline = fields.get("deadline")
        if deadline is not None and t < deadline - _EPS:
            self._violate(
                index, t, cat, ev, fields,
                f"record {key!r} expired at {t:g}, before its own "
                f"deadline {deadline:g}",
            )
        last = self._refreshed.pop(state_key, None)
        if last is not None:
            refresh_t, hold = last
            if refresh_t + hold > t + _EPS:
                self._violate(
                    index, t, cat, ev, fields,
                    f"record {key!r} expired at {t:g} despite a refresh "
                    f"at {refresh_t:g} holding it until "
                    f"{refresh_t + hold:g}",
                )


class DigestAgreement(Invariant):
    """Equal summary digests imply equal namespace content.

    The sender stamps every summary with its root digest *and* a
    digest-machinery-independent content fingerprint; receivers stamp
    every digest match with their mirror's fingerprint.  Agreement on
    the digest with disagreement on the fingerprint means the Merkle
    summarization equated two different namespaces.
    """

    name = "digest-agreement"
    interests = (
        ("record", "summary_digest"),
        ("record", "summary_checked"),
    )

    def __init__(self) -> None:
        super().__init__()
        self._content: Dict[str, str] = {}

    def feed(self, index, t, cat, ev, fields) -> None:
        if ev != "summary_digest":
            # summary_checked: the steady-state common case.
            if not fields.get("match"):
                return
            digest = fields.get("digest")
            if digest is None:
                return
            fingerprint = fields.get("fingerprint")
            if fingerprint is None:
                return
            expected = self._content.get(digest)
            if expected is not None and expected != fingerprint:
                self._violate(
                    index, t, cat, ev, fields,
                    f"receiver {fields.get('receiver')!r} matched digest "
                    f"{digest[:16]}… but mirrors different content than "
                    "the sender announced under it",
                )
            return
        digest = fields.get("digest")
        fingerprint = fields.get("fingerprint")
        if digest is None or fingerprint is None:
            return
        known = self._content.get(digest)
        if known is None:
            content = self._content
            content[digest] = fingerprint
            if len(content) > _STATE_CAP:
                content.pop(next(iter(content)))
        elif known != fingerprint:
            self._violate(
                index, t, cat, ev, fields,
                f"sender announced digest {digest[:16]}… for two "
                "different namespace contents",
            )


class BoundedReconsistency(Invariant):
    """Consistency returns to baseline within ``bound`` after a fault.

    For every ``fault_window`` ``[start, end)``: the baseline is the
    time-average of ``consistency_sample`` values over
    ``[start − baseline_window, start]``; the session must produce a
    sample ≥ ``baseline × (1 − tolerance)`` in ``[end, end + bound]``.
    Windows are *skipped* (expected, not violated) when the trace ends
    before the recovery deadline, when another fault window overlaps
    the recovery interval, or when there is no pre-fault baseline to
    recover to.
    """

    name = "bounded-reconsistency"
    interests = (
        ("fault", "fault_window"),
        ("run", "consistency_sample"),
    )

    def __init__(
        self,
        bound: float = 30.0,
        tolerance: float = 0.1,
        baseline_window: float = 20.0,
    ) -> None:
        super().__init__()
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        if not 0.0 <= tolerance < 1.0:
            raise ValueError(
                f"tolerance must be in [0, 1), got {tolerance}"
            )
        self.bound = bound
        self.tolerance = tolerance
        self.baseline_window = baseline_window
        self._windows: List[Tuple[int, Optional[float], dict]] = []
        self._samples: Dict[Any, List[Tuple[float, float]]] = {}

    def feed(self, index, t, cat, ev, fields) -> None:
        if ev == "fault_window":
            self._windows.append((index, t, dict(fields)))
            return
        value = fields.get("value")
        if t is None or value is None:
            return
        self._samples.setdefault(fields.get("session"), []).append(
            (t, value)
        )

    def finish(self) -> None:
        if not self._windows:
            return
        intervals = [
            (w.get("start"), w.get("end"))
            for _i, _t, w in self._windows
            if w.get("start") is not None and w.get("end") is not None
        ]
        for index, t, window in self._windows:
            start = window.get("start")
            end = window.get("end")
            if start is None or end is None:
                continue
            deadline = end + self.bound
            overlapped = any(
                other_start < deadline and end < other_end
                for other_start, other_end in intervals
                if (other_start, other_end) != (start, end)
            )
            if overlapped:
                continue  # expected: another fault disturbs the recovery
            for session, series in sorted(
                self._samples.items(), key=lambda item: str(item[0])
            ):
                baseline = _time_average(
                    series, start - self.baseline_window, start
                )
                if baseline is None or baseline <= 0.0:
                    continue  # nothing to recover to
                if not series or series[-1][0] < deadline:
                    continue  # trace ends before the recovery deadline
                target = baseline * (1.0 - self.tolerance)
                recovered = any(
                    value >= target
                    for sample_t, value in series
                    if end <= sample_t <= deadline
                )
                if not recovered:
                    self._violate(
                        index, t, "fault", "fault_window", window,
                        f"session {session!r} did not recover to "
                        f"{target:.3f} (baseline {baseline:.3f} − "
                        f"{self.tolerance:.0%}) within {self.bound:g}s "
                        f"of fault {window.get('label')!r} clearing "
                        f"at {end:g}",
                    )


def _time_average(
    series: List[Tuple[float, float]], start: float, end: float
) -> Optional[float]:
    """Time-weighted mean of a step series over ``[start, end]``."""
    if end <= start:
        return None
    weighted = 0.0
    duration = 0.0
    previous: Optional[Tuple[float, float]] = None
    for t, value in series:
        if t > end:
            break
        if previous is not None:
            lo = max(previous[0], start)
            hi = min(t, end)
            if hi > lo:
                weighted += previous[1] * (hi - lo)
                duration += hi - lo
        previous = (t, value)
    if previous is not None and previous[0] <= end:
        lo = max(previous[0], start)
        if end > lo:
            weighted += previous[1] * (end - lo)
            duration += end - lo
    if duration <= 0.0:
        return None
    return weighted / duration


#: Factories for the standard checker configuration, in report order.
DEFAULT_INVARIANTS = (
    MonotoneClock,
    MonotoneTransferIds,
    DeliveryConservation,
    NoFalseExpiry,
    DigestAgreement,
    BoundedReconsistency,
)
