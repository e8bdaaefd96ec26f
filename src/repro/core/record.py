"""The soft-state data model: an evolving table of {key, value} pairs.

Figure 1 of the paper: a publisher maintains a table of records and may
insert, update, or delete them at any time; each record has a bounded
lifetime after which it is eliminated.  Subscribers maintain a local
copy; each received announcement refreshes a per-record expiration
timer, and a record whose timer lapses is deleted (soft-state expiry).

:class:`SoftStateTable` serves both roles.  In publisher mode records
expire at ``created_at + lifetime``; in subscriber mode they expire at
``last_refreshed + hold_time``.  Expiry is lazy: callers advance the
table with :meth:`SoftStateTable.expire` (typically on every simulation
event), which fires the registered ``on_expire`` callbacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import runtime as _obs
from repro.obs.trace import RECORD as _RECORD

@dataclass(slots=True)
class Record:
    """One {key, value} pair with lifetime/refresh bookkeeping.

    ``version`` increases on every update of the same key so receivers
    can distinguish stale announcements from fresh ones; value equality
    plus version equality defines per-key consistency.
    """

    key: Any
    value: Any
    version: int = 0
    created_at: float = 0.0
    lifetime: float = math.inf
    last_refreshed: float = 0.0
    hold_time: float = math.inf
    #: Number of times the publisher has announced this record.
    announcements: int = 0

    @property
    def publisher_expiry(self) -> float:
        """When the publisher stops announcing and drops the record."""
        return self.created_at + self.lifetime

    @property
    def subscriber_expiry(self) -> float:
        """When a subscriber's soft-state timer for this record lapses."""
        return self.last_refreshed + self.hold_time

    def is_publisher_live(self, now: float) -> bool:
        return now < self.publisher_expiry

    def is_subscriber_live(self, now: float) -> bool:
        return now < self.subscriber_expiry


ExpiryCallback = Callable[[Record, float], None]
ChangeCallback = Callable[[Any], None]

#: ``(deadline lower bound, tie-break order, key)``.
_Entry = Tuple[float, int, Any]
_order_of = itemgetter(1)


class DeadlineHeap:
    """A lazy min-heap of ``(deadline, order, key)`` lower bounds.

    Each key has at most one *current* entry, ``current[key]``; a heap
    entry that is not its key's current one (superseded, or left by an
    earlier incarnation of the key) is skipped when it surfaces.  The
    owner keeps every current entry at or before the instant it stands
    for, so a later instant may be re-armed lazily when the entry pops.
    Infinite deadlines are never pushed.  ``order`` must be unique per
    live key so that keys are never compared.
    """

    __slots__ = ("heap", "current")

    def __init__(self) -> None:
        self.heap: List[_Entry] = []
        self.current: Dict[Any, _Entry] = {}

    def push(self, key: Any, order: int, deadline: float) -> None:
        """Make ``(deadline, order, key)`` the key's current entry."""
        entry = (deadline, order, key)
        self.current[key] = entry
        if deadline < math.inf:
            heappush(self.heap, entry)

    def pop_due(self, now: float) -> Iterator[_Entry]:
        """Pop the entries at or before ``now``; yield the current ones.

        A yielded entry stays current: the owner re-pushes the key or
        drops it from ``current``.
        """
        heap = self.heap
        current = self.current
        while heap and heap[0][0] <= now:
            entry = heappop(heap)
            if current.get(entry[2]) is entry:
                yield entry

    def clear(self) -> None:
        self.heap.clear()
        self.current.clear()


class SoftStateTable:
    """A table of soft-state records with lazy timer-based expiry.

    Expiry runs off a :class:`DeadlineHeap` keyed by record, ordered by
    insertion.  The invariant is that a record's current entry never
    lies after its true deadline:

    * timer extensions (:meth:`refresh`, :meth:`revise`, the stale
      version branch of :meth:`put`) touch nothing — the old entry is a
      valid lower bound, and when it pops before the true deadline it
      is re-pushed at that deadline;
    * anything that shrinks a deadline pushes a new entry (:meth:`put`
      does it itself; in-place timer edits call :meth:`bound_expiry`);
    * infinite deadlines are never pushed, so the heap holds only
      records that can expire.
    """

    def __init__(self, role: str = "publisher") -> None:
        if role not in ("publisher", "subscriber"):
            raise ValueError(f"role must be publisher|subscriber, got {role!r}")
        self.role = role
        #: Per-cell label disambiguating this table's trace rows from
        #: other tables' in the same run (it never feeds simulation).
        self.trace_id = _obs.next_trace_label("t")
        self._records: Dict[Any, Record] = {}
        self._on_expire: List[ExpiryCallback] = []
        self._watchers: List[ChangeCallback] = []
        #: Ambient tracer, cached at construction (guarded attribute —
        #: hooks are no-ops unless tracing was installed via repro.obs).
        self._trace = _obs.current_tracer()
        self.inserts = 0
        self.updates = 0
        self.deletes = 0
        self.expirations = 0
        self._expiry = DeadlineHeap()
        self._insertions = 0

    def _deadline(self, record: Record) -> float:
        if self.role == "publisher":
            return record.created_at + record.lifetime
        return record.last_refreshed + record.hold_time

    def _changed(self, key: Any) -> None:
        for watcher in self._watchers:
            watcher(key)

    # -- mutation ------------------------------------------------------------
    def put(
        self,
        key: Any,
        value: Any,
        now: float,
        lifetime: float = math.inf,
        hold_time: float = math.inf,
        version: Optional[int] = None,
    ) -> Record:
        """Insert or update a record.

        A publisher bumps the version on update; a subscriber stores the
        announced version and refreshes its expiry timer.
        """
        if lifetime <= 0:
            raise ValueError(f"lifetime must be positive, got {lifetime}")
        if hold_time <= 0:
            raise ValueError(f"hold_time must be positive, got {hold_time}")
        existing = self._records.get(key)
        if existing is None:
            record = Record(
                key=key,
                value=value,
                version=version if version is not None else 0,
                created_at=now,
                lifetime=lifetime,
                last_refreshed=now,
                hold_time=hold_time,
            )
            self._records[key] = record
            self.inserts += 1
            self._expiry.push(
                key,
                self._insertions,
                now + lifetime if self.role == "publisher" else now + hold_time,
            )
            self._insertions += 1
            self._changed(key)
            tr = self._trace
            if tr is not None and tr.record:
                tr.emit(
                    _RECORD,
                    "record_inserted",
                    now,
                    key=key,
                    role=self.role,
                    version=record.version,
                    table=self.trace_id,
                )
            return record
        if version is None:
            existing.version += 1
        elif version < existing.version:
            # Stale announcement (reordered ADU): refresh the timer but
            # keep the newer value.
            existing.last_refreshed = now
            self._changed(key)
            return existing
        else:
            existing.version = version
        existing.value = value
        existing.last_refreshed = now
        existing.hold_time = hold_time
        existing.lifetime = lifetime
        existing.created_at = (
            existing.created_at if self.role == "subscriber" else now
        )
        self.updates += 1
        expiry = (
            existing.created_at + lifetime
            if self.role == "publisher"
            else now + hold_time
        )
        entry = self._expiry.current[key]
        if expiry < entry[0]:
            self._expiry.push(key, entry[1], expiry)
        self._changed(key)
        tr = self._trace
        if tr is not None and tr.record:
            tr.emit(
                _RECORD,
                "record_updated",
                now,
                key=key,
                role=self.role,
                version=existing.version,
                table=self.trace_id,
            )
        return existing

    def revise(self, key: Any, value: Any, now: float) -> Record:
        """Give a stored record a new value and the next version in place.

        The publisher-side update of a live record: unlike :meth:`put`
        it keeps the record's lifetime and creation time and emits no
        trace row; ``last_refreshed`` moves to ``now``.
        """
        record = self._records[key]
        record.value = value
        record.version += 1
        record.last_refreshed = now
        self._changed(key)
        return record

    def refresh(self, key: Any, now: float) -> bool:
        """Reset a subscriber's expiry timer without changing the value."""
        record = self._records.get(key)
        if record is None:
            return False
        record.last_refreshed = now
        self._changed(key)
        tr = self._trace
        if tr is not None and tr.record:
            tr.emit(
                _RECORD,
                "record_refreshed",
                now,
                key=key,
                role=self.role,
                table=self.trace_id,
            )
        return True

    def delete(self, key: Any) -> Optional[Record]:
        """Explicitly remove a record (publisher withdraw)."""
        record = self._records.pop(key, None)
        if record is not None:
            del self._expiry.current[key]
            self.deletes += 1
            self._changed(key)
            tr = self._trace
            if tr is not None and tr.record:
                # Deletion is initiated outside the table (no clock in
                # scope), so the record carries no timestamp.
                tr.emit(
                    _RECORD,
                    "record_deleted",
                    None,
                    key=key,
                    role=self.role,
                    table=self.trace_id,
                )
        return record

    def expire(self, now: float) -> List[Record]:
        """Drop every record whose timer has lapsed; fire callbacks.

        Fast path: while ``now`` is below the heap's smallest lower
        bound nothing can have lapsed and the call is O(1).  Callers
        invoke this on nearly every simulation event; otherwise the
        cost is O(log n) per popped entry.  Records due together are
        returned, traced and passed to callbacks in insertion order.
        """
        heap = self._expiry.heap
        if not heap or now < heap[0][0]:
            return []
        return self._drop_expired(self._pop_due(now), now)

    def _pop_due(self, now: float) -> List[Record]:
        """Pop the records whose deadline is at or before ``now``."""
        expiry = self._expiry
        records = self._records
        due: List[_Entry] = []
        for entry in expiry.pop_due(now):
            key = entry[2]
            deadline = self._deadline(records[key])
            if deadline <= now:
                due.append(entry)
            else:
                # Lazily extended timer: re-arm at the true deadline.
                expiry.push(key, entry[1], deadline)
        due.sort(key=_order_of)
        return [records[entry[2]] for entry in due]

    def _drop_expired(self, expired: List[Record], now: float) -> List[Record]:
        records = self._records
        entries = self._expiry.current
        tr = self._trace
        trace_records = tr is not None and tr.record
        for record in expired:
            key = record.key
            del records[key]
            del entries[key]
            self.expirations += 1
            self._changed(key)
            if trace_records:
                # The timer deadline this expiry decision was based on;
                # a spec checker compares it against ``now`` and against
                # the refresh history to detect false expiries.
                tr.emit(
                    _RECORD,
                    "record_expired",
                    now,
                    key=key,
                    role=self.role,
                    version=record.version,
                    table=self.trace_id,
                    deadline=self._deadline(record),
                )
            for callback in self._on_expire:
                callback(record, now)
        return expired

    def bound_expiry(self, key: Any) -> None:
        """Re-read ``key``'s timer after its fields were edited in place.

        Required after changing a record's timer fields directly (rather
        than through :meth:`put`/:meth:`refresh`): a shrunk deadline is
        pushed onto the expiry heap, and watchers hear of the change.
        """
        record = self._records.get(key)
        if record is None:
            return
        deadline = self._deadline(record)
        entry = self._expiry.current[key]
        if deadline < entry[0]:
            self._expiry.push(key, entry[1], deadline)
        self._changed(key)

    def on_expire(self, callback: ExpiryCallback) -> None:
        """Register ``callback(record, now)`` for timer expirations."""
        self._on_expire.append(callback)

    def watch(self, callback: ChangeCallback) -> None:
        """Register ``callback(key)`` for every change to a record.

        Fired whenever a record's value or timer changes or the record
        leaves the table: put, revise, refresh, bound_expiry, delete,
        expire and clear.
        """
        self._watchers.append(callback)

    def clear(self) -> None:
        """Drop everything (e.g. a subscriber crash losing its state)."""
        keys = list(self._records)
        self._records.clear()
        self._expiry.clear()
        for key in keys:
            self._changed(key)

    # -- queries ---------------------------------------------------------------
    def get(self, key: Any) -> Optional[Record]:
        return self._records.get(key)

    def __contains__(self, key: Any) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(list(self._records.values()))

    def live_records(self, now: float) -> List[Record]:
        """The live data set L(t): records whose timers have not lapsed."""
        if self.role == "publisher":
            return [
                record
                for record in self._records.values()
                if now < record.created_at + record.lifetime
            ]
        return [
            record
            for record in self._records.values()
            if now < record.last_refreshed + record.hold_time
        ]

    def live_keys(self, now: float) -> List[Any]:
        return [record.key for record in self.live_records(now)]
