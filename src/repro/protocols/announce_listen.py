"""The open-loop announce/listen protocol (Section 3, protocol level).

One FIFO announcement ring: a new record joins the tail, and after every
transmission a still-live record rejoins the tail, so the sender cycles
through its whole live table indefinitely — the "simple open-loop
repetitive announcement process".  There is no feedback of any kind;
reliability comes purely from repetition.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Optional

from repro.protocols.base import BaseSession


class OpenLoopSession(BaseSession):
    """Single-queue announce/listen over a lossy channel.

    Dying records are removed from the ring *lazily*: ``deque.remove``
    is O(ring length) and record deaths arrive at the update rate, so
    eager removal made high-churn sessions quadratic.  A drop instead
    leaves the stale slot in place and counts a tombstone for the key;
    ``_dequeue_next`` consumes tombstones against the *earliest* ring
    occurrences — exactly the slots an eager remove would have excised,
    since a drop always targets the oldest un-dropped occurrence — so
    service order is identical to eager removal (pinned by
    ``tests/protocols/test_announce_tombstone.py``).
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._ring: deque[Any] = deque()
        self._queued: set[Any] = set()
        #: key -> number of dropped (stale) occurrences still in _ring.
        self._tombstones: Dict[Any, int] = {}

    def _enqueue_new(self, key: Any) -> None:
        # An updated record keeps its single slot in the ring; the next
        # pass announces the new value anyway.
        if key in self._queued:
            return
        self._queued.add(key)
        self._ring.append(key)

    def _dequeue_next(self) -> Optional[Any]:
        while self._ring:
            key = self._ring.popleft()
            if self._tombstones:
                stale = self._tombstones.get(key, 0)
                if stale:
                    if stale == 1:
                        del self._tombstones[key]
                    else:
                        self._tombstones[key] = stale - 1
                    continue
            self._queued.discard(key)
            record = self.publisher.get(key)
            if record is not None and record.is_publisher_live(self.env.now):
                return key
        return None

    def _after_service(self, key: Any, lost: bool) -> None:
        record = self.publisher.get(key)
        if record is not None and record.is_publisher_live(self.env.now):
            self._enqueue_new(key)

    def _drop_from_queues(self, key: Any) -> None:
        if key in self._queued:
            self._queued.discard(key)
            self._tombstones[key] = self._tombstones.get(key, 0) + 1

    def _clear_queues(self) -> None:
        self._ring.clear()
        self._queued.clear()
        self._tombstones.clear()
