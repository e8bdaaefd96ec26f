"""Common scheduler interface.

A scheduler multiplexes several named classes (queues) onto one link.
Items are enqueued into a class; ``dequeue()`` returns the next
``(class_name, item)`` pair according to the discipline, or ``None``
when everything is empty.  Weights express the proportional share each
class should receive when it is continuously backlogged.

Queued entries are ``(item, size, tag)`` tuples; ``tag`` is the
discipline's per-entry stamp (see :meth:`Scheduler._tag`).  Each class
counts its queued occurrences per item, so :meth:`Scheduler.remove` is
a lookup, not a scan: it moves one occurrence to the class's *dropped*
count, and the entry is discarded when it reaches the head.  Removal
takes the first queued occurrence, so an item's dropped entries are
always its oldest ones: a head whose item has a dropped count is dead.
Dead heads are popped eagerly, so a class queue is empty exactly when
it holds no live entry, and its head is always live.  Items must
therefore be hashable.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, Optional, Tuple


def _take(counts: Dict[Any, int], item: Any) -> None:
    """Decrement ``counts[item]``, dropping the key at zero."""
    n = counts[item]
    if n == 1:
        del counts[item]
    else:
        counts[item] = n - 1


class SchedulerError(Exception):
    """Raised for scheduler API misuse (unknown class, bad weight)."""


class Scheduler:
    """Base class holding per-class FIFO queues and weights."""

    def __init__(self) -> None:
        self._queues: Dict[str, Deque[Tuple[Any, float, Any]]] = {}
        #: Per class: item -> live queued occurrences.
        self._queued: Dict[str, Dict[Any, int]] = {}
        #: Per class: item -> removed occurrences still in the deque.
        self._dropped: Dict[str, Dict[Any, int]] = {}
        #: Per class: number of live entries.
        self._live: Dict[str, int] = {}
        self._weights: Dict[str, float] = {}
        self.served: Dict[str, int] = {}
        self.served_size: Dict[str, float] = {}

    # -- class management ---------------------------------------------------
    def add_class(self, name: str, weight: float = 1.0) -> None:
        """Register a traffic class with a proportional-share weight."""
        if name in self._queues:
            raise SchedulerError(f"class {name!r} already exists")
        if weight <= 0:
            raise SchedulerError(f"weight must be positive, got {weight}")
        self._queues[name] = deque()
        self._queued[name] = {}
        self._dropped[name] = {}
        self._live[name] = 0
        self._weights[name] = float(weight)
        self.served[name] = 0
        self.served_size[name] = 0.0
        self._on_class_added(name)

    def set_weight(self, name: str, weight: float) -> None:
        """Change a class's share (e.g. the allocator re-tuning hot/cold)."""
        self._require(name)
        if weight <= 0:
            raise SchedulerError(f"weight must be positive, got {weight}")
        self._weights[name] = float(weight)
        self._on_weight_changed(name)

    def weight(self, name: str) -> float:
        self._require(name)
        return self._weights[name]

    @property
    def classes(self) -> Iterable[str]:
        return self._queues.keys()

    # -- queue operations -----------------------------------------------------
    def enqueue(self, name: str, item: Any, size: float = 1.0) -> None:
        """Append ``item`` (with a service ``size``) to class ``name``."""
        self._require(name)
        if size <= 0:
            raise SchedulerError(f"size must be positive, got {size}")
        self._queues[name].append((item, size, self._tag(name, size)))
        queued = self._queued[name]
        queued[item] = queued.get(item, 0) + 1
        self._live[name] += 1
        self._on_enqueue(name, item, size)

    def dequeue(self) -> Optional[Tuple[str, Any]]:
        """Pop the next item per the discipline; None if all queues empty."""
        name = self._select()
        if name is None:
            return None
        item, size, _ = self._queues[name].popleft()  # heads are live
        _take(self._queued[name], item)
        self._live[name] -= 1
        if self._dropped[name]:
            self._drop_dead_heads(name)
        self.served[name] += 1
        self.served_size[name] += size
        self._on_dequeue(name, item, size)
        return name, item

    def backlog(self, name: str) -> int:
        self._require(name)
        return self._live[name]

    def remove(self, name: str, item: Any) -> bool:
        """Remove the first queued occurrence of ``item`` in class ``name``
        (e.g. a record that just died); False if none is queued."""
        self._require(name)
        queued = self._queued[name]
        if item not in queued:
            return False
        _take(queued, item)
        dropped = self._dropped[name]
        dropped[item] = dropped.get(item, 0) + 1
        self._live[name] -= 1
        self._drop_dead_heads(name)
        return True

    def _drop_dead_heads(self, name: str) -> None:
        """Discard removed entries that reached the head of ``name``."""
        queue = self._queues[name]
        dropped = self._dropped[name]
        while queue and queue[0][0] in dropped:
            _take(dropped, queue.popleft()[0])

    def __len__(self) -> int:
        return sum(self._live.values())

    def __contains__(self, name: str) -> bool:
        return name in self._queues

    # -- discipline hooks ------------------------------------------------------
    def _select(self) -> Optional[str]:
        """Return the class to serve next, or None.  Must be overridden."""
        raise NotImplementedError

    def _tag(self, name: str, size: float) -> Any:
        """The per-entry stamp for an enqueue (arrival order, finish tag)."""
        return None

    def _on_class_added(self, name: str) -> None:
        """Discipline-specific per-class state initialisation."""

    def _on_weight_changed(self, name: str) -> None:
        """React to a weight update."""

    def _on_enqueue(self, name: str, item: Any, size: float) -> None:
        """React to an enqueue (e.g. stamp virtual times)."""

    def _on_dequeue(self, name: str, item: Any, size: float) -> None:
        """React to a dequeue (e.g. advance virtual time)."""

    # -- helpers -----------------------------------------------------------------
    def _require(self, name: str) -> None:
        if name not in self._queues:
            raise SchedulerError(f"unknown class {name!r}")

    def _backlogged(self) -> list[str]:
        return [name for name, queue in self._queues.items() if queue]

    def share_of(self, name: str) -> float:
        """Fraction of total service (by size) this class has received."""
        total = sum(self.served_size.values())
        if total == 0:
            return 0.0
        return self.served_size[name] / total
