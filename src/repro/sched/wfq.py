"""Weighted fair queueing (Demers, Keshav & Shenker, SIGCOMM '89).

Packet-level WFQ approximated by virtual finish times: each enqueued
item is stamped ``F = max(V, F_last(class)) + size / weight`` where V is
the scheduler's virtual time (advanced to the finish tag of each served
item).  The backlogged head with the smallest finish tag is served.
This is the classic SFQ/WFQ approximation adequate for proportional
bandwidth sharing between the hot and cold announcement queues.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sched.base import Scheduler


class WfqScheduler(Scheduler):
    """Virtual-finish-time weighted fair queueing."""

    def __init__(self) -> None:
        super().__init__()
        self._virtual_time = 0.0
        self._last_finish: Dict[str, float] = {}

    def _on_class_added(self, name: str) -> None:
        self._last_finish[name] = 0.0

    def _tag(self, name: str, size: float) -> float:
        start = max(self._virtual_time, self._last_finish[name])
        finish = start + size / self._weights[name]
        self._last_finish[name] = finish
        return finish

    def _select(self) -> Optional[str]:
        backlogged = self._backlogged()
        if not backlogged:
            return None
        # Compare the finish tag of each class's head-of-line item.
        name = min(backlogged, key=lambda n: (self._queues[n][0][2], n))
        # That head is served next: virtual time advances to its tag.
        self._virtual_time = max(self._virtual_time, self._queues[name][0][2])
        return name
