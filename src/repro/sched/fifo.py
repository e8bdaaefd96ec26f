"""Single-queue FIFO scheduling: the Section 3 open-loop discipline.

The paper's baseline announce/listen model uses one FIFO transmission
queue ("the transmission channel acts as a server ... and uses FIFO
scheduling").  For uniformity this is expressed as a scheduler with one
implicit class, but it also accepts multiple classes and serves
whichever item arrived first across all of them.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.sched.base import Scheduler


class FifoScheduler(Scheduler):
    """Serves items strictly in global arrival order."""

    DEFAULT_CLASS = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self._arrival = itertools.count()

    def enqueue(self, name: str = DEFAULT_CLASS, item: Any = None, size: float = 1.0) -> None:
        if name not in self._queues:
            self.add_class(name)
        super().enqueue(name, item, size)

    def _tag(self, name: str, size: float) -> int:
        return next(self._arrival)

    def _select(self) -> Optional[str]:
        backlogged = self._backlogged()
        if not backlogged:
            return None
        # Head with the smallest arrival stamp wins.
        return min(backlogged, key=lambda n: self._queues[n][0][2])
