"""Lottery scheduling (Waldspurger & Weihl, OSDI '95).

Each class holds tickets proportional to its weight; every service slot
a winning ticket is drawn uniformly among *backlogged* classes, so an
idle class's tickets are redistributed automatically ("unused excess hot
bandwidth is consumed by transmissions from the cold queue", Section 4).
Probabilistically fair with no per-class virtual-time state.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.des.rng import numbered_streams
from repro.sched.base import Scheduler

#: The rng of a scheduler built without one (same scheme as
#: repro.net.loss): two side-by-side lotteries never replay one sequence.
_default_rng = numbered_streams(0x5C_4ED, "lottery")


class LotteryScheduler(Scheduler):
    """Randomized proportional-share scheduler."""

    def __init__(self, rng: random.Random | None = None) -> None:
        super().__init__()
        if rng is None:
            rng = _default_rng()
        self._rng = rng

    def _select(self) -> Optional[str]:
        backlogged = self._backlogged()
        if not backlogged:
            return None
        if len(backlogged) == 1:
            return backlogged[0]
        total = sum(self._weights[name] for name in backlogged)
        winner = self._rng.random() * total
        acc = 0.0
        for name in backlogged:
            acc += self._weights[name]
            if winner < acc:
                return name
        return backlogged[-1]
