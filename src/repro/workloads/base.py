"""Workload interface.

A workload is a simulation process that mutates a publisher's table
through the narrow :class:`PublisherActions` protocol, so the same
workload runs unchanged against every protocol variant (open-loop,
two-queue, feedback, SSTP) and against the ARQ baseline.
"""

from __future__ import annotations

import math
import random
from typing import Any, Protocol

from repro.des import Environment


class PublisherActions(Protocol):
    """What a workload may do to a publisher."""

    def insert(self, key: Any, value: Any, lifetime: float = math.inf) -> None:
        """Introduce a new record."""

    def update(self, key: Any, value: Any) -> None:
        """Change the value of an existing live record."""

    def delete(self, key: Any) -> None:
        """Withdraw a record before its lifetime ends."""


class Workload:
    """Base class for update processes."""

    def run(
        self,
        env: Environment,
        actions: PublisherActions,
        rng: random.Random,
    ):
        """Generator to be wrapped in ``env.process``.

        Implementations yield simulation events (usually timeouts)
        between mutations.
        """
        raise NotImplementedError

    def note_death(self, key: Any) -> None:
        """The publisher lost ``key`` (death or crash); no-op by default."""

    def describe(self) -> str:
        """One-line human-readable summary."""
        return type(self).__name__
