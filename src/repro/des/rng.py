"""Deterministic random-number streams for simulations.

Simulations need several independent randomness sources (arrivals, loss,
lifetimes, scheduling lotteries, ...).  Drawing them all from one
generator couples unrelated parts of the model: adding a draw in one
place perturbs every other stream.  :class:`RngStreams` derives a named,
stable substream per purpose from a single root seed, so results are
reproducible and streams are decoupled.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Callable, Dict

from repro.obs import runtime as _obs


class RngStreams:
    """A family of named, independently seeded ``random.Random`` streams.

    >>> streams = RngStreams(seed=42)
    >>> streams["loss"].random() == RngStreams(seed=42)["loss"].random()
    True
    >>> streams["loss"] is streams["arrivals"]
    False
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def __getitem__(self, name: str) -> random.Random:
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = self._fresh(name)
        return stream

    def _fresh(self, name: str) -> random.Random:
        """A new stream ``name`` that this family does not keep."""
        # Run telemetry records which substreams a cell derived — a
        # no-op outside the experiment runner's cell context.
        _obs.note_rng_stream(f"{self.seed}:{name}")
        return random.Random(self._derive(name))

    def _derive(self, name: str) -> int:
        """Map (root seed, stream name) to a well-mixed 64-bit seed."""
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def spawn(self, name: str) -> "RngStreams":
        """Create a child family (e.g. one per receiver) with its own root."""
        return RngStreams(self._derive(f"spawn:{name}"))

    def __repr__(self) -> str:
        return f"<RngStreams seed={self.seed} streams={sorted(self._streams)}>"


def numbered_streams(seed: int, prefix: str) -> Callable[[], random.Random]:
    """A factory whose n-th call returns stream ``f"{prefix}-{n}"`` of ``seed``.

    For objects built without an explicit rng: each instance draws from
    its own substream, numbered in construction order (deterministic
    within a process), and nothing keeps the stream once its owner is
    gone.  Code that needs cross-process reproducibility passes an
    explicit rng instead.
    """
    root = RngStreams(seed)
    counter = itertools.count()
    return lambda: root._fresh(f"{prefix}-{next(counter)}")
