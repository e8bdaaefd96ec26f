"""Packet loss models.

The paper's analysis depends only on the *mean* per-transmission loss
rate (Section 3 argues the consistency metric is insensitive to the loss
pattern).  We provide a Bernoulli model matching that assumption plus a
bursty Gilbert-Elliott model, a deterministic model, and a trace-driven
model, so that the "loss-pattern insensitivity" claim can itself be
tested (see the loss-model ablation bench).
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.des.rng import numbered_streams

#: The rng of a model built without one.  Every such instance draws
#: from its own substream: two channels constructed side by side must
#: not share one loss sequence (they used to — every default was
#: ``random.Random(0)``, so "independent" channels dropped exactly the
#: same packets).  The sessions pass an explicit rng.
_default_rng = numbered_streams(0x10_55, "model")


class LossModel:
    """Decides, per transmission, whether a packet is dropped."""

    def is_lost(self) -> bool:
        raise NotImplementedError

    @property
    def mean_loss_rate(self) -> float:
        """Long-run fraction of transmissions dropped."""
        raise NotImplementedError


class NoLoss(LossModel):
    """A perfect channel."""

    def is_lost(self) -> bool:
        return False

    @property
    def mean_loss_rate(self) -> float:
        return 0.0


class TotalLoss(LossModel):
    """A severed channel: every packet is dropped (outages, partitions)."""

    def is_lost(self) -> bool:
        return True

    @property
    def mean_loss_rate(self) -> float:
        return 1.0


class BernoulliLoss(LossModel):
    """Independent loss with fixed probability ``rate`` per packet."""

    def __init__(self, rate: float, rng: random.Random | None = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = rng if rng is not None else _default_rng()

    def is_lost(self) -> bool:
        if self.rate == 0.0:
            return False
        if self.rate == 1.0:
            return True
        return self._rng.random() < self.rate

    @property
    def mean_loss_rate(self) -> float:
        return self.rate

    def __repr__(self) -> str:
        return f"BernoulliLoss(rate={self.rate})"


class GilbertElliottLoss(LossModel):
    """Two-state bursty loss (Gilbert-Elliott chain).

    The chain alternates between a ``good`` state (loss probability
    ``good_loss``, usually 0) and a ``bad`` state (loss probability
    ``bad_loss``, usually near 1).  ``p_gb`` is the per-packet
    good->bad transition probability and ``p_bg`` the bad->good one.

    The stationary bad-state probability is ``p_gb / (p_gb + p_bg)`` and
    the mean loss rate follows from mixing the two per-state rates.
    """

    def __init__(
        self,
        p_gb: float,
        p_bg: float,
        bad_loss: float = 1.0,
        good_loss: float = 0.0,
        rng: random.Random | None = None,
    ) -> None:
        for name, value in [
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("bad_loss", bad_loss),
            ("good_loss", good_loss),
        ]:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if p_gb + p_bg == 0:
            raise ValueError("chain must be able to move: p_gb + p_bg > 0")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.bad_loss = bad_loss
        self.good_loss = good_loss
        self._rng = rng if rng is not None else _default_rng()
        self._bad = False

    @classmethod
    def with_mean(
        cls,
        mean_loss: float,
        burst_length: float = 5.0,
        rng: random.Random | None = None,
    ) -> "GilbertElliottLoss":
        """Build a chain with a target mean loss and mean burst length.

        With ``bad_loss=1`` and ``good_loss=0``, the mean loss rate equals
        the stationary bad probability ``pi_b = p_gb / (p_gb + p_bg)`` and
        the mean burst length is ``1 / p_bg``.
        """
        if not 0.0 <= mean_loss < 1.0:
            raise ValueError(f"mean_loss must be in [0, 1), got {mean_loss}")
        if burst_length < 1.0:
            raise ValueError(f"burst_length must be >= 1, got {burst_length}")
        p_bg = 1.0 / burst_length
        # pi_b = p_gb/(p_gb+p_bg) = mean_loss  =>  p_gb = p_bg*m/(1-m).
        # Feasibility: p_gb <= 1 requires mean <= burst/(burst+1); a
        # chain cannot spend e.g. 75% of its time in bursts of length 1.
        ceiling = burst_length / (burst_length + 1.0)
        if mean_loss > ceiling + 1e-12:
            raise ValueError(
                f"mean_loss {mean_loss} is unreachable with burst_length "
                f"{burst_length} (maximum {ceiling:.4f})"
            )
        p_gb = p_bg * mean_loss / (1.0 - mean_loss) if mean_loss > 0 else 0.0
        return cls(p_gb=min(p_gb, 1.0), p_bg=p_bg, rng=rng)

    def is_lost(self) -> bool:
        # Transition first, then draw loss from the new state, so that a
        # burst begins with the packet that triggered the transition.
        if self._bad:
            if self._rng.random() < self.p_bg:
                self._bad = False
        else:
            if self._rng.random() < self.p_gb:
                self._bad = True
        rate = self.bad_loss if self._bad else self.good_loss
        return self._rng.random() < rate

    @property
    def mean_loss_rate(self) -> float:
        pi_bad = self.p_gb / (self.p_gb + self.p_bg)
        return pi_bad * self.bad_loss + (1.0 - pi_bad) * self.good_loss

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLoss(p_gb={self.p_gb:.4f}, p_bg={self.p_bg:.4f}, "
            f"mean={self.mean_loss_rate:.4f})"
        )


class DeterministicLoss(LossModel):
    """Drops every ``period``-th packet (useful for exact-count tests)."""

    def __init__(self, period: int, offset: int = 0) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self.period = period
        self.offset = offset
        self._count = 0

    def is_lost(self) -> bool:
        lost = (self._count + self.offset) % self.period == self.period - 1
        self._count += 1
        return lost

    @property
    def mean_loss_rate(self) -> float:
        return 1.0 / self.period


class TraceLoss(LossModel):
    """Replays a recorded loss trace (True = lost), cycling at the end."""

    def __init__(self, trace: Sequence[bool] | Iterable[bool]) -> None:
        self.trace = list(trace)
        if not self.trace:
            raise ValueError("trace must not be empty")
        self._pos = 0

    def is_lost(self) -> bool:
        lost = bool(self.trace[self._pos])
        self._pos = (self._pos + 1) % len(self.trace)
        return lost

    @property
    def mean_loss_rate(self) -> float:
        return sum(self.trace) / len(self.trace)


class CombinedLoss(LossModel):
    """A packet survives only if it survives *every* component model."""

    def __init__(self, models: Sequence[LossModel]) -> None:
        if not models:
            raise ValueError("need at least one component model")
        self.models = list(models)

    def is_lost(self) -> bool:
        # Evaluate all components so stateful models keep advancing.
        results = [model.is_lost() for model in self.models]
        return any(results)

    @property
    def mean_loss_rate(self) -> float:
        survive = 1.0
        for model in self.models:
            survive *= 1.0 - model.mean_loss_rate
        return 1.0 - survive
