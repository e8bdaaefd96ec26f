"""Consistency profiles: measured consistency as a function of operating point.

Section 6.1: "SSTP uses measured packet loss rates ... and empirically
derived consistency profiles to carefully control bandwidth allocation"
and "an application can experience the maximum possible consistency ...
by scheduling its available session bandwidth based on consistency
profiles derived from our model".

A profile is a table of (loss_rate, knob) -> consistency (or latency)
points, where ``knob`` is whatever allocation fraction the
profile parameterizes (feedback share for Figure 9, hot share for
Figures 5/10).  Prediction between grid points uses bilinear
interpolation; :meth:`ConsistencyProfile.best_knob` returns the
allocation that maximizes predicted consistency at a measured loss
rate — the allocator's core lookup.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class ProfilePoint:
    """One measured operating point."""

    loss_rate: float
    knob: float
    consistency: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(
                f"loss_rate must be in [0, 1], got {self.loss_rate}"
            )
        if not 0.0 <= self.consistency <= 1.0 + 1e-9:
            raise ValueError(
                f"consistency must be in [0, 1], got {self.consistency}"
            )


@dataclass(frozen=True)
class LatencyPoint:
    """One measured (loss rate, knob) -> receive-latency point."""

    loss_rate: float
    knob: float
    latency: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(
                f"loss_rate must be in [0, 1], got {self.loss_rate}"
            )
        if self.latency < 0:
            raise ValueError(
                f"latency must be non-negative, got {self.latency}"
            )


class _Surface:
    """A bilinearly interpolated surface over (loss rate, knob).

    Subclasses name the point field they interpolate (``_field``, also
    the ``kind`` tag :func:`profile_to_json` writes), its point type
    (``_point``) and whether larger values are better (``_maximize``).
    """

    _field = ""
    _point: type = object
    _maximize = True

    def __init__(self, name: str, knob_name: str) -> None:
        self.name = name
        self.knob_name = knob_name
        self._points: Dict[Tuple[float, float], Any] = {}

    def add(self, point) -> None:
        """Add (or overwrite) a measured point."""
        self._points[(point.loss_rate, point.knob)] = point

    def add_many(self, points: Iterable) -> None:
        for point in points:
            self.add(point)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def loss_rates(self) -> List[float]:
        return sorted({loss for loss, _ in self._points})

    def knobs(self, loss_rate: float) -> List[float]:
        return sorted(
            {knob for loss, knob in self._points if loss == loss_rate}
        )

    def _value(self, loss_rate: float, knob: float) -> float:
        return getattr(self._points[(loss_rate, knob)], self._field)

    # -- prediction ----------------------------------------------------------
    def predict(self, loss_rate: float, knob: float) -> float:
        """Interpolated value at an arbitrary operating point."""
        if not self._points:
            raise ValueError(f"{self._field} profile {self.name!r} is empty")
        lo, hi = _bracket(self.loss_rates, loss_rate)
        value_lo = self._predict_at_loss(lo, knob)
        if lo == hi:
            return value_lo
        value_hi = self._predict_at_loss(hi, knob)
        weight = (loss_rate - lo) / (hi - lo)
        return value_lo * (1.0 - weight) + value_hi * weight

    def _predict_at_loss(self, loss_rate: float, knob: float) -> float:
        lo, hi = _bracket(self.knobs(loss_rate), knob)
        v_lo = self._value(loss_rate, lo)
        if lo == hi:
            return v_lo
        v_hi = self._value(loss_rate, hi)
        weight = (knob - lo) / (hi - lo)
        return v_lo * (1.0 - weight) + v_hi * weight

    def best_knob(self, loss_rate: float) -> Tuple[float, float]:
        """(knob, predicted value) at the best predicted value for this loss.

        Searches the union of measured knob values (the surface is
        piecewise linear in the knob, so the optimum lies on a grid
        point of the interpolant).
        """
        if not self._points:
            raise ValueError(f"{self._field} profile {self.name!r} is empty")
        candidates = sorted({knob for _, knob in self._points})
        pick = max if self._maximize else min
        best = pick(candidates, key=lambda k: self.predict(loss_rate, k))
        return best, self.predict(loss_rate, best)

    def knob_for_target(
        self, loss_rate: float, target: float
    ) -> Optional[float]:
        """Smallest knob whose prediction meets the target, or None."""
        candidates = sorted({knob for _, knob in self._points})
        for knob in candidates:
            value = self.predict(loss_rate, knob)
            if (value >= target) if self._maximize else (value <= target):
                return knob
        return None


class ConsistencyProfile(_Surface):
    """An interpolated consistency surface over (loss rate, knob)."""

    _field = "consistency"
    _point = ProfilePoint

    def __init__(self, name: str, knob_name: str = "allocation") -> None:
        super().__init__(name, knob_name)

    def as_rows(self) -> List[Dict[str, float]]:
        """Flat rows for printing/serialisation."""
        return [
            {
                "loss_rate": point.loss_rate,
                self.knob_name: point.knob,
                "consistency": point.consistency,
            }
            for point in sorted(
                self._points.values(), key=lambda p: (p.loss_rate, p.knob)
            )
        ]


class LatencyProfile(_Surface):
    """An interpolated T_recv surface over (loss rate, knob).

    The paper's allocator derives "the share of bandwidth for the
    different transmission queues ... from the T_rec profile"
    (Section 6.1): unlike consistency, latency is *minimized*, and a
    delay requirement maps to the smallest knob meeting it.
    """

    _field = "latency"
    _point = LatencyPoint
    _maximize = False

    def __init__(self, name: str, knob_name: str = "cold_share") -> None:
        super().__init__(name, knob_name)


def _bracket(grid: List[float], value: float) -> Tuple[float, float]:
    """The two grid values surrounding ``value`` (clamped at the edges)."""
    if not grid:
        raise ValueError("empty grid")
    if value <= grid[0]:
        return grid[0], grid[0]
    if value >= grid[-1]:
        return grid[-1], grid[-1]
    index = bisect.bisect_left(grid, value)
    if grid[index] == value:
        return value, value
    return grid[index - 1], grid[index]


def profile_to_json(profile) -> str:
    """Serialise a consistency or latency profile to a JSON string.

    The paper's allocator works from *stored* profiles ("using stored
    consistency profiles ... the bandwidth allocator outputs values");
    this pair of helpers lets deployments persist measured sweeps and
    reload them in later sessions.
    """
    import json

    if not isinstance(profile, _Surface):
        raise TypeError(f"cannot serialise {type(profile).__name__}")
    points = [
        {
            "loss_rate": point.loss_rate,
            "knob": point.knob,
            "value": getattr(point, profile._field),
        }
        for point in profile._points.values()
    ]
    return json.dumps(
        {
            "kind": profile._field,
            "name": profile.name,
            "knob_name": profile.knob_name,
            "points": sorted(
                points, key=lambda p: (p["loss_rate"], p["knob"])
            ),
        },
        indent=2,
    )


def profile_from_json(text: str):
    """Reload a profile serialised by :func:`profile_to_json`."""
    import json

    data = json.loads(text)
    kind = data.get("kind")
    kinds = {cls._field: cls for cls in (ConsistencyProfile, LatencyProfile)}
    if kind not in kinds:
        raise ValueError(f"unknown profile kind {kind!r}")
    cls = kinds[kind]
    profile = cls(data["name"], data["knob_name"])
    for point in data["points"]:
        profile.add(
            cls._point(
                loss_rate=point["loss_rate"],
                knob=point["knob"],
                **{cls._field: point["value"]},
            )
        )
    return profile
