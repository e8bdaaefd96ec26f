"""The metric registry: counters, gauges, and fixed-bucket histograms.

Instrument model (deliberately Prometheus-shaped, but dependency-free):

* an instrument has a **name** (``repro_<noun>_<unit>[_total]``), a
  static **help** string, and a fixed tuple of **label names**;
* each distinct combination of label *values* is an independent
  **series** inside the instrument;
* a :class:`Counter` only goes up, a :class:`Gauge` holds the last
  value written, and a :class:`Histogram` buckets observations into
  fixed upper-edge buckets (counts are per-bucket, not cumulative,
  with an implicit overflow bucket past the last edge).

A :class:`Registry` owns instruments, renders a JSON-friendly,
deterministically ordered :meth:`Registry.snapshot`, and can
:meth:`Registry.merge` snapshots produced elsewhere — the parallel
experiment runner merges per-cell snapshots in cell order, which makes
the merged result identical for any ``--jobs`` value.

Hot meters do not call in here per event.  They keep plain numbers and
register a **collector** (:meth:`Registry.collector`): every read
through the registry (:meth:`Registry.get`, :meth:`Registry.snapshot`)
first asks each collector to fold what it gathered since the last read
into its series, through label keys validated once by
:meth:`_Instrument.bind`.

All of this is pure accounting: no instrument touches an RNG, the
simulation clock, or scheduling state, so instrumented runs produce
byte-identical simulation results.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple
)

__all__ = ["Counter", "Gauge", "Histogram", "Registry"]

#: Default histogram upper edges, in seconds: spans the latency range the
#: paper's sessions produce (sub-100 ms hot-queue hits to multi-minute
#: cold-cycle repairs).
DEFAULT_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0
)


class _Instrument:
    """Common series bookkeeping for all three instrument kinds."""

    kind = "abstract"

    def __init__(self, name: str, help: str, labels: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._series: Dict[Tuple[str, ...], Any] = {}

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def bind(self, **labels: Any) -> Tuple[str, ...]:
        """Validate a label set once; the key for the ``*_bound`` writes."""
        return self._key(labels)

    @property
    def cardinality(self) -> int:
        """Number of distinct label-value series in this instrument."""
        return len(self._series)

    def reset(self) -> None:
        """Drop every series (a fresh instrument keeps its definition)."""
        self._series.clear()

    def _describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
        }


class Counter(_Instrument):
    """A monotonically non-decreasing sum."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.inc_bound(self._key(labels), amount)

    def inc_bound(self, key: Tuple[str, ...], amount: float) -> None:
        """Add a non-negative ``amount`` to the series of a bound key."""
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._series.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum over every series (all label combinations)."""
        return sum(self._series.values())


class Gauge(_Instrument):
    """A point-in-time value; the last write wins."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._series[self._key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return self._series.get(self._key(labels), 0.0)


class Histogram(_Instrument):
    """Observations bucketed by fixed upper edges.

    An observation lands in the first bucket whose edge is >= the value
    (upper edges are inclusive); values past the last edge land in the
    implicit overflow bucket.  Each series also tracks ``count`` and
    ``sum`` so means survive snapshot merges.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        edges = tuple(float(edge) for edge in buckets)
        if not edges:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(
                f"histogram {name} buckets must be strictly increasing, "
                f"got {edges}"
            )
        self.buckets = edges

    def observe(self, value: float, **labels: Any) -> None:
        self.observe_bound(self._key(labels), (value,))

    def observe_bound(
        self, key: Tuple[str, ...], values: Sequence[float]
    ) -> None:
        """Observe ``values``, in order, into the series of a bound key.

        The sum adds one value at a time, so folding a batch gives the
        same float as observing each value as it happened.
        """
        series = self._series.get(key)
        if series is None:
            series = {
                "count": 0,
                "sum": 0.0,
                "buckets": [0] * (len(self.buckets) + 1),
            }
            self._series[key] = series
        edges = self.buckets
        overflow = len(edges)
        buckets = series["buckets"]
        total = series["sum"]
        for value in values:
            total += value
            # The first edge >= value; NaN compares false, so overflows.
            index = bisect_left(edges, value) if value == value else overflow
            buckets[index] += 1
        series["sum"] = total
        series["count"] += len(values)

    def count(self, **labels: Any) -> int:
        series = self._series.get(self._key(labels))
        return series["count"] if series is not None else 0

    def mean(self, **labels: Any) -> float:
        series = self._series.get(self._key(labels))
        if series is None or series["count"] == 0:
            return float("nan")
        return series["sum"] / series["count"]

    def _describe(self) -> Dict[str, Any]:
        description = super()._describe()
        description["buckets"] = list(self.buckets)
        return description


class Registry:
    """A named collection of instruments with snapshot/merge/reset.

    Registration is idempotent: asking for an instrument that already
    exists returns it, provided kind, labels, and (for histograms)
    buckets match — a mismatch is a programming error and raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._collectors: Dict[Hashable, Any] = {}

    def collector(self, key: Hashable, make: Callable[[], Any]) -> Any:
        """The collector registered under ``key``, made on first use.

        A collector is any object with a ``collect()`` method that folds
        what it gathered since its last call into its bound series.
        Meters on one label set pass the same ``key`` and so share one
        collector: their numbers add up in the order events happened.
        """
        found = self._collectors.get(key)
        if found is None:
            found = self._collectors[key] = make()
        return found

    def collect(self) -> None:
        """Fold every collector into its series (reads call this)."""
        for collector in self._collectors.values():
            collector.collect()

    # -- registration -------------------------------------------------------
    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter(name, help, labels))

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help, labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, labels, buckets))

    def _register(self, candidate: _Instrument) -> _Instrument:
        existing = self._instruments.get(candidate.name)
        if existing is None:
            self._instruments[candidate.name] = candidate
            return candidate
        if type(existing) is not type(candidate) or (
            existing.label_names != candidate.label_names
        ):
            raise ValueError(
                f"instrument {candidate.name!r} already registered as "
                f"{existing.kind}{existing.label_names}; cannot re-register "
                f"as {candidate.kind}{candidate.label_names}"
            )
        if isinstance(candidate, Histogram) and (
            existing.buckets != candidate.buckets  # type: ignore[attr-defined]
        ):
            raise ValueError(
                f"histogram {candidate.name!r} already registered with "
                "different buckets"
            )
        return existing

    # -- access -------------------------------------------------------------
    def get(self, name: str) -> Optional[_Instrument]:
        self.collect()
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> None:
        """Zero every instrument (definitions survive, series do not)."""
        self.collect()
        for instrument in self._instruments.values():
            instrument.reset()

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly, deterministically ordered dump.

        ``{name: {kind, help, labels, [buckets,] series: [{labels:
        [...], value: ...}, ...]}}`` with instruments and series sorted
        by name / label values.  Empty instruments are included, so a
        snapshot taken right after :meth:`reset` round-trips to the
        same set of definitions.
        """
        self.collect()
        out: Dict[str, Any] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            entry = instrument._describe()
            entry["series"] = [
                {"labels": list(key), "value": instrument._series[key]}
                for key in sorted(instrument._series)
            ]
            out[name] = entry
        return out

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a snapshot into this registry.

        Counters and histogram buckets/sums add; gauges take the
        incoming value (last write wins).  Unknown instruments are
        created from the snapshot's own definition, so merging into an
        empty registry reconstructs the original exactly.  Merging the
        per-cell snapshots of a run in cell order therefore yields the
        same result for any worker count.
        """
        for name, entry in snapshot.items():
            kind = entry["kind"]
            labels = tuple(entry["labels"])
            if kind == "counter":
                instrument = self.counter(name, entry.get("help", ""), labels)
                for series in entry["series"]:
                    key = tuple(series["labels"])
                    instrument._series[key] = (
                        instrument._series.get(key, 0.0) + series["value"]
                    )
            elif kind == "gauge":
                instrument = self.gauge(name, entry.get("help", ""), labels)
                for series in entry["series"]:
                    instrument._series[tuple(series["labels"])] = series[
                        "value"
                    ]
            elif kind == "histogram":
                instrument = self.histogram(
                    name, entry.get("help", ""), labels, entry["buckets"]
                )
                for series in entry["series"]:
                    key = tuple(series["labels"])
                    mine = instrument._series.get(key)
                    if mine is None:
                        mine = {
                            "count": 0,
                            "sum": 0.0,
                            "buckets": [0] * (len(instrument.buckets) + 1),
                        }
                        instrument._series[key] = mine
                    value = series["value"]
                    mine["count"] += value["count"]
                    mine["sum"] += value["sum"]
                    for i, count in enumerate(value["buckets"]):
                        mine["buckets"][i] += count
            else:  # pragma: no cover - snapshots are produced by us
                raise ValueError(f"unknown instrument kind {kind!r}")
