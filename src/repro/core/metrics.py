"""Receive latency, bandwidth accounting, and fault-recovery metrics.

The paper's second metric (Section 2.1) is the receive latency T_recv:
the time from the instant a new or updated {key, value} pair enters the
system until a receiver first holds it.  Its bandwidth discussion
(Figure 4 and Sections 4-6) distinguishes useful transmissions (a datum
the receiver did not have) from redundant retransmissions and from
feedback traffic; :class:`BandwidthLedger` keeps those books.

:class:`RecoveryTracker` quantifies the paper's *robustness* claim —
that soft-state sessions re-converge automatically after failures — by
annotating the consistency time series with fault windows and deriving,
per fault, the time to re-consistency, the stale-read exposure, and the
false-expiry count (the scalable-timers trade-off: receiver state aged
out while the sender was merely crashed, not dead).

All three keep plain numbers on the per-event path.  They publish into
the ambient :class:`repro.obs.Registry` through one collector per label
set (:meth:`repro.obs.Registry.collector`), which the registry folds in
on every read — so nothing here calls into :mod:`repro.obs.metrics` per
packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import runtime as _obs
from repro.obs.trace import WARNING as _WARNING


class _LatencySeries:
    """Unpublished latency numbers of one ``(session, protocol)`` label set.

    Every :class:`LatencyRecorder` on the label set shares it, so the
    latency histogram's float ``sum`` adds receipts in receipt order.
    """

    __slots__ = (
        "introduced",
        "duplicates",
        "latencies",
        "_key",
        "_m_introduced",
        "_m_received",
        "_m_duplicates",
        "_h_latency",
    )

    def __init__(self, registry, session: str, protocol: str) -> None:
        label_names = ("session", "protocol")
        self._m_introduced = registry.counter(
            "repro_latency_introduced_total",
            "Distinct (key, version) pairs entering the publisher table.",
            label_names,
        )
        self._m_received = registry.counter(
            "repro_latency_received_total",
            "First receipts of a tracked (key, version) at a subscriber.",
            label_names,
        )
        self._m_duplicates = registry.counter(
            "repro_duplicate_introduction_total",
            "introduced() calls for a (key, version) already pending.",
            label_names,
        )
        self._h_latency = registry.histogram(
            "repro_receive_latency_seconds",
            "Receive latency T_recv: introduction to first receipt.",
            label_names,
        )
        self._key = self._m_introduced.bind(session=session, protocol=protocol)
        self.introduced = 0
        self.duplicates = 0
        self.latencies: List[float] = []

    def collect(self) -> None:
        key = self._key
        if self.introduced:
            self._m_introduced.inc_bound(key, self.introduced)
            self.introduced = 0
        if self.duplicates:
            self._m_duplicates.inc_bound(key, self.duplicates)
            self.duplicates = 0
        if self.latencies:
            self._m_received.inc_bound(key, len(self.latencies))
            self._h_latency.observe_bound(key, self.latencies)
            self.latencies = []


class LatencyRecorder:
    """Tracks per-(key, version) introduction and first-receipt times.

    Only successfully received items contribute to the mean — exactly
    the convention the paper uses ("the average T_recv is measured only
    over all successful transmissions").

    The exact per-item bookkeeping here stays authoritative; the
    recorder also publishes counters and a latency histogram into the
    ambient :class:`repro.obs.Registry`, labeled by session and
    protocol, so runs can be inspected without touching results.
    """

    def __init__(self, session: str = "", protocol: str = "") -> None:
        self._introduced: Dict[Tuple[Any, int], float] = {}
        self._latencies: List[float] = []
        #: Re-introductions of a still-pending (key, version) — see
        #: :meth:`introduced`.  The first timestamp stays authoritative.
        self.duplicate_introductions = 0
        self._trace = _obs.current_tracer()
        registry = _obs.registry()
        self._series = registry.collector(
            ("latency", str(session), str(protocol)),
            lambda: _LatencySeries(registry, session, protocol),
        )

    def introduced(self, key: Any, version: int, now: float) -> None:
        """A new value for (key, version) entered the publisher table.

        Re-introducing a pair that is still pending keeps the *first*
        timestamp (T_recv measures from when the datum first entered the
        system), but is surfaced as a warning trace event and a
        ``repro_duplicate_introduction_total`` increment rather than
        silently ignored — it usually means a versioning bug upstream.
        """
        first = self._introduced.get((key, version))
        if first is not None:
            self.duplicate_introductions += 1
            self._series.duplicates += 1
            tr = self._trace
            if tr is not None and tr.warning:
                tr.emit(
                    _WARNING,
                    "duplicate_introduction",
                    now,
                    key=key,
                    version=version,
                    first_introduced=first,
                )
            return
        self._introduced[(key, version)] = now
        self._series.introduced += 1

    def received(self, key: Any, version: int, now: float) -> Optional[float]:
        """First receipt at a subscriber; returns the latency if new."""
        start = self._introduced.pop((key, version), None)
        if start is None:
            return None  # duplicate receipt or never tracked
        latency = now - start
        self._latencies.append(latency)
        self._series.latencies.append(latency)
        return latency

    def abandoned(self, key: Any, version: int) -> None:
        """The record died before any receipt: drop it from tracking."""
        self._introduced.pop((key, version), None)

    @property
    def count(self) -> int:
        return len(self._latencies)

    @property
    def pending(self) -> int:
        """Items introduced but never received (yet)."""
        return len(self._introduced)

    def mean(self) -> float:
        if not self._latencies:
            return math.nan
        return sum(self._latencies) / len(self._latencies)

    def percentile(self, q: float) -> float:
        """Empirical percentile (q in [0, 100]) of receive latency."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if not self._latencies:
            return math.nan
        ordered = sorted(self._latencies)
        position = (len(ordered) - 1) * q / 100.0
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def max(self) -> float:
        return max(self._latencies) if self._latencies else math.nan


class _LedgerSeries:
    """Unpublished bits and packets of one ``(session, protocol)`` label
    set, per category touched since the last fold."""

    __slots__ = ("bits", "packets", "_labels", "_m_bits", "_m_packets")

    def __init__(self, registry, session: str, protocol: str) -> None:
        label_names = ("session", "protocol", "category")
        self._m_bits = registry.counter(
            "repro_bandwidth_bits_total",
            "Bits sent, by purpose (Figure 4 accounting).",
            label_names,
        )
        self._m_packets = registry.counter(
            "repro_bandwidth_packets_total",
            "Packets sent, by purpose.",
            label_names,
        )
        self._labels = (session, protocol)
        self.bits: Dict[str, float] = {}
        self.packets: Dict[str, int] = {}

    def collect(self) -> None:
        session, protocol = self._labels
        for category, bits in self.bits.items():
            key = self._m_bits.bind(
                session=session, protocol=protocol, category=category
            )
            self._m_bits.inc_bound(key, bits)
            self._m_packets.inc_bound(key, self.packets[category])
        self.bits = {}
        self.packets = {}


class BandwidthLedger:
    """Bits sent, broken down by purpose.

    Categories:

    * ``new``       — first transmission of a (key, version);
    * ``redundant`` — retransmission of data the receiver already held
      (the Figure 4 waste);
    * ``repair``    — retransmission triggered by or needed for recovery
      (receiver did not hold the datum);
    * ``summary``   — SSTP namespace digest announcements;
    * ``feedback``  — NACKs and receiver reports.
    """

    CATEGORIES = ("new", "redundant", "repair", "summary", "feedback")

    def __init__(self, session: str = "", protocol: str = "") -> None:
        self._bits: Dict[str, float] = {c: 0.0 for c in self.CATEGORIES}
        self._packets: Dict[str, int] = {c: 0 for c in self.CATEGORIES}
        registry = _obs.registry()
        self._series = registry.collector(
            ("bandwidth", str(session), str(protocol)),
            lambda: _LedgerSeries(registry, session, protocol),
        )

    def add(self, category: str, bits: float, packets: int = 1) -> None:
        if category not in self._bits:
            raise ValueError(
                f"unknown category {category!r}; expected one of "
                f"{self.CATEGORIES}"
            )
        if bits < 0:
            raise ValueError(f"bits must be non-negative, got {bits}")
        self._bits[category] += bits
        self._packets[category] += packets
        series = self._series
        series.bits[category] = series.bits.get(category, 0.0) + bits
        series.packets[category] = series.packets.get(category, 0) + packets

    def bits(self, category: str) -> float:
        if category not in self._bits:
            raise ValueError(f"unknown category {category!r}")
        return self._bits[category]

    def packets(self, category: str) -> int:
        if category not in self._packets:
            raise ValueError(f"unknown category {category!r}")
        return self._packets[category]

    @property
    def total_bits(self) -> float:
        return sum(self._bits.values())

    @property
    def data_bits(self) -> float:
        """Forward-path bits (everything except feedback)."""
        return self.total_bits - self._bits["feedback"]

    def fraction(self, category: str) -> float:
        """Share of *data* bits in ``category`` (feedback measured vs total)."""
        base = self.total_bits if category == "feedback" else self.data_bits
        if base == 0:
            return 0.0
        return self.bits(category) / base

    def redundant_fraction(self) -> float:
        """The Figure 4 statistic: wasted share of the data bandwidth."""
        return self.fraction("redundant")

    def as_dict(self) -> Dict[str, float]:
        return dict(self._bits)


@dataclass
class FaultWindow:
    """One fault's active interval on the simulation clock."""

    label: str
    kind: str
    start: float
    end: float

    def covers(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass
class FaultReport:
    """Recovery analysis for one fault window.

    ``baseline`` is the time-averaged consistency over the interval just
    before the fault; recovery means returning to within ``tolerance``
    of it (``recovered_at`` is the first post-heal sample at or above
    ``baseline * (1 - tolerance)``, and ``recovery_s`` counts from the
    moment the fault healed).  ``stale_read_s`` integrates (1 - c) from
    fault onset to recovery: the expected time a uniformly random read
    during the episode would have returned stale or missing data.
    """

    label: str
    kind: str
    start: float
    end: float
    baseline: float
    min_consistency: float
    recovered_at: float
    recovery_s: float
    stale_read_s: float
    false_expiries: int


class _RecoverySeries:
    """Unpublished fault windows (per kind) and false expiries of every
    :class:`RecoveryTracker` on one registry."""

    __slots__ = (
        "windows", "false_expiries", "_m_windows", "_m_false_expiries"
    )

    def __init__(self, registry) -> None:
        self._m_windows = registry.counter(
            "repro_fault_windows_total",
            "Fault windows registered on the recovery tracker.",
            ("kind",),
        )
        self._m_false_expiries = registry.counter(
            "repro_false_expiries_total",
            "Receiver expirations of data the publisher still held.",
        )
        self.windows: Dict[str, int] = {}
        self.false_expiries = 0

    def collect(self) -> None:
        for kind, count in self.windows.items():
            self._m_windows.inc_bound(self._m_windows.bind(kind=kind), count)
        self.windows = {}
        if self.false_expiries:
            self._m_false_expiries.inc_bound((), self.false_expiries)
            self.false_expiries = 0


class RecoveryTracker:
    """Fault windows, false-expiry events, and per-fault recovery stats.

    A session with a fault schedule owns one tracker: the injector
    registers a :class:`FaultWindow` per armed fault, the session feeds
    receiver-side expirations through :meth:`note_false_expiry`, and
    :meth:`analyze` turns the run's raw consistency series into one
    :class:`FaultReport` per window.
    """

    def __init__(
        self, tolerance: float = 0.05, baseline_window: float = 20.0
    ) -> None:
        if not 0.0 < tolerance < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
        if baseline_window <= 0:
            raise ValueError(
                f"baseline_window must be positive, got {baseline_window}"
            )
        self.tolerance = tolerance
        self.baseline_window = baseline_window
        self.windows: List[FaultWindow] = []
        self.false_expiry_events: List[Tuple[float, Any]] = []
        registry = _obs.registry()
        self._series = registry.collector(
            ("recovery",), lambda: _RecoverySeries(registry)
        )

    # -- recording -----------------------------------------------------------
    def add_window(
        self, label: str, start: float, end: float, kind: str = "fault"
    ) -> FaultWindow:
        if end < start:
            raise ValueError(f"window ends ({end}) before it starts ({start})")
        window = FaultWindow(label=label, kind=kind, start=start, end=end)
        self.windows.append(window)
        windows = self._series.windows
        windows[kind] = windows.get(kind, 0) + 1
        return window

    def note_false_expiry(self, now: float, key: Any) -> None:
        """A receiver's copy aged out while the publisher still held it."""
        self.false_expiry_events.append((now, key))
        self._series.false_expiries += 1

    @property
    def false_expiries(self) -> int:
        return len(self.false_expiry_events)

    def sender_down(self, now: float) -> bool:
        """Is any sender-crash window active at ``now``?"""
        return any(
            w.kind == "sender-crash" and w.covers(now) for w in self.windows
        )

    # -- analysis ------------------------------------------------------------
    def annotate(
        self, series: List[Tuple[float, float]]
    ) -> List[Tuple[float, float, str]]:
        """The consistency series with active-fault labels attached."""
        annotated = []
        for t, c in series:
            active = ",".join(w.label for w in self.windows if w.covers(t))
            annotated.append((t, c, active))
        return annotated

    def analyze(
        self, series: List[Tuple[float, float]]
    ) -> List[FaultReport]:
        """One :class:`FaultReport` per window, in registration order."""
        return [self._report(window, series) for window in self.windows]

    def _report(
        self, window: FaultWindow, series: List[Tuple[float, float]]
    ) -> FaultReport:
        baseline = _time_average(
            series, window.start - self.baseline_window, window.start
        )
        threshold = baseline * (1.0 - self.tolerance)
        recovered_at = math.nan
        if not math.isnan(threshold):
            for t, c in series:
                if t >= window.end and c >= threshold:
                    recovered_at = t
                    break
        last_t = series[-1][0] if series else window.end
        upper = recovered_at if not math.isnan(recovered_at) else last_t
        in_window = [c for t, c in series if window.start <= t <= upper]
        return FaultReport(
            label=window.label,
            kind=window.kind,
            start=window.start,
            end=window.end,
            baseline=baseline,
            min_consistency=min(in_window) if in_window else math.nan,
            recovered_at=recovered_at,
            recovery_s=(
                recovered_at - window.end
                if not math.isnan(recovered_at)
                else math.nan
            ),
            stale_read_s=_staleness_integral(series, window.start, upper),
            false_expiries=sum(
                1
                for t, _ in self.false_expiry_events
                if window.start <= t <= upper
            ),
        )


def _time_average(
    series: List[Tuple[float, float]], t0: float, t1: float
) -> float:
    """Piecewise-constant time average of a sampled series over [t0, t1]."""
    if t1 <= t0:
        return math.nan
    total = 0.0
    covered = 0.0
    for i, (t, c) in enumerate(series):
        t_next = series[i + 1][0] if i + 1 < len(series) else t1
        lo = max(t, t0)
        hi = min(t_next, t1)
        if hi > lo:
            total += c * (hi - lo)
            covered += hi - lo
    return total / covered if covered > 0 else math.nan


def _staleness_integral(
    series: List[Tuple[float, float]], t0: float, t1: float
) -> float:
    """Integral of (1 - c) over [t0, t1], piecewise constant."""
    if t1 <= t0:
        return 0.0
    total = 0.0
    for i, (t, c) in enumerate(series):
        t_next = series[i + 1][0] if i + 1 < len(series) else t1
        lo = max(t, t0)
        hi = min(t_next, t1)
        if hi > lo:
            total += (1.0 - c) * (hi - lo)
    return total
