"""Packet capture and trace analysis.

A :class:`PacketCapture` attaches to any :class:`~repro.net.Channel` or
:class:`~repro.net.MulticastChannel` and records one row per serviced
packet: time, kind, sequence number, size, and loss outcome.  The
capture supports windowed rate/loss series (what a monitoring tool
would plot), loss-run statistics (burstiness evidence), and export of
the loss pattern as a replayable :class:`~repro.net.TraceLoss`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.net.channel import Channel, MulticastChannel
from repro.net.loss import TraceLoss
from repro.net.packet import Packet


@dataclass(frozen=True)
class CaptureRecord:
    """One serviced packet."""

    time: float
    kind: str
    seq: Optional[int]
    size_bits: int
    lost: bool


class PacketCapture:
    """Records serviced packets from a channel for offline analysis."""

    def __init__(self, max_records: int = 1_000_000) -> None:
        if max_records <= 0:
            raise ValueError(
                f"max_records must be positive, got {max_records}"
            )
        self.max_records = max_records
        self.records: List[CaptureRecord] = []
        self.dropped_records = 0
        self._env = None

    # -- attachment ----------------------------------------------------------
    def attach(self, channel: Channel) -> "PacketCapture":
        """Tap a unicast channel (records each service + loss outcome)."""
        self._env = channel.env
        channel.on_serviced(self._on_unicast)
        return self

    def attach_multicast(
        self, channel: MulticastChannel, receiver_id: Any
    ) -> "PacketCapture":
        """Tap one receiver's view of a multicast channel."""

        self._env = channel.env

        def hook(packet: Packet, outcomes: Dict[Any, bool]) -> None:
            if receiver_id in outcomes:
                self._record(packet, outcomes[receiver_id])

        channel.on_serviced(hook)
        return self

    def _on_unicast(self, packet: Packet, lost: bool) -> None:
        self._record(packet, lost)

    def _record(self, packet: Packet, lost: bool) -> None:
        if len(self.records) >= self.max_records:
            self.dropped_records += 1
            return
        # Stamp the *service* time (when the packet hit the wire), not
        # the enqueue time: rate series must reflect the channel clock.
        self.records.append(
            CaptureRecord(
                time=self._env.now,
                kind=packet.kind,
                seq=packet.seq,
                size_bits=packet.size_bits,
                lost=lost,
            )
        )

    # -- aggregate statistics ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    @property
    def loss_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.lost for r in self.records) / len(self.records)

    def kinds(self) -> Dict[str, int]:
        """Packet count per kind (announce/summary/nack/...)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def bits_by_kind(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for record in self.records:
            totals[record.kind] = (
                totals.get(record.kind, 0) + record.size_bits
            )
        return totals

    def rate_series(
        self, window: float, kind: Optional[str] = None
    ) -> List[Tuple[float, float]]:
        """(window start, kbps) series over the capture."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if not self.records:
            return []
        start = self.records[0].time
        buckets: Dict[int, float] = {}
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            index = int((record.time - start) // window)
            buckets[index] = buckets.get(index, 0.0) + record.size_bits
        return [
            (start + index * window, bits / window / 1000.0)
            for index, bits in sorted(buckets.items())
        ]

    def loss_series(self, window: float) -> List[Tuple[float, float]]:
        """(window start, loss fraction) series."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if not self.records:
            return []
        start = self.records[0].time
        sent: Dict[int, int] = {}
        lost: Dict[int, int] = {}
        for record in self.records:
            index = int((record.time - start) // window)
            sent[index] = sent.get(index, 0) + 1
            if record.lost:
                lost[index] = lost.get(index, 0) + 1
        return [
            (start + index * window, lost.get(index, 0) / count)
            for index, count in sorted(sent.items())
        ]

    def loss_runs(self) -> List[int]:
        """Lengths of consecutive-loss runs (burstiness evidence)."""
        runs: List[int] = []
        current = 0
        for record in self.records:
            if record.lost:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        return runs

    def mean_burst_length(self) -> float:
        runs = self.loss_runs()
        if not runs:
            return 0.0
        return sum(runs) / len(runs)

    def to_trace_loss(self) -> TraceLoss:
        """Replay this capture's loss pattern on another channel."""
        if not self.records:
            raise ValueError("empty capture has no loss pattern")
        return TraceLoss([record.lost for record in self.records])

    def as_rows(self) -> List[Dict[str, Any]]:
        return [
            {
                "time": record.time,
                "kind": record.kind,
                "seq": record.seq,
                "size_bits": record.size_bits,
                "lost": record.lost,
            }
            for record in self.records
        ]
