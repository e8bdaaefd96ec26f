"""Causal lifecycle spans folded from the flat trace stream.

The tracer (docs/OBSERVABILITY.md) emits flat point events; the paper's
central quantities — consistency lag, false-expiry risk, repair latency
— are *lifecycle* properties of a record or a packet.  This module
folds the event stream into typed spans:

``record``
    ``record_inserted`` opens; ``record_updated`` / ``record_refreshed``
    / ``refresh_received`` mark refresh milestones; ``record_expired``
    or ``record_deleted`` closes.  A span still open when its cell ends
    closes with status ``live``.
``packet``
    ``packet_enqueued`` opens; ``packet_sent`` marks the queue →
    service transition (and closes multicast sends, whose per-receiver
    deliveries precede the aggregate ``packet_sent`` in the stream);
    ``packet_delivered`` / ``packet_lost`` close unicast sends.
``repair``
    ``repair_requested`` opens one span per requested target (a
    sequence number for NACK protocols, a namespace path for SSTP) and
    increments its depth on every re-request; ``repair_sent`` closes it
    when the sender commits the repair to its send queue.  Wire
    delivery of the repair rides ordinary packet spans.
``fault``
    ``fault_window`` is a closed span by construction (the injector
    emits its full interval).
``shard``
    ``shard_start`` opens one span per receiver-population shard of a
    sharded session (docs/SCALE.md); ``shard_end`` closes it with the
    shard's held-pair and false-expiry tallies in ``fields``.  The
    coordinator's ``shard_merge`` is an instant, not a span.

Spans carry parent links (a packet span parents the record install it
caused; an announce packet parents to the publisher's open record
span; a feedback packet parents to the newest open repair span) and a
per-span latency breakdown in ``fields`` (``queue_s``, ``delivery_s``,
``staleness_s``, ...).

Lossy input is first-class: events whose opening event was evicted
from a ring buffer (or cut off by a torn JSONL tail) produce spans
flagged ``truncated=True`` — reported, never silently dropped.

:class:`SpanBuilder` is a fold (:mod:`repro.obs.fold`): one driver
feeds it from a live sink (:class:`SpanSink`, or a
:class:`~repro.obs.fold.FoldSink` carrying the spec checker as well),
from in-memory records (:func:`~repro.obs.fold.replay`) or from a JSONL
file (:func:`~repro.obs.fold.replay_file`, as ``repro spans <exp>``
does).  Its ``finish`` publishes the derived metrics
``repro_record_staleness_seconds`` and ``repro_repair_chain_depth``
into the ambient registry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import runtime as _obs
from repro.obs.fold import FoldSink, Stream

#: Span kinds, in display order.
SPAN_KINDS = ("record", "packet", "repair", "fault", "shard")

#: Bucket edges for the derived staleness histogram (seconds of
#: sim-time between the last refresh and the expiry that closed the
#: span — the "how stale was it when it died" axis of Section 5).
STALENESS_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0)

#: Bucket edges for the repair-chain-depth histogram (number of
#: requests a target needed before the sender serviced it).
DEPTH_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0)


@dataclass
class Span:
    """One reconstructed lifecycle interval.

    ``start``/``end`` are simulation seconds; ``end`` is ``None`` only
    while the span is still open inside the builder (finalize closes
    everything).  ``truncated`` marks spans whose opening event was
    missing from the input stream.
    """

    span_id: int
    kind: str
    cell: int
    label: str
    key: Any
    start: float
    end: Optional[float] = None
    status: str = "open"
    truncated: bool = False
    parent_id: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)
    marks: List[Tuple[float, str]] = field(default_factory=list)

    def duration(self) -> float:
        end = self.end if self.end is not None else self.start
        return max(0.0, end - self.start)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "kind": self.kind,
            "cell": self.cell,
            "label": self.label,
            "key": self.key if _is_jsonable(self.key) else repr(self.key),
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "truncated": self.truncated,
            "parent_id": self.parent_id,
            "fields": {
                k: (v if _is_jsonable(v) else repr(v))
                for k, v in self.fields.items()
            },
            "marks": [[t, ev] for t, ev in self.marks],
        }


def _is_jsonable(value: Any) -> bool:
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_jsonable(v) for v in value)
    return False


class SpanReport:
    """The outcome of folding one stream: spans plus reconciliation."""

    def __init__(
        self,
        spans: List[Span],
        counts: Dict[str, int],
        instants: List[Tuple[int, float, str, Dict[str, Any]]],
        truncated_input: bool,
    ) -> None:
        self.spans = spans
        self.counts = counts
        self.instants = instants
        self.truncated_input = truncated_input

    # -- aggregation -------------------------------------------------------

    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.kind] = out.get(span.kind, 0) + 1
        return out

    def by_status(self, kind: Optional[str] = None) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            if kind is not None and span.kind != kind:
                continue
            out[span.status] = out.get(span.status, 0) + 1
        return out

    def truncated_spans(self) -> int:
        return sum(1 for span in self.spans if span.truncated)

    def reconciliation(self) -> Dict[str, Any]:
        """Span counts vs the raw event counts they must explain.

        Every ``record_inserted`` event must open exactly one
        non-truncated record span, and every ``refresh_received`` must
        land as a milestone on some record span — if either diverges
        the builder dropped a lifecycle on the floor.
        """
        record_spans = sum(
            1
            for span in self.spans
            if span.kind == "record" and not span.truncated
        )
        refresh_marks = sum(
            span.fields.get("refreshes_received", 0)
            for span in self.spans
            if span.kind == "record"
        )
        inserted = self.counts.get("record_inserted", 0)
        refreshed = self.counts.get("refresh_received", 0)
        return {
            "record_spans": record_spans,
            "record_inserted_events": inserted,
            "refresh_marks": refresh_marks,
            "refresh_received_events": refreshed,
            "reconciled": record_spans == inserted
            and refresh_marks == refreshed,
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "spans": [span.as_dict() for span in self.spans],
            "counts": dict(sorted(self.counts.items())),
            "truncated_input": self.truncated_input,
            "truncated_spans": self.truncated_spans(),
            "reconciliation": self.reconciliation(),
        }

    def describe(self, limit: int = 10) -> str:
        """Human-readable summary for ``repro spans``."""
        lines: List[str] = []
        total = len(self.spans)
        lines.append(
            f"{total} spans"
            + (" (truncated input)" if self.truncated_input else "")
        )
        for kind in SPAN_KINDS:
            statuses = self.by_status(kind)
            if not statuses:
                continue
            breakdown = ", ".join(
                f"{count} {status}"
                for status, count in sorted(statuses.items())
            )
            lines.append(f"  {kind:<7} {breakdown}")
        truncated = self.truncated_spans()
        if truncated:
            lines.append(
                f"  {truncated} span(s) truncated: opening event missing "
                "from the input (ring eviction or torn tail)"
            )
        recon = self.reconciliation()
        mark = "ok" if recon["reconciled"] else "MISMATCH"
        lines.append(
            f"reconciliation [{mark}]: "
            f"{recon['record_spans']} record spans / "
            f"{recon['record_inserted_events']} record_inserted events; "
            f"{recon['refresh_marks']} refresh marks / "
            f"{recon['refresh_received_events']} refresh_received events"
        )
        longest = sorted(
            (s for s in self.spans if s.kind != "fault"),
            key=lambda s: -s.duration(),
        )[:limit]
        if longest:
            lines.append(f"longest {len(longest)} spans:")
            for span in longest:
                end = "…" if span.end is None else f"{span.end:.3f}"
                lines.append(
                    f"  #{span.span_id:<4} {span.kind:<7} "
                    f"{span.label:<5} key={span.key!r} "
                    f"[{span.start:.3f}, {end}] {span.duration():.3f}s "
                    f"{span.status}"
                    + (" truncated" if span.truncated else "")
                )
        return "\n".join(lines)


class SpanBuilder:
    """Fold a ``(t, cat, ev, fields)`` stream into lifecycle spans.

    Each cell restarts the clock, so open spans close at a cell
    boundary (:meth:`on_cell`).
    """

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._counts: Dict[str, int] = {}
        self._instants: List[Tuple[int, float, str, Dict[str, Any]]] = []
        self._cell = 0
        self._last_t = 0.0
        # Open-span indexes.  Records key on (table, key); packets on
        # (chan, seq), with a FIFO per channel for seq-less packets
        # (NACKs/queries) since channels service strictly in order.
        self._open_records: Dict[Tuple[Any, Any], Span] = {}
        self._open_packets: Dict[Tuple[Any, Any], Span] = {}
        self._fifo_packets: Dict[Any, deque] = {}
        self._open_shards: Dict[Any, Span] = {}
        self._open_repairs: Dict[Tuple[str, Any], Span] = {}
        self._closed_repairs: Dict[Tuple[str, Any], Span] = {}
        self._repair_stack: List[Span] = []
        # Parent-link helpers: the publisher-side open record span per
        # key, and the most recent packet span seen carrying a key.
        self._publisher_record: Dict[Any, Span] = {}
        self._last_packet_by_key: Dict[Any, int] = {}
        self.handlers = {
            ev: self._counted(handler)
            for ev, handler in {
                "record_inserted": self._on_record_inserted,
                "record_updated": self._on_record_touched,
                "record_refreshed": self._on_record_touched,
                "refresh_received": self._on_refresh_received,
                "record_deleted": self._on_record_closed,
                "record_expired": self._on_record_closed,
                "packet_enqueued": self._on_packet_enqueued,
                "packet_sent": self._on_packet_sent,
                "packet_delivered": self._on_packet_delivered,
                "packet_lost": self._on_packet_lost,
                "repair_requested": self._on_repair_requested,
                "repair_sent": self._on_repair_sent,
                "fault_window": self._on_fault_window,
                "shard_start": self._on_shard_start,
                "shard_end": self._on_shard_end,
                "shard_merge": self._on_instant,
                "summary_digest": self._on_instant,
                "summary_checked": self._on_instant,
                "fault_armed": self._on_instant,
                "consistency_sample": self._on_instant,
            }.items()
        }

    def _counted(self, handler):
        """Wrap a handler with the per-event count and clock upkeep."""
        counts = self._counts

        def step(index, t, cat, ev, fields) -> None:
            if t is not None and t > self._last_t:
                self._last_t = t
            counts[ev] = counts.get(ev, 0) + 1
            handler(t, ev, fields)

        return step

    # -- span bookkeeping --------------------------------------------------

    def _new_span(
        self,
        kind: str,
        label: Any,
        key: Any,
        start: Optional[float],
        truncated: bool = False,
        parent_id: Optional[int] = None,
    ) -> Span:
        span = Span(
            span_id=len(self._spans),
            kind=kind,
            cell=self._cell,
            label=str(label),
            key=key,
            start=self._last_t if start is None else start,
            truncated=truncated,
            parent_id=parent_id,
        )
        self._spans.append(span)
        return span

    def _close(self, span: Span, t: Optional[float], status: str) -> None:
        span.end = self._last_t if t is None else t
        span.status = status

    def _close_open_spans(self) -> None:
        """End-of-cell (or end-of-stream) closure of everything open."""
        for span in self._open_records.values():
            self._close(span, None, "live")
        for span in self._open_packets.values():
            self._close(span, None, "in_flight")
        for fifo in self._fifo_packets.values():
            for span in fifo:
                self._close(span, None, "in_flight")
        for span in self._open_repairs.values():
            self._close(span, None, "unrepaired")
        for span in self._open_shards.values():
            self._close(span, None, "running")
        self._open_records.clear()
        self._open_packets.clear()
        self._fifo_packets.clear()
        self._open_repairs.clear()
        self._open_shards.clear()
        self._closed_repairs.clear()
        self._repair_stack.clear()
        self._publisher_record.clear()
        self._last_packet_by_key.clear()

    # -- handlers ----------------------------------------------------------

    def on_cell(self, fields) -> None:
        self._counts["cell_start"] = self._counts.get("cell_start", 0) + 1
        self._close_open_spans()
        self._cell = fields.get("index", self._cell + 1)
        self._last_t = 0.0

    def _on_record_inserted(self, t, ev, fields) -> None:
        key = (fields.get("table"), fields.get("key"))
        parent = self._last_packet_by_key.get(fields.get("key"))
        span = self._new_span(
            "record", fields.get("table"), fields.get("key"), t,
            parent_id=parent,
        )
        span.fields["role"] = fields.get("role")
        span.fields["refreshes"] = 0
        span.fields["refreshes_received"] = 0
        span.fields["last_refresh"] = span.start
        self._open_records[key] = span
        if fields.get("role") == "publisher":
            self._publisher_record[fields.get("key")] = span

    def _orphan_record(self, t, fields) -> Span:
        """A lifecycle event for a record whose install we never saw."""
        span = self._new_span(
            "record", fields.get("table"), fields.get("key"), t,
            truncated=True,
        )
        span.fields["role"] = fields.get("role")
        span.fields["refreshes"] = 0
        span.fields["refreshes_received"] = 0
        span.fields["last_refresh"] = span.start
        self._open_records[(fields.get("table"), fields.get("key"))] = span
        return span

    def _touch_record(self, t, ev, fields, received: bool) -> None:
        key = (fields.get("table"), fields.get("key"))
        span = self._open_records.get(key)
        if span is None:
            span = self._orphan_record(t, fields)
        span.fields["refreshes"] += 1
        if received:
            span.fields["refreshes_received"] += 1
        if t is not None:
            span.fields["last_refresh"] = t
            span.marks.append((t, ev))

    def _on_record_touched(self, t, ev, fields) -> None:
        self._touch_record(t, ev, fields, received=False)

    def _on_refresh_received(self, t, ev, fields) -> None:
        self._touch_record(t, ev, fields, received=True)

    def _on_record_closed(self, t, ev, fields) -> None:
        key = (fields.get("table"), fields.get("key"))
        span = self._open_records.pop(key, None)
        if span is None:
            span = self._orphan_record(t, fields)
            self._open_records.pop(key, None)
        status = "expired" if ev == "record_expired" else "deleted"
        self._close(span, t, status)
        if ev == "record_expired" and not span.truncated:
            span.fields["staleness_s"] = max(
                0.0, span.end - span.fields["last_refresh"]
            )
        if self._publisher_record.get(fields.get("key")) is span:
            del self._publisher_record[fields.get("key")]

    def _on_packet_enqueued(self, t, ev, fields) -> None:
        chan = fields.get("chan")
        seq = fields.get("seq")
        key = fields.get("key")
        parent: Optional[int] = None
        if key is not None and key in self._publisher_record:
            parent = self._publisher_record[key].span_id
        elif fields.get("kind") in ("nack", "query") and self._repair_stack:
            parent = self._repair_stack[-1].span_id
        span = self._new_span("packet", chan, seq, t, parent_id=parent)
        span.fields["kind"] = fields.get("kind")
        span.fields["key"] = key
        span.fields["delivered"] = 0
        if seq is None:
            self._fifo_packets.setdefault(chan, deque()).append(span)
        else:
            self._open_packets[(chan, seq)] = span

    def _find_packet(self, fields, pop: bool) -> Optional[Span]:
        chan = fields.get("chan")
        seq = fields.get("seq")
        if seq is not None:
            if pop:
                return self._open_packets.pop((chan, seq), None)
            return self._open_packets.get((chan, seq))
        fifo = self._fifo_packets.get(chan)
        if not fifo:
            return None
        return fifo.popleft() if pop else fifo[0]

    def _orphan_packet(self, t, fields) -> Span:
        span = self._new_span(
            "packet", fields.get("chan"), fields.get("seq"), t,
            truncated=True,
        )
        span.fields["kind"] = fields.get("kind")
        span.fields["delivered"] = 0
        return span

    def _on_packet_sent(self, t, ev, fields) -> None:
        multicast = "receivers" in fields
        span = self._find_packet(fields, pop=multicast)
        if span is None:
            span = self._orphan_packet(t, fields)
            if not multicast:
                # Deliveries/losses for this packet may still follow.
                seq = fields.get("seq")
                if seq is None:
                    self._fifo_packets.setdefault(
                        fields.get("chan"), deque()
                    ).appendleft(span)
                else:
                    self._open_packets[(fields.get("chan"), seq)] = span
        if t is not None:
            span.fields["queue_s"] = max(0.0, t - span.start)
            span.marks.append((t, ev))
            span.fields["sent_at"] = t
        if multicast:
            receivers = fields.get("receivers", 0)
            lost = fields.get("lost", 0)
            span.fields["receivers"] = receivers
            span.fields["lost"] = lost
            status = "delivered" if lost < receivers else "lost"
            self._close(span, t, status if receivers else "sent")

    def _on_packet_delivered(self, t, ev, fields) -> None:
        if "receiver" in fields:
            # Multicast per-receiver delivery; the aggregate
            # packet_sent that closes the span follows in the stream.
            span = self._find_packet(fields, pop=False)
            if span is None:
                span = self._orphan_packet(t, fields)
                seq = fields.get("seq")
                if seq is not None:
                    self._open_packets[(fields.get("chan"), seq)] = span
            span.fields["delivered"] += 1
        else:
            span = self._find_packet(fields, pop=True)
            if span is None:
                span = self._orphan_packet(t, fields)
            span.fields["delivered"] += 1
            sent_at = span.fields.get("sent_at")
            if t is not None and sent_at is not None:
                span.fields["delivery_s"] = max(0.0, t - sent_at)
            self._close(span, t, "delivered")
        key = fields.get("key", span.fields.get("key"))
        if key is not None:
            self._last_packet_by_key[key] = span.span_id

    def _on_packet_lost(self, t, ev, fields) -> None:
        span = self._find_packet(fields, pop=True)
        if span is None:
            span = self._orphan_packet(t, fields)
        self._close(span, t, "lost")

    @staticmethod
    def _repair_targets(fields) -> List[Tuple[str, Any]]:
        if "seqs" in fields:
            return [("seq", seq) for seq in fields["seqs"]]
        if "seq" in fields:
            return [("seq", fields["seq"])]
        if "path" in fields:
            return [("path", fields["path"])]
        return []

    def _on_repair_requested(self, t, ev, fields) -> None:
        for target in self._repair_targets(fields):
            span = self._open_repairs.get(target)
            if span is None:
                span = self._new_span("repair", "repairs", target[1], t)
                span.fields["target_kind"] = target[0]
                span.fields["requests"] = 0
                self._open_repairs[target] = span
                self._repair_stack.append(span)
            span.fields["requests"] += 1
            if t is not None:
                span.marks.append((t, ev))

    def _on_repair_sent(self, t, ev, fields) -> None:
        for target in self._repair_targets(fields):
            span = self._open_repairs.pop(target, None)
            if span is None:
                previous = self._closed_repairs.get(target)
                if previous is not None:
                    # A second service for an already-repaired target
                    # (two requests in flight before the first repair
                    # landed): a real duplicate service, not data loss.
                    span = self._new_span(
                        "repair", "repairs", target[1], t,
                        parent_id=previous.span_id,
                    )
                    span.fields["duplicate"] = True
                else:
                    # Request evicted (or serviced from state predating
                    # the stream): still a repair, but a truncated one.
                    span = self._new_span(
                        "repair", "repairs", target[1], t, truncated=True
                    )
                span.fields["target_kind"] = target[0]
                span.fields["requests"] = 0
            else:
                # By identity, from the top: ``list.remove`` would
                # compare the stacked dataclasses field by field.
                stack = self._repair_stack
                for index in range(len(stack) - 1, -1, -1):
                    if stack[index] is span:
                        del stack[index]
                        break
            self._close(span, t, "repaired")
            span.fields["repair_s"] = span.duration()
            self._closed_repairs[target] = span

    def _on_fault_window(self, t, ev, fields) -> None:
        start = fields.get("start", t)
        end = fields.get("end", t)
        span = self._new_span("fault", "faults", fields.get("label"), start)
        span.fields["fault_kind"] = fields.get("kind")
        self._close(span, end, "window")

    def _on_shard_start(self, t, ev, fields) -> None:
        key = fields.get("shard")
        span = self._new_span("shard", "shards", key, t)
        span.fields["lo"] = fields.get("lo")
        span.fields["hi"] = fields.get("hi")
        span.fields["receivers"] = fields.get("receivers")
        self._open_shards[key] = span

    def _on_shard_end(self, t, ev, fields) -> None:
        key = fields.get("shard")
        span = self._open_shards.pop(key, None)
        if span is None:
            span = self._new_span("shard", "shards", key, t, truncated=True)
        span.fields["held"] = fields.get("held")
        span.fields["false_expiries"] = fields.get("false_expiries")
        self._close(span, t, "merged")

    def _on_instant(self, t, ev, fields) -> None:
        self._instants.append(
            (self._cell, self._last_t if t is None else t, ev, fields)
        )

    # -- finalisation ------------------------------------------------------

    def finish(self, stream: Stream) -> SpanReport:
        """Close open spans, publish derived metrics, return the report."""
        self._close_open_spans()
        registry = _obs.registry()
        staleness = registry.histogram(
            "repro_record_staleness_seconds",
            "Sim-time gap between the last refresh and the expiry that "
            "closed a record span",
            ("role",),
            buckets=STALENESS_BUCKETS,
        )
        depth = registry.histogram(
            "repro_repair_chain_depth",
            "Requests a repair target needed before the sender serviced it",
            (),
            buckets=DEPTH_BUCKETS,
        )
        for span in self._spans:
            if span.kind == "record" and "staleness_s" in span.fields:
                staleness.observe(
                    span.fields["staleness_s"],
                    role=str(span.fields.get("role")),
                )
            elif (
                span.kind == "repair"
                and not span.truncated
                and not span.fields.get("duplicate")
            ):
                depth.observe(float(span.fields.get("requests", 0)))
        return SpanReport(
            self._spans, self._counts, self._instants, stream.truncated
        )


def SpanSink(inner: Any) -> FoldSink:
    """A fold driver carrying one :class:`SpanBuilder`.

    Wrap any sink, pass the wrapper to ``Tracer``, and every record is
    both persisted and folded; ``finalize()`` returns the report.  A
    function, not a subclass, for the reason given at
    :func:`repro.spec.checker.CheckingSink`.
    """
    return FoldSink(inner, SpanBuilder())
