"""Receiver feedback via NACKs (Section 5).

Extends the two-queue scheme with a reverse channel: the receiver
detects losses through gaps in the sender's packet sequence numbers and
sends negative acknowledgments naming the missing sequence numbers.
The sender resolves each NACKed sequence number to its record and moves
that record from the cold queue to the *tail of the hot queue*
(Figure 7's C -> H edge), so hot bandwidth serves new data plus
requested retransmissions, while cold bandwidth continues the background
announcement cycle for late joiners.

Retransmissions carry a ``repairs`` tag listing the sequence numbers
they answer, letting the receiver clear its missing-sequence set.  NACKs
traverse a lossy feedback channel of bandwidth ``feedback_kbps``; when
that allocation is too small the NACK queue backs up and feedback
arrives too late to matter, and when it is too large the *data*
bandwidth starves — both ends of the Figure 8 curve.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.net import BernoulliLoss, Channel, LossModel, Packet
from repro.obs.trace import RECORD as _RECORD
from repro.protocols.two_queue import COLD, TwoQueueSession


class NackRepair:
    """Section 5's repair path over :class:`HotColdQueues`.

    A NACKed sequence number resolves to its record, which moves from
    the cold queue to the tail of the hot queue (Figure 7's C -> H
    edge); the retransmission carries a ``repairs`` tag naming the
    sequence numbers it answers.  Shared by the unicast
    :class:`FeedbackSession` and the multicast group.
    """

    def _init_repairs(self, **trace_tags) -> None:
        #: Sequence numbers awaiting repair, grouped by record key.
        self._pending_repairs: Dict[Any, Set[int]] = {}
        self.repairs_transmitted = 0
        #: Extra fields on this family's ``repair_sent`` trace records.
        self._repair_tags = trace_tags

    def _repair(self, seq: int) -> None:
        """Schedule the repair of one NACKed sequence number."""
        resolved = self._seq_to_key.get(seq)
        if resolved is None:
            return
        key, version = resolved
        record = self.publisher.get(key)
        if record is None or not record.is_publisher_live(self.env.now):
            return
        if record.version != version:
            # The record has been updated since; the newer version is
            # (or will be) announced through the hot queue anyway.
            return
        self._pending_repairs.setdefault(key, set()).add(seq)
        if self._location.get(key) == COLD:
            self.repairs_transmitted += 1
            self._enqueue_new(key)
            self._wake_sender()

    def _make_packet(self, key: Any, repairs: Tuple[int, ...] = ()) -> Packet:
        if not repairs:
            repairs = tuple(sorted(self._pending_repairs.pop(key, ())))
        if repairs:
            tr = self._trace
            if tr is not None and tr.record:
                # Span-closing marker: the sender commits these seqs to
                # the announce it is about to queue (docs/SPANS.md).
                tr.emit(
                    _RECORD,
                    "repair_sent",
                    self.env.now,
                    key=key,
                    seqs=repairs,
                    **self._repair_tags,
                )
        return super()._make_packet(key, repairs)

    def _drop_from_queues(self, key: Any) -> None:
        self._pending_repairs.pop(key, None)
        super()._drop_from_queues(key)

    def _clear_queues(self) -> None:
        super()._clear_queues()
        self._pending_repairs.clear()


class FeedbackSession(NackRepair, TwoQueueSession):
    """Two-queue announce/listen plus NACK feedback."""

    def __init__(
        self,
        feedback_kbps: float = 0.0,
        feedback_loss_rate: Optional[float] = None,
        feedback_loss_model: Optional[LossModel] = None,
        seqs_per_nack: int = 16,
        nack_retry: float = 1.0,
        nack_size_bits: int = 100,
        **kwargs,
    ) -> None:
        if feedback_kbps < 0:
            raise ValueError(
                f"feedback_kbps must be non-negative, got {feedback_kbps}"
            )
        if seqs_per_nack < 1:
            raise ValueError(
                f"seqs_per_nack must be >= 1, got {seqs_per_nack}"
            )
        if nack_retry is not None and nack_retry <= 0:
            raise ValueError(
                f"nack_retry must be positive or None, got {nack_retry}"
            )
        if nack_size_bits <= 0:
            raise ValueError(
                f"nack_size_bits must be positive, got {nack_size_bits}"
            )
        super().__init__(**kwargs)
        self.feedback_kbps = feedback_kbps
        self.seqs_per_nack = seqs_per_nack
        self.feedback_channel: Optional[Channel] = None
        if feedback_kbps > 0:
            loss = feedback_loss_model
            if loss is None:
                rate = (
                    feedback_loss_rate
                    if feedback_loss_rate is not None
                    else self.data_channel.loss.mean_loss_rate
                )
                loss = BernoulliLoss(rate, rng=self.rng["feedback-loss"])
            self.feedback_channel = Channel(
                self.env, feedback_kbps, loss=loss
            )
            self.feedback_channel.subscribe(self._handle_nack)
        self.nack_retry = nack_retry
        #: NACKs are far smaller than data announcements (a handful of
        #: sequence numbers vs a full ADU), so a small feedback
        #: *bandwidth* allocation buys a high NACK *packet* rate — the
        #: asymmetry behind the paper's "small fraction of bandwidth for
        #: feedback significantly improves consistency".
        self.nack_size_bits = nack_size_bits
        self.receiver.on_gap = self._on_receiver_gap
        self._init_repairs(session=self._session_label)
        #: When each missing sequence number was last NACKed.
        self._nack_times: Dict[int, float] = {}

    # -- receiver side ---------------------------------------------------------
    def _receiver_needs(self, seq: int) -> bool:
        """Does the receiver actually lack the ADU that ``seq`` carried?

        ALF packet headers name their ADUs, and adjacent packets carry
        enough naming context for a receiver to identify *which* data a
        hole in the sequence space contained (the paper's receiver-driven
        data naming, reference [40]).  We model that by resolving the
        sequence number against the sender's ADU map and checking the
        receiver's own table: a lost retransmission of data the receiver
        already holds is not worth a NACK — NACKing it would waste hot
        bandwidth on redundant repairs.
        """
        resolved = self._seq_to_key.get(seq)
        if resolved is None:
            return False
        key, version = resolved
        mirror = self.receiver.table.get(key)
        return (
            mirror is None
            or mirror.version < version
            or not mirror.is_subscriber_live(self.env.now)
        )

    def _on_receiver_gap(self, missing_seqs: List[int]) -> None:
        """Batch newly detected losses of needed data into NACK packets."""
        self._send_nacks(
            [seq for seq in missing_seqs if self._receiver_needs(seq)]
        )

    def _send_nacks(self, seqs: List[int]) -> None:
        # A detached receiver sends no feedback: this also silences the
        # retry sweep, which keeps running while the receiver is away.
        if self.feedback_channel is None or not seqs or self.receiver.detached:
            return
        now = self.env.now
        for seq in seqs:
            self._nack_times[seq] = now
        tr = self._trace
        trace_records = tr is not None and tr.record
        for start in range(0, len(seqs), self.seqs_per_nack):
            batch = tuple(seqs[start : start + self.seqs_per_nack])
            nack = Packet(
                kind="nack",
                payload={"seqs": batch},
                size_bits=self.nack_size_bits,
            )
            self.nacks_sent += 1
            self.ledger.add("feedback", nack.size_bits)
            if trace_records:
                # Span-opening marker: one repair chain per missing seq
                # (docs/SPANS.md); retries re-emit and deepen the chain.
                tr.emit(
                    _RECORD,
                    "repair_requested",
                    now,
                    seqs=batch,
                    session=self._session_label,
                )
            self.feedback_channel.send(nack)

    #: Most re-requests sent per retry sweep.  Bounds the work done when
    #: the hot queue is starved and holes accumulate faster than
    #: repairs; excess holes wait for the next sweep (or the cold cycle).
    RETRY_BATCH = 200

    def _nack_retry_loop(self):
        """Re-request still-missing data whose NACK (or repair) was lost.

        Periodically scans the receiver's missing-sequence set, prunes
        entries it no longer needs (repaired by the cold cycle, or the
        record died), and re-NACKs the rest — the standard SRM-style
        request retry with a fixed backoff interval.
        """
        while True:
            yield self.env.timeout(self.nack_retry)
            now = self.env.now
            stale: List[int] = []
            for seq in sorted(self.receiver.missing_seqs):
                if not self._receiver_needs(seq):
                    self.receiver.missing_seqs.discard(seq)
                    self._nack_times.pop(seq, None)
                    continue
                last = self._nack_times.get(seq, -float("inf"))
                if now - last >= self.nack_retry:
                    stale.append(seq)
                    if len(stale) >= self.RETRY_BATCH:
                        break
            self._send_nacks(stale)

    def _start_processes(self) -> None:
        super()._start_processes()
        if self.feedback_channel is not None and self.nack_retry is not None:
            self.env.process(self._nack_retry_loop())

    # -- sender side --------------------------------------------------------------
    def _handle_nack(self, packet: Packet) -> None:
        self.nacks_delivered += 1
        for seq in packet.payload["seqs"]:
            self._repair(seq)

    def _clear_queues(self) -> None:
        super()._clear_queues()
        self._nack_times.clear()

    def _fault_channels(self):
        # A severed link (or a partition isolating the receiver) cuts
        # the feedback path too: NACKs cannot cross an outage either.
        channels = super()._fault_channels()
        if self.feedback_channel is not None:
            channels.append(self.feedback_channel)
        return channels

    def feedback_packets_count(self) -> int:
        if self.feedback_channel is None:
            return 0
        return self.feedback_channel.packets_sent
