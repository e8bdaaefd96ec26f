"""The SSTP wire protocol: sender, receivers, and recursive repair.

Message types (all over lossy channels):

* ``adu``     — an application data unit: (path, value, version,
  right-edge, metadata).  Sent through the hot queue for new data and
  for requested repairs.
* ``summary`` — the root namespace digest.  Sent continuously through
  the cold queue; this replaces the open-loop protocol's full-data
  background retransmissions with constant-size summaries — SSTP's
  bandwidth saving.
* ``digests`` — a node's children: (child path, digest, metadata)
  triples; the response to a descent query.
* ``query``   — receiver feedback: "send me the children of <path>"
  (recursive-descent step) or "resend the ADU at <path>" (leaf repair).
* ``report``  — RTCP-style receiver report carrying observed loss.

Receivers compare announced digests against their mirror and descend
only into differing branches; branches whose metadata fails the
receiver's interest filter are pruned from the descent (and excluded
from that receiver's consistency accounting).

Loss of any message is tolerated without retries: the periodic root
summary restarts the comparison, so repair is soft state all the way
down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core import BandwidthLedger, FaultReport, LatencyRecorder
from repro.des import Environment, Interrupt
from repro.net import Channel, MulticastChannel, Packet
from repro.obs import runtime as _obs
from repro.obs.trace import RECORD as _RECORD
from repro.sched import HierarchicalScheduler
from repro.sstp.namespace import Namespace
from repro.sstp.receiver_report import LossEstimator, ReportBuilder

HOT = "data/hot"
COLD = "data/cold"

#: Feedback messages (queries, reports) are small.
FEEDBACK_BITS = 100
#: Summary/digest packets carry a handful of 16-byte digests.
SUMMARY_BITS = 300


@dataclass
class SstpResult:
    """Measured outcome of an SSTP session run."""

    consistency: float
    per_receiver_consistency: Dict[str, float]
    mean_receive_latency: float
    adu_packets: int
    summary_packets: int
    digest_packets: int
    query_packets: int
    repair_requests: int
    report_packets: int
    data_packets_sent: int
    bandwidth_bits: Dict[str, float] = field(default_factory=dict)
    estimated_loss: float = 0.0
    fault_reports: list[FaultReport] = field(default_factory=list)
    false_expiries: int = 0


class _MirrorMeter:
    """Time-weighted per-receiver namespace consistency."""

    def __init__(self, start_time: float) -> None:
        self.last_time = start_time
        self.weighted = 0.0
        self.duration = 0.0
        self._value = 0.0

    def observe(self, now: float, value: Optional[float]) -> None:
        interval = now - self.last_time
        if interval > 0:
            self.weighted += self._value * interval
            self.duration += interval
            self.last_time = now
        if value is not None:
            self._value = value

    @property
    def value(self) -> float:
        """The most recently observed consistency sample."""
        return self._value

    def average(self) -> float:
        return self.weighted / self.duration if self.duration else 0.0


class SstpReceiver:
    """One subscriber: namespace mirror plus recursive-descent repair."""

    def __init__(
        self,
        receiver_id: str,
        env: Environment,
        feedback: Optional[Channel],
        interest: Optional[Callable[[str, Dict[str, Any]], bool]] = None,
        on_update: Optional[Callable[[str, Any], None]] = None,
        on_remove: Optional[Callable[[str], None]] = None,
        latency: Optional[LatencyRecorder] = None,
    ) -> None:
        self.receiver_id = receiver_id
        self.env = env
        self.feedback = feedback
        self.interest = interest
        self.on_update = on_update
        self.on_remove = on_remove
        self.latency = latency
        self.mirror = Namespace()
        #: Ambient tracer, cached at construction (guarded attribute).
        self._trace = _obs.current_tracer()
        self.report_builder = ReportBuilder(receiver_id)
        self.queries_sent = 0
        self.repairs_requested = 0
        self.adus_received = 0
        self._event_hook: Optional[Callable[[], None]] = None
        #: Set while the receiver is off the network (churn, partition):
        #: no queries or reports can be transmitted.
        self.detached = False

    def forget(self) -> None:
        """A crash: the subscriber restarts with an empty mirror and
        relearns the namespace from summaries."""
        self.mirror = Namespace()

    # -- packet handling -----------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        if packet.seq is not None:
            self.report_builder.on_packet(packet.seq)
        handler = getattr(self, f"_on_{packet.kind}", None)
        if handler is None:
            return
        handler(packet.payload)
        if self._event_hook is not None:
            self._event_hook()

    def _on_adu(self, payload: Dict[str, Any]) -> None:
        path = payload["path"]
        if not self._interested(path, payload.get("metadata") or {}):
            return
        self.adus_received += 1
        self.mirror.install(
            path,
            payload["value"],
            version=payload["version"],
            right_edge=payload["right_edge"],
            metadata=payload.get("metadata"),
        )
        if self.latency is not None:
            self.latency.received(path, payload["version"], self.env.now)
        if self.on_update is not None:
            self.on_update(path, payload["value"])

    def _on_summary(self, payload: Dict[str, Any]) -> None:
        digest = payload["digest"]
        mine = self.mirror.root_digest()
        match = digest == mine
        tr = self._trace
        if tr is not None and tr.record:
            # On a match, also report the mirror's digest-independent
            # content fingerprint: the spec checker compares it with the
            # sender's to verify digest agreement ⇒ namespace agreement.
            tr.emit(
                _RECORD,
                "summary_checked",
                self.env.now,
                receiver=self.receiver_id,
                digest=digest.hex(),
                mirror_digest=mine.hex(),
                match=match,
                fingerprint=(
                    self.mirror.content_fingerprint() if match else None
                ),
            )
        if not match:
            self._query("", descend=True)

    def _on_digests(self, payload: Dict[str, Any]) -> None:
        parent = payload["path"]
        listed = payload["children"]  # [(path, digest, metadata), ...]
        listed_names = set()
        for child_path, digest, metadata in listed:
            listed_names.add(child_path.rsplit("/", 1)[-1])
            if not self._interested(child_path, metadata or {}):
                continue
            mine = self.mirror.find(child_path)
            my_digest = (
                mine.digest(self.mirror.algorithm) if mine is not None else None
            )
            if my_digest == digest:
                continue
            if payload["leaf"].get(child_path, False):
                self._query(child_path, descend=False)  # leaf repair
            else:
                self._query(child_path, descend=True)
        # Prune leaves the sender no longer lists under this parent.
        mine_parent = self.mirror.find(parent)
        if mine_parent is not None:
            for name in sorted(set(mine_parent.children) - listed_names):
                child = mine_parent.children[name]
                self._remove_subtree(child.path)

    def _remove_subtree(self, path: str) -> None:
        node = self.mirror.find(path)
        if node is None:
            return
        for leaf in [n for n in self.mirror.leaves() if _is_under(n.path, path)]:
            self.mirror.remove(leaf.path)
            if self.on_remove is not None:
                self.on_remove(leaf.path)

    def _interested(self, path: str, metadata: Dict[str, Any]) -> bool:
        if self.interest is None:
            return True
        return self.interest(path, metadata)

    # -- feedback -------------------------------------------------------------
    def _query(self, path: str, descend: bool) -> None:
        if self.feedback is None or self.detached:
            return
        self.queries_sent += 1
        if not descend:
            self.repairs_requested += 1
            tr = self._trace
            if tr is not None and tr.record:
                # Span-opening marker: one repair chain per namespace
                # path (docs/SPANS.md); re-queries deepen it.
                tr.emit(
                    _RECORD,
                    "repair_requested",
                    self.env.now,
                    path=path,
                    receiver=self.receiver_id,
                )
        self.feedback.send(
            Packet(
                kind="query",
                payload={
                    "receiver": self.receiver_id,
                    "path": path,
                    "descend": descend,
                },
                size_bits=FEEDBACK_BITS,
            )
        )

    def send_report(self) -> None:
        if self.feedback is None or self.detached:
            return
        report = self.report_builder.build(self.env.now)
        if report is None:
            return
        self.feedback.send(
            Packet(
                kind="report",
                payload={"report": report},
                size_bits=FEEDBACK_BITS,
            )
        )


def _is_under(path: str, ancestor: str) -> bool:
    return path == ancestor or path.startswith(ancestor + "/")


class SstpSender:
    """The SSTP publisher: namespace, hot/cold scheduler, repair engine."""

    def __init__(
        self,
        env: Environment,
        data_channel: MulticastChannel,
        hot_share: float = 0.7,
        summary_interval_hint: float = 1.0,
        adu_size_bits: int = 1000,
        cold_content: str = "summaries",
        latency: Optional[LatencyRecorder] = None,
    ) -> None:
        if not 0.0 < hot_share < 1.0:
            raise ValueError(f"hot_share must be in (0, 1), got {hot_share}")
        if adu_size_bits <= 0:
            raise ValueError(
                f"adu_size_bits must be positive, got {adu_size_bits}"
            )
        if cold_content not in ("summaries", "adus"):
            raise ValueError(
                "cold_content must be 'summaries' (SSTP digests) or "
                f"'adus' (classic announce/listen), got {cold_content!r}"
            )
        self.env = env
        self.cold_content = cold_content
        self.data_channel = data_channel
        self.namespace = Namespace()
        self.scheduler = HierarchicalScheduler()
        self.scheduler.add_class("data", weight=1.0)
        self.scheduler.add_class(HOT, weight=hot_share)
        self.scheduler.add_class(COLD, weight=1.0 - hot_share)
        self.adu_size_bits = adu_size_bits
        self.summary_interval_hint = summary_interval_hint
        self.loss_estimator = LossEstimator()
        session_label = _obs.next_session_label()
        self.ledger = BandwidthLedger(session=session_label, protocol="sstp")
        self.latency = (
            latency
            if latency is not None
            else LatencyRecorder(session=session_label, protocol="sstp")
        )
        self._seq = 0
        self._hot_queued: set[Tuple[str, str]] = set()
        self.adu_packets = 0
        self.summary_packets = 0
        self.digest_packets = 0
        self.repair_requests = 0
        self.report_packets = 0
        self.queries_received = 0
        self._wakeup = None
        self._first_tx: set[Tuple[str, int]] = set()
        #: Set while the sender is crashed: feedback arriving in this
        #: window reaches a dead process and is simply lost.
        self.crashed = False
        #: Ambient tracer, cached at construction (guarded attribute).
        self._trace = _obs.current_tracer()
        self._process = env.process(self._run())
        env.process(self._summary_pump())

    # -- application-facing ------------------------------------------------------
    def publish(
        self,
        path: str,
        value: Any,
        size_bytes: int = 125,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Publish (or update) an ADU and schedule its transmission."""
        leaf = self.namespace.publish(
            path, value, size_bytes=size_bytes, metadata=metadata
        )
        self.latency.introduced(path, leaf.version, self.env.now)
        self._enqueue(HOT, ("adu", path))
        self._wake()

    def remove(self, path: str) -> None:
        """Withdraw an ADU; receivers prune it via summary descent.

        Any queued transmission of the removed path is filtered at
        dequeue time (:meth:`_build` skips paths no longer published).
        """
        self.namespace.remove(path)
        self._hot_queued.discard(("adu", path))

    def set_hot_share(self, hot_share: float) -> None:
        if not 0.0 < hot_share < 1.0:
            raise ValueError(f"hot_share must be in (0, 1), got {hot_share}")
        self.scheduler.set_weight(HOT, hot_share)
        self.scheduler.set_weight(COLD, 1.0 - hot_share)

    # -- fault support ---------------------------------------------------------------
    def crash(self, crash) -> None:
        """Kill the transmission engine for ``crash.down_for`` seconds.

        A warm restart resumes with the namespace intact: the very next
        cold summary advertises the true root digest and receivers pull
        whatever they missed — recovery is O(summary interval) by
        construction.  ``crash.cold`` loses the namespace; only data
        published after the restart exists.
        """
        self._process.interrupt(crash)

    def _crashed(self, crash):
        self.crashed = True
        self._wakeup = None
        if getattr(crash, "cold", False):
            for leaf in list(self.namespace.leaves()):
                self.namespace.remove(leaf.path)
            self._hot_queued.clear()
        yield self.env.timeout(crash.down_for)
        self.crashed = False

    # -- feedback handling ----------------------------------------------------------
    def handle_feedback(self, packet: Packet) -> None:
        if self.crashed:
            return
        if packet.kind == "query":
            self.queries_received += 1
            payload = packet.payload
            if payload["descend"]:
                self._enqueue(HOT, ("digests", payload["path"]))
            else:
                self.repair_requests += 1
                tr = self._trace
                if tr is not None and tr.record:
                    # Span-closing marker: the ADU re-send for this
                    # path is committed to the hot queue (docs/SPANS.md).
                    tr.emit(
                        _RECORD,
                        "repair_sent",
                        self.env.now,
                        path=payload["path"],
                    )
                self._enqueue(HOT, ("adu", payload["path"]))
            self._wake()
        elif packet.kind == "report":
            self.report_packets += 1
            self.loss_estimator.update(packet.payload["report"])

    # -- transmission -------------------------------------------------------------
    def _enqueue(self, cls: str, item: Tuple[str, str]) -> None:
        if cls == HOT:
            if item in self._hot_queued:
                return
            self._hot_queued.add(item)
        self.scheduler.enqueue(cls, item)

    def _wake(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _summary_pump(self):
        """Keep the cold queue continuously fed.

        In ``summaries`` mode (SSTP proper) the cold queue carries the
        root digest; in ``adus`` mode (classic announce/listen) it
        cycles full data announcements over every published leaf.
        Either way the cold queue consumes exactly its bandwidth share.
        """
        cold_cursor = 0
        while True:
            if self.scheduler.backlog(COLD) == 0:
                if self.cold_content == "summaries":
                    self.scheduler.enqueue(COLD, ("summary", ""))
                    self._wake()
                else:
                    leaves = [leaf.path for leaf in self.namespace.leaves()]
                    if leaves:
                        cold_cursor %= len(leaves)
                        self.scheduler.enqueue(
                            COLD, ("adu", leaves[cold_cursor])
                        )
                        cold_cursor += 1
                        self._wake()
            yield self.env.timeout(self.summary_interval_hint / 10.0)

    def _run(self):
        while True:
            try:
                while True:
                    entry = self.scheduler.dequeue()
                    if entry is None:
                        self._wakeup = self.env.event()
                        yield self._wakeup
                        self._wakeup = None
                        continue
                    _, (kind, path) = entry
                    self._hot_queued.discard((kind, path))
                    packet = self._build(kind, path)
                    if packet is None:
                        continue
                    yield self.data_channel.transmit(packet)
            except Interrupt as interrupt:
                yield from self._crashed(interrupt.cause)

    def _build(self, kind: str, path: str) -> Optional[Packet]:
        if kind == "summary":
            self.summary_packets += 1
            digest = self.namespace.root_digest()
            packet = Packet(
                kind="summary",
                seq=self._next_seq(),
                payload={"digest": digest},
                size_bits=SUMMARY_BITS,
            )
            self.ledger.add("summary", packet.size_bits)
            tr = self._trace
            if tr is not None and tr.record:
                tr.emit(
                    _RECORD,
                    "summary_digest",
                    self.env.now,
                    digest=digest.hex(),
                    fingerprint=self.namespace.content_fingerprint(),
                )
            return packet
        if kind == "digests":
            node = self.namespace.find(path)
            if node is None:
                return None
            children = [
                (child.path, child.digest(self.namespace.algorithm), child.metadata)
                for child in (
                    node.children[name] for name in sorted(node.children)
                )
            ]
            # An *empty* children list is still a valid (and necessary)
            # answer: it tells receivers to prune everything they hold
            # under this node — e.g. after the last record is removed.
            self.digest_packets += 1
            packet = Packet(
                kind="digests",
                seq=self._next_seq(),
                payload={
                    "path": path,
                    "children": children,
                    "leaf": {c.path: c.is_leaf for c in (
                        node.children[name] for name in sorted(node.children)
                    )},
                },
                size_bits=SUMMARY_BITS,
            )
            self.ledger.add("summary", packet.size_bits)
            return packet
        # kind == "adu"
        leaf = self.namespace.find(path)
        if leaf is None or not leaf.is_leaf:
            return None
        self.adu_packets += 1
        identity = (path, leaf.version)
        if identity not in self._first_tx:
            self._first_tx.add(identity)
            self.ledger.add("new", self.adu_size_bits)
        else:
            self.ledger.add("repair", self.adu_size_bits)
        return Packet(
            kind="adu",
            seq=self._next_seq(),
            payload={
                "path": path,
                "value": leaf.value,
                "version": leaf.version,
                "right_edge": leaf.right_edge,
                "metadata": dict(leaf.metadata),
            },
            size_bits=self.adu_size_bits,
        )

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq
