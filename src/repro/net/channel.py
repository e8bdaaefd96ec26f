"""Lossy channels: the paper's network model.

Section 3 models the network as a single FIFO server with service rate
``mu_ch`` (the session bandwidth) whose transmissions are independently
lost with probability ``p_l``.  :class:`Channel` implements exactly
that; :class:`MulticastChannel` extends it with per-receiver independent
loss, and :class:`DuplexPath` pairs a forward data channel with a
reverse feedback channel.

Multicast fan-out (docs/KERNEL.md, "Multicast fan-out"): the hot loop
walks a dense dispatch registry — one row per receiver that can be
delivered to, with its loss draw pre-bound — rebuilt only on
join/leave/block churn.  Every surviving receiver gets the serviced
packet object itself, not a copy.  Seeded outputs are pinned by golden
digests (``tests/net/test_fanout.py`` and ``benchsuite/golden.json``).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Callable, Dict, Optional

from repro.des import Environment, Event
from repro.des.core import URGENT
from repro.net.loss import BernoulliLoss, LossModel, NoLoss, TotalLoss
from repro.net.packet import Packet, kbps_to_pps
from repro.obs import runtime as _obs
from repro.obs.trace import PACKET as _PACKET


class _FifoServer:
    """The FIFO server both channel kinds share: queue and service timer.

    It runs as kernel callbacks, with no process: an urgent start entry
    at construction, then one heap entry per service, the timer armed
    when a packet is taken into service.  Its callback serves the
    packet, settles a pull-mode sender's completion in place
    (:meth:`Event.settle`) and takes the next step.  Seeded runs keep
    their event order (docs/KERNEL.md, "Channel service as callbacks").

    A :meth:`transmit` completion travels with its packet: each queue
    slot is a ``(packet, completion)`` pair (``None`` for a plain
    :meth:`send`), and the one in service sits in ``_serving``.  The
    same packet object may therefore be queued twice, each with its
    own completion.
    """

    def __init__(self, env: Environment, rate_kbps: float) -> None:
        if rate_kbps <= 0:
            raise ValueError(f"rate_kbps must be positive, got {rate_kbps}")
        self.env = env
        self.rate_kbps = rate_kbps
        #: Per-cell label for this channel's trace rows (never fed back
        #: into the simulation).
        self.chan = _obs.next_trace_label("c")
        self._waiting: deque[tuple[Packet, Optional[Event]]] = deque()
        self._serving: Optional[Event] = None
        self._busy = True  # until the start entry pops
        self._serviced_hooks: list[Callable[[Packet, Any], None]] = []
        self.packets_sent = 0
        start = Event(env)
        start.callbacks.append(self._next)
        start._ok, start._value = True, None
        env._schedule(start, URGENT, 0.0)

    def send(self, packet: Packet, completion: Optional[Event] = None) -> None:
        """Enqueue ``packet``; the caller is never blocked.

        ``completion``, if given, is settled with the loss outcome when
        this packet's service ends (:meth:`transmit` passes one).
        """
        tr = self.env._trace
        if tr is not None and tr.packet:
            tr.emit(
                _PACKET,
                "packet_enqueued",
                self.env.now,
                kind=packet.kind,
                key=packet.key,
                seq=packet.seq,
                size_bits=packet.size_bits,
                backlog=len(self._waiting),
                chan=self.chan,
            )
        if self._busy:
            self._waiting.append((packet, completion))
        else:
            self._busy = True
            self._serving = completion
            timer = self.env.timeout(self.service_time(packet), packet)
            timer.callbacks.append(self._on_serviced)

    def on_serviced(self, hook: Callable[[Packet, Any], None]) -> None:
        """Register ``hook(packet, outcome)`` called after every service;
        ``outcome`` is the loss outcome a :meth:`transmit` event carries."""
        self._serviced_hooks.append(hook)

    def transmit(self, packet: Packet) -> Event:
        """Enqueue ``packet`` and return an event for its service completion.

        The event's value is the loss outcome.  This lets a sender run
        the channel in *pull* mode — schedule the next record only when
        the previous transmission finishes — which is how the protocol
        senders keep their own hot/cold queues authoritative.
        """
        done = self.env.event()
        self.send(packet, done)
        return done

    @property
    def backlog(self) -> int:
        """Packets queued but not yet taken into service."""
        return len(self._waiting)

    def service_time(self, packet: Packet) -> float:
        return packet.size_bits / (self.rate_kbps * 1000.0)

    # -- internals ----------------------------------------------------------
    def _next(self, _event: Optional[Event] = None) -> None:
        """Arm the service timer for the next waiting packet, or go idle."""
        if self._waiting:
            packet, self._serving = self._waiting.popleft()
            timer = self.env.timeout(self.service_time(packet), packet)
            timer.callbacks.append(self._on_serviced)
        else:
            self._busy = False

    def _complete(self, packet: Packet, outcome: Any) -> None:
        """Run the serviced hooks, then wake a pull-mode sender."""
        for hook in self._serviced_hooks:
            hook(packet, outcome)
        completion = self._serving
        if completion is not None:
            self._serving = None
            completion.settle(outcome)


class Channel(_FifoServer):
    """A lossy FIFO server with a given bandwidth.

    Packets are serialized at ``rate_kbps``; after service, the loss
    model decides whether the packet reaches the subscriber(s).  An
    optional fixed propagation ``delay`` is added post-service.

    ``on_serviced`` hooks fire for every serviced packet with the loss
    outcome — protocols use this to account bandwidth and to drive
    per-transmission death processes.  A :meth:`transmit` completion's
    value is the loss outcome (True = lost).
    """

    def __init__(
        self,
        env: Environment,
        rate_kbps: float,
        loss: LossModel | None = None,
        delay: float = 0.0,
    ) -> None:
        super().__init__(env, rate_kbps)
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.loss = loss if loss is not None else NoLoss()
        self.delay = delay
        self._sinks: list[Callable[[Packet], None]] = []
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.bits_sent = 0

    # -- wiring -------------------------------------------------------------
    def subscribe(self, sink: Callable[[Packet], None]) -> None:
        """Register a delivery callback for surviving packets."""
        self._sinks.append(sink)

    @property
    def service_rate_pps(self) -> float:
        """Service rate in default-size packets per second."""
        return kbps_to_pps(self.rate_kbps)

    # -- internals ----------------------------------------------------------
    def _on_serviced(self, timer: Event) -> None:
        packet = timer._value
        self.packets_sent += 1
        self.bits_sent += packet.size_bits
        lost = self.loss.is_lost()
        tr = self.env._trace
        if tr is not None and tr.packet:
            tr.emit(
                _PACKET,
                "packet_sent",
                self.env.now,
                kind=packet.kind,
                key=packet.key,
                seq=packet.seq,
                size_bits=packet.size_bits,
                lost=lost,
                chan=self.chan,
            )
        self._complete(packet, lost)
        if lost:
            self.packets_dropped += 1
            if tr is not None and tr.packet:
                tr.emit(
                    _PACKET,
                    "packet_lost",
                    self.env.now,
                    kind=packet.kind,
                    key=packet.key,
                    seq=packet.seq,
                    chan=self.chan,
                )
        else:
            self.packets_delivered += 1
            if self.delay > 0:
                self.env.process(self._deliver_after(packet))
            else:
                self._deliver(packet)
        self._next()

    def _deliver_after(self, packet: Packet):
        yield self.env.timeout(self.delay)
        self._deliver(packet)

    def _deliver(self, packet: Packet) -> None:
        tr = self.env._trace
        if tr is not None and tr.packet:
            tr.emit(
                _PACKET,
                "packet_delivered",
                self.env.now,
                kind=packet.kind,
                key=packet.key,
                seq=packet.seq,
                chan=self.chan,
            )
        for sink in self._sinks:
            sink(packet)

    @property
    def observed_loss_rate(self) -> float:
        """Empirical loss fraction over everything serviced so far."""
        if self.packets_sent == 0:
            return 0.0
        return self.packets_dropped / self.packets_sent


#: Fan-out registry row kinds.  _NEVER rows always deliver (no draw, no
#: outcomes write — the pass_template already says False); _BERNOULLI
#: rows draw ``rand() < rate`` with both pre-bound; _GENERIC rows call
#: the model's ``is_lost()``.  Always-lost and blocked receivers get no
#: row at all: their True outcome is pre-resolved into the pass_template.
_NEVER = 0
_BERNOULLI = 1
_GENERIC = 2


class _FanoutRegistry:
    """Dense dispatch table for one multicast receiver set.

    ``rows`` holds one ``(kind, a, b, receiver_id, sink)`` tuple per
    receiver that can ever be delivered to, in join order.  Both
    templates hold every member in join order: ``template`` is the
    all-True outcomes dict returned when the shared upstream loss eats
    the packet; ``pass_template`` pre-resolves every constant outcome
    (blocked / always-lost members True, never-lost and drawing members
    False) so the loop only writes the *lost* draws.
    """

    __slots__ = ("rows", "template", "pass_template")


class MulticastChannel(_FifoServer):
    """One sender queue, many receivers with independent loss.

    The sender serializes each announcement once (multicast: one
    transmission serves the whole group); each receiver then loses it
    independently according to its own loss model — the standard model
    for announce/listen sessions like SAP/sdr.  A :meth:`transmit`
    completion's value is the per-receiver loss outcome dict.
    """

    def __init__(
        self,
        env: Environment,
        rate_kbps: float,
        delay: float = 0.0,
        shared_loss: LossModel | None = None,
    ) -> None:
        super().__init__(env, rate_kbps)
        self.delay = delay
        #: Loss on the shared upstream path (``shared_loss``): one draw
        #: per packet for the whole group, before each receiver's own
        #: last-hop loss -- the slot ``Channel.loss`` is for unicast.
        self.loss = shared_loss if shared_loss is not None else NoLoss()
        self._receivers: Dict[Any, tuple[LossModel, Callable[[Packet], None]]] = {}
        self._blocked: set[Any] = set()
        self._registry: Optional[_FanoutRegistry] = None
        #: Per-receiver announcement exposure counts, folded lazily: the
        #: service bumps one epoch counter per packet and membership
        #: changes / loss-rate queries credit the epoch to every current
        #: member, so exposure tracking is O(1) per packet.
        self._exposures: Dict[Any, int] = {}
        self._epoch_packets = 0
        #: Delivery counts are folded just as lazily: the fan-out loop
        #: appends surviving receiver ids to ``_delivery_hits`` and the
        #: ``delivered_per_receiver`` property folds them through one
        #: C-level ``Counter`` pass on read.
        self._delivered: Dict[Any, int] = {}
        self._delivery_hits: list = []

    def join(
        self,
        receiver_id: Any,
        sink: Callable[[Packet], None],
        loss: LossModel | None = None,
    ) -> None:
        """Add a receiver to the group with its own loss model.

        Re-joining after a :meth:`leave` (churn, a healed partition) is
        allowed and keeps the receiver's delivery count; joining while
        already a member is still an error.
        """
        if receiver_id in self._receivers:
            raise ValueError(f"receiver {receiver_id!r} already joined")
        self._fold_exposures()
        self._receivers[receiver_id] = (loss if loss is not None else NoLoss(), sink)
        self._delivered.setdefault(receiver_id, 0)
        self._exposures.setdefault(receiver_id, 0)
        self._registry = None

    def leave(
        self, receiver_id: Any
    ) -> Optional[tuple[LossModel, Callable[[Packet], None]]]:
        """Remove a receiver (late leave, crash, partition).

        Returns the receiver's ``(loss, sink)`` pair so a later
        re-:meth:`join` can restore exactly the same wiring.
        """
        self._fold_exposures()
        self._blocked.discard(receiver_id)
        self._registry = None
        return self._receivers.pop(receiver_id, None)

    def block(self, receiver_id: Any) -> None:
        """Partition a member: it stays joined but every packet is lost.

        Unlike per-receiver loss, blocking does not advance the
        receiver's loss model — no packet reaches its last hop at all.
        """
        self._blocked.add(receiver_id)
        self._registry = None

    def unblock(self, receiver_id: Any) -> None:
        """Heal a partition for one member."""
        self._blocked.discard(receiver_id)
        self._registry = None

    def invalidate_registry(self) -> None:
        """Drop the cached fan-out registry.

        Membership calls (:meth:`join`/:meth:`leave`/:meth:`block`/
        :meth:`unblock`) invalidate automatically; call this after
        mutating a joined receiver's loss model *in place* (changing a
        Bernoulli rate, swapping its entry's model object) so the
        fan-out re-reads it.
        """
        self._registry = None

    # -- observed loss ------------------------------------------------------
    def _fold_exposures(self) -> None:
        """Credit the current epoch's packets to every current member."""
        epoch = self._epoch_packets
        if epoch:
            exposures = self._exposures
            for receiver_id in self._receivers:
                exposures[receiver_id] += epoch
            self._epoch_packets = 0

    def _fold_delivery_hits(self) -> None:
        """Fold pending fan-out delivery hits into the counts."""
        hits = self._delivery_hits
        if hits:
            delivered = self._delivered
            for receiver_id, count in Counter(hits).items():
                delivered[receiver_id] += count
            hits.clear()

    @property
    def delivered_per_receiver(self) -> Dict[Any, int]:
        """Per-receiver delivery counts (folded on read)."""
        self._fold_delivery_hits()
        return self._delivered

    @property
    def observed_loss_rate(self) -> float:
        """Aggregate empirical loss fraction across all receivers.

        One announcement serviced while ``k`` receivers are joined
        counts as ``k`` exposures (blocked members included — a
        partition *is* loss as observed by that receiver); the rate is
        ``1 - delivered / exposures`` over the whole session history.
        """
        self._fold_exposures()
        total_exposed = sum(self._exposures.values())
        if total_exposed == 0:
            return 0.0
        total_delivered = sum(self.delivered_per_receiver.values())
        return 1.0 - total_delivered / total_exposed

    @property
    def receiver_loss_rates(self) -> Dict[Any, float]:
        """Per-receiver empirical loss fractions (receivers never
        exposed to a packet report 0.0)."""
        self._fold_exposures()
        exposures = self._exposures
        return {
            receiver_id: (
                1.0 - delivered / exposures[receiver_id]
                if exposures.get(receiver_id)
                else 0.0
            )
            for receiver_id, delivered in self.delivered_per_receiver.items()
        }

    # -- internals ----------------------------------------------------------
    def _on_serviced(self, timer: Event) -> None:
        packet = timer._value
        self.packets_sent += 1
        self._epoch_packets += 1
        tr = self.env._trace
        trace_packets = tr is not None and tr.packet
        outcomes = self._fanout(packet, tr if trace_packets else None)
        if trace_packets:
            tr.emit(
                _PACKET,
                "packet_sent",
                self.env.now,
                kind=packet.kind,
                key=packet.key,
                seq=packet.seq,
                size_bits=packet.size_bits,
                receivers=len(outcomes),
                lost=sum(1 for v in outcomes.values() if v),
                chan=self.chan,
            )
        self._complete(packet, outcomes)
        self._next()

    def _fanout(self, packet: Packet, tr) -> Dict[Any, bool]:
        """Draw every receiver's loss and deliver to the survivors.

        Every surviving sink receives ``packet`` itself, now or after
        ``delay``: no sink writes to a packet, so nothing is copied per
        receiver.  Rows are evaluated in join order, so each loss model
        sees its draws in the same order as a plain per-receiver
        ``is_lost()`` loop would; an upstream loss short-circuits every
        per-receiver draw.  ``tr`` is the tracer when packet tracing is
        on, else None.
        """
        registry = self._registry
        if registry is None:
            registry = self._build_registry()
        if self.loss.is_lost():
            return registry.template.copy()
        outcomes = registry.pass_template.copy()
        record_hit = self._delivery_hits.append
        delayed = self.delay > 0
        for kind, a, b, receiver_id, sink in registry.rows:
            if kind == _BERNOULLI:
                if a() < b:
                    outcomes[receiver_id] = True
                    continue
            elif kind == _GENERIC:
                if a.is_lost():
                    outcomes[receiver_id] = True
                    continue
            record_hit(receiver_id)
            if tr is not None:
                tr.emit(
                    _PACKET,
                    "packet_delivered",
                    self.env._now,
                    kind=packet.kind,
                    key=packet.key,
                    seq=packet.seq,
                    receiver=receiver_id,
                    chan=self.chan,
                )
            if delayed:
                self.env.process(self._deliver_after(packet, sink))
            else:
                sink(packet)
        return outcomes

    def _build_registry(self) -> _FanoutRegistry:
        """Compile the receiver set into rows, in join order."""
        blocked = self._blocked
        rows: list[tuple] = []
        template: Dict[Any, bool] = {}
        pass_template: Dict[Any, bool] = {}
        for receiver_id, (loss, sink) in self._receivers.items():
            template[receiver_id] = True
            if receiver_id in blocked:
                pass_template[receiver_id] = True
                continue
            cls = type(loss)
            if cls is TotalLoss:
                pass_template[receiver_id] = True
                continue
            pass_template[receiver_id] = False
            if cls is NoLoss:
                rows.append((_NEVER, None, None, receiver_id, sink))
            elif cls is BernoulliLoss:
                rate = loss.rate
                # The degenerate rates consume no randomness (see
                # BernoulliLoss.is_lost), so they compile to constants.
                if rate == 0.0:
                    rows.append((_NEVER, None, None, receiver_id, sink))
                elif rate < 1.0:
                    rows.append(
                        (_BERNOULLI, loss._rng.random, rate, receiver_id, sink)
                    )
                else:
                    pass_template[receiver_id] = True
            else:
                rows.append((_GENERIC, loss, None, receiver_id, sink))
        registry = _FanoutRegistry()
        registry.rows = rows
        registry.template = template
        registry.pass_template = pass_template
        self._registry = registry
        return registry

    def _deliver_after(self, packet: Packet, sink: Callable[[Packet], None]):
        yield self.env.timeout(self.delay)
        sink(packet)


class DuplexPath:
    """A forward data channel paired with a reverse feedback channel.

    Sections 5-6 allocate the session bandwidth between data (forward)
    and feedback (reverse NACKs / receiver reports).  Both directions
    are lossy; by default the reverse path shares the forward path's
    mean loss rate, matching a symmetric network.
    """

    def __init__(
        self,
        env: Environment,
        data_kbps: float,
        feedback_kbps: float,
        data_loss: LossModel | None = None,
        feedback_loss: LossModel | None = None,
        delay: float = 0.0,
    ) -> None:
        self.env = env
        self.forward = Channel(env, data_kbps, loss=data_loss, delay=delay)
        # A zero feedback allocation means feedback simply cannot be sent;
        # model it as a channel whose loss model drops everything.
        if feedback_kbps > 0:
            self.reverse: Optional[Channel] = Channel(
                env, feedback_kbps, loss=feedback_loss, delay=delay
            )
        else:
            self.reverse = None

    def send_data(self, packet: Packet) -> None:
        self.forward.send(packet)

    def send_feedback(self, packet: Packet) -> bool:
        """Send on the reverse path; False if no feedback bandwidth exists."""
        if self.reverse is None:
            return False
        self.reverse.send(packet)
        return True
