"""Core of the discrete-event simulation kernel.

The design follows the classic process-interaction style: an
:class:`Environment` owns a priority queue of scheduled events, and
:class:`Process` objects wrap Python generators that ``yield`` events to
wait on.  When a yielded event is *triggered*, the process is resumed with
the event's value (or the event's exception is thrown into it).

Determinism: events scheduled for the same simulation time are processed
in (priority, insertion-order), so a seeded simulation is fully
reproducible run-to-run.

Performance: this is the hottest loop in the repository, so the kernel
takes a few deliberate liberties with style (see docs/KERNEL.md,
"Performance"):

* every core class declares ``__slots__`` — attribute access on events
  is the single most frequent operation in a run;
* :meth:`Environment.timeout`, :meth:`Event.succeed` and
  :meth:`Event.fail` append to the queue directly (the "fast-append"
  path) instead of going through :meth:`Environment._schedule`, and
  ``env.timeout()`` builds the :class:`Timeout` with ``__new__`` plus
  direct slot stores, skipping the chained-``__init__`` churn;
* process start schedules a bare pre-triggered :class:`Event` built the
  same way (the old ``Initialize`` bookkeeping subclass is gone);
* :meth:`Environment.run` inlines the body of :meth:`Environment.step`
  and binds hot globals/attributes to locals;
* an event triggered with :meth:`Event.settle` (a channel's pull-mode
  completion) is dispatched in place by the run loop when it would pop
  next, and only otherwise pushed under the order it reserved.

None of this changes scheduling order: entries still sort by
``(time, priority, insertion-order)`` with insertion-order assigned by
the same single counter, so seeded traces are bit-for-bit identical to
the straightforward implementation.
"""

from __future__ import annotations

import heapq
from time import perf_counter as _perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs import runtime as _obs
from repro.obs.trace import KERNEL as _KERNEL

#: Event priority for "urgent" bookkeeping events (process start,
#: process resumption after an interrupt).  Lower sorts first.
URGENT = 0
#: Default priority for ordinary events.
NORMAL = 1

_INF = float("inf")
_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(Exception):
    """Raised for misuse of the simulation API (not for model errors)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupting party may attach an arbitrary ``cause``.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class _Pending:
    """Sentinel for an event value that has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<pending>"


PENDING = _Pending()


class Event:
    """A happening at a point in simulation time.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers it, which schedules it onto the environment's queue; when the
    environment pops it, all registered callbacks run and the event
    becomes *processed*.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: True once a failure has been delivered to at least one waiter.
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the environment has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid = eid = env._eid + 1
        _heappush(env._queue, (env._now, NORMAL, eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        Waiting processes will have the exception thrown into them.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid = eid = env._eid + 1
        _heappush(env._queue, (env._now, NORMAL, eid, self))
        return self

    def settle(self, value: Any = None) -> None:
        """Trigger successfully with ``value``, under the insertion order
        :meth:`succeed` would give it, but leave the heap entry to the
        run loop.

        After the current event's callbacks, the loop dispatches the
        event in place if nothing pending sorts before ``(now, NORMAL,
        reserved order)``, and pushes it under that order otherwise, so
        pop order is exactly that of :meth:`succeed`
        (docs/KERNEL.md, "Channel service as callbacks").
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        if env._settling is not None:
            env._flush_settling()
        env._eid = eid = env._eid + 1
        env._settling = (env._now, NORMAL, eid, self)

    def __repr__(self) -> str:
        status = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {status} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after ``delay`` units of simulation time."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        env._eid = eid = env._eid + 1
        _heappush(env._queue, (env._now + delay, NORMAL, eid, self))
        if env._trace_kernel:
            env._trace.emit(
                _KERNEL, "timer_set", env._now, delay=delay, eid=eid
            )

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay}>"


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event that triggers when the generator
    returns (successfully, with the generator's return value) or raises
    (as a failure).  This lets processes wait on each other:

    >>> result = yield env.process(child(env))
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        # Start the process via a bare pre-triggered event (the fast-path
        # replacement for the old ``Initialize`` bookkeeping subclass).
        init = Event.__new__(Event)
        init.env = env
        init.callbacks = [self._resume]
        init._value = None
        init._ok = True
        init._defused = False
        env._eid = eid = env._eid + 1
        _heappush(env._queue, (env._now, URGENT, eid, init))
        if env._trace_kernel:
            env._trace.emit(
                _KERNEL,
                "proc_scheduled",
                env._now,
                proc=getattr(generator, "__name__", str(generator)),
                eid=eid,
            )

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process must currently be waiting on an event; the interrupt
        is delivered as an urgent event so that it takes effect at the
        current simulation time.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self._target is None:
            raise SimulationError(f"{self!r} has not started; cannot interrupt")

        env = self.env
        interrupt_event = Event.__new__(Event)
        interrupt_event.env = env
        interrupt_event.callbacks = [self._resume]
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        env._eid = eid = env._eid + 1
        _heappush(env._queue, (env._now, URGENT, eid, interrupt_event))
        if env._trace_kernel:
            env._trace.emit(
                _KERNEL,
                "proc_interrupted",
                env._now,
                proc=getattr(self._generator, "__name__", "?"),
                cause=cause,
            )

    def _resume(self, event: Event) -> None:
        """Advance the generator by one step with ``event``'s outcome."""
        env = self.env
        generator = self._generator
        if env._trace_kernel:
            env._trace.emit(
                _KERNEL,
                "proc_resumed",
                env._now,
                proc=getattr(generator, "__name__", "?"),
                ok=event._ok,
            )
        while True:
            # Detach from the event we were waiting for.  If an interrupt
            # arrived while we waited on a still-pending event, we must
            # deregister our callback from it.
            target = self._target
            if target is not None and target is not event:
                if target.callbacks is not None:
                    try:
                        target.callbacks.remove(self._resume)
                    except ValueError:
                        pass
            self._target = None
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._eid = eid = env._eid + 1
                _heappush(env._queue, (env._now, NORMAL, eid, self))
                if env._trace_kernel:
                    env._trace.emit(
                        _KERNEL,
                        "proc_ended",
                        env._now,
                        proc=getattr(generator, "__name__", "?"),
                        ok=True,
                    )
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._eid = eid = env._eid + 1
                _heappush(env._queue, (env._now, NORMAL, eid, self))
                if env._trace_kernel:
                    env._trace.emit(
                        _KERNEL,
                        "proc_ended",
                        env._now,
                        proc=getattr(generator, "__name__", "?"),
                        ok=False,
                        error=repr(exc),
                    )
                break

            if type(next_event) is not Timeout and not isinstance(
                next_event, Event
            ):
                exc = SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
                event = Event.__new__(Event)
                event.env = env
                event.callbacks = []
                event._ok = False
                event._value = exc
                event._defused = True
                continue

            if next_event.callbacks is not None:
                # Event still pending or triggered-but-not-processed:
                # register to be resumed when it is processed.
                self._target = next_event
                next_event.callbacks.append(self._resume)
                break

            # Event already processed: loop immediately with its outcome.
            event = next_event

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process {name} at {id(self):#x}>"


class Environment:
    """Execution environment: the event queue and the simulation clock."""

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_trace",
        "_trace_kernel",
        "_profile",
        "_eid_noted",
        "_settling",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        #: The ambient tracer, cached at construction (guarded attribute:
        #: hooks are no-ops unless a tracer was installed via repro.obs).
        tracer = _obs.current_tracer()
        self._trace = tracer
        #: Precomputed ``tracer is not None and tracer.kernel`` — the
        #: kernel's hook sites run per event, so their disabled cost must
        #: be a single attribute load and jump, not two.
        self._trace_kernel = tracer is not None and tracer.kernel
        #: The ambient wall-time profiler, cached like the tracer; when
        #: None (the default), run() never reads a clock.
        self._profile = _obs.current_profiler()
        #: Events already credited to run telemetry (see _note_events).
        self._eid_noted = 0
        #: The heap entry an :meth:`Event.settle` reserved in the
        #: current batch, not yet pushed or dispatched (see _settled).
        self._settling: Optional[tuple[float, int, int, Event]] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def tracer(self):
        """The attached tracer, or None (tracing disabled)."""
        return self._trace

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._trace = tracer
        self._trace_kernel = tracer is not None and tracer.kernel

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now.

        Fast path: builds the :class:`Timeout` with direct slot stores
        and appends it to the queue without intermediate calls — this is
        the most frequently executed factory in any model.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        event = Event.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event._delay = delay
        self._eid = eid = self._eid + 1
        _heappush(self._queue, (self._now + delay, NORMAL, eid, event))
        if self._trace_kernel:
            self._trace.emit(
                _KERNEL, "timer_set", self._now, delay=delay, eid=eid
            )
        return event

    def timeout_many(
        self,
        delays: Iterable[float],
        values: Optional[list[Any]] = None,
    ) -> list[Timeout]:
        """Create one :class:`Timeout` per delay in a single pass.

        Equivalent to ``[self.timeout(d, v) for d, v in zip(delays,
        values)]`` — same eid range, same heap entries, same trace emits —
        but with the queue, push, clock, and eid counter bound to locals
        once for the whole batch.  Bulk scheduling sites (slot-timer
        arming, late-join batches, refresh/expiry fans) use this to cut
        per-timer factory overhead.
        """
        delays = list(delays)
        for delay in delays:
            if delay < 0:
                raise SimulationError(f"negative delay {delay}")
        if values is not None and len(values) != len(delays):
            raise SimulationError(
                f"got {len(delays)} delays but {len(values)} values"
            )
        queue = self._queue
        push = _heappush
        now = self._now
        eid = self._eid
        new = Event.__new__
        events: list[Timeout] = []
        append = events.append
        for index, delay in enumerate(delays):
            event = new(Timeout)
            event.env = self
            event.callbacks = []
            event._value = None if values is None else values[index]
            event._ok = True
            event._defused = False
            event._delay = delay
            eid += 1
            push(queue, (now + delay, NORMAL, eid, event))
            append(event)
        self._eid = eid
        if self._trace_kernel:
            tr = self._trace
            base = eid - len(delays)
            for index, delay in enumerate(delays):
                tr.emit(
                    _KERNEL, "timer_set", now, delay=delay, eid=base + index + 1
                )
        return events

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    # -- scheduling & stepping ----------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._eid = eid = self._eid + 1
        _heappush(self._queue, (self._now + delay, priority, eid, event))

    def _flush_settling(self) -> None:
        """Push the reserved entry of a settled event under its order."""
        _heappush(self._queue, self._settling)
        self._settling = None

    def _settled(self, stop_event: Optional[Event]) -> Optional[Event]:
        """After a batch, the settled event to dispatch in place, if any.

        That is only when the loop would pop it next: no pending entry
        sorts before its reserved one and the awaited ``stop_event`` has
        not fired.  Otherwise it is pushed under its reserved order.
        """
        entry = self._settling
        self._settling = None
        queue = self._queue
        if (queue and queue[0] < entry) or (
            stop_event is not None and stop_event.callbacks is None
        ):
            _heappush(queue, entry)
            return None
        return entry[3]

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._settling is not None:
            return self._now
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Process the single next event."""
        if self._settling is not None:  # settled outside any batch
            self._flush_settling()
        if not self._queue:
            raise SimulationError("no more events")
        when, _, _, event = _heappop(self._queue)
        self._now = when
        if self._trace_kernel:
            self._emit_fired(self._trace, when, event)
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if self._settling is not None:
            # One event per step: a settled event takes its heap entry.
            self._flush_settling()
        if not event._ok and not event._defused:
            # A failure nobody waited on: surface it instead of losing it.
            raise event._value
        # run() credits telemetry once per run; step-driven consumers
        # (tests, examples, REPL exploration) would otherwise report 0
        # kernel events, so credit after every manual step too.
        self._note_events()

    def _emit_fired(self, tr, when: float, event: Event) -> None:
        """Trace one dispatched event (timer_fired for timeouts)."""
        kind = type(event).__name__
        tr.emit(
            _KERNEL,
            "timer_fired" if kind == "Timeout" else "event_fired",
            when,
            kind=kind,
            ok=event._ok,
        )

    def _note_events(self) -> None:
        """Credit newly scheduled kernel events to run telemetry."""
        _obs.note_events(self._eid - self._eid_noted)
        self._eid_noted = self._eid

    def run(self, until: Any = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        ``until`` may be ``None`` (drain the queue), a number (stop when
        the clock would pass it), or an :class:`Event` (stop when it is
        processed and return its value).
        """
        stop_event: Optional[Event] = None
        stop_time = _INF
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} is in the past (now={self._now})"
                )
        if self._settling is not None:  # settled outside any batch
            self._flush_settling()

        try:
            if self._profile is not None or self._trace_kernel:
                # Profiling or kernel tracing on: the instrumented loop
                # samples callback wall time and/or emits one record per
                # dispatched event.  Scheduling order and timestamps are
                # identical to the fast loops — only clock reads and
                # emits differ.
                return self._run_instrumented(
                    self._profile,
                    self._trace if self._trace_kernel else None,
                    stop_event,
                    stop_time,
                )

            # The inlined body of step() below is the hottest loop in the
            # repository; `queue` and `pop` are bound to locals on purpose.
            queue = self._queue
            pop = _heappop

            # The inner loops dispatch a settled event in place (_settled).
            if stop_event is None and stop_time == _INF:
                # Fast drain: no stop condition to re-check per event.
                while queue:
                    when, _, _, event = pop(queue)
                    self._now = when
                    while True:
                        callbacks = event.callbacks
                        event.callbacks = None
                        for callback in callbacks:
                            callback(event)
                        if not event._ok and not event._defused:
                            raise event._value
                        if self._settling is None:
                            break
                        event = self._settled(None)
                        if event is None:
                            break
                return None

            while queue:
                if stop_event is not None and stop_event.callbacks is None:
                    break
                if queue[0][0] > stop_time:
                    self._now = stop_time
                    return None
                when, _, _, event = pop(queue)
                self._now = when
                while True:
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if self._settling is None:
                        break
                    event = self._settled(stop_event)
                    if event is None:
                        break

            return self._finish(stop_event, stop_time)
        finally:
            if self._settling is not None:
                self._flush_settling()
            self._note_events()

    def _run_instrumented(
        self,
        prof,
        tr,
        stop_event: Optional[Event],
        stop_time: float,
    ) -> Any:
        """The general event loop plus sampled profiling and tracing.

        ``prof`` is the profiler, or None: then the sampling countdown
        never reaches zero.  Every ``prof.sample_every``-th event's
        callbacks are timed one by one, each credited to the resumed
        process's generator name, to ``<owner type>.<method name>`` for
        a bound method callback (``Channel._on_serviced``), or else to
        the event type.  An event dispatched in place (``_settled``)
        counts as an event of its own.  The countdown is a plain counter
        — no RNG, and no clock reads outside the sampled window.  ``tr``
        is the tracer when kernel tracing is enabled, else None: each
        dispatched event is emitted before its callbacks run.  Pop
        order, sim clock updates, and stop handling stay byte-identical
        to the other loops.
        """
        queue = self._queue
        pop = _heappop
        emit_fired = self._emit_fired
        perf = _perf_counter
        if prof is None:
            account = None
            sample = countdown = _INF
        else:
            account = prof.account
            sample = prof.sample_every
            countdown = prof._countdown
        try:
            while queue:
                if stop_event is not None and stop_event.callbacks is None:
                    break
                if queue[0][0] > stop_time:
                    self._now = stop_time
                    return None
                when, _, _, event = pop(queue)
                self._now = when
                while True:
                    if tr is not None:
                        emit_fired(tr, when, event)
                    callbacks = event.callbacks
                    event.callbacks = None
                    countdown -= 1
                    if countdown <= 0:
                        countdown = sample
                        for callback in callbacks:
                            start = perf()
                            callback(event)
                            elapsed = perf() - start
                            owner = getattr(callback, "__self__", None)
                            if type(owner) is Process:
                                key = getattr(owner._generator, "__name__", "?")
                            elif owner is not None:
                                key = f"{type(owner).__name__}.{callback.__name__}"
                            else:
                                key = type(event).__name__
                            account(key, elapsed)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if self._settling is None:
                        break
                    event = self._settled(stop_event)
                    if event is None:
                        break
            return self._finish(stop_event, stop_time)
        finally:
            # Persist the countdown so sampling continues seamlessly
            # across the many short run() calls one cell makes.
            if prof is not None:
                prof._countdown = countdown

    def _finish(self, stop_event: Optional[Event], stop_time: float) -> Any:
        """Common run() epilogue once the loop exits."""
        if stop_event is not None:
            if stop_event._value is PENDING:
                raise SimulationError(
                    "run() ran out of events before the awaited event fired"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_time != _INF:
            self._now = stop_time
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={len(self._queue)}>"
