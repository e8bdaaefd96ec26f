"""The shadow checker: the invariant library as a trace fold.

:class:`ShadowChecker` is a fold (:mod:`repro.obs.fold`): the fold
driver reads the trace, partitions it into cells and routes each record
to the invariants that asked for its event.  One driver serves every
input — a live sink (:class:`CheckingSink`, or a
:class:`~repro.obs.fold.FoldSink` carrying the span builder as well),
in-memory records (:func:`~repro.obs.fold.replay`) and a JSONL file
with a torn tail (:func:`~repro.obs.fold.replay_file`)::

    (report,) = replay_file("trace.jsonl", ShadowChecker())

Every violation increments the ``repro_spec_violations_total`` metric
(labelled by invariant) in the ambient registry, and
:meth:`CheckReport.emit_to` can write the verdict back into a trace
under the ``spec`` category.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import runtime as _obs
from repro.obs.fold import ALL_EVENTS, FoldSink, Stream, fan
from repro.obs.trace import SPEC as _SPEC
from repro.obs.trace import Tracer
from repro.spec.invariants import (
    DEFAULT_INVARIANTS,
    DeliveryConservation,
    Invariant,
    MonotoneClock,
    MonotoneTransferIds,
    Violation,
)

__all__ = [
    "CheckReport",
    "CheckingSink",
    "ShadowChecker",
]

#: Factory signature: anything that builds a fresh :class:`Invariant`.
InvariantFactory = Callable[[], Invariant]


class CheckReport:
    """The verdict for one replayed trace."""

    def __init__(
        self,
        violations: List[Violation],
        events_checked: int,
        cells_checked: int,
        invariant_names: Sequence[str],
        truncated: bool = False,
    ) -> None:
        self.violations = violations
        self.events_checked = events_checked
        self.cells_checked = cells_checked
        self.invariant_names = list(invariant_names)
        self.truncated = truncated

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> Optional[Violation]:
        """The earliest breach by stream position — the place to look."""
        if not self.violations:
            return None
        return min(
            self.violations,
            key=lambda v: (v.cell if v.cell is not None else -1, v.index),
        )

    def describe(self) -> str:
        """A deterministic multi-line human verdict."""
        lines = [
            "verdict: {} ({} events, {} cells, invariants: {})".format(
                "PASS" if self.ok else "FAIL",
                self.events_checked,
                self.cells_checked,
                ", ".join(self.invariant_names),
            )
        ]
        if self.truncated:
            lines.append(
                "note: trace ends with a torn row (killed run); "
                "complete rows were checked"
            )
        for violation in self.violations:
            lines.append(violation.describe())
        first = self.first_violation
        if first is not None:
            lines.append(
                f"first violating event: index {first.index}"
                + ("" if first.cell is None else f" in cell {first.cell}")
                + f" -> {first.event!r}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready summary (stable ordering, no timestamps)."""
        return {
            "ok": self.ok,
            "events_checked": self.events_checked,
            "cells_checked": self.cells_checked,
            "truncated": self.truncated,
            "invariants": list(self.invariant_names),
            "violations": [
                {
                    "invariant": v.invariant,
                    "cell": v.cell,
                    "index": v.index,
                    "t": v.t,
                    "message": v.message,
                    "event": v.event,
                }
                for v in self.violations
            ],
        }

    def emit_to(self, tracer: Tracer) -> None:
        """Write the verdict into a trace under the ``spec`` category."""
        if not tracer.spec:
            return
        for violation in self.violations:
            tracer.emit(
                _SPEC,
                "invariant_violated",
                violation.t,
                invariant=violation.invariant,
                cell=violation.cell,
                index=violation.index,
                message=violation.message,
            )
        tracer.emit(
            _SPEC,
            "check_verdict",
            None,
            ok=self.ok,
            events=self.events_checked,
            cells=self.cells_checked,
            violations=len(self.violations),
        )


class ShadowChecker:
    """The invariant set as a fold (:mod:`repro.obs.fold`).

    Every invariant is re-instantiated per cell, because each cell
    restarts the simulation clock at zero and reuses session labels.
    """

    def __init__(
        self, invariants: Optional[Sequence[InvariantFactory]] = None
    ) -> None:
        self._factories: Tuple[InvariantFactory, ...] = tuple(
            invariants if invariants is not None else DEFAULT_INVARIANTS
        )
        self._cell: Optional[int] = None
        self._report: Optional[CheckReport] = None
        self._violations: List[Violation] = []
        self._instantiate()
        self._names = [inv.name for inv in self._active]

    def _instantiate(self) -> None:
        """Fresh invariant instances, routed by event name.

        The first :class:`MonotoneClock` is not routed at all: the
        driver's inline clock check calls :attr:`on_backwards` instead,
        so checking every record costs no per-record call.  Likewise
        the first :class:`MonotoneTransferIds` rides the first
        :class:`DeliveryConservation`, which already keeps each
        channel's last serviced id: one handler per ``packet_sent``.
        """
        self._active: List[Invariant] = [
            factory() for factory in self._factories
        ]
        routes: Dict[str, List[Callable[..., None]]] = {}
        self.on_backwards: Optional[Callable[..., None]] = None
        conservation = next(
            (i for i in self._active if type(i) is DeliveryConservation),
            None,
        )
        for invariant in self._active:
            if (
                type(invariant) is MonotoneTransferIds
                and conservation is not None
                and conservation.regressed is None
            ):
                conservation.regressed = invariant.regressed
                continue
            if invariant.interests == ALL_EVENTS:
                if (
                    type(invariant) is MonotoneClock
                    and self.on_backwards is None
                ):
                    self.on_backwards = invariant.backwards
                    continue
                events = [ALL_EVENTS]
            else:
                # The event name alone routes: see repro.obs.fold.
                events = [ev for _cat, ev in invariant.interests]
            for ev in events:
                routes.setdefault(ev, []).append(invariant.feed)
        self.handlers = {ev: fan(feeds) for ev, feeds in routes.items()}

    def on_cell(self, fields: Dict[str, Any]) -> None:
        self._settle_cell()
        self._instantiate()
        self._cell = fields.get("index")

    def _settle_cell(self) -> None:
        """Finish the active invariants and harvest their violations."""
        for invariant in self._active:
            invariant.finish()
            for violation in invariant.violations:
                violation.cell = self._cell
                self._violations.append(violation)
            invariant.violations = []

    def finish(self, stream: Stream) -> CheckReport:
        """Settle the last cell and produce the report (idempotent)."""
        if self._report is None:
            self._settle_cell()
            if self._violations:
                counter = _obs.registry().counter(
                    "repro_spec_violations_total",
                    "Invariant violations found by the shadow checker.",
                    ("invariant",),
                )
                for violation in self._violations:
                    counter.inc(1, invariant=violation.invariant)
            self._report = CheckReport(
                violations=self._violations,
                events_checked=stream.records,
                cells_checked=stream.cells,
                invariant_names=self._names,
                truncated=stream.truncated,
            )
        return self._report


def CheckingSink(
    inner: Any,
    invariants: Optional[Sequence[InvariantFactory]] = None,
) -> FoldSink:
    """A fold driver carrying one :class:`ShadowChecker`.

    Drop-in for any :class:`~repro.obs.trace.Tracer` sink::

        checking = CheckingSink(JsonlSink(path))
        with tracing(Tracer(checking)):
            ...
        report = checking.finalize()

    A function, not a subclass: stacked drivers then share one type,
    which keeps the interpreter's attribute caches in
    :meth:`FoldSink.write` monomorphic.
    """
    return FoldSink(inner, ShadowChecker(invariants))
