"""Executable specification: the paper's invariants, checked on traces.

The paper's soft-state claims are *invariants* — digest agreement
implies namespace agreement (Section 6), no false expiry while
refreshes arrive within the timeout multiple (Section 7 / scalable
timers), reconsistency in O(refresh interval) after a disruption
(Section 7).  This package turns them into machine-checkable
properties over the structured trace stream that every layer already
emits (``repro.obs.trace``), following the network-simulator-centric
compositional-testing approach (Rousseaux et al., PAPERS.md):

* :mod:`repro.spec.events` — typed trace-event parsing (JSONL rows or
  in-memory records);
* :mod:`repro.spec.invariants` — the invariant library: small state
  machines consuming ``(t, cat, ev, fields)`` streams;
* :mod:`repro.spec.checker` — the shadow checker: a fold
  (:mod:`repro.obs.fold`) over any ``docs/trace.schema.json``-conformant
  stream (file, records or live sink) that produces a per-run verdict
  with the first violating event pinpointed;
* :mod:`repro.spec.chaos` — the hypothesis-driven chaos harness:
  seeded random fault schedules + topology/loss/timeout parameters run
  through the cached parallel runner with tracing on, shrinking to a
  minimal violating schedule on failure.

CLI surface: ``repro check <trace.jsonl>`` / ``repro check
--experiment <id>`` and ``repro chaos [--runs N --seed S]``.  See
``docs/SPEC.md`` for the invariant catalog.
"""

from repro.spec.checker import CheckingSink, CheckReport, ShadowChecker
from repro.spec.events import TraceEvent, iter_jsonl_events
from repro.spec.invariants import (
    DEFAULT_INVARIANTS,
    BoundedReconsistency,
    DeliveryConservation,
    DigestAgreement,
    Invariant,
    MonotoneClock,
    MonotoneTransferIds,
    NoFalseExpiry,
    Violation,
)

__all__ = [
    "BoundedReconsistency",
    "CheckReport",
    "CheckingSink",
    "DEFAULT_INVARIANTS",
    "DeliveryConservation",
    "DigestAgreement",
    "Invariant",
    "MonotoneClock",
    "MonotoneTransferIds",
    "NoFalseExpiry",
    "ShadowChecker",
    "TraceEvent",
    "Violation",
    "iter_jsonl_events",
]
