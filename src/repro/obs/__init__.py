"""Unified observability: structured tracing, metrics, run telemetry.

Three cooperating pieces, all zero-cost when unused:

* :mod:`repro.obs.trace` — a :class:`Tracer` records typed, timestamped
  events (process scheduled/resumed/interrupted, timer set/fired,
  packet sent/delivered/lost, record refreshed/expired, fault
  begin/end) to a ring buffer or a JSONL file, with per-category
  enable flags.  Install one with :func:`repro.obs.tracing` *before*
  building the model; every :class:`~repro.des.core.Environment`,
  table, and channel created inside the block traces into it.

* :mod:`repro.obs.metrics` — a :class:`Registry` of labeled
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments.
  The protocol ladder and SSTP publish into the ambient registry: the
  classic meters (``BandwidthLedger``, ``LatencyRecorder``,
  ``RecoveryTracker``) keep plain numbers and register collectors that
  every registry read folds in.

* :mod:`repro.obs.telemetry` — the parallel runner tags every cell
  with wall time, kernel event count, events/sec, RNG substream ids,
  and (opt-in) peak heap, and aggregates them into
  ``results/<experiment>/telemetry.json``.

See ``docs/OBSERVABILITY.md`` for the event taxonomy, instrument
naming conventions, and how to add a new trace hook.
"""

from repro.obs.fold import FoldSink, replay, replay_file
from repro.obs.metrics import Counter, Gauge, Histogram, Registry
from repro.obs.profile import Profiler, ProfilingSink, profile_enabled
from repro.obs.runtime import (
    cell_context,
    current_profiler,
    current_tracer,
    install_profiler,
    install_tracer,
    profiling,
    registry,
    tracing,
    uninstall_profiler,
    uninstall_tracer,
)
from repro.obs.spans import Span, SpanBuilder, SpanReport, SpanSink
from repro.obs.telemetry import (
    CellMeta,
    RunTelemetry,
    host_metadata,
    write_telemetry,
)
from repro.obs.trace import (
    CATEGORIES,
    FAULT,
    KERNEL,
    PACKET,
    RECORD,
    RUN,
    SPEC,
    WARNING,
    JsonlSink,
    RingBufferSink,
    Tracer,
    record_as_dict,
)

__all__ = [
    "CATEGORIES",
    "CellMeta",
    "Counter",
    "FAULT",
    "FoldSink",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "KERNEL",
    "PACKET",
    "Profiler",
    "ProfilingSink",
    "RECORD",
    "RUN",
    "Registry",
    "RingBufferSink",
    "RunTelemetry",
    "SPEC",
    "Span",
    "SpanBuilder",
    "SpanReport",
    "SpanSink",
    "Tracer",
    "WARNING",
    "cell_context",
    "current_profiler",
    "current_tracer",
    "host_metadata",
    "install_profiler",
    "install_tracer",
    "profile_enabled",
    "profiling",
    "record_as_dict",
    "registry",
    "replay",
    "replay_file",
    "tracing",
    "uninstall_profiler",
    "uninstall_tracer",
    "write_telemetry",
]
