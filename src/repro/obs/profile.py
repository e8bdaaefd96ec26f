"""Opt-in wall-time attribution: per DES process and per trace category.

``repro_stats``/telemetry answer *what the model did*; this module
answers *where the wall clock went*.  Two attribution axes:

* **per DES process** — :class:`Profiler` rides the kernel's event
  loop (``Environment._run_instrumented``) and attributes callback wall
  time to the generator name of the process an event resumed.  A bare
  bound-method callback is keyed ``<owner type>.<method name>`` — the
  channel's service timer shows up as ``Channel._on_serviced`` — and
  any other callback by the event type;
* **per trace category** — :class:`ProfilingSink` wraps any sink and
  times each ``write`` under the record's category, so a traced run
  shows what the JSONL/ring persistence itself costs.

Cost model: ``time.perf_counter()`` is comparable in cost to the
kernel's per-event work, so exact per-event timing would blow the CI
overhead budget.  The profiler therefore *samples*: every
``sample_every``-th event is timed and the estimate scales by the
sampling factor.  The countdown is a plain deterministic counter — no
RNG, no clock reads outside the sampled window — so a profiled run's
simulation results stay byte-identical to an unprofiled run
(``benchmarks/overhead_check.py`` gates the <10% enabled budget).

Enablement mirrors ``REPRO_TRACEMALLOC``: set ``REPRO_PROFILE=1`` and
the experiment runner installs a profiler around every cell, recording
a ``profile`` block per cell and an aggregate in ``telemetry.json``
(docs/telemetry.schema.json).  Programmatic use::

    from repro.obs import Profiler, profiling

    with profiling(Profiler()) as prof:
        run_experiment("figure3", quick=True)
    print(prof.snapshot())
"""

from __future__ import annotations

import os
from time import perf_counter as _perf_counter
from typing import Any, Dict, Optional

#: Default sampling factor: one in this many events is timed.  16 keeps
#: the measured enabled overhead a few percent on the kernel microbench
#: while still attributing thousands of samples per quick cell.
DEFAULT_SAMPLE_EVERY = 16


def profile_enabled() -> bool:
    """True when ``REPRO_PROFILE=1`` opts runs into wall-time profiling."""
    return os.environ.get("REPRO_PROFILE", "") == "1"


class Profiler:
    """Sampled wall-time accumulator keyed by process / category name.

    ``processes`` and ``categories`` map a name to ``[sampled_calls,
    sampled_wall_s]`` — *raw sampled* figures; multiply by
    ``sample_every`` for the estimate (:meth:`snapshot` reports both
    raw fields and the factor, so downstream consumers can scale or
    re-aggregate without losing information).
    """

    __slots__ = ("sample_every", "processes", "categories", "_countdown")

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.processes: Dict[str, list] = {}
        self.categories: Dict[str, list] = {}
        self._countdown = sample_every

    # -- hot-path hooks (called from guarded sites only) -------------------

    def account(self, key: str, seconds: float) -> None:
        """Credit one sampled callback batch to a process key."""
        entry = self.processes.get(key)
        if entry is None:
            self.processes[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def account_category(self, category: str, seconds: float) -> None:
        """Credit one (unsampled) sink write to a trace category."""
        entry = self.categories.get(category)
        if entry is None:
            self.categories[category] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump: raw sampled figures plus the sampling factor.

        ``processes`` entries estimate via ``sample_every``;
        ``categories`` entries are exact (sink writes are rare enough
        to time each one).
        """
        return {
            "sample_every": self.sample_every,
            "processes": {
                key: {
                    "sampled_calls": calls,
                    "sampled_wall_s": wall,
                    "wall_s_est": wall * self.sample_every,
                }
                for key, (calls, wall) in sorted(self.processes.items())
            },
            "categories": {
                key: {"calls": calls, "wall_s": wall}
                for key, (calls, wall) in sorted(self.categories.items())
            },
        }

    @staticmethod
    def merge(
        aggregate: Optional[Dict[str, Any]], snapshot: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Fold one cell's snapshot into a run-level aggregate.

        Raw sampled figures sum; the sampling factor must agree (cells
        of one run share the env-var/default configuration).
        """
        if aggregate is None:
            aggregate = {
                "sample_every": snapshot["sample_every"],
                "processes": {},
                "categories": {},
            }
        for section in ("processes", "categories"):
            into = aggregate[section]
            for key, entry in snapshot.get(section, {}).items():
                target = into.setdefault(
                    key, {field: 0 for field in entry}
                )
                for field, value in entry.items():
                    target[field] = target.get(field, 0) + value
        return aggregate


class ProfilingSink:
    """Sink wrapper that times every ``write`` under its trace category.

    Composable with ``JsonlSink``/``RingBufferSink`` and the fold
    driver (:class:`~repro.obs.fold.FoldSink`, whose single-fold forms
    are ``CheckingSink`` and ``SpanSink``): whatever ``inner`` does —
    serialise, check, fold spans — is attributed to the record's
    category in the profiler's ``categories`` table.  Wrap the driver
    to time the folds; put it inside the driver to time only the
    persistence below it.
    """

    def __init__(self, inner, profiler: Profiler) -> None:
        self.inner = inner
        self.profiler = profiler
        self._inner_write = inner.write
        self._account = profiler.account_category

    def write(self, record) -> None:
        start = _perf_counter()
        self._inner_write(record)
        self._account(record[1], _perf_counter() - start)

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()
