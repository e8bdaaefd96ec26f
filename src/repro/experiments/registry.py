"""Registry mapping experiment ids to their run functions."""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Optional

from repro.obs import telemetry as _telemetry

from repro.experiments import (
    ext_convergence,
    ext_gateway,
    ext_resilience,
    ext_scale,
    ext_suppression,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    table1,
)
from repro.experiments.common import ExperimentResult

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "figure3": figure3.run,
    "figure4": figure4.run,
    "figure5": figure5.run,
    "figure6": figure6.run,
    "figure7": figure7.run,
    "figure8": figure8.run,
    "figure9": figure9.run,
    "figure10": figure10.run,
    "figure11": figure11.run,
    "figure12": figure12.run,
    "ext_suppression": ext_suppression.run,
    "ext_convergence": ext_convergence.run,
    "ext_gateway": ext_gateway.run,
    "ext_resilience": ext_resilience.run,
    "ext_scale": ext_scale.run,
}


def run_experiment(
    experiment_id: str,
    quick: bool = False,
    seed: int = 0,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
) -> ExperimentResult:
    """Run one experiment by id (e.g. "figure8").

    ``jobs`` controls the parallel cell runner: 1 is sequential, N > 1
    fans the experiment's independent cells over a process pool, and 0
    means one worker per CPU.  When omitted, the ``REPRO_JOBS``
    environment variable applies (default 1), so callers that predate
    the runner — the benchmarks in particular — pick it up for free.
    Output is byte-identical at any job count.

    ``cache`` controls the content-addressed result store
    (docs/CACHE.md): ``True`` serves unchanged cells from
    ``results/.cache/``, ``False`` bypasses reads *and* writes, and
    ``None`` defers to the ``REPRO_CACHE`` environment variable
    (default off).  Output is byte-identical either way.
    """
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        ) from None
    if jobs is None:
        jobs = int(os.environ.get("REPRO_JOBS", "1"))
    from repro.cache import caching, resolve_cache
    from repro.experiments.runner import resolve_jobs

    cache_store = resolve_cache(cache)
    run = _telemetry.begin_run(experiment_id)
    run.jobs = resolve_jobs(jobs)
    run.seed = seed
    run.quick = quick
    run.cache_enabled = cache_store is not None
    # Run telemetry measures host wall time on purpose; the simulation
    # itself only ever sees env.now.
    start = time.perf_counter()
    try:
        with caching(cache_store):
            result = runner(quick=quick, seed=seed, jobs=jobs)
    finally:
        _telemetry.end_run()
    run.wall_s = time.perf_counter() - start
    result.telemetry = run.as_dict()
    return result
