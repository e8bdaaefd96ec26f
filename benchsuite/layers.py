"""Per-layer cost table: charge cProfile self time to this repo's modules.

Every function's ``tottime`` is charged to the layer of the module that
defines it (:data:`LAYERS`, longest module prefix wins).  Builtins,
stdlib frames and any other code outside ``src/repro`` have no layer of
their own: their time flows up the profile's caller table, split by the
time each caller spent in them, until it reaches a ``repro`` frame.
Time that never reaches one (the benchmark's own loop, interpreter
roots) is ``unattributed``.  The attributed layers plus
``unattributed`` always add up to the profiled total.

Counts come from cProfile ``ncalls`` of named public functions
(:data:`COUNTED`); :func:`count_expired` adds the one benchmark-side
wrapper, on ``SoftStateTable.expire``, that counts records returned.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: layer name -> module prefixes.  A module belongs to the layer whose
#: prefix is the longest match (``repro.core.record`` before
#: ``repro.core``); every module under ``src/repro`` has exactly one.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "des": ("repro.des",),
    "core.record": ("repro.core.record",),
    "core.consistency": ("repro.core.consistency",),
    "core.metrics": ("repro.core.metrics",),
    "core.other": ("repro.core",),
    "protocols.base": ("repro.protocols.base",),
    "protocols.two_queue": ("repro.protocols.two_queue",),
    "protocols.feedback": ("repro.protocols.feedback",),
    "protocols.multicast": ("repro.protocols.multicast",),
    "protocols.sharded": ("repro.protocols.sharded",),
    "protocols.other": ("repro.protocols",),
    "sched": ("repro.sched",),
    "net.channel": ("repro.net.channel",),
    "net.loss": ("repro.net.loss",),
    "net.link": ("repro.net.link",),
    "net.other": ("repro.net",),
    "obs.metrics": ("repro.obs.metrics",),
    "obs.trace": ("repro.obs.trace",),
    "obs.spans": ("repro.obs.spans",),
    "obs.other": ("repro.obs",),
    "spec": ("repro.spec",),
    "cache.keys": ("repro.cache.keys", "repro.cache.fingerprint"),
    "cache.store": ("repro.cache.store",),
    "cache.other": ("repro.cache",),
    "experiments.runner": ("repro.experiments.runner",),
    "experiments.other": ("repro.experiments",),
    "sstp": ("repro.sstp",),
    "workloads": ("repro.workloads",),
    "analysis": ("repro.analysis",),
    "fluid": ("repro.fluid",),
    "faults": ("repro.faults",),
    "tools": ("repro.cli", "repro.lint", "repro.__main__"),
}

#: Modules matched exactly rather than as a package prefix: the root
#: package must not swallow every future subpackage.
EXACT: Dict[str, str] = {"repro": "tools"}

#: count metric -> (module prefix, function name or None for every
#: function in the module); the value is the summed cProfile ncalls.
COUNTED: Dict[str, Tuple[Tuple[str, Optional[str]], ...]] = {
    "core.record.expire_calls": (("repro.core.record", "expire"),),
    "core.record.get_calls": (("repro.core.record", "get"),),
    "core.consistency.instantaneous_calls": (
        ("repro.core.consistency", "instantaneous"),
    ),
    "des.resumes": (("repro.des.core", "_resume"),),
    "des.timeouts": (
        ("repro.des.core", "timeout"),
        ("repro.des.core", "timeout_at"),
        ("repro.des.core", "timeout_many"),
    ),
    "sched.enqueue_calls": (("repro.sched", "enqueue"),),
    "sched.remove_calls": (("repro.sched", "remove"),),
    "net.channel.sends": (("repro.net.channel", "send"),),
    "net.loss.draw_calls": (
        ("repro.net.loss", "is_lost"),
        ("repro.net.loss", "draw_batch"),
    ),
    "obs.metrics.calls": (("repro.obs.metrics", None),),
    "obs.trace.records": (("repro.obs.trace", "emit"),),
}

#: Metrics the workload itself supplies in a profiled run (units).
RUN_METRICS: Dict[str, str] = {
    "profile.wall_s": "s",
    "profile.total_s": "s",
    "unattributed.share": "fraction",
    "des.events": "count",
    "core.record.expire_yield": "records/call",
    "spec.events_checked": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.store.bytes": "bytes",
    "experiments.runner.cells": "count",
    "experiments.runner.pool_busy_frac": "fraction",
    "experiments.runner.pool_wait_s": "s",
}

ProfileKey = Tuple[str, int, str]


def metric_units() -> Dict[str, str]:
    """Every per-layer metric a profiled run reports, with its unit."""
    units = {f"{layer}.share": "fraction" for layer in LAYERS}
    units.update({name: "count" for name in COUNTED})
    units.update(RUN_METRICS)
    return units


def layer_of(module: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or None outside repro."""
    if module in EXACT:
        return EXACT[module]
    best: Optional[str] = None
    best_len = -1
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            matches = module == prefix or module.startswith(prefix + ".")
            if matches and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


def module_of(filename: str, src_dir: str) -> Optional[str]:
    """``src/repro/core/record.py`` -> ``repro.core.record``, else None."""
    prefix = os.path.join(src_dir, "repro") + os.sep
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return None
    rel = os.path.relpath(filename[: -len(".py")], src_dir)
    parts = rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _function_matches(funcname: str, name: Optional[str]) -> bool:
    return name is None or funcname == name or funcname.endswith("." + name)


class Attribution:
    """Self time per layer for one ``pstats.Stats(...).stats`` table."""

    def __init__(
        self,
        stats: Dict[ProfileKey, Tuple[Any, ...]],
        src_dir: str,
        overrides: Optional[Dict[Tuple[str, str], str]] = None,
    ) -> None:
        self.stats = stats
        self.src_dir = src_dir
        #: (filename, funcname) -> module, for benchmark-side wrappers
        #: that stand in for a repro function.
        self.overrides = dict(overrides or {})
        self._modules: Dict[ProfileKey, Optional[str]] = {}
        self._shares: Dict[ProfileKey, Dict[str, float]] = {}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.unattributed_s = 0.0
        self.total_s = 0.0
        for key, row in stats.items():
            tottime = row[2]
            self.total_s += tottime
            layer = self._layer(key)
            if layer is not None:
                self.self_s[layer] += tottime
                continue
            charged = 0.0
            for target, share in self._caller_shares(key, set()).items():
                self.self_s[target] += tottime * share
                charged += share
            self.unattributed_s += tottime * max(0.0, 1.0 - charged)

    def module(self, key: ProfileKey) -> Optional[str]:
        if key not in self._modules:
            filename, _line, funcname = key
            module = self.overrides.get((filename, funcname))
            if module is None:
                module = module_of(filename, self.src_dir)
            self._modules[key] = module
        return self._modules[key]

    def _layer(self, key: ProfileKey) -> Optional[str]:
        module = self.module(key)
        return None if module is None else layer_of(module)

    def _caller_shares(
        self, key: ProfileKey, visiting: set
    ) -> Dict[str, float]:
        """Fractions of ``key``'s time owed to each layer via its callers."""
        if key in self._shares:
            return self._shares[key]
        callers = self.stats[key][4] if key in self.stats else {}
        if not callers or key in visiting:
            return {}
        visiting.add(key)
        # Split by the callee time spent under each caller; fall back to
        # call counts when every edge rounds to zero time.
        weights = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {caller: edge[1] for caller, edge in callers.items()}
            total = sum(weights.values())
        out: Dict[str, float] = {}
        if total > 0:
            for caller, weight in weights.items():
                fraction = weight / total
                layer = self._layer(caller)
                if layer is not None:
                    out[layer] = out.get(layer, 0.0) + fraction
                    continue
                for target, share in self._caller_shares(
                    caller, visiting
                ).items():
                    out[target] = out.get(target, 0.0) + fraction * share
        visiting.discard(key)
        self._shares[key] = out
        return out

    def counts(self) -> Dict[str, int]:
        """cProfile ncalls summed per :data:`COUNTED` metric."""
        out = {name: 0 for name in COUNTED}
        for key, row in self.stats.items():
            module = self.module(key)
            if module is None:
                continue
            for name, targets in COUNTED.items():
                for prefix, function in targets:
                    in_module = module == prefix or module.startswith(
                        prefix + "."
                    )
                    if in_module and _function_matches(key[2], function):
                        out[name] += row[1]
        return out

    def shares(self) -> Dict[str, float]:
        total = self.total_s
        return {
            layer: (seconds / total if total > 0 else 0.0)
            for layer, seconds in self.self_s.items()
        }


def run_metrics(
    table: Attribution,
    ops: List[Dict[str, Any]],
    expired: int,
    jobs: int,
    wall: float,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Every per-layer metric of one profiled unit, plus text-only details."""
    metrics: Dict[str, float] = {
        f"{layer}.share": share for layer, share in table.shares().items()
    }
    counts = table.counts()
    metrics.update(counts)
    cells = [wall_s for op in ops for wall_s in op.get("cell_walls", [])]
    busy = sum(cells)
    total = table.total_s
    metrics.update(
        {
            "profile.wall_s": wall,
            "profile.total_s": total,
            "unattributed.share": table.unattributed_s / total if total else 0.0,
            "des.events": sum(op.get("events", 0) for op in ops),
            "core.record.expire_yield": (
                expired / counts["core.record.expire_calls"]
                if counts["core.record.expire_calls"]
                else 0.0
            ),
            "spec.events_checked": sum(op.get("events_checked", 0) for op in ops),
            "cache.hits": sum(op.get("hits", 0) for op in ops),
            "cache.misses": sum(op.get("misses", 0) for op in ops),
            "cache.store.bytes": max(
                [op.get("store_bytes", 0) for op in ops] or [0]
            ),
            "experiments.runner.cells": len(cells),
            "experiments.runner.pool_busy_frac": busy / (jobs * wall),
            "experiments.runner.pool_wait_s": max(0.0, jobs * wall - busy),
        }
    )
    attributed = sum(table.self_s.values())
    details: Dict[str, Any] = {
        "self_s": dict(table.self_s),
        "unattributed.self_s": table.unattributed_s,
        "reconcile_error": abs(attributed + table.unattributed_s - total)
        / total
        if total
        else 0.0,
        "experiments.runner.cell_p50_ms": percentile(cells, 50) * 1e3,
        "experiments.runner.cell_p90_ms": percentile(cells, 90) * 1e3,
        "experiments.runner.cell_max_ms": max(cells or [0.0]) * 1e3,
    }
    offered = sum(op.get("offered", 0) for op in ops)
    if offered:
        details["net.delivered_frac"] = (
            sum(op.get("deliveries", 0) for op in ops) / offered
        )
    return metrics, details


def count_expired() -> List[int]:
    """Wrap ``SoftStateTable.expire`` to count the records it returns.

    Returns the one-element counter the wrapper adds to.  Installed only
    for profiled runs; its own self time is charged to ``core.record``.
    """
    from repro.core.record import SoftStateTable

    expired = [0]
    original = SoftStateTable.expire

    def counting_expire(self, now):
        records = original(self, now)
        expired[0] += len(records)
        return records

    SoftStateTable.expire = counting_expire
    return expired


def wrapper_overrides() -> Dict[Tuple[str, str], str]:
    """Profile keys of the benchmark-side wrappers and the module they
    stand in for."""
    return {(os.path.abspath(__file__), "counting_expire"): "repro.core.record"}


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
