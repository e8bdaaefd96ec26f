"""Noise-aware comparison of two sets of benchmark runs.

For one workload and one end-to-end metric, each side is a list of
values from separate runs.  The rules follow the repository's
measurement practice:

* **improved** — the change wins at least nine tenths of the pairs
  (ties count for neither side) and the medians differ, in the good
  direction, by more than the base side's quartile spread;
* **regressed** — the change's median is worse than the base median by
  more than the metric's bound;
* **unresolved** — either side's spread (quartile distance over median)
  is wider than the bound, unless every run of the change reads better
  than every run of the base;
* **within bound** — everything else.

Two sets from one commit *agree* (:func:`agreement`) when neither
median is worse than the other by more than the bound and both spreads
are within it; otherwise they **differ** or are **unresolved**.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Sequence, Tuple

IMPROVED = "improved"
WITHIN = "within bound"
REGRESSED = "regressed"
UNRESOLVED = "unresolved"
DIFFER = "differ"

#: Share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if not values:
        raise ValueError("need at least one value")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def _better(a: float, b: float, higher: bool) -> bool:
    return a > b if higher else a < b


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    bound: float,
    better: str,
) -> Dict[str, object]:
    """Classify ``change`` against ``base`` for one metric."""
    higher = better == "higher"
    qb = quartiles(base)
    qc = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if _better(c, b, higher))
    win_share = wins / len(pairs) if pairs else 0.0
    gain = (qc[1] - qb[1]) if higher else (qb[1] - qc[1])
    worse_by = -gain / qb[1] if qb[1] else 0.0
    spreads = (spread(base), spread(change))
    all_better = all(_better(c, b, higher) for c in change for b in base)
    if win_share >= WIN_SHARE and gain > qb[2] - qb[0]:
        outcome = IMPROVED
    elif worse_by > bound:
        outcome = REGRESSED
    elif max(spreads) > bound and not all_better:
        outcome = UNRESOLVED
    else:
        outcome = WITHIN
    return {
        "verdict": outcome,
        "base": qb,
        "change": qc,
        "win_share": win_share,
        "worse_by": worse_by,
        "spread": max(spreads),
    }


def agreement(
    first: Sequence[float],
    second: Sequence[float],
    bound: float,
    better: str,
) -> Dict[str, object]:
    """Check two sets from one commit against the metric's own bound."""
    row = verdict(first, second, bound, better)
    reverse = verdict(second, first, bound, better)
    row["worse_by"] = max(row["worse_by"], reverse["worse_by"])
    if row["worse_by"] > bound:
        row["verdict"] = DIFFER
    elif row["spread"] > bound:
        row["verdict"] = UNRESOLVED
    else:
        row["verdict"] = WITHIN
    return row


def compare_sets(
    base: Dict[str, Dict[str, List[float]]],
    change: Dict[str, Dict[str, List[float]]],
    metrics: Sequence[Dict[str, object]],
    rule: Callable[..., Dict[str, object]] = verdict,
) -> List[Dict[str, object]]:
    """One ``rule`` row per workload x end-to-end metric present on both
    sides.  ``base``/``change`` map workload -> metric -> values."""
    rows = []
    for workload in sorted(set(base) & set(change)):
        for metric in metrics:
            name = str(metric["name"])
            a = base[workload].get(name)
            b = change[workload].get(name)
            if not a or not b:
                continue
            row = rule(a, b, float(metric["bound"]), str(metric["better"]))
            row.update(workload=workload, metric=name, unit=metric["unit"])
            rows.append(row)
    return rows
