"""Tests for the benchmark's own rules.

Run with ``python -m pytest benchsuite/test_suite.py`` from the
repository root.  Covers the quartile and verdict rules on hand-made
samples, the module -> layer map, profile attribution on a hand-made
profile table, and the shape of ``golden.json`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import verdict  # noqa: E402


# -- quartiles and verdicts ----------------------------------------------------


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
    q1, median, q3 = verdict.quartiles(values)
    assert (q1, median, q3) == tuple(statistics.quantiles(values, n=4))
    assert median == statistics.median(values)


def test_single_value_has_zero_spread():
    assert verdict.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert verdict.spread([2.0]) == 0.0


def test_spread_is_quartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert verdict.spread(values) == pytest.approx((q3 - q1) / median)


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


def test_clear_gain_is_improved():
    change = [v * 0.8 for v in BASE]
    row = verdict.verdict(BASE, change, 0.1, "lower")
    assert row["verdict"] == verdict.IMPROVED
    assert row["win_share"] == 1.0


def test_small_noise_is_within_bound():
    change = list(reversed(BASE))
    assert verdict.verdict(BASE, change, 0.1, "lower")["verdict"] == verdict.WITHIN


def test_median_worse_by_more_than_bound_regresses():
    change = [v * 1.2 for v in BASE]
    row = verdict.verdict(BASE, change, 0.1, "lower")
    assert row["verdict"] == verdict.REGRESSED
    assert row["worse_by"] == pytest.approx(0.2)


def test_direction_follows_better():
    change = [v * 1.2 for v in BASE]
    assert verdict.verdict(BASE, change, 0.1, "higher")["verdict"] == (
        verdict.IMPROVED
    )


def test_wide_spread_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    row = verdict.verdict(BASE, noisy, 0.1, "lower")
    assert row["verdict"] == verdict.UNRESOLVED
    assert row["spread"] > 0.1


def test_gain_needs_nine_tenths_of_pairs():
    # Median moves a lot, but the change loses 2 of 10 pairs.
    change = [v * 0.8 for v in BASE[:8]] + [11.0, 11.0]
    row = verdict.verdict(BASE, change, 0.5, "lower")
    assert row["win_share"] == 0.8
    assert row["verdict"] != verdict.IMPROVED


def test_agreement_holds_both_ways_within_bound():
    faster = [v * 0.9 for v in BASE]
    assert verdict.verdict(BASE, faster, 0.25, "lower")["verdict"] == (
        verdict.IMPROVED
    )
    assert verdict.agreement(BASE, faster, 0.25, "lower")["verdict"] == (
        verdict.WITHIN
    )
    much_faster = [v * 0.7 for v in BASE]
    row = verdict.agreement(BASE, much_faster, 0.25, "lower")
    assert row["verdict"] == verdict.DIFFER
    assert row["worse_by"] == pytest.approx(1 / 0.7 - 1)


def test_agreement_reports_wide_spread_as_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict.agreement(BASE, noisy, 0.25, "lower")["verdict"] == (
        verdict.UNRESOLVED
    )


def test_compare_sets_pairs_workloads_and_metrics():
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]
    rows = verdict.compare_sets(
        {"a": {"wall_s": BASE}, "b": {"wall_s": BASE}},
        {"a": {"wall_s": BASE}},
        metrics,
    )
    assert [(r["workload"], r["metric"]) for r in rows] == [("a", "wall_s")]


# -- layers ----------------------------------------------------------------------


def _repro_modules():
    modules = []
    base = os.path.join(SRC, "repro")
    for dirpath, _dirs, files in os.walk(base):
        for name in files:
            if name.endswith(".py"):
                module = layers.module_of(os.path.join(dirpath, name), SRC)
                modules.append(module)
    return sorted(modules)


def test_every_module_maps_to_exactly_one_layer():
    unmapped = []
    for module in _repro_modules():
        if module.startswith(("repro.lint", "repro.cli")):
            continue
        if layers.layer_of(module) is None:
            unmapped.append(module)
    assert unmapped == [], "add these modules to benchsuite/layers.py LAYERS"


def test_no_prefix_belongs_to_two_layers_and_no_layer_is_empty():
    prefixes = [p for group in layers.LAYERS.values() for p in group]
    assert len(prefixes) == len(set(prefixes))
    used = {layers.layer_of(m) for m in _repro_modules()}
    assert set(layers.LAYERS) <= used


def test_longest_prefix_wins():
    assert layers.layer_of("repro.core.record") == "core.record"
    assert layers.layer_of("repro.core.profiles") == "core.other"
    assert layers.layer_of("repro") == "tools"
    assert layers.layer_of("reprox.core") is None
    assert layers.layer_of("json") is None


def _stats():
    record = (os.path.join(SRC, "repro", "core", "record.py"), 1, "expire")
    kernel = (os.path.join(SRC, "repro", "des", "core.py"), 9, "timeout")
    heappush = (os.path.join("lib", "heapq.py"), 1, "heappush")
    length = ("~", 0, "<built-in method builtins.len>")
    shared = ("~", 0, "<built-in method builtins.sorted>")
    root = (os.path.join("bench", "loop.py"), 1, "unit")
    orphan = ("~", 0, "<built-in method time.sleep>")
    stats = {
        record: (4, 4, 1.0, 1.7, {root: (4, 4, 1.0, 1.7)}),
        length: (8, 8, 0.5, 0.5, {record: (8, 8, 0.5, 0.5)}),
        kernel: (2, 2, 0.3, 0.5, {root: (2, 2, 0.3, 0.5)}),
        heappush: (2, 2, 0.2, 0.2, {kernel: (2, 2, 0.2, 0.2)}),
        shared: (2, 2, 0.2, 0.2, {record: (1, 1, 0.1, 0.1), root: (1, 1, 0.1, 0.1)}),
        root: (1, 1, 0.1, 2.5, {}),
        orphan: (1, 1, 0.05, 0.05, {root: (1, 1, 0.05, 0.05)}),
    }
    return stats


def test_attribution_charges_outside_frames_to_repro_callers():
    table = layers.Attribution(_stats(), SRC)
    assert table.self_s["core.record"] == pytest.approx(1.0 + 0.5 + 0.1)
    assert table.self_s["des"] == pytest.approx(0.3 + 0.2)
    assert table.unattributed_s == pytest.approx(0.1 + 0.05 + 0.1)


def test_attribution_reconciles_with_profiled_total():
    table = layers.Attribution(_stats(), SRC)
    attributed = sum(table.self_s.values())
    assert attributed + table.unattributed_s == pytest.approx(table.total_s)
    assert sum(table.shares().values()) + (
        table.unattributed_s / table.total_s
    ) == pytest.approx(1.0)


def test_counts_sum_ncalls_of_named_functions():
    counts = layers.Attribution(_stats(), SRC).counts()
    assert counts["core.record.expire_calls"] == 4
    assert counts["des.timeouts"] == 2
    assert counts["net.channel.sends"] == 0


def test_wrapper_override_charges_core_record():
    wrapper = (layers.__file__, 3, "counting_expire")
    stats = {wrapper: (1, 1, 0.4, 0.4, {})}
    table = layers.Attribution(stats, SRC, layers.wrapper_overrides())
    assert table.self_s["core.record"] == pytest.approx(0.4)


def test_percentile_is_nearest_rank():
    assert layers.percentile([], 50) == 0.0
    assert layers.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert layers.percentile([3.0, 1.0, 2.0, 4.0], 90) == 4.0


# -- committed files -------------------------------------------------------------


def test_golden_file_shape():
    import workloads
    from repro.experiments import EXPERIMENTS

    golden = workloads.load_golden()
    assert golden["format"] == 1
    seeds = golden["seeds"]
    assert seeds == workloads.GOLDEN_SEEDS
    assert sorted(golden["experiments"]) == sorted(EXPERIMENTS)
    assert sorted(golden["fanout"]) == sorted(workloads.FANOUT_SESSIONS)
    digests = list(golden["experiments"].values()) + list(
        golden["fanout"].values()
    )
    for row in digests:
        assert len(row) == seeds
        for value in row:
            assert len(value) == 64 and int(value, 16) >= 0


def test_benchmark_json_matches_the_code():
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == layers.metric_units()
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    assert {"setup_s", "wall_s", "peak_rss_mb"} == end_to_end
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
