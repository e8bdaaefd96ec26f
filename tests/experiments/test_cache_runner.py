"""End-to-end result-cache behaviour through ``map_cells`` and
``run_experiment``: hits skip compute, merges stay byte-identical at
any ``--jobs``, ``--no-cache`` is fully inert, and stale or corrupt
entries silently fall back to recompute.
"""

import os

import pytest

import repro.cache.store as store_mod
from repro.cache import ResultCache, caching, resolve_cache
from repro.experiments import run_experiment
from repro.experiments.runner import map_cells
from repro.obs import runtime as _obs

#: Sequential-run call accounting (jobs=1 keeps cells in-process).
CALLS = {"n": 0}


def _counting_cell(x, seed=0):
    CALLS["n"] += 1
    return {"x": x, "seed": seed, "value": x * 10 + seed}


def _tuple_cell(x):
    return ([{"x": x}], ("audited", x))


def _marker_cell(x, outdir):
    # Drops a per-cell marker file so pooled runs can prove which cells
    # actually executed (workers share the filesystem).
    with open(os.path.join(outdir, f"ran-{x}"), "w") as handle:
        handle.write(str(x))
    return x * 2


CELLS = [{"x": index, "seed": 0} for index in range(3)]


@pytest.fixture
def cache(tmp_path):
    CALLS["n"] = 0
    return ResultCache(str(tmp_path / "store"))


# -- map_cells ----------------------------------------------------------------


def test_warm_run_serves_from_store(cache):
    with caching(cache):
        cold = map_cells(_counting_cell, CELLS, jobs=1)
    assert CALLS["n"] == 3
    with caching(cache):
        warm = map_cells(_counting_cell, CELLS, jobs=1)
    assert CALLS["n"] == 3  # nothing recomputed
    assert warm == cold


def test_tuple_results_survive_the_store(cache):
    cells = [{"x": 1}, {"x": 2}]
    with caching(cache):
        cold = map_cells(_tuple_cell, cells, jobs=1)
        warm = map_cells(_tuple_cell, cells, jobs=1)
    assert warm == cold
    assert all(isinstance(result, tuple) for result in warm)
    assert all(isinstance(result[1], tuple) for result in warm)


def test_merge_identical_across_jobs_and_cache_states(cache):
    cells = [{"x": index} for index in range(6)]
    plain = map_cells(_tuple_cell, cells, jobs=1)  # no cache installed
    with caching(cache):
        cold = map_cells(_tuple_cell, cells, jobs=2)  # pool path, all misses
        warm_seq = map_cells(_tuple_cell, cells, jobs=1)
        warm_pool = map_cells(_tuple_cell, cells, jobs=2)
    assert cold == plain
    assert warm_seq == plain
    assert warm_pool == plain


def test_partially_warm_pool_computes_only_misses(cache, tmp_path):
    outdir = tmp_path / "markers"
    outdir.mkdir()
    cells = [{"x": index, "outdir": str(outdir)} for index in range(3)]
    with caching(cache):
        map_cells(_marker_cell, [cells[0]], jobs=1)
        (outdir / "ran-0").unlink()
        results = map_cells(_marker_cell, cells, jobs=2)
    assert results == [0, 2, 4]
    assert sorted(os.listdir(outdir)) == ["ran-1", "ran-2"]  # 0 was a hit


def test_no_cache_installed_means_no_store_io(tmp_path):
    root = tmp_path / "never-created"
    with caching(None):
        map_cells(_tuple_cell, [{"x": 1}], jobs=1)
    assert not root.exists()
    assert ResultCache(str(root)).stats().entries == 0


def test_corrupt_entries_fall_back_to_recompute(cache):
    with caching(cache):
        cold = map_cells(_counting_cell, CELLS, jobs=1)
    assert CALLS["n"] == 3
    for key in (cache.key_for(_counting_cell, cell) for cell in CELLS):
        path = cache.path_for(key)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 3])
    with caching(cache):
        warm = map_cells(_counting_cell, CELLS, jobs=1)
    assert CALLS["n"] == 6  # every corrupt entry recomputed
    assert warm == cold


def test_code_change_invalidates_keys(cache, monkeypatch):
    with caching(cache):
        map_cells(_counting_cell, CELLS, jobs=1)
    assert CALLS["n"] == 3
    monkeypatch.setattr(
        store_mod, "code_fingerprint", lambda module, **_: "0" * 64
    )
    with caching(cache):
        map_cells(_counting_cell, CELLS, jobs=1)
    assert CALLS["n"] == 6  # new fingerprint -> new keys -> all misses


def test_registry_counters_track_store_lookups(cache):
    reg = _obs.push_registry()
    try:
        with caching(cache):
            map_cells(_counting_cell, CELLS, jobs=1)
            map_cells(_counting_cell, CELLS, jobs=1)
    finally:
        _obs.pop_registry()
    snapshot = reg.snapshot()
    hits = snapshot["repro_cache_hits_total"]["series"]
    misses = snapshot["repro_cache_misses_total"]["series"]
    assert hits == [{"labels": ["store"], "value": 3.0}]
    assert misses == [{"labels": ["store"], "value": 3.0}]


# -- resolve_cache ------------------------------------------------------------


def test_resolve_cache_tristate(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-root"))
    assert resolve_cache(None) is None
    monkeypatch.setenv("REPRO_CACHE", "1")
    ambient = resolve_cache(None)
    assert isinstance(ambient, ResultCache)
    assert ambient.root == str(tmp_path / "env-root")
    assert resolve_cache(False) is None  # explicit --no-cache beats env
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert resolve_cache(None) is None
    explicit = resolve_cache(True, root=str(tmp_path / "explicit"))
    assert explicit.root == str(tmp_path / "explicit")


# -- run_experiment -----------------------------------------------------------


def test_run_experiment_warm_is_byte_identical(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    baseline = run_experiment("figure3", quick=True, seed=0, cache=False)
    cold = run_experiment("figure3", quick=True, seed=0, cache=True)
    warm = run_experiment("figure3", quick=True, seed=0, cache=True)
    warm_pool = run_experiment(
        "figure3", quick=True, seed=0, jobs=3, cache=True
    )
    for result in (cold, warm, warm_pool):
        assert result.rows == baseline.rows
        assert result.render() == baseline.render()

    cells = baseline.telemetry["run"]["cells"]
    assert baseline.telemetry["run"]["cache"] == {
        "enabled": False,
        "hits": 0,
        "misses": 0,
    }
    assert cold.telemetry["run"]["cache"] == {
        "enabled": True,
        "hits": 0,
        "misses": cells,
    }
    for result in (warm, warm_pool):
        assert result.telemetry["run"]["cache"] == {
            "enabled": True,
            "hits": cells,
            "misses": 0,
        }
    assert all(not meta["cached"] for meta in cold.telemetry["cells"])
    assert all(meta["cached"] for meta in warm.telemetry["cells"])
    # The merged per-cell registry is replayed from the store, so the
    # telemetry aggregate is hit/miss-invariant too.
    assert warm.telemetry["registry"] == cold.telemetry["registry"]
    assert warm.telemetry["registry"] == baseline.telemetry["registry"]


def test_run_experiment_no_cache_never_touches_store(monkeypatch, tmp_path):
    root = tmp_path / "store"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    run_experiment("figure3", quick=True, seed=0, cache=False)
    assert not root.exists()  # no writes
    cold = run_experiment("figure3", quick=True, seed=0, cache=True)
    entries = ResultCache(str(root)).stats().entries
    assert entries == cold.telemetry["run"]["cells"]
    bypass = run_experiment("figure3", quick=True, seed=0, cache=False)
    assert bypass.telemetry["run"]["cache"]["enabled"] is False
    assert bypass.telemetry["run"]["cache"]["hits"] == 0  # no reads
    assert ResultCache(str(root)).stats().entries == entries
    assert bypass.rows == cold.rows


def test_run_experiment_simulation_cache_roundtrip(monkeypatch, tmp_path):
    # A simulation-backed experiment (figure8 drives real sessions):
    # warm sequential must replay a cold pooled run exactly.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    cold = run_experiment("figure8", quick=True, seed=0, jobs=2, cache=True)
    warm = run_experiment("figure8", quick=True, seed=0, jobs=1, cache=True)
    assert warm.rows == cold.rows
    assert warm.render() == cold.render()
    assert warm.telemetry["run"]["cache"]["misses"] == 0
    assert warm.telemetry["run"]["cache"]["hits"] > 0
    assert warm.telemetry["registry"] == cold.telemetry["registry"]
    assert warm.telemetry["run"]["events"] == cold.telemetry["run"]["events"]


# -- CLI ----------------------------------------------------------------------


def test_cli_cache_stats_clear_gc(tmp_path, capsys):
    from repro.cli import main

    root = tmp_path / "store"
    cache = ResultCache(str(root))
    key = cache.key_for(_tuple_cell, {"x": 1})
    assert cache.store(key, _tuple_cell, {"x": 1}, _tuple_cell(1))

    assert main(["cache", "stats", "--dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "entries   : 1" in out

    assert main(["cache", "gc", "--dir", str(root)]) == 0
    assert "evicted 0 entries" in capsys.readouterr().out
    assert cache.stats().entries == 1

    assert main(["cache", "clear", "--dir", str(root)]) == 0
    assert "cleared 1 entries" in capsys.readouterr().out
    assert cache.stats().entries == 0
