"""The store's scan index: warm keys without a parser, same keys as a parse.

``ResultCache`` keeps the code fingerprint's import scans in
``<root>/scans.json``.  The index may only change how much work a key
costs, never the key itself, and a bad index must cost a parse, never
an error.
"""

import importlib
import json
import os

import pytest

from repro.cache import (
    ResultCache,
    cell_key,
    clear_fingerprint_cache,
    code_fingerprint,
)
from repro.cache.fingerprint import scan_stats
from repro.experiments import EXPERIMENTS, runner

#: The experiments the benchmark suite's ``warm`` workload re-reads.
WARM = ("figure8", "ext_convergence", "ext_resilience", "figure10")
#: Experiments whose later grid is built from an earlier grid's results:
#: recording their grids means running them (ext_scale quick: < 1 s).
COMPUTED = ("ext_scale",)

PKG = "fpkg_index_test"


class _Recorded(Exception):
    """Stops an experiment once its first grid is recorded."""


@pytest.fixture(scope="module")
def grids():
    """experiment id -> [(cell fn, cells)] for every grid it keys.

    Quick mode, seed 0.  Each experiment runs until its first
    ``map_cells`` call, which records the grid and stops it; the
    experiments in ``COMPUTED`` run to the end, cache off.
    """
    recorded = {}
    current = []
    real_map_cells = runner.map_cells

    def recording(fn, cells, jobs=1):
        cells = list(cells)
        recorded.setdefault(current[-1], []).append((fn, cells))
        if current[-1] in COMPUTED:
            return real_map_cells(fn, cells, jobs=jobs)
        raise _Recorded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "map_cells", recording)
        for experiment_id, run in sorted(EXPERIMENTS.items()):
            current.append(experiment_id)
            try:
                run(quick=True, seed=0, jobs=1)
            except _Recorded:
                pass
    return recorded


def _keys(grids, ids, cache=None):
    """Keys for every cell of ``ids`` as a fresh process computes them."""
    clear_fingerprint_cache()
    keys = []
    for experiment_id in ids:
        for fn, cells in grids[experiment_id]:
            for kwargs in cells:
                if cache is None:
                    fingerprint = code_fingerprint(fn.__module__)
                    keys.append(cell_key(fn, kwargs, fingerprint))
                else:
                    keys.append(cache.key_for(fn, kwargs))
    return keys


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_fingerprint_cache()
    yield
    clear_fingerprint_cache()


def test_every_cell_keys_alike_with_filled_index_empty_store_and_no_store(
    grids, tmp_path
):
    ids = sorted(EXPERIMENTS)
    assert sorted(grids) == ids
    assert len(grids["ext_scale"]) == 2
    store = ResultCache(str(tmp_path / "store"))
    parsed = _keys(grids, ids)
    empty = _keys(grids, ids, store)
    assert os.path.isfile(store.scan_index)
    filled = _keys(grids, ids, store)
    assert scan_stats()["parsed"] == 0
    assert filled == empty == parsed


def test_cleared_process_keys_warm_experiments_without_parsing(
    grids, tmp_path, parses
):
    store = ResultCache(str(tmp_path / "store"))
    cold = _keys(grids, WARM, store)
    assert parses
    before = os.stat(store.scan_index).st_mtime_ns
    with open(store.scan_index, "rb") as handle:
        index = handle.read()
    del parses[:]
    assert _keys(grids, WARM, store) == cold
    assert parses == []
    # A warm pass writes nothing.
    assert os.stat(store.scan_index).st_mtime_ns == before
    with open(store.scan_index, "rb") as handle:
        assert handle.read() == index


@pytest.fixture
def package(tmp_path, monkeypatch):
    """``top`` imports ``left`` and ``right``; tests rewrite ``left``."""
    root = tmp_path / "src" / PKG
    root.mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "top.py").write_text(f"from {PKG} import left, right\n")
    (root / "left.py").write_text("VALUE = 1\n")
    (root / "right.py").write_text("VALUE = 2\n")
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    importlib.invalidate_caches()
    yield root
    importlib.invalidate_caches()


def _fingerprint(index=None):
    return code_fingerprint(f"{PKG}.top", prefixes=(PKG,), index=index)


def _entries(index):
    with open(index, encoding="utf-8") as handle:
        return json.load(handle)["scans"]


def test_edit_rescans_only_that_source_and_replaces_its_entry(
    package, tmp_path, parses
):
    index = str(tmp_path / "store" / "scans.json")
    first = _fingerprint(index)
    assert len(parses) == 4  # the package, top, left and right
    assert sorted(_entries(index)) == [
        PKG, f"{PKG}.left", f"{PKG}.right", f"{PKG}.top"
    ]
    (package / "left.py").write_text(f"from {PKG} import right\n")
    clear_fingerprint_cache()
    del parses[:]
    second = _fingerprint(index)
    assert parses == [(package / "left.py").read_bytes()]
    entries = _entries(index)
    assert sorted(entries) == [
        PKG, f"{PKG}.left", f"{PKG}.right", f"{PKG}.top"
    ]
    assert entries[f"{PKG}.left"][2] == [PKG, f"{PKG}.right"]
    clear_fingerprint_cache()
    assert second != first
    assert second == _fingerprint()


def _truncated(good):
    return good[: len(good) // 2]


def _foreign(field, value):
    def rewrite(good):
        payload = json.loads(good)
        payload[field] = value
        return json.dumps(payload).encode()

    return rewrite


BAD_INDEXES = {
    "truncated": _truncated,
    "not_json": lambda good: b"\x00\xffnot json at all",
    "list": lambda good: b"[]",
    "scans_not_a_dict": _foreign("scans", ["left"]),
    "entry_wrong_shape": _foreign("scans", {f"{PKG}.left": "VALUE"}),
    "other_python": _foreign("python", "2.7"),
    "other_scanner": _foreign("scanner", "0" * 64),
}


@pytest.mark.parametrize("kind", sorted(BAD_INDEXES))
def test_bad_index_is_ignored(package, tmp_path, parses, kind):
    index = str(tmp_path / "store" / "scans.json")
    expected = _fingerprint(index)
    with open(index, "rb") as handle:
        good = handle.read()
    with open(index, "wb") as handle:
        handle.write(BAD_INDEXES[kind](good))
    clear_fingerprint_cache()
    del parses[:]
    assert _fingerprint(index) == expected
    assert len(parses) == 4
    # The parse rewrote the index, and the next process parses nothing.
    with open(index, "rb") as handle:
        assert handle.read() == good
    clear_fingerprint_cache()
    del parses[:]
    assert _fingerprint(index) == expected
    assert parses == []


def test_unwritable_root_keys_alike(package, tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("a plain file where the store root should be")
    index = str(blocked / "scans.json")
    expected = _fingerprint()
    clear_fingerprint_cache()
    assert _fingerprint(index) == expected
    assert not os.path.exists(index)


def _cell(x=1):
    return x


def test_stats_skips_index_and_clear_and_gc_delete_it(tmp_path):
    cache = ResultCache(str(tmp_path / "store"))
    for x in (1, 2):
        key = cache.key_for(_cell, {"x": x})
        assert cache.store(key, _cell, {"x": x}, x)
    assert os.path.isfile(cache.scan_index)
    stats = cache.stats()
    entries = [
        os.path.join(shard, name)
        for shard, _dirs, names in os.walk(cache.root)
        for name in names
        if name.endswith(".pkl")
    ]
    assert stats.entries == 2
    assert stats.total_bytes == sum(os.path.getsize(p) for p in entries)
    assert cache.clear() == 2
    assert not os.path.exists(cache.scan_index)

    clear_fingerprint_cache()
    key = cache.key_for(_cell, {"x": 3})
    assert cache.store(key, _cell, {"x": 3}, 3)
    assert os.path.isfile(cache.scan_index)
    assert cache.gc(max_age_days=30.0) == 0
    assert not os.path.exists(cache.scan_index)
    assert cache.stats().entries == 1
