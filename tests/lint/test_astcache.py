"""Content-hash AST cache: parse-once, revalidation, error memoization."""

from __future__ import annotations

import pytest

from repro.lint import astcache


@pytest.fixture(autouse=True)
def fresh_cache():
    astcache.clear()
    yield
    astcache.clear()


def test_parse_source_memoizes_by_content_digest():
    digest1, tree1 = astcache.parse_source("X = 1\n")
    digest2, tree2 = astcache.parse_source("X = 1\n")
    assert digest1 == digest2
    assert tree1 is tree2
    assert astcache.stats() == {"parses": 1, "hits": 1, "trees": 1}


def test_distinct_content_parses_separately():
    astcache.parse_source("X = 1\n")
    astcache.parse_source("X = 2\n")
    assert astcache.stats()["parses"] == 2
    assert astcache.stats()["trees"] == 2


def test_same_content_at_two_paths_shares_one_tree(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    a.write_text("VALUE = 3\n")
    b.write_text("VALUE = 3\n")
    parsed_a = astcache.load(str(a))
    parsed_b = astcache.load(str(b))
    assert parsed_a.tree is parsed_b.tree
    assert astcache.stats()["parses"] == 1


def test_load_hits_when_content_unchanged(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("VALUE = 1\n")
    first = astcache.load(str(path))
    second = astcache.load(str(path))
    assert first is second
    assert astcache.stats()["hits"] == 1


def test_load_reparses_on_content_change(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("VALUE = 1\n")
    first = astcache.load(str(path))
    path.write_text("VALUE = 2\n")
    second = astcache.load(str(path))
    assert second is not first
    assert astcache.stats()["parses"] == 2


def test_syntax_error_is_memoized_and_reraised():
    with pytest.raises(SyntaxError):
        astcache.parse_source("def broken(:\n")
    parses_after_first = astcache.stats()["parses"]
    with pytest.raises(SyntaxError):
        astcache.parse_source("def broken(:\n")
    assert astcache.stats()["parses"] == parses_after_first
    assert astcache.stats()["hits"] == 1


def test_derived_structures_are_lazy_and_cached(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nX = os.sep  # repro-lint: disable=RPR002\n")
    parsed = astcache.load(str(path))
    assert parsed._ctx is None and parsed._suppressions is None
    ctx = parsed.ctx
    suppressions = parsed.suppressions
    assert parsed.ctx is ctx
    assert parsed.suppressions is suppressions
    assert suppressions == {2: {"RPR002"}}
    assert ctx.module_aliases == {"os": "os"}
