"""Static import-closure discovery and code-fingerprint invalidation."""

import ast
import importlib
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cache.fingerprint import (
    _import_statements,
    clear_fingerprint_cache,
    code_fingerprint,
    module_closure,
)

PKG = "fpkg_cache_test"


@pytest.fixture
def temp_package(tmp_path, monkeypatch):
    """A throwaway package on sys.path whose sources tests can rewrite.

    ``alpha`` imports ``beta`` at module level and ``gamma`` inside a
    function body (the repo's lazy-import idiom); ``orphan`` is never
    imported by anything.
    """
    root = tmp_path / PKG
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "alpha.py").write_text(
        textwrap.dedent(
            f"""
            import json

            from {PKG} import beta


            def cell(x):
                from {PKG}.gamma import helper

                return beta.double(x) + helper(x)
            """
        )
    )
    (root / "beta.py").write_text("def double(x):\n    return 2 * x\n")
    (root / "gamma.py").write_text("def helper(x):\n    return x\n")
    (root / "orphan.py").write_text("UNUSED = 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    importlib.invalidate_caches()
    clear_fingerprint_cache()
    yield root
    # find_spec on dotted names imports the parent package; evict it so
    # the next test's tmp_path copy is rediscovered fresh.
    for name in [m for m in sys.modules if m.split(".")[0] == PKG]:
        del sys.modules[name]
    importlib.invalidate_caches()
    clear_fingerprint_cache()


def _fingerprint():
    return code_fingerprint(f"{PKG}.alpha", prefixes=(PKG,))


def test_closure_follows_static_imports(temp_package):
    closure = module_closure(f"{PKG}.alpha", prefixes=(PKG,))
    assert set(closure) == {
        PKG,  # ``from fpkg import beta`` pulls in the package itself
        f"{PKG}.alpha",
        f"{PKG}.beta",
        f"{PKG}.gamma",  # reached only through a function-body import
    }
    assert closure[f"{PKG}.beta"] == str(temp_package / "beta.py")


def test_closure_stays_in_scope(temp_package):
    closure = module_closure(f"{PKG}.alpha", prefixes=(PKG,))
    # ``import json`` in alpha must not drag the stdlib into the hash.
    assert all(name.split(".")[0] == PKG for name in closure)


def test_fingerprint_changes_when_imported_source_changes(temp_package):
    before = _fingerprint()
    (temp_package / "beta.py").write_text(
        "def double(x):\n    return x + x\n"
    )
    clear_fingerprint_cache()
    assert _fingerprint() != before


def test_fingerprint_tracks_function_body_imports(temp_package):
    before = _fingerprint()
    (temp_package / "gamma.py").write_text("def helper(x):\n    return -x\n")
    clear_fingerprint_cache()
    assert _fingerprint() != before


def test_fingerprint_ignores_unimported_modules(temp_package):
    before = _fingerprint()
    (temp_package / "orphan.py").write_text("UNUSED = 2\n")
    clear_fingerprint_cache()
    assert _fingerprint() == before


def test_fingerprint_is_memoized_until_cleared(temp_package):
    before = _fingerprint()
    (temp_package / "beta.py").write_text("def double(x):\n    return 3 * x\n")
    # Stale by design within a process; a code edit means a new run.
    assert _fingerprint() == before
    clear_fingerprint_cache()
    assert _fingerprint() != before


def test_relative_imports_resolve(tmp_path, monkeypatch):
    name = "fpkg_rel_test"
    root = tmp_path / name
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "outer.py").write_text("from . import inner\n")
    (root / "inner.py").write_text("VALUE = 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    importlib.invalidate_caches()
    try:
        closure = module_closure(f"{name}.outer", prefixes=(name,))
        assert f"{name}.inner" in closure
    finally:
        for mod in [m for m in sys.modules if m.split(".")[0] == name]:
            del sys.modules[mod]
        importlib.invalidate_caches()
        clear_fingerprint_cache()


def test_repro_experiment_closure_is_deep():
    closure = module_closure("repro.experiments.figure3")
    assert "repro.experiments.common" in closure
    assert "repro.experiments.runner" in closure
    assert "repro.analysis.openloop" in closure
    assert all(path.endswith(".py") for path in closure.values())


def test_fingerprint_shape_and_stability():
    first = code_fingerprint("repro.experiments.figure3")
    assert len(first) == 64 and set(first) <= set("0123456789abcdef")
    assert code_fingerprint("repro.experiments.figure3") == first
    assert first != code_fingerprint("repro.experiments.figure8")


#: One import per statement context; ``{m}`` is the imported module.
STATEMENT_CONTEXTS = {
    "module": "import {pkg}.{m}",
    "def": "def f():\n    from {pkg} import {m}",
    "async_def": "async def f():\n    from {pkg} import {m}",
    "class": "class C:\n    from {pkg} import {m}",
    "if": "if X:\n    from {pkg} import {m}",
    "elif": "if X:\n    pass\nelif Y:\n    from {pkg} import {m}",
    "else": "if X:\n    pass\nelse:\n    from {pkg} import {m}",
    "for": "for _ in X:\n    from {pkg} import {m}",
    "for_else": "for _ in X:\n    pass\nelse:\n    from {pkg} import {m}",
    "while": "while X:\n    from {pkg} import {m}",
    "while_else": "while X:\n    pass\nelse:\n    from {pkg} import {m}",
    "try": "try:\n    from {pkg} import {m}\nexcept E:\n    pass",
    "except": "try:\n    pass\nexcept E:\n    from {pkg} import {m}",
    "try_else": (
        "try:\n    pass\nexcept E:\n    pass\nelse:\n    from {pkg} import {m}"
    ),
    "finally": "try:\n    pass\nfinally:\n    from {pkg} import {m}",
    "with": "with X:\n    from {pkg} import {m}",
    "async_with": (
        "async def g():\n    async with X:\n        from {pkg} import {m}"
    ),
    "match": "match X:\n    case 1:\n        from {pkg} import {m}",
}
if sys.version_info >= (3, 11):
    STATEMENT_CONTEXTS["try_star"] = (
        "try:\n    from {pkg} import {m}\nexcept* E:\n    pass"
    )
    STATEMENT_CONTEXTS["except_star"] = (
        "try:\n    pass\nexcept* E:\n    from {pkg} import {m}"
    )


def test_closure_finds_imports_in_every_statement_context(temp_package):
    blocks = []
    for context, template in STATEMENT_CONTEXTS.items():
        (temp_package / f"ctx_{context}.py").write_text("")
        blocks.append(template.format(pkg=PKG, m=f"ctx_{context}"))
    (temp_package / "contexts.py").write_text("\n\n".join(blocks) + "\n")
    closure = module_closure(f"{PKG}.contexts", prefixes=(PKG,))
    missing = {
        context
        for context in STATEMENT_CONTEXTS
        if f"{PKG}.ctx_{context}" not in closure
    }
    assert not missing


def test_statement_scan_matches_full_walk_on_repro_sources():
    import repro

    root = Path(repro.__file__).parent
    sources = sorted(root.rglob("*.py"))
    assert len(sources) > 100
    for path in sources:
        tree = ast.parse(path.read_bytes())
        walked = {
            id(node)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
        scanned = [id(node) for node in _import_statements(tree)]
        assert len(scanned) == len(set(scanned)), path
        assert set(scanned) == walked, path


def test_shared_module_is_parsed_once(temp_package, parses):
    (temp_package / "delta.py").write_text(f"from {PKG} import beta\n")
    code_fingerprint(f"{PKG}.alpha", prefixes=(PKG,))
    code_fingerprint(f"{PKG}.delta", prefixes=(PKG,))
    beta = (temp_package / "beta.py").read_bytes()
    assert parses.count(beta) == 1
    # alpha, beta, gamma and the package; then delta alone.
    assert len(parses) == 5


#: The experiments the benchmark suite's ``warm`` workload re-reads.
WARM_ROOTS = [
    f"repro.experiments.{name}"
    for name in ("figure8", "ext_convergence", "ext_resilience", "figure10")
]


def test_warm_experiments_parse_each_closure_source_once(parses):
    clear_fingerprint_cache()
    union = set()
    for root in WARM_ROOTS:
        union |= set(module_closure(root))
    clear_fingerprint_cache()
    del parses[:]
    try:
        for root in WARM_ROOTS:
            code_fingerprint(root)
    finally:
        clear_fingerprint_cache()
    assert len(parses) == len(union)


def test_warm_experiments_read_each_closure_source_once(monkeypatch):
    clear_fingerprint_cache()
    union = set()
    for root in WARM_ROOTS:
        union |= set(module_closure(root).values())
    clear_fingerprint_cache()
    opened = []
    real_open = open

    def counting(path, *args, **kwargs):
        opened.append(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    try:
        for root in WARM_ROOTS:
            code_fingerprint(root)
    finally:
        monkeypatch.undo()
        clear_fingerprint_cache()
    assert sorted(opened) == sorted(union)


def test_rewritten_source_is_rescanned_after_clear(temp_package):
    closure = module_closure(f"{PKG}.alpha", prefixes=(PKG,))
    assert f"{PKG}.orphan" not in closure
    (temp_package / "beta.py").write_text(
        f"from {PKG} import orphan\n\n\ndef double(x):\n    return 2 * x\n"
    )
    clear_fingerprint_cache()
    closure = module_closure(f"{PKG}.alpha", prefixes=(PKG,))
    assert f"{PKG}.orphan" in closure
