"""Code fingerprints: hash the transitive module sources a cell imports.

A cached cell result is only valid while the code that produced it is
unchanged.  Rather than invalidating on *any* repo edit (which would
make the cache useless while iterating on plots or docs) or trusting a
manually bumped version (which silently serves stale results), the
cache keys each cell on a **code fingerprint**: the SHA-256 over the
source bytes of the cell function's module plus every ``repro.*``
module it transitively imports.

The import graph is discovered *statically* — each module's source is
parsed with :mod:`ast` and every ``import``/``from ... import`` of an
in-scope module is followed, including imports inside function bodies
(the repo's lazy-import idiom).  Static discovery keeps fingerprinting
independent of import side effects and lets the closure be computed
without executing anything.  An import is always a statement, so the
scan visits statement lists only, never expressions; each source is
scanned once per process, keyed by its content, so a module shared by
many closures is parsed once however many cells it serves.

Conservatism cuts the safe way: a module that is imported but unused
still invalidates (spurious recompute, never a stale hit), while
modules outside the traced prefixes (stdlib, numpy) are pinned by the
cache schema version instead of being hashed.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import importlib.util
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "clear_fingerprint_cache",
    "code_fingerprint",
    "module_closure",
]

#: Module-name prefixes whose sources participate in fingerprints.
DEFAULT_PREFIXES: Tuple[str, ...] = ("repro",)

#: The fields of an AST node that hold statement lists; an import is
#: always a statement, so the scan descends through these alone.
_STATEMENT_LISTS = ("body", "orelse", "finalbody", "handlers", "cases")

#: Per-process memo: (module, prefixes) -> fingerprint hex digest.
_fingerprints: Dict[Tuple[str, Tuple[str, ...]], str] = {}
#: Per-process memo: (module, is_package, source SHA-256) -> imports.
_imports: Dict[Tuple[str, bool, bytes], Tuple[str, ...]] = {}


def clear_fingerprint_cache() -> None:
    """Forget computed fingerprints, paths and scans (sources rewritten)."""
    _fingerprints.clear()
    _source_path.cache_clear()
    _imports.clear()


def _in_scope(name: str, prefixes: Sequence[str]) -> bool:
    return any(
        name == prefix or name.startswith(prefix + ".") for prefix in prefixes
    )


@functools.lru_cache(maxsize=None)
def _source_path(module: str) -> Optional[str]:
    """The module's source file, or ``None`` (builtins, namespaces)."""
    try:
        spec = importlib.util.find_spec(module)
    except (ImportError, ValueError, AttributeError):
        return None
    if spec is None or spec.origin in (None, "built-in", "frozen"):
        return None
    return spec.origin if spec.origin.endswith(".py") else None


def _import_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Every import statement in ``tree``, expressions left unvisited."""
    pending: List[ast.AST] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        else:
            for field in _STATEMENT_LISTS:
                pending.extend(getattr(node, field, ()))


def _imported_modules(
    source: bytes, module: str, is_package: bool
) -> Tuple[str, ...]:
    """Every module name ``module``'s source imports, relative resolved."""
    key = (module, is_package, hashlib.sha256(source).digest())
    if key not in _imports:
        _imports[key] = tuple(_scan(source, module, is_package))
    return _imports[key]


def _scan(source: bytes, module: str, is_package: bool) -> Iterator[str]:
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return
    # The package that relative imports resolve against.
    package_parts = module.split(".") if is_package else module.split(".")[:-1]
    for node in _import_statements(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[: len(package_parts) - node.level + 1]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            if prefix:
                yield prefix
            # ``from pkg import name`` may bind the submodule pkg.name.
            for alias in node.names:
                if prefix and alias.name != "*":
                    yield f"{prefix}.{alias.name}"


def module_closure(
    root: str, prefixes: Sequence[str] = DEFAULT_PREFIXES
) -> Dict[str, str]:
    """Map each transitively imported in-scope module to its source path.

    The ``root`` module itself is always included when it has a source
    file, even if it is outside ``prefixes`` (a test module defining a
    cell function still fingerprints its own source).
    """
    closure: Dict[str, str] = {}
    pending = [root]
    seen = {root}
    while pending:
        name = pending.pop()
        path = _source_path(name)
        if path is None:
            continue
        closure[name] = path
        try:
            with open(path, "rb") as handle:
                source = handle.read()
        except OSError:
            continue
        is_package = path.endswith("__init__.py")
        for imported in _imported_modules(source, name, is_package):
            if imported in seen or not _in_scope(imported, prefixes):
                continue
            seen.add(imported)
            pending.append(imported)
    return closure


def code_fingerprint(
    module: str, prefixes: Sequence[str] = DEFAULT_PREFIXES
) -> str:
    """SHA-256 over the sorted transitive source closure of ``module``.

    Memoized per process: the closure of an experiment module is stable
    for the lifetime of a run, and recomputing it per cell would cost
    more than the cells themselves for analytic grids.  Below that memo,
    each module name is resolved to its path once and each source is
    scanned once, so experiments that share modules share their scans.
    """
    memo_key = (module, tuple(prefixes))
    cached = _fingerprints.get(memo_key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    closure = module_closure(module, prefixes)
    if not closure:
        digest.update(f"no-source:{module}".encode())
    for name in sorted(closure):
        digest.update(name.encode())
        digest.update(b"\0")
        try:
            with open(closure[name], "rb") as handle:
                digest.update(handle.read())
        except OSError:
            digest.update(b"<unreadable>")
        digest.update(b"\0")
    fingerprint = digest.hexdigest()
    _fingerprints[memo_key] = fingerprint
    return fingerprint
