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
without executing anything: module names resolve to source files on
disk, through the parent package's search locations, never by
importing the parent.  An import is always a statement, so the
scan visits statement lists only, never expressions.

Each source is read and hashed once per process, and its scan is kept
in a memo with one entry per module: the package flag, the source's
SHA-256 and the imported names.  An entry is reused only while all of
those match, so a module shared by many closures is parsed once however
many cells it serves.  The scan is a pure function of the source, the
module name, the package flag, the Python version and this scanner, so
the memo can outlive the process: given an ``index`` path,
:func:`code_fingerprint` seeds the memo from that JSON file once per
process and rewrites it (atomically) only when it had to parse
something.  The result store keeps one such index at its root, so a
warm process hashes sources instead of parsing them.  A missing,
corrupt or foreign index, or one that cannot be written, is ignored.

Conservatism cuts the safe way: a module that is imported but unused
still invalidates (spurious recompute, never a stale hit), while
modules outside the traced prefixes (stdlib, numpy) are pinned by the
cache schema version instead of being hashed.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import importlib.machinery
import importlib.util
import json
import os
import sys
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "clear_fingerprint_cache",
    "code_fingerprint",
    "module_closure",
    "scan_stats",
]

#: Module-name prefixes whose sources participate in fingerprints.
DEFAULT_PREFIXES: Tuple[str, ...] = ("repro",)

#: The fields of an AST node that hold statement lists; an import is
#: always a statement, so the scan descends through these alone.
_STATEMENT_LISTS = ("body", "orelse", "finalbody", "handlers", "cases")

#: Per-process memo: (module, prefixes) -> fingerprint hex digest.
_fingerprints: Dict[Tuple[str, Tuple[str, ...]], str] = {}
#: Per-process memo: path -> (source, SHA-256 hex), ``None`` if unreadable.
_sources: Dict[str, Optional[Tuple[bytes, str]]] = {}
#: Scan memo: module -> (is_package, source SHA-256 hex, imported names).
_scans: Dict[str, Tuple[bool, str, Tuple[str, ...]]] = {}
#: Index path -> the parse count when this process last read or wrote it.
_indexes: Dict[str, int] = {}
#: Sources parsed since the last clear.
_stats: Dict[str, int] = {"parsed": 0}


def clear_fingerprint_cache() -> None:
    """Forget fingerprints, paths, sources, scans and loaded indexes.

    Afterwards the process behaves like a fresh one: it re-reads each
    source, re-reads a store's scan index on its next key, and parses
    only what that index does not cover (tests that rewrite sources
    mid-process, benchmarks timing a fresh process's keys).  The
    :func:`scan_stats` count restarts at zero.
    """
    _fingerprints.clear()
    _spec.cache_clear()
    _source_path.cache_clear()
    _sources.clear()
    _scans.clear()
    _indexes.clear()
    _stats["parsed"] = 0


def scan_stats() -> Dict[str, int]:
    """``parsed``: the sources parsed since the last clear."""
    return dict(_stats)


def _in_scope(name: str, prefixes: Sequence[str]) -> bool:
    return any(
        name == prefix or name.startswith(prefix + ".") for prefix in prefixes
    )


@functools.lru_cache(maxsize=None)
def _spec(module: str) -> Any:
    """``module``'s spec, found without importing (executing) anything.

    A loaded module answers from ``sys.modules``; a top-level name goes
    to the import system's finders, which load nothing; a submodule is
    looked up on its parent package's search locations, where
    ``importlib.util.find_spec`` would import the parent first.
    """
    loaded = sys.modules.get(module)
    if loaded is not None:
        return getattr(loaded, "__spec__", None)
    parent = module.rpartition(".")[0]
    if not parent:
        return importlib.util.find_spec(module)
    loaded = sys.modules.get(parent)
    if loaded is not None:
        locations = getattr(loaded, "__path__", None)
    else:
        spec = _spec(parent)
        locations = spec and spec.submodule_search_locations
    if not locations:
        return None
    return importlib.machinery.PathFinder.find_spec(module, list(locations))


@functools.lru_cache(maxsize=None)
def _source_path(module: str) -> Optional[str]:
    """The module's source file, or ``None`` (builtins, namespaces)."""
    try:
        spec = _spec(module)
    except (ImportError, ValueError, AttributeError):
        return None
    if spec is None or spec.origin in (None, "built-in", "frozen"):
        return None
    return spec.origin if spec.origin.endswith(".py") else None


def _read_source(path: str) -> Optional[Tuple[bytes, str]]:
    """``path``'s bytes and their SHA-256 hex, read once per process."""
    if path not in _sources:
        try:
            with open(path, "rb") as handle:
                source = handle.read()
        except OSError:
            _sources[path] = None
        else:
            _sources[path] = (source, hashlib.sha256(source).hexdigest())
    return _sources[path]


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
    source: bytes, sha: str, module: str, is_package: bool
) -> Tuple[str, ...]:
    """Every module name ``module``'s source imports, relative resolved."""
    entry = _scans.get(module)
    if entry is None or entry[:2] != (is_package, sha):
        _stats["parsed"] += 1
        entry = (is_package, sha, tuple(_scan(source, module, is_package)))
        _scans[module] = entry
    return entry[2]


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


# -- the persistent scan index ------------------------------------------------


@functools.lru_cache(maxsize=None)
def _scanner() -> Dict[str, str]:
    """What besides a source's bytes and name decides its scan."""
    with open(__file__, "rb") as handle:
        scanner = hashlib.sha256(handle.read()).hexdigest()
    return {"python": "%d.%d" % sys.version_info[:2], "scanner": scanner}


def _valid_entry(entry: Any) -> bool:
    return (
        isinstance(entry, list)
        and len(entry) == 3
        and isinstance(entry[0], bool)
        and isinstance(entry[1], str)
        and isinstance(entry[2], list)
        and all(isinstance(name, str) for name in entry[2])
    )


def _load_index(path: str) -> None:
    """Seed the scan memo from the index at ``path``; ignore a bad one."""
    _indexes[path] = _stats["parsed"]
    try:
        with open(path, "rb") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        # Missing, unreadable, truncated or not JSON: parse instead.
        return
    if not isinstance(payload, dict):
        return
    scans = payload.pop("scans", None)
    if (
        payload != _scanner()
        or not isinstance(scans, dict)
        or not all(_valid_entry(entry) for entry in scans.values())
    ):
        return
    for module, (is_package, sha, imports) in scans.items():
        # An entry this process scanned itself is at least as fresh.
        _scans.setdefault(module, (is_package, sha, tuple(imports)))


def _save_index(path: str) -> None:
    """Write the scan memo to ``path`` atomically; ignore a failure."""
    _indexes[path] = _stats["parsed"]
    payload = dict(_scanner())
    payload["scans"] = {
        module: [is_package, sha, list(imports)]
        for module, (is_package, sha, imports) in sorted(_scans.items())
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            # ``dumps`` takes the C encoder; ``dump`` would not.
            handle.write(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


# -- closures and fingerprints ------------------------------------------------


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
        read = _read_source(path)
        if read is None:
            continue
        is_package = path.endswith("__init__.py")
        for imported in _imported_modules(*read, name, is_package):
            if imported in seen:
                continue
            # Out-of-scope names join ``seen`` too: stdlib imports recur
            # in most modules, so each is scope-checked once per walk.
            seen.add(imported)
            if _in_scope(imported, prefixes):
                pending.append(imported)
    return closure


def code_fingerprint(
    module: str,
    prefixes: Sequence[str] = DEFAULT_PREFIXES,
    index: Optional[str] = None,
) -> str:
    """SHA-256 over the sorted transitive source closure of ``module``.

    Memoized per process: the closure of an experiment module is stable
    for the lifetime of a run, and recomputing it per cell would cost
    more than the cells themselves for analytic grids.  Below that memo,
    each module name is resolved to its path once and each source is
    read, hashed and scanned once, so experiments that share modules
    share their scans.  ``index`` names a JSON scan index that seeds the
    scan memo on first use and is rewritten when a scan was missing.
    """
    memo_key = (module, tuple(prefixes))
    cached = _fingerprints.get(memo_key)
    if cached is not None:
        return cached
    if index is not None and index not in _indexes:
        _load_index(index)
    digest = hashlib.sha256()
    closure = module_closure(module, prefixes)
    if not closure:
        digest.update(f"no-source:{module}".encode())
    for name in sorted(closure):
        digest.update(name.encode())
        digest.update(b"\0")
        read = _read_source(closure[name])
        digest.update(b"<unreadable>" if read is None else read[0])
        digest.update(b"\0")
    fingerprint = digest.hexdigest()
    _fingerprints[memo_key] = fingerprint
    if index is not None and _stats["parsed"] > _indexes[index]:
        _save_index(index)
    return fingerprint
