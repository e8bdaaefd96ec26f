"""Content-hash AST cache shared by the per-file and whole-program rules.

The per-file rules walk every linted file, and the cache-purity rule
revisits each one while building its call graph.  Parsing dominates
the cost of a lint run, so each file is parsed **once per content
digest**: the tree is keyed by the SHA-256 of
the source bytes (not by path or mtime), which makes the cache immune
to touch-without-change and correct under edit-and-relint loops inside
one process (the benchmark's warm pass, editor integrations).

The cache also memoizes the two derived structures every pass needs —
the :class:`~repro.lint.rules.FileContext` (import tables, parent map)
and the inline-suppression table — because building the parent map is
itself an ``ast.walk`` over the whole tree.

Everything here is in-process state; nothing is written to disk.
"""

from __future__ import annotations

import ast
import hashlib
from typing import Dict, Optional, Set, Tuple

__all__ = ["ParsedFile", "clear", "load", "parse_source", "stats"]


class ParsedFile:
    """One parsed source file plus its lazily built derived structures."""

    __slots__ = (
        "path",
        "source",
        "digest",
        "tree",
        "_ctx",
        "_suppressions",
        "findings",
    )

    def __init__(
        self, path: str, source: str, digest: str, tree: ast.Module
    ) -> None:
        self.path = path
        self.source = source
        self.digest = digest
        self.tree = tree
        self._ctx = None
        self._suppressions: Optional[Dict[int, Set[str]]] = None
        #: memoized full-rule-set findings (set by ``engine.lint_file``);
        #: valid for exactly this path + content, like everything here.
        self.findings: Optional[tuple] = None

    @property
    def ctx(self):
        """The rule-facing :class:`FileContext`, built once per file."""
        if self._ctx is None:
            from repro.lint.engine import normalize_path
            from repro.lint.rules import FileContext

            self._ctx = FileContext(
                normalize_path(self.path), self.source, self.tree
            )
        return self._ctx

    @property
    def suppressions(self) -> Dict[int, Set[str]]:
        """Line -> suppressed codes, built once per file."""
        if self._suppressions is None:
            from repro.lint.engine import collect_suppressions

            self._suppressions = collect_suppressions(self.source)
        return self._suppressions


#: digest -> parsed tree (or the SyntaxError to re-raise).
_trees: Dict[str, object] = {}
#: path -> ParsedFile, revalidated against the content digest on load.
_files: Dict[str, ParsedFile] = {}
_parses = 0
_hits = 0
_generation = 0


def parse_source(source: str) -> Tuple[str, ast.Module]:
    """Parse ``source``, memoized by content digest.

    Returns ``(digest, tree)``; re-raises the original
    :class:`SyntaxError` (also memoized — an unparseable file stays
    unparseable until its content changes).
    """
    global _parses, _hits
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    cached = _trees.get(digest)
    if cached is not None:
        _hits += 1
        if isinstance(cached, SyntaxError):
            raise cached
        return digest, cached  # type: ignore[return-value]
    _parses += 1
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        _trees[digest] = exc
        raise
    _trees[digest] = tree
    return digest, tree


def load(path: str) -> ParsedFile:
    """Read and parse ``path``; hits require an identical content digest.

    The source is re-read every call (cheap), the parse and derived
    structures are reused whenever the bytes are unchanged.  Raises
    ``OSError`` for unreadable files and ``SyntaxError`` for
    unparseable ones.
    """
    global _hits
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    cached = _files.get(path)
    if cached is not None and cached.source == source:
        _hits += 1
        return cached
    digest, tree = parse_source(source)
    parsed = ParsedFile(path, source, digest, tree)
    _files[path] = parsed
    return parsed


def stats() -> Dict[str, int]:
    """Parse/hit counters (pinned by tests and the lint benchmark)."""
    return {"parses": _parses, "hits": _hits, "trees": len(_trees)}


def generation() -> int:
    """Monotone counter bumped by :func:`clear`.

    Downstream memos keyed on cache contents (the call graph's
    last-program cache) include this in their keys so ``clear()``
    invalidates *everything* derived from the cache — the benchmark's
    cold pass really is cold.
    """
    return _generation


def clear() -> None:
    """Drop every cached tree and counter (test isolation)."""
    global _parses, _hits, _generation
    _trees.clear()
    _files.clear()
    _parses = 0
    _hits = 0
    _generation += 1
