"""File walking, parsing, suppression handling, and rule dispatch.

The engine parses each file once, extracts inline suppressions from the
token stream, runs every registered per-file rule, then runs the
whole-program rules over the same parsed files, and returns the
surviving findings sorted by location.

Suppression syntax (checked against the comment tokens, so it works on
any physical line, including inside expressions)::

    start = time.perf_counter()  # repro-lint: disable=RPR002
    # repro-lint: disable-next=RPR002,RPR104
    value = read_knob()

``disable=all`` silences every rule for that line.  Suppressions are
deliberately line-scoped — there is no file- or block-level off switch,
so every exemption is visible next to the code it exempts.
"""

from __future__ import annotations

import io
import os
import re
import tokenize
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.lint.findings import Finding
from repro.lint.rules import PARSE_ERROR_CODE, RULES, FileContext

#: Directories never descended into.
PRUNE_DIRS = {
    ".git",
    "__pycache__",
    ".pytest_cache",
    ".benchmarks",
    ".hypothesis",
    "results",
    "build",
    "dist",
    ".eggs",
}

_SUPPRESSION = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-next)=([A-Za-z0-9_,\s]+)"
)


def normalize_path(path: str) -> str:
    """Repo-relative posix form when possible, else posix as given."""
    try:
        relative = os.path.relpath(path)
    except ValueError:  # different drive on windows
        relative = path
    if not relative.startswith(".."):
        path = relative
    return path.replace(os.sep, "/")


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield .py files under ``paths`` in a deterministic order."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in PRUNE_DIRS)
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def collect_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number → set of suppressed codes (or {"all"})."""
    suppressed: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION.search(token.string)
            if not match:
                continue
            mode, raw = match.groups()
            codes = {
                code.strip().upper() if code.strip().lower() != "all"
                else "all"
                for code in raw.split(",")
                if code.strip()
            }
            line = token.start[0] + (1 if mode == "disable-next" else 0)
            suppressed.setdefault(line, set()).update(codes)
    except tokenize.TokenizeError:
        pass  # the parse-error finding covers unreadable files
    return suppressed


def _is_suppressed(
    finding: Finding, suppressions: Dict[int, Set[str]]
) -> bool:
    codes = suppressions.get(finding.line)
    if not codes:
        return False
    return "all" in codes or finding.code in codes


def _parse_error_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        code=PARSE_ERROR_CODE,
        rule="parse-error",
        severity="error",
        message=f"file does not parse: {exc.msg}",
    )


def _check_rules(
    ctx: FileContext,
    suppressions: Dict[int, Set[str]],
    codes: Optional[Iterable[str]],
) -> List[Finding]:
    wanted = set(codes) if codes is not None else None
    findings: List[Finding] = []
    for code in sorted(RULES):
        if wanted is not None and code not in wanted:
            continue
        rule = RULES[code]()
        if rule.whole_program:
            continue
        for finding in rule.check(ctx):
            if not _is_suppressed(finding, suppressions):
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    codes: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one source string as if it lived at ``path``.

    ``codes`` restricts the run to a subset of rule codes (used by the
    fixture tests); default is every registered rule.
    """
    from repro.lint import astcache

    path = normalize_path(path)
    try:
        _, tree = astcache.parse_source(source)
    except SyntaxError as exc:
        return [_parse_error_finding(path, exc)]
    ctx = FileContext(path, source, tree)
    suppressions = collect_suppressions(source)
    return _check_rules(ctx, suppressions, codes)


def lint_file(
    path: str, codes: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint one file through the content-hash AST cache.

    Within a process the file is parsed once per content digest, and
    the derived import tables / parent map / suppression table are
    shared with the whole-program rules (see :mod:`repro.lint.astcache`).
    """
    from repro.lint import astcache

    try:
        parsed = astcache.load(path)
    except SyntaxError as exc:
        return [_parse_error_finding(normalize_path(path), exc)]
    # Findings for the full rule set depend only on path + content, so
    # they ride in the cache entry; a restricted ``codes`` run (fixture
    # tests) recomputes.
    if codes is None:
        if parsed.findings is None:
            parsed.findings = tuple(
                _check_rules(parsed.ctx, parsed.suppressions, None)
            )
        return list(parsed.findings)
    return _check_rules(parsed.ctx, parsed.suppressions, codes)


def lint_paths(
    paths: Sequence[str], codes: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint every python file under ``paths``; sorted findings.

    Per-file rules run file by file; whole-program rules run once over
    the program those files make up (each honours inline suppressions
    at the line it reports).
    """
    wanted = set(codes) if codes is not None else None
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        findings.extend(lint_file(file_path, codes=codes))
    program_rules = [
        RULES[code]()
        for code in sorted(RULES)
        if RULES[code].whole_program and (wanted is None or code in wanted)
    ]
    if program_rules:
        from repro.lint.deep.graph import build_program

        program = build_program(paths)
        for rule in program_rules:
            findings.extend(rule.check_program(program))
    findings.sort(key=Finding.sort_key)
    return findings
