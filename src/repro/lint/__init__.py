"""``repro.lint`` — AST-based determinism checks that earn their place.

Most determinism defects already fail a check CI runs: the golden
render, registry and fault-matrix digests, ``repro check`` and the
chaos smoke are the oracle.  This package keeps only the rules that
catch a defect none of those see, each justified by a real-code mutant
pinned in ``tests/lint/test_pinned_mutants.py``: a wall-clock read
(RPR002), iteration over a hash-salted set (RPR004), and a cached
solver or cell that reads state outside its cache key (RPR104, a
whole-program check).  One pass runs them all, using only the standard
library (``ast`` + ``tokenize``).

Public surface::

    from repro.lint import lint_paths, lint_source, RULES
    findings = lint_paths(["src", "benchmarks", "examples"])

Rules, their mutants, the audit, suppression syntax and exit codes:
docs/LINT.md.
"""

from repro.lint.engine import (
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.findings import Finding, SEVERITIES
from repro.lint.rules import RULES, Rule, all_codes

__all__ = [
    "Finding",
    "SEVERITIES",
    "RULES",
    "Rule",
    "all_codes",
    "lint_paths",
    "lint_file",
    "lint_source",
    "iter_python_files",
]
