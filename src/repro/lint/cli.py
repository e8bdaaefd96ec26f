"""``repro lint`` — command-line front end for the analyzer.

Usage::

    python -m repro lint [PATH ...]

One pass runs every registered rule — the per-file rules and the
whole-program cache-purity check — over the given files and
directories (default: ``src benchmarks examples``, those that exist)
and prints the findings as ``path:line:col: CODE [severity] message``.
There are no options.

Exit codes (stable contract, relied on by CI and the Makefile):

* ``0`` — clean;
* ``1`` — at least one finding;
* ``2`` — usage error (missing path).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.lint.engine import lint_paths

DEFAULT_PATHS = ["src", "benchmarks", "examples"]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the lint arguments (shared with the repro CLI)."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint "
        f"(default: {' '.join(DEFAULT_PATHS)}, those that exist)",
    )


def run(args: argparse.Namespace) -> int:
    paths = list(args.paths)
    if not paths:
        paths = [p for p in DEFAULT_PATHS if os.path.exists(p)]
        if not paths:
            print(
                "repro lint: no paths given and none of "
                f"{DEFAULT_PATHS} exist", file=sys.stderr,
            )
            return 2
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(
            f"repro lint: no such path: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    findings = lint_paths(paths)
    for finding in findings:
        print(finding.render())
    errors = sum(1 for f in findings if f.severity == "error")
    summary = f"{errors} error(s), {len(findings) - errors} warning(s)"
    print(summary if findings else "clean: " + summary)
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based determinism & simulation-safety analyzer",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
