"""Finding record shared by the rule engine and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

#: Recognised severity levels, most severe first.  Both levels fail the
#: run; the split exists so a reader can triage.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class TraceStep:
    """One hop of an interprocedural source-to-sink chain."""

    path: str
    line: int
    note: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.note}"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    Per-file rules leave ``trace`` empty; the whole-program cache-purity
    rule (RPR104) attaches the call chain from the cached root to the
    impure read, so a finding is actionable without re-running the
    analysis in one's head.
    """

    path: str  #: posix-normalised, repo-relative where possible
    line: int  #: 1-based
    col: int  #: 0-based (ast convention)
    code: str  #: e.g. "RPR104"
    rule: str  #: short kebab-case rule name
    severity: str  #: one of SEVERITIES
    message: str
    trace: Tuple[TraceStep, ...] = field(default=())

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def render(self) -> str:
        head = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.severity}] {self.message}"
        )
        if not self.trace:
            return head
        steps = "\n".join(f"    via {step.render()}" for step in self.trace)
        return f"{head}\n{steps}"
