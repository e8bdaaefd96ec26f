"""Typed trace events: JSONL trace rows, parsed.

:func:`iter_jsonl_events` turns rows written by
:class:`repro.obs.trace.JsonlSink` (``{"t", "cat", "ev", ...}``) into
:class:`TraceEvent`: the envelope triplet plus the flat field dict,
tagged with the row's position in the stream.  The fold driver
(:func:`repro.obs.fold.replay_file`) reads trace files through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, Optional

__all__ = [
    "TraceEvent",
    "TruncatedTrace",
    "iter_jsonl_events",
]

_ENVELOPE = ("t", "cat", "ev")


@dataclass(slots=True)
class TraceEvent:
    """One trace row, positionally tagged."""

    index: int
    t: Optional[float]
    cat: str
    ev: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def as_row(self) -> Dict[str, Any]:
        """Back to the JSONL row shape (for reports)."""
        row: Dict[str, Any] = {"t": self.t, "cat": self.cat, "ev": self.ev}
        row.update(self.fields)
        return row


class TruncatedTrace(Exception):
    """A JSONL stream ended mid-row (e.g. a killed run).

    Raised only for a torn *final* line; malformed interior lines are a
    hard :class:`ValueError` — they mean the file is not a trace.
    """


def iter_jsonl_events(lines: Iterable[str]) -> Iterator[TraceEvent]:
    """Parse JSONL rows into :class:`TraceEvent`, tolerating a torn tail.

    ``lines`` is any iterable of text lines (an open file works).  A
    final line that does not parse raises :class:`TruncatedTrace` after
    every complete row has been yielded, so callers can treat a
    truncated-but-flushed trace from a crashed cell as checkable.
    """
    index = 0
    torn: Optional[int] = None
    for lineno, line in enumerate(lines, start=1):
        if torn is not None:
            raise ValueError(
                f"line {torn}: malformed JSONL row in trace "
                "(not merely truncated: complete rows follow it)"
            )
        stripped = line.strip()
        if not stripped:
            continue
        try:
            row = json.loads(stripped)
        except ValueError:
            torn = lineno
            continue
        if not isinstance(row, dict) or "cat" not in row or "ev" not in row:
            raise ValueError(
                f"line {lineno}: not a trace row (missing cat/ev): "
                f"{stripped[:120]!r}"
            )
        fields = {
            key: value for key, value in row.items() if key not in _ENVELOPE
        }
        yield TraceEvent(
            index=index,
            t=row.get("t"),
            cat=row["cat"],
            ev=row["ev"],
            fields=fields,
        )
        index += 1
    if torn is not None:
        raise TruncatedTrace(f"trace ends with a torn row at line {torn}")

