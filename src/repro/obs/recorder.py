"""Trace storage and export: JSON-lines plus a human-readable tree.

The recorder is deliberately dumb — an append-only list of dict records
(spans, point events, and a trailing metrics snapshot when the CLI adds
one).  Export formats:

- :meth:`TraceRecorder.to_jsonl` — one JSON object per line, the
  interchange format (``python -m repro <cmd> --trace out.jsonl``);
- :func:`load_jsonl` — the inverse, for tooling and round-trip tests;
- :meth:`TraceRecorder.tree_report` — an indented span forest with both
  simulated and wall durations, the quick "where did the time go" view.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, IO, List, Optional, Union

__all__ = ["TraceRecorder", "load_jsonl"]


class TraceRecorder:
    """Append-only store of trace records."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def add(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def clear(self) -> None:
        self.records.clear()

    # -- accessors ----------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Finished span records, optionally filtered by span name."""
        return [
            r
            for r in self.records
            if r.get("type") == "span" and (name is None or r.get("name") == name)
        ]

    def events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            r
            for r in self.records
            if r.get("type") == "event" and (name is None or r.get("name") == name)
        ]

    # -- JSON-lines ---------------------------------------------------------
    def to_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Write every record as one JSON object per line.

        ``target`` is a path or a text file object; returns the number
        of records written.  Path targets get missing parent directories
        created, so ``--trace out/dir/trace.jsonl`` just works.
        """
        if isinstance(target, str):
            parent = os.path.dirname(target)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(target, "w") as fp:
                return self.to_jsonl(fp)
        for record in self.records:
            target.write(json.dumps(record, sort_keys=True, default=str))
            target.write("\n")
        return len(self.records)

    # -- tree report --------------------------------------------------------
    def tree_report(self) -> str:
        """The span forest, indented, with sim/wall durations and attrs."""
        spans = self.spans()
        by_parent: Dict[Optional[int], List[Dict[str, Any]]] = {}
        ids = {s.get("span_id") for s in spans}
        for s in spans:
            parent = s.get("parent_id")
            if parent not in ids:
                parent = None  # orphan (parent never finished): show at root
            by_parent.setdefault(parent, []).append(s)

        lines: List[str] = []

        def fmt(span: Dict[str, Any]) -> str:
            parts = [span.get("name", "?")]
            sim_ms = span.get("sim_ms")
            if sim_ms is not None:
                parts.append(f"sim={sim_ms:.2f}ms")
            wall_ms = span.get("wall_ms")
            if wall_ms is not None:
                parts.append(f"wall={wall_ms:.3f}ms")
            if span.get("status") != "ok":
                parts.append(f"status={span.get('status')}")
            attrs = span.get("attrs") or {}
            for k, v in sorted(attrs.items()):
                parts.append(f"{k}={v}")
            return "  ".join(parts)

        def walk(parent: Optional[int], depth: int) -> None:
            for span in by_parent.get(parent, ()):
                lines.append("  " * depth + fmt(span))
                walk(span.get("span_id"), depth + 1)

        walk(None, 0)
        return "\n".join(lines) if lines else "(no spans recorded)"

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceRecorder records={len(self.records)}>"


def load_jsonl(source: Union[str, IO[str]]) -> TraceRecorder:
    """Read a JSON-lines trace back into a :class:`TraceRecorder`."""
    if isinstance(source, str):
        with open(source) as fp:
            return load_jsonl(fp)
    recorder = TraceRecorder()
    for line in source:
        line = line.strip()
        if line:
            recorder.add(json.loads(line))
    return recorder
