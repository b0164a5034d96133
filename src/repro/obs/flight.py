"""Flight recorder: a bounded ring of recent telemetry samples + events.

A crash or invariant violation at simulated minute 40 is useless without
the seconds leading up to it.  The :class:`FlightRecorder` keeps the
last :data:`FLIGHT_CAPACITY` records — telemetry-sampler ticks, fault
injections, invariant violations, whatever callers push — and dumps
them as JSONL on demand, so a failing chaos seed ships a post-mortem artifact instead
of just a seed number.

Records are plain dicts ``{"t_ms": ..., "kind": ..., **payload}``; the
ring silently evicts the oldest record past capacity (``dropped`` counts
evictions so a dump says how much history was lost).
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Deque, Dict, IO, List, Union

__all__ = ["FlightRecorder", "dump_records_jsonl"]

#: ring capacity — at the default 500 ms sampling interval this
#: holds the last ~4 simulated minutes of ticks plus interleaved events
FLIGHT_CAPACITY = 512


class FlightRecorder:
    """Bounded ring of recent samples and events."""

    def __init__(self) -> None:
        self.dropped = 0
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=FLIGHT_CAPACITY)

    def record(self, kind: str, t_ms: float, **payload: Any) -> None:
        """Push one record; evicts the oldest when the ring is full."""
        if len(self._ring) == FLIGHT_CAPACITY:
            self.dropped += 1
        self._ring.append({"t_ms": t_ms, "kind": kind, **payload})

    def event(self, name: str, t_ms: float, **payload: Any) -> None:
        """Convenience for discrete events (faults, violations, crashes)."""
        self.record("event", t_ms, name=name, **payload)

    def records(self) -> List[Dict[str, Any]]:
        """The retained records, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def dump_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Write the ring as JSONL (one record per line), oldest first.

        String targets get parent directories created on demand.
        Returns the number of records written.
        """
        return dump_records_jsonl(self.records(), target, dropped=self.dropped)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlightRecorder n={len(self._ring)}/{FLIGHT_CAPACITY} "
            f"dropped={self.dropped}>"
        )


def dump_records_jsonl(
    records: List[Dict[str, Any]],
    target: Union[str, IO[str]],
    dropped: int = 0,
) -> int:
    """Write flight records as JSONL to a path or open file.

    A leading meta line records how many older entries were evicted, so
    a truncated history is visible in the artifact itself.
    """
    if isinstance(target, str):
        parent = os.path.dirname(target)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(target, "w", encoding="utf-8") as fp:
            return dump_records_jsonl(records, fp, dropped=dropped)
    target.write(
        json.dumps({"kind": "meta", "records": len(records), "dropped": dropped})
        + "\n"
    )
    for record in records:
        target.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    return len(records)
