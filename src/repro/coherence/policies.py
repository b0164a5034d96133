"""Weak-consistency flush policies (paper §3.2).

"Coherence actions are triggered based on dynamic conflict maps; the
latter ... allow expression of a wide range of service-specific weak
consistency protocols (including time-driven consistency) necessary for
efficient replication in wide-area environments."

A replica buffers local updates; its :class:`FlushPolicy` decides when
the buffer must be reconciled with the upstream copy.  The Figure 7
scenarios use :class:`CountPolicy` — "a protocol that limits the number
of unpropagated messages at each replica" — with limits 500 and 1000
(and ``NeverPolicy`` for the no-coherence-overhead scenarios).
:class:`TimePolicy` implements the time-driven variant the paper
mentions; :class:`WriteThroughPolicy` is the strong end of the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "FlushPolicy",
    "NeverPolicy",
    "CountPolicy",
    "TimePolicy",
    "WriteThroughPolicy",
    "policy_from_name",
]


class FlushPolicy:
    """Decides when a replica must propagate buffered updates upstream."""

    name = "abstract"

    def should_flush(self, pending: int, now_ms: float, last_flush_ms: float) -> bool:
        """Must the replica reconcile now?

        ``pending`` counts unpropagated unit-messages; ``now_ms`` is the
        current simulated time; ``last_flush_ms`` the previous
        reconciliation time.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class NeverPolicy(FlushPolicy):
    """No propagation during operation (the DS0/SS0 scenarios)."""

    name = "never"

    def should_flush(self, pending: int, now_ms: float, last_flush_ms: float) -> bool:
        return False


@dataclass
class CountPolicy(FlushPolicy):
    """Limit the number of unpropagated messages at the replica.

    The replica reconciles synchronously as soon as ``pending`` reaches
    ``limit`` — the DS500/DS1000 scenarios use limits 500 and 1000.
    """

    limit: int

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")
        self.name = f"count({self.limit})"

    def should_flush(self, pending: int, now_ms: float, last_flush_ms: float) -> bool:
        return pending >= self.limit


@dataclass
class TimePolicy(FlushPolicy):
    """Time-driven consistency: reconcile every ``interval_ms`` while dirty."""

    interval_ms: float

    def __post_init__(self) -> None:
        if not self.interval_ms > 0:  # NaN too: it would never flush
            raise ValueError(f"interval must be positive, got {self.interval_ms}")
        self.name = f"time({self.interval_ms}ms)"

    def should_flush(self, pending: int, now_ms: float, last_flush_ms: float) -> bool:
        return pending > 0 and (now_ms - last_flush_ms) >= self.interval_ms


class WriteThroughPolicy(FlushPolicy):
    """Propagate every update immediately (strong consistency)."""

    name = "write_through"

    def should_flush(self, pending: int, now_ms: float, last_flush_ms: float) -> bool:
        return pending > 0


def policy_from_name(name: str) -> FlushPolicy:
    """Build a policy from a compact scenario string.

    ``"never"``, ``"write_through"``, ``"count:500"``, ``"time:250"``.
    """
    if name == "never":
        return NeverPolicy()
    if name == "write_through":
        return WriteThroughPolicy()
    kind, _, arg = name.partition(":")
    if kind == "count" and arg:
        return CountPolicy(int(arg))
    if kind == "time" and arg:
        return TimePolicy(float(arg))
    raise ValueError(f"unknown flush policy {name!r}")
