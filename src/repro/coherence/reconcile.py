"""Anti-entropy reconciliation for partition-tolerant coherence.

A plain write-back protocol assumes the update channel between a
replica and its upstream is reliable and ordered.  Under partitions
that assumption breaks three ways, and the directory
(:mod:`repro.coherence.directory`) answers each:

1. **Duplication/replay** — a flush batch can apply upstream while the
   acknowledgement is lost (link severed mid-response), so the replica
   requeues and re-sends an already-applied batch; message-level faults
   can also deliver a batch twice outright.  :class:`VersionVector`
   tracks, per applying store, the ``(origin, seq)`` frontier of every
   update ever applied there, so re-deliveries are detected and
   rejected instead of double-applied.
2. **Loss** — a replica host can crash with client-acked updates still
   buffered.  The directory stashes those buffers
   (:meth:`CoherenceDirectory.report_lost`) and an anti-entropy round
   replays the frontier *delta* — exactly the updates the primary has
   not seen — once the failure is reconciled.
3. **Divergence** — both sides of a partition can mutate the same
   logical cell (e.g. a mailbox folder move issued at a degraded view
   while the primary applied a conflicting move).  The applying
   service merges what it can (the mail service unions folder
   structure) and settles the rest with :func:`last_writer_wins`, by
   simulated write time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .conflicts import Update

__all__ = [
    "VersionVector",
    "last_writer_wins",
    "ReconcileReport",
]


class VersionVector:
    """Set of applied ``(origin, seq)`` versions, compressed per origin.

    For each origin the vector keeps a contiguous frontier (every seq up
    to and including it has been applied) plus a sparse set of applied
    seqs above the frontier — the out-of-order tail a *reordered*
    channel produces.  The tail folds into the frontier as gaps close,
    so steady-state in-order traffic costs one integer per origin.
    """

    __slots__ = ("_frontier", "_tail")

    def __init__(self) -> None:
        self._frontier: Dict[int, int] = {}
        self._tail: Dict[int, Set[int]] = {}

    def contains(self, origin: int, seq: int) -> bool:
        if seq <= self._frontier.get(origin, 0):
            return True
        return seq in self._tail.get(origin, ())

    def admit(self, origin: int, seq: int) -> bool:
        """Record ``(origin, seq)`` as applied; False if already seen."""
        frontier = self._frontier.get(origin, 0)
        if seq <= frontier:
            return False
        tail = self._tail.get(origin)
        if tail is None:
            tail = self._tail[origin] = set()
        if seq in tail:
            return False
        tail.add(seq)
        while frontier + 1 in tail:
            frontier += 1
            tail.discard(frontier)
        self._frontier[origin] = frontier
        return True

    def frontier(self, origin: int) -> int:
        """Highest contiguously-applied seq for ``origin`` (0 if none)."""
        return self._frontier.get(origin, 0)

    def delta(self, batch: List[Update]) -> List[Update]:
        """The subset of ``batch`` not yet applied here (no mutation)."""
        return [
            u for u in batch
            if u.origin is None or not self.contains(u.origin, u.seq)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tails = {o: sorted(t) for o, t in self._tail.items() if t}
        return f"<VersionVector frontier={self._frontier} tail={tails}>"


def last_writer_wins(
    incoming: Update,
    incumbent_ts_ms: float,
    incumbent_version: Optional[Tuple[int, int]],
) -> bool:
    """Should ``incoming`` replace the write the applying store last
    accepted for a contested cell (stamped ``incumbent_ts_ms`` /
    ``incumbent_version``)?

    The later simulated write time wins; ties break on ``(origin, seq)``
    so both sides of a healed partition converge on the same winner
    regardless of replay order.  A write never buffered by a replica
    (no version) wins a tie; a stamped one yields to such a write.
    """
    if incoming.ts_ms != incumbent_ts_ms:
        return incoming.ts_ms > incumbent_ts_ms
    if incoming.version is None:
        return True
    if incumbent_version is None:
        return False
    return incoming.version > incumbent_version


@dataclass
class ReconcileReport:
    """Outcome of one anti-entropy pass over a recovered buffer."""

    family: str
    replica_id: int
    #: updates in the recovered buffer
    recovered: int = 0
    #: frontier delta actually replayed at the primary
    replayed: int = 0
    #: rejected as already applied (flushed before the crash, or a
    #: client retry re-applied them through a fresh chain)
    duplicates: int = 0
    #: replays that contended with a concurrent write and went through
    #: conflict resolution (whichever side won)
    conflicts: int = 0
    #: invalidations fanned out for the replayed updates
    invalidations: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)

    def note(self, outcome: str) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
