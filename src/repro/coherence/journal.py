"""Crash-consistent recovery for the coherence directory.

The :class:`~repro.coherence.directory.CoherenceDirectory` is pure
volatile state: lose the host it lives on and every per-store version
frontier, replica registration, and anti-entropy stash goes with it —
after which no duplicate can be rejected and no lost buffer replayed.
:class:`DirectoryJournal` closes that gap with an append-only in-sim
journal of exactly the directory state that must survive a crash:

* registrations (primaries, replicas, unregistrations) — the membership
  a successor directory must re-attach to live instances;
* frontier admissions — every stamped ``(applier, origin, seq)``
  applied anywhere, from which the per-store
  :class:`~repro.coherence.reconcile.VersionVector` frontiers are
  rebuilt exactly;
* anti-entropy stashes and their consumption — which crashed-replica
  buffers are still owed a replay (the stash models the *replica's*
  stable storage; journaling it models the directory's record of where
  recovery data lives).

Volatile per-replica flush state (pending buffers, sequence counters,
policy clocks) is deliberately *not* journaled: it lives replica-side
and is re-reported at takeover, exactly as surviving replicas would
re-announce themselves to a successor directory.

Appending is a plain list append — no simulated events, no timers — so
a journal never perturbs a run's event schedule.  A runtime keeps one
exactly when it is given a ``directory_host``; without one the
directory's journal is ``None`` and even the appends are skipped.

:func:`recover_directory` rebuilds a directory from the journal plus
the surviving replica-side state, and cross-checks the rebuilt
frontiers against the pre-crash in-memory truth: any mismatch means a
frontier mutation escaped the journal and is reported (and failed) by
the chaos invariants rather than silently producing double-applies
after takeover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .conflicts import Update
from .reconcile import VersionVector

__all__ = ["DirectoryJournal", "RecoveryReport", "recover_directory"]


class DirectoryJournal:
    """Append-only record of a directory's durable state transitions."""

    def __init__(self) -> None:
        self.records: List[Tuple[Any, ...]] = []
        #: takeovers this journal has driven (successor directories keep
        #: appending to the same journal, so a second crash recovers too)
        self.recoveries = 0

    def __len__(self) -> int:
        return len(self.records)

    # -- append helpers (no-ops cost nothing: callers guard on journal) ------
    def record_primary(self, family: str) -> None:
        self.records.append(("primary", family))

    def record_replica(self, replica_id: int, family: str, config: Any) -> None:
        self.records.append(("replica", replica_id, family, config))

    def record_unregister(self, replica_id: int, family: str) -> None:
        self.records.append(("unregister", replica_id, family))

    def record_admit(self, applier: Tuple[str, Any], origin: int, seq: int) -> None:
        self.records.append(("admit", applier, origin, seq))

    def record_stash(self, replica_id: int, family: str, batch: List[Update]) -> None:
        self.records.append(("stash", replica_id, family, tuple(batch)))

    def record_reconciled(self, replica_id: int) -> None:
        self.records.append(("reconciled", replica_id))


@dataclass
class RecoveryReport:
    """What a directory takeover rebuilt, re-attached, and skipped."""

    recovered_at_ms: float
    families: List[str] = field(default_factory=list)
    replicas_reattached: List[int] = field(default_factory=list)
    #: journal-registered replicas whose hosts are dead at takeover;
    #: their re-reported pending buffers enter the lost ledger/stash.
    replicas_skipped: List[int] = field(default_factory=list)
    stash_entries: int = 0
    frontiers_rebuilt: int = 0
    #: rebuilt-vs-precrash frontier divergences — must be empty; each
    #: entry names the applier and the two states.
    frontier_mismatches: List[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.frontier_mismatches


def _vv_state(vv: VersionVector) -> Tuple[Tuple[int, int], ...]:
    """Canonical comparable snapshot of a version vector."""
    state: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    for origin, frontier in vv._frontier.items():
        state[origin] = (frontier, tuple(sorted(vv._tail.get(origin, ()))))
    return tuple(sorted((o, f, t) for o, (f, t) in state.items()))


def recover_directory(journal: DirectoryJournal, source: Any, now_ms: float):
    """Rebuild a :class:`CoherenceDirectory` after its host crashed.

    ``source`` is the orphaned pre-crash directory object: its conflict
    map, observability and stats carry over (stats are cumulative run
    accounting, not host state), its live replica entries stand in for
    the replicas
    re-reporting their volatile flush state to the successor, and its
    in-memory frontiers serve as the oracle the journal-rebuilt
    frontiers are validated against.  Returns ``(directory, report)``;
    the new directory journals to the *same* journal, so a later crash
    of the successor recovers too.
    """
    from .directory import CoherenceDirectory, ReplicaEntry

    records = list(journal.records)
    new = CoherenceDirectory(
        source.conflict_map,
        obs=source.obs,
        journal=journal,
    )
    report = RecoveryReport(recovered_at_ms=now_ms)
    # Cumulative run accounting continues across the takeover (assigned
    # before the rebuild passes: requeues below account lost updates).
    new.stats = source.stats

    # Pass 1: replay membership.
    families: List[str] = []
    live: Dict[int, Tuple[str, Any]] = {}
    retired: Dict[int, str] = {}
    max_id = -1
    for rec in records:
        kind = rec[0]
        if kind == "primary":
            if rec[1] not in families:
                families.append(rec[1])
        elif kind == "replica":
            _, replica_id, family, config = rec
            live[replica_id] = (family, config)
            max_id = max(max_id, replica_id)
        elif kind == "unregister":
            _, replica_id, family = rec
            live.pop(replica_id, None)
            retired[replica_id] = family

    for family in families:
        host = source._primaries.get(family)
        if host is not None:
            new._primaries[family] = host
            new.journal.record_primary(family)
            report.families.append(family)
    # Never reuse a replica id the old incarnation may still have in
    # flight (requeues key the lost ledger by id).
    new._next_id = max(max_id + 1, source._next_id)

    def _host_alive(host: Any) -> bool:
        if host is None or getattr(host, "failed", False):
            return False
        node = getattr(host, "node", None)
        return bool(getattr(node, "up", True))

    for replica_id in sorted(live):
        family, config = live[replica_id]
        old_entry = source._replicas.get(replica_id)
        if old_entry is None or not _host_alive(old_entry.host):
            # Registered per the journal but nobody answers: tombstone
            # the family (late flushes route to the lost ledger) and
            # stash whatever volatile buffer the old directory knew of.
            report.replicas_skipped.append(replica_id)
            new._retired_families[replica_id] = family
            new.journal.record_unregister(replica_id, family)
            if old_entry is not None and old_entry.pending:
                new.requeue(replica_id, old_entry.pending)
            continue
        # The surviving replica re-reports its volatile flush state.
        entry = ReplicaEntry(
            replica_id=replica_id,
            family=family,
            config=config,
            host=old_entry.host,
            policy=old_entry.policy,
            pending=list(old_entry.pending),
            pending_units=old_entry.pending_units,
            last_flush_ms=old_entry.last_flush_ms,
            stale_keys=set(old_entry.stale_keys),
            next_seq=old_entry.next_seq,
        )
        new._replicas[replica_id] = entry
        new._by_family.setdefault(family, []).append(replica_id)
        new.journal.record_replica(replica_id, family, config)
        report.replicas_reattached.append(replica_id)
    for replica_id, family in retired.items():
        new._retired_families.setdefault(replica_id, family)

    # Pass 2: rebuild frontiers strictly from journaled admissions.
    # A replica that is no longer registered (retired pre-crash, or
    # skipped above) had its frontier popped by ``unregister_replica``;
    # mirror that — its id is never reused, so the frontier is dead.
    for rec in records:
        if rec[0] == "admit":
            _, applier, origin, seq = rec
            if applier[0] == "replica" and applier[1] not in new._replicas:
                continue
            new.frontier(applier).admit(origin, seq)
    report.frontiers_rebuilt = len(new._frontiers)

    # Pass 3: outstanding anti-entropy stashes = stashed minus consumed.
    stashes: Dict[int, Tuple[str, List[Update]]] = {}
    for rec in records:
        if rec[0] == "stash":
            _, replica_id, family, batch = rec
            held = stashes.get(replica_id)
            if held is not None:
                held[1].extend(batch)
            else:
                stashes[replica_id] = (family, list(batch))
        elif rec[0] == "reconciled":
            stashes.pop(rec[1], None)
    for replica_id in sorted(stashes):
        family, batch = stashes[replica_id]
        # recover_directory may have requeued skipped-replica buffers
        # above; merge rather than clobber.
        held = new._lost_buffers.get(replica_id)
        if held is not None:
            known = {(u.origin, u.seq) for u in held[1] if u.origin is not None}
            held[1].extend(
                u for u in batch
                if u.origin is None or (u.origin, u.seq) not in known
            )
        else:
            new._lost_buffers[replica_id] = (family, batch)
        report.stash_entries += 1

    # Cross-check: the journal-rebuilt frontiers must equal the pre-crash
    # in-memory truth (restricted to stores that still exist).  A
    # divergence means some admission escaped the journal — the exact
    # failure mode that turns into silent double-applies after takeover.
    survivors = set(new._frontiers) | {
        applier for applier in source._frontiers
        if applier[0] == "primary" or applier[1] in new._replicas
    }
    for applier in sorted(survivors, key=repr):
        rebuilt = _vv_state(new._frontiers.get(applier, VersionVector()))
        precrash = _vv_state(source._frontiers.get(applier, VersionVector()))
        if rebuilt != precrash:
            report.frontier_mismatches.append(
                f"{applier}: journal={rebuilt} pre-crash={precrash}"
            )

    return new, report
