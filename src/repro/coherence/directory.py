"""Directory-based cache coherence at view granularity (paper §3.2).

"Smock manages replicated component instances using a directory-based
cache coherence protocol.  The protocol maintains object consistency at
the granularity of views."

The directory tracks, per *family* (an original component such as
``MailServer``), the primary instance and every replica (view
configurations such as ``ViewMailServer[TrustLevel=3]``).  Replicas
buffer local updates; flush policies decide when a replica must
reconcile with its upstream (the communication itself is performed by
the replica component over its planned linkage, so coherence traffic
crosses exactly the links the planner selected — including any
Encryptor/Decryptor pairs).  On reconciliation the directory consults
the conflict map and delivers invalidations to the other replicas whose
configurations conflict with the propagated updates.

The protocol is partition-tolerant: buffered updates carry
``(origin, seq, ts_ms)`` version stamps, applying stores keep a
:class:`VersionVector` frontier (duplicated, reordered or replayed flush
batches are rejected instead of double-applied), crashed replicas'
dirty buffers are stashed for anti-entropy replay, and partitioned
replicas serve degraded reads and writes.  On a fault-free run the
stamps and frontiers are pure bookkeeping: no event, message or
latency differs from a protocol without them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs import Observability, resolve_obs
from .conflicts import ConflictMap, Update, ViewConfig
from .policies import FlushPolicy, NeverPolicy
from .reconcile import ReconcileReport, VersionVector

__all__ = ["CoherenceDirectory", "ReplicaEntry", "CoherenceStats"]


@dataclass
class CoherenceStats:
    """Aggregate protocol counters (reported by the benchmarks)."""

    local_updates: int = 0
    buffered_units: int = 0
    syncs: int = 0
    messages_propagated: int = 0
    bytes_propagated: int = 0
    invalidations: int = 0
    #: updates that the conflict map matched against some replica config
    conflict_map_hits: int = 0
    #: reads a replica had to forward upstream because its copy was stale
    stale_reads: int = 0
    #: buffered (client-acked but not yet propagated) updates discarded
    #: because their replica's host crashed — the write-back protocol's
    #: durability gap, surfaced instead of silently swallowed
    lost_updates: int = 0
    lost_units: int = 0
    #: re-delivered updates rejected by the version frontier (duplicated,
    #: replayed, or reordered flush batches that would double-apply)
    duplicates_rejected: int = 0
    #: reads a partitioned replica served from its (possibly stale)
    #: local copy because the upstream was unreachable
    degraded_reads: int = 0
    #: writes a partitioned replica buffered locally instead of writing
    #: through to the unreachable primary (folder structure)
    degraded_writes: int = 0
    #: previously-lost updates replayed at the primary by anti-entropy
    recovered_updates: int = 0
    #: anti-entropy replays that went through conflict resolution
    reconcile_conflicts: int = 0


@dataclass
class ReplicaEntry:
    """Directory record for one replica."""

    replica_id: int
    family: str
    config: ViewConfig
    host: Any
    policy: FlushPolicy
    pending: List[Update] = field(default_factory=list)
    pending_units: int = 0
    last_flush_ms: float = 0.0
    stale_keys: set = field(default_factory=set)
    #: per-replica monotonic sequence counter for version stamps
    next_seq: int = 0

    @property
    def dirty(self) -> bool:
        return bool(self.pending)


class CoherenceDirectory:
    """The coherence module of the Smock runtime."""

    def __init__(
        self,
        conflict_map: Optional[ConflictMap] = None,
        obs: Optional[Observability] = None,
        journal: Optional[Any] = None,
    ) -> None:
        self.conflict_map = conflict_map or ConflictMap()
        self._primaries: Dict[str, Any] = {}
        self._replicas: Dict[int, ReplicaEntry] = {}
        self._by_family: Dict[str, List[int]] = {}
        self._next_id = 0
        self.stats = CoherenceStats()
        self.obs = resolve_obs(obs)
        #: optional append-only journal of registrations, frontier
        #: admissions and anti-entropy stashes (see
        #: :mod:`repro.coherence.journal`) from which a successor
        #: directory rebuilds after this one's host crashes.  ``None``
        #: (the default) skips every append — zero cost, zero events.
        self.journal = journal
        #: applied-version frontiers, one per applying store: the primary
        #: of each family keys as ``("primary", family)``, intermediate
        #: replicas as ``("replica", replica_id)``.
        self._frontiers: Dict[Tuple[str, Any], VersionVector] = {}
        #: dirty buffers of crashed replicas, held for anti-entropy
        #: replay (modeling recovery from the replica's stable storage)
        self._lost_buffers: Dict[int, Tuple[str, List[Update]]] = {}
        #: family tombstones for unregistered replicas, so a flush that
        #: was in flight during the purge can still requeue into the
        #: lost ledger under the right family
        self._retired_families: Dict[int, str] = {}
        # Metric handles resolved once: on_local_update runs per client
        # send and must not pay registry lookups (engine.Simulator pattern).
        metrics = self.obs.metrics
        if metrics.enabled:
            self._m_local_updates = metrics.counter("coherence.local_updates")
        else:
            self._m_local_updates = None
        #: per-family (invalidations, conflict_map_hits) counter handles,
        #: resolved on first broadcast for that family.
        self._inval_counters: Dict[str, Tuple[Any, Any]] = {}

    # -- registration -------------------------------------------------------
    def register_primary(self, family: str, host: Any) -> None:
        """Record the authoritative instance of a component family."""
        self._primaries[family] = host
        if self.journal is not None:
            self.journal.record_primary(family)

    def register_replica(
        self,
        family: str,
        config: ViewConfig,
        host: Any,
        policy: Optional[FlushPolicy] = None,
        now_ms: float = 0.0,
    ) -> ReplicaEntry:
        """Add a replica (view instance) to the directory."""
        entry = ReplicaEntry(
            replica_id=self._next_id,
            family=family,
            config=config,
            host=host,
            policy=policy or NeverPolicy(),
            last_flush_ms=now_ms,
        )
        self._next_id += 1
        self._replicas[entry.replica_id] = entry
        self._by_family.setdefault(family, []).append(entry.replica_id)
        if self.journal is not None:
            self.journal.record_replica(entry.replica_id, family, config)
        return entry

    def unregister_replica(self, replica_id: int) -> None:
        entry = self._replicas.get(replica_id)
        if entry is None:
            return
        if entry.pending:
            # A retiring replica whose last flush could not reach the
            # primary (e.g. uninstalled mid-partition): its buffer holds
            # client-acked updates and must enter the lost ledger and
            # the anti-entropy stash rather than vanish with the
            # registration.
            self.report_lost(replica_id)
        del self._replicas[replica_id]
        self._by_family[entry.family].remove(replica_id)
        self._frontiers.pop(("replica", replica_id), None)
        # Tombstone so a flush that was in flight when the replica was
        # purged can still requeue its batch into the lost ledger.
        self._retired_families[replica_id] = entry.family
        if self.journal is not None:
            self.journal.record_unregister(replica_id, entry.family)

    def replicas_of(self, family: str) -> List[ReplicaEntry]:
        return [self._replicas[i] for i in self._by_family.get(family, ())]

    def entry(self, replica_id: int) -> ReplicaEntry:
        return self._replicas[replica_id]

    # -- update path ------------------------------------------------------------
    def on_local_update(self, replica_id: int, update: Update, now_ms: float) -> bool:
        """Buffer a local update; True if the replica must reconcile now."""
        entry = self._replicas[replica_id]
        if update.origin is None:
            # Stamp at first buffering only: updates arriving through a
            # downstream sync batch keep their original identity so the
            # frontier dedups them end to end across replica chains.
            # Positional: ``replace`` walks ``dataclasses.fields()`` once
            # per buffered send.
            entry.next_seq += 1
            update = Update(
                update.op, update.attributes, update.size_bytes,
                update.multiplicity, replica_id, entry.next_seq, now_ms,
            )
        entry.pending.append(update)
        entry.pending_units += update.multiplicity
        self.stats.local_updates += 1
        self.stats.buffered_units += update.multiplicity
        if self._m_local_updates is not None:
            self._m_local_updates.inc()
        return entry.policy.should_flush(entry.pending_units, now_ms, entry.last_flush_ms)

    def needs_flush(self, replica_id: int, now_ms: float) -> bool:
        """Poll hook for time-driven policies (coherence daemons)."""
        entry = self._replicas[replica_id]
        return entry.dirty and entry.policy.should_flush(
            entry.pending_units, now_ms, entry.last_flush_ms
        )

    def drain(self, replica_id: int) -> Tuple[List[Update], int]:
        """Take the pending batch for propagation; returns (batch, units)."""
        entry = self._replicas[replica_id]
        batch, units = entry.pending, entry.pending_units
        entry.pending = []
        entry.pending_units = 0
        return batch, units

    def record_flush(self, replica_id: int, now_ms: float, batch: List[Update]) -> None:
        """Bookkeeping after a successful upstream reconciliation.

        The batch was applied upstream even when a replanning round
        retired the replica while its flush was in flight: it is counted
        all the same, its per-policy metrics under ``policy="retired"``.
        """
        entry = self._replicas.get(replica_id)
        if entry is not None:
            entry.last_flush_ms = now_ms
        messages = size = 0
        for u in batch:
            messages += u.multiplicity
            size += u.size_bytes
        self.stats.syncs += 1
        self.stats.messages_propagated += messages
        self.stats.bytes_propagated += size
        m = self.obs.metrics
        if m.enabled:
            policy = "retired" if entry is None else type(entry.policy).__name__
            m.inc("coherence.flushes", 1, policy=policy)
            m.inc("coherence.messages_propagated", messages, policy=policy)
            m.inc("coherence.bytes_propagated", size, policy=policy)

    def report_lost(self, replica_id: int) -> Tuple[List[Update], int]:
        """Take a dead replica's dirty buffer out of the flush pipeline.

        Called during failover reconciliation when the replica's host
        crashed before its flush policy fired: those updates were acked
        to clients but never propagated.  They are accounted lost and
        stashed (modeling the replica's stable storage) for anti-entropy
        replay by :meth:`reconcile`, which un-loses what it replays.
        Returns (batch, units) so callers can report exactly what was
        lost.
        """
        entry = self._replicas.get(replica_id)
        if entry is None or not entry.pending:
            return [], 0
        batch, units = self.drain(replica_id)
        self._stash_lost(replica_id, entry.family, batch, units)
        return batch, units

    def _stash_lost(
        self, replica_id: int, family: str, batch: List[Update], units: int
    ) -> None:
        """Account ``batch`` lost and hold it for anti-entropy replay."""
        self.stats.lost_updates += len(batch)
        self.stats.lost_units += units
        self.obs.metrics.inc("coherence.lost_updates", len(batch), family=family)
        held = self._lost_buffers.get(replica_id)
        if held is not None:
            held[1].extend(batch)
        else:
            self._lost_buffers[replica_id] = (family, list(batch))
        if self.journal is not None:
            self.journal.record_stash(replica_id, family, batch)

    @property
    def has_lost_buffers(self) -> bool:
        """Are any recovered-but-unreconciled buffers awaiting replay?"""
        return bool(self._lost_buffers)

    # -- versioned apply / anti-entropy -------------------------------------
    def frontier(self, applier: Tuple[str, Any]) -> VersionVector:
        """The applied-version frontier for one applying store."""
        vv = self._frontiers.get(applier)
        if vv is None:
            vv = self._frontiers[applier] = VersionVector()
        return vv

    def admit(self, applier: Tuple[str, Any], update: Update) -> bool:
        """Should ``applier`` apply ``update``?

        Returns False — and accounts a rejected duplicate — when the
        update's ``(origin, seq)`` version was already applied at this
        store (a duplicated, replayed, or requeued-after-apply batch).
        An update never buffered (``origin is None``) always admits.
        """
        if update.origin is None:
            return True
        if self.frontier(applier).admit(update.origin, update.seq):
            if self.journal is not None:
                self.journal.record_admit(applier, update.origin, update.seq)
            return True
        self.stats.duplicates_rejected += 1
        m = self.obs.metrics
        if m.enabled:
            m.inc("coherence.duplicates_rejected", 1, applier=applier[0])
        return False

    def note_degraded_read(self, family: str) -> None:
        """A partitioned replica served a read from its local copy."""
        self.stats.degraded_reads += 1
        self.obs.metrics.inc("coherence.degraded_reads", 1, family=family)

    def note_degraded_write(self, family: str) -> None:
        """A partitioned replica buffered a write it normally writes
        through (e.g. mailbox folder structure)."""
        self.stats.degraded_writes += 1
        self.obs.metrics.inc("coherence.degraded_writes", 1, family=family)

    def reconcile(self, now_ms: float) -> List[ReconcileReport]:
        """Anti-entropy: replay recovered lost buffers at their primaries.

        For each stashed buffer the primary's frontier delta — exactly
        the updates it has not already applied — is replayed through the
        primary's ``apply_reconciled`` hook, which resolves conflicting
        writes (the mail primary merges folder structure and settles
        racing moves by :func:`~repro.coherence.reconcile.last_writer_wins`),
        and the resulting sub-batch is fanned out as invalidations
        through the conflict map.  No-op (returns ``[]``) when nothing
        is stashed.
        """
        if not self._lost_buffers:
            return []
        reports: List[ReconcileReport] = []
        m = self.obs.metrics
        for replica_id in sorted(self._lost_buffers):
            family, batch = self._lost_buffers.pop(replica_id)
            if self.journal is not None:
                self.journal.record_reconciled(replica_id)
            primary = self._primaries.get(family)
            report = ReconcileReport(
                family=family, replica_id=replica_id, recovered=len(batch)
            )
            if primary is None or not hasattr(primary, "apply_reconciled"):
                # No merge hook: buffer stays lost (already accounted).
                reports.append(report)
                continue
            frontier = self.frontier(("primary", family))
            delta = frontier.delta(batch)
            report.duplicates = len(batch) - len(delta)
            self.stats.duplicates_rejected += report.duplicates
            applied: List[Update] = []
            for update in delta:
                if update.origin is not None:
                    frontier.admit(update.origin, update.seq)
                    if self.journal is not None:
                        self.journal.record_admit(
                            ("primary", family), update.origin, update.seq
                        )
                outcome = primary.apply_reconciled(update)
                report.note(outcome)
                if outcome == "conflict":
                    report.conflicts += 1
                    self.stats.reconcile_conflicts += 1
                applied.append(update)
            report.replayed = len(applied)
            self.stats.recovered_updates += len(applied)
            recovered_units = sum(u.multiplicity for u in applied)
            # The replays un-lose what report_lost accounted as lost.
            self.stats.lost_updates -= len(applied)
            self.stats.lost_units -= recovered_units
            if applied:
                report.invalidations = self.broadcast_invalidations(family, applied)
            if m.enabled:
                m.inc("coherence.reconcile.recovered", report.recovered, family=family)
                m.inc("coherence.reconcile.replayed", report.replayed, family=family)
                m.inc("coherence.reconcile.duplicates", report.duplicates, family=family)
                m.inc("coherence.reconcile.conflicts", report.conflicts, family=family)
                m.inc("coherence.reconcile.rounds", 1, family=family)
            reports.append(report)
        return reports

    def requeue(self, replica_id: int, batch: List[Update]) -> None:
        """Put a batch back after a failed propagation attempt.

        If the replica was unregistered while the flush was in flight
        (a concurrent retirement or failover purge), there is no pending
        queue to return to: the batch enters the lost ledger and the
        anti-entropy stash directly, exactly as if :meth:`report_lost`
        had drained it.

        ``replica_id`` must be the id the batch was drained under; a
        caller that re-reads it from an instance after yielding can see
        ``None`` (retirement clears it), which would strand the batch
        under no family and make the stash keys unsortable.
        """
        if replica_id is None:
            raise ValueError("requeue needs the replica id the batch was drained under")
        if not batch:
            return
        entry = self._replicas.get(replica_id)
        if entry is None:
            self._stash_lost(
                replica_id,
                self._retired_families.get(replica_id, "?"),
                batch,
                sum(u.multiplicity for u in batch),
            )
            return
        entry.pending = batch + entry.pending
        entry.pending_units += sum(u.multiplicity for u in batch)
        self.obs.metrics.inc("coherence.requeues")

    # -- invalidation fan-out ----------------------------------------------------
    def broadcast_invalidations(
        self,
        family: str,
        batch: List[Update],
        origin_config: Optional[ViewConfig] = None,
    ) -> int:
        """Notify replicas whose configuration conflicts with ``batch``.

        Called at the primary when propagated updates are applied.
        Returns the number of replica invalidations delivered.  Delivery
        is an invalidation only (the replica marks affected state stale
        and re-fetches on demand); the fetch traffic then flows over
        planned linkages like any other miss.
        """
        # One conflict-map scan per distinct config (the predicate
        # depends only on (update, config)); the resulting sub-batch is
        # shared by every replica with that config — hosts only read it.
        delivered = 0
        conflicts = self.conflict_map.conflicts
        stats = self.stats
        by_config: Dict[ViewConfig, List[Update]] = {}
        for entry in self.replicas_of(family):
            config = entry.config
            if origin_config is not None and config == origin_config:
                continue
            conflicting = by_config.get(config)
            if conflicting is None:
                conflicting = by_config[config] = [
                    u for u in batch if conflicts(u, config)
                ]
            if not conflicting:
                continue
            entry.host.on_invalidate(conflicting)
            delivered += 1
            n = len(conflicting)
            stats.invalidations += n
            stats.conflict_map_hits += n
            if self._m_local_updates is not None:
                handles = self._inval_counters.get(family)
                if handles is None:
                    m = self.obs.metrics
                    handles = self._inval_counters[family] = (
                        m.counter("coherence.invalidations", family=family),
                        m.counter("coherence.conflict_map_hits"),
                    )
                handles[0].inc(n)
                handles[1].inc(n)
        return delivered

    def note_stale_read(self, family: Optional[str] = None) -> None:
        """Record that a replica forwarded a read upstream because its
        local copy was invalidated (the cost invalidations externalize)."""
        self.stats.stale_reads += 1
        if family is not None:
            self.obs.metrics.inc("coherence.stale_reads", 1, family=family)
        else:
            self.obs.metrics.inc("coherence.stale_reads")

    def __repr__(self) -> str:
        return (
            f"<CoherenceDirectory families={sorted(self._by_family)} "
            f"replicas={len(self._replicas)}>"
        )
