"""Tests for the coherence directory."""

import dataclasses
from typing import List

import pytest

from repro.coherence import (
    AttributeConflictMap,
    CoherenceDirectory,
    CountPolicy,
    NeverPolicy,
    Update,
)


class FakeHost:
    def __init__(self):
        self.invalidations: List[Update] = []

    def on_invalidate(self, updates):
        self.invalidations.extend(updates)


@pytest.fixture
def directory():
    return CoherenceDirectory(AttributeConflictMap("sensitivity", "TrustLevel"))


def cfg(trust):
    return ("ViewMailServer", (("TrustLevel", trust),))


def test_register_and_query(directory):
    host = FakeHost()
    entry = directory.register_replica("MailServer", cfg(3), host, CountPolicy(5))
    assert entry.replica_id == 0
    assert directory.replicas_of("MailServer") == [entry]
    assert directory.entry(0) is entry
    directory.register_primary("MailServer", "primary-host")
    assert directory._primaries.get("MailServer") == "primary-host"


def test_on_local_update_buffers_until_threshold(directory):
    entry = directory.register_replica("MailServer", cfg(3), FakeHost(), CountPolicy(5))
    for i in range(4):
        assert not directory.on_local_update(0, Update("store", {}, multiplicity=1), 0.0)
    assert directory.on_local_update(0, Update("store", {}, multiplicity=1), 0.0)
    assert entry.pending_units == 5


def test_multiplicity_counts_toward_threshold(directory):
    directory.register_replica("MailServer", cfg(3), FakeHost(), CountPolicy(10))
    assert directory.on_local_update(0, Update("store", {}, multiplicity=10), 0.0)


def test_drain_and_record_flush(directory):
    directory.register_replica("MailServer", cfg(3), FakeHost(), CountPolicy(2))
    directory.on_local_update(0, Update("store", {}, size_bytes=100, multiplicity=1), 0.0)
    directory.on_local_update(0, Update("store", {}, size_bytes=100, multiplicity=1), 0.0)
    batch, units = directory.drain(0)
    assert len(batch) == 2 and units == 2
    assert directory.entry(0).pending_units == 0
    directory.record_flush(0, 50.0, batch)
    assert directory.stats.syncs == 1
    assert directory.stats.messages_propagated == 2
    assert directory.stats.bytes_propagated == 200
    assert directory.entry(0).last_flush_ms == 50.0


def test_a_replica_retired_mid_flush_still_counts_its_flush():
    """The batch was applied upstream before the flush's bookkeeping ran:
    retiring the replica in between must neither raise nor drop the
    flush from the statistics, and its per-policy metrics read
    ``retired``."""
    from repro.obs import Observability

    directory = CoherenceDirectory(obs=Observability(tracing=False, metrics=True))
    directory.register_replica("MailServer", cfg(3), FakeHost(), CountPolicy(2))
    directory.on_local_update(0, Update("store", {}, size_bytes=100, multiplicity=3), 0.0)
    batch, _units = directory.drain(0)
    directory.unregister_replica(0)
    directory.record_flush(0, 50.0, batch)
    assert directory.stats.syncs == 1
    assert directory.stats.messages_propagated == 3
    assert directory.stats.bytes_propagated == 100
    metrics = directory.obs.metrics
    assert metrics.counter("coherence.flushes", policy="retired").value == 1
    assert metrics.counter("coherence.messages_propagated", policy="retired").value == 3


def test_requeue_restores_batch_order(directory):
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    u1, u2, u3 = (Update("store", {"i": i}) for i in range(3))
    directory.on_local_update(0, u1, 0.0)
    directory.on_local_update(0, u2, 0.0)
    batch, _ = directory.drain(0)
    directory.on_local_update(0, u3, 0.0)
    directory.requeue(0, batch)
    batch2, units = directory.drain(0)
    # Buffered copies carry version stamps; the logical order/content match.
    assert [u.attributes for u in batch2] == [{"i": 0}, {"i": 1}, {"i": 2}]
    assert [u.seq for u in batch2] == [1, 2, 3]
    assert units == 3


def test_first_buffering_stamps_without_dataclasses_replace(directory, monkeypatch):
    """The stamp is built positionally (``dataclasses.replace`` walks
    ``fields()`` once per buffered send) and equals the ``replace`` result."""
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    update = Update("store", {"sensitivity": 2, "i": 0}, size_bytes=321, multiplicity=4)
    expected = dataclasses.replace(update, origin=0, seq=1, ts_ms=12.5)
    relayed = Update("store", {"i": 1}, size_bytes=7, origin=9, seq=41, ts_ms=3.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("dataclasses.replace on the buffering path")

    monkeypatch.setattr(dataclasses, "replace", forbidden)
    # ... and under the name a ``from dataclasses import replace`` binds
    monkeypatch.setattr("repro.coherence.directory.replace", forbidden, raising=False)
    directory.on_local_update(0, update, 12.5)
    directory.on_local_update(0, relayed, 20.0)
    batch, units = directory.drain(0)
    for f in dataclasses.fields(Update):
        assert getattr(batch[0], f.name) == getattr(expected, f.name), f.name
    assert batch[0].attributes is update.attributes
    assert batch[1] is relayed  # already stamped: passed through by identity
    assert units == 5


def test_broadcast_invalidations_respects_conflict_map(directory):
    low = FakeHost()
    high = FakeHost()
    directory.register_replica("MailServer", cfg(2), low, NeverPolicy())
    directory.register_replica("MailServer", cfg(5), high, NeverPolicy())
    batch = [Update("store_message", {"sensitivity": 4, "recipient": "Alice"})]
    n = directory.broadcast_invalidations("MailServer", batch)
    assert n == 1  # only the trust-5 replica stores level-4 content
    assert high.invalidations and not low.invalidations
    assert directory.stats.invalidations == 1


def test_broadcast_skips_origin_replica(directory):
    origin = FakeHost()
    other = FakeHost()
    directory.register_replica("MailServer", cfg(3), origin, NeverPolicy())
    directory.register_replica("MailServer", cfg(5), other, NeverPolicy())
    batch = [Update("store_message", {"sensitivity": 1, "recipient": "Bob"})]
    directory.broadcast_invalidations("MailServer", batch, origin_config=cfg(3))
    assert not origin.invalidations
    assert other.invalidations


def test_unregister_replica(directory):
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    directory.unregister_replica(0)
    assert directory.replicas_of("MailServer") == []
    # idempotent
    directory.unregister_replica(0)


def test_needs_flush_time_driven(directory):
    from repro.coherence import TimePolicy

    directory.register_replica("MailServer", cfg(3), FakeHost(), TimePolicy(100.0))
    assert not directory.needs_flush(0, 1000.0)  # clean
    directory.on_local_update(0, Update("store", {}), 0.0)
    assert not directory.needs_flush(0, 50.0)
    assert directory.needs_flush(0, 100.0)


# -- report_lost / requeue edge cases ----------------------------------------

def stamped(directory, replica_id, n, now_ms=0.0):
    """Buffer n updates through the directory so they carry version stamps."""
    for i in range(n):
        directory.on_local_update(
            replica_id, Update("store", {"i": i}, multiplicity=1), now_ms
        )


def test_report_lost_empty_buffer_is_noop(directory):
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    assert directory.report_lost(0) == ([], 0)
    assert directory.stats.lost_updates == 0
    assert not directory.has_lost_buffers


def test_report_lost_unknown_replica_is_noop(directory):
    assert directory.report_lost(99) == ([], 0)
    assert directory.stats.lost_updates == 0


def test_double_report_lost_accounts_once(directory):
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    stamped(directory, 0, 3)
    batch, units = directory.report_lost(0)
    assert len(batch) == 3 and units == 3
    assert directory.stats.lost_updates == 3
    # The first report drained the buffer: a second report is a no-op.
    assert directory.report_lost(0) == ([], 0)
    assert directory.stats.lost_updates == 3
    assert len(directory._lost_buffers[0][1]) == 3


def test_unregister_with_pending_buffer_reports_lost(directory):
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    stamped(directory, 0, 2)
    directory.unregister_replica(0)
    assert directory.replicas_of("MailServer") == []
    assert directory.stats.lost_updates == 2
    assert directory.has_lost_buffers  # stashed for anti-entropy


def test_requeue_after_concurrent_purge_enters_lost_ledger(directory):
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    stamped(directory, 0, 3)
    batch, _ = directory.drain(0)  # flush in flight...
    directory.unregister_replica(0)  # ...replica purged meanwhile
    directory.requeue(0, batch)  # the failed flush comes back
    assert directory.stats.lost_updates == 3
    family, held = directory._lost_buffers[0]
    assert family == "MailServer"  # tombstone preserved the family
    assert len(held) == 3


def test_requeue_rejects_none_replica_id(directory):
    """Retirement clears ``instance.replica_id``; a flush that re-read it
    after yielding used to strand its batch under id None and family
    "?", and reconcile's ``sorted()`` of the stash keys then raised."""
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    stamped(directory, 0, 2)
    batch, _ = directory.drain(0)
    directory.unregister_replica(0)
    with pytest.raises(ValueError):
        directory.requeue(None, batch)
    assert not directory.has_lost_buffers
    assert directory.stats.lost_updates == 0


def test_requeue_empty_batch_is_noop(directory):
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    directory.requeue(0, [])
    directory.unregister_replica(0)
    directory.requeue(0, [])
    assert directory.stats.lost_updates == 0
    assert not directory.has_lost_buffers


# -- versioned admission -----------------------------------------------------

def test_admit_rejects_replayed_update(directory):
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    stamped(directory, 0, 1)
    (update,) = directory.drain(0)[0]
    applier = ("primary", "MailServer")
    assert directory.admit(applier, update)
    assert not directory.admit(applier, update)  # replay rejected
    assert directory.stats.duplicates_rejected == 1


def test_admit_unversioned_update_always_passes(directory):
    legacy = Update("store", {})
    applier = ("primary", "MailServer")
    assert directory.admit(applier, legacy)
    assert directory.admit(applier, legacy)
    assert directory.stats.duplicates_rejected == 0


def test_degraded_counters(directory):
    directory.note_degraded_read("MailServer")
    directory.note_degraded_read("MailServer")
    directory.note_degraded_write("MailServer")
    assert directory.stats.degraded_reads == 2
    assert directory.stats.degraded_writes == 1


# -- anti-entropy reconcile --------------------------------------------------

class FakePrimary:
    """Collects replayed updates like a primary's apply_reconciled hook."""

    def __init__(self, outcome="applied"):
        self.replayed = []
        self.outcome = outcome

    def apply_reconciled(self, update):
        self.replayed.append(update)
        return self.outcome


def test_reconcile_replays_lost_buffer_at_primary(directory):
    primary = FakePrimary()
    directory.register_primary("MailServer", primary)
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    stamped(directory, 0, 3)
    directory.report_lost(0)
    (report,) = directory.reconcile(now_ms=100.0)
    assert report.recovered == 3 and report.replayed == 3
    assert report.duplicates == 0
    assert len(primary.replayed) == 3
    assert directory.stats.recovered_updates == 3
    assert directory.stats.lost_updates == 0  # replays un-lose the ledger
    assert not directory.has_lost_buffers


def test_reconcile_replays_tombstoned_and_crashed_stashes_in_id_order(directory):
    primary = FakePrimary()
    directory.register_primary("MailServer", primary)
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    directory.register_replica("MailServer", cfg(2), FakeHost(), NeverPolicy())
    stamped(directory, 0, 2)
    stamped(directory, 1, 3)
    batch, _ = directory.drain(1)  # replica 1's flush is in flight...
    directory.unregister_replica(1)  # ...when a replan round retires it
    directory.requeue(1, batch)  # the failed flush comes back under its own id
    directory.report_lost(0)  # and replica 0's host crashed dirty
    reports = directory.reconcile(now_ms=100.0)
    assert [(r.replica_id, r.family, r.replayed) for r in reports] == [
        (0, "MailServer", 2),
        (1, "MailServer", 3),
    ]
    assert directory.stats.lost_updates == 0
    assert not directory.has_lost_buffers


def test_reconcile_skips_already_applied_updates(directory):
    primary = FakePrimary()
    directory.register_primary("MailServer", primary)
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    stamped(directory, 0, 3)
    batch = list(directory.entry(0).pending)
    # The first update reached the primary before the crash.
    directory.admit(("primary", "MailServer"), batch[0])
    directory.report_lost(0)
    (report,) = directory.reconcile(now_ms=100.0)
    assert report.recovered == 3
    assert report.duplicates == 1
    assert report.replayed == 2
    assert [u.seq for u in primary.replayed] == [2, 3]
    assert directory.stats.lost_updates == 1  # the duplicate stays accounted


def test_reconcile_conflict_outcomes_are_counted(directory):
    primary = FakePrimary(outcome="conflict")
    directory.register_primary("MailServer", primary)
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    stamped(directory, 0, 2)
    directory.report_lost(0)
    (report,) = directory.reconcile(now_ms=100.0)
    assert report.conflicts == 2
    assert directory.stats.reconcile_conflicts == 2
    assert report.outcomes == {"conflict": 2}


def test_reconcile_without_merge_hook_leaves_buffer_lost(directory):
    directory.register_primary("MailServer", object())  # no apply_reconciled
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    stamped(directory, 0, 2)
    directory.report_lost(0)
    (report,) = directory.reconcile(now_ms=100.0)
    assert report.replayed == 0
    assert directory.stats.lost_updates == 2  # still accounted lost
    assert not directory.has_lost_buffers  # but not retried forever


def test_reconcile_noop_when_nothing_stashed(directory):
    assert directory.reconcile(now_ms=0.0) == []


def test_reconcile_invalidation_fanout_uses_conflict_map():
    """Anti-entropy fan-out goes through the same conflict-map path as a
    normal flush."""
    directory = CoherenceDirectory(
        AttributeConflictMap("sensitivity", "TrustLevel")
    )
    primary = FakePrimary()
    directory.register_primary("MailServer", primary)
    lost_host, live_host = FakeHost(), FakeHost()
    directory.register_replica("MailServer", cfg(3), lost_host, NeverPolicy())
    directory.register_replica("MailServer", cfg(5), live_host, NeverPolicy())
    directory.on_local_update(
        0, Update("store_message", {"sensitivity": 4}), 0.0
    )
    directory.report_lost(0)
    directory.unregister_replica(0)  # the crashed replica is gone
    (report,) = directory.reconcile(now_ms=50.0)
    assert report.replayed == 1
    assert report.invalidations == 1  # only the trust-5 replica qualifies
    assert len(live_host.invalidations) == 1
