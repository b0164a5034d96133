"""Crash-consistent directory recovery from the append-only journal."""

from typing import List

import pytest

from repro.coherence import (
    AttributeConflictMap,
    CoherenceDirectory,
    CountPolicy,
    DirectoryJournal,
    NeverPolicy,
    Update,
    recover_directory,
)


class FakeHost:
    def __init__(self):
        self.invalidations: List[Update] = []
        self.failed = False

    def on_invalidate(self, updates):
        self.invalidations.extend(updates)


class FakePrimary:
    def __init__(self):
        self.applied: List[Update] = []

    def apply_reconciled(self, update):
        self.applied.append(update)
        return "applied"


def cfg(trust):
    return ("ViewMailServer", (("TrustLevel", trust),))


def make_directory():
    journal = DirectoryJournal()
    directory = CoherenceDirectory(
        AttributeConflictMap("sensitivity", "TrustLevel"), journal=journal
    )
    return directory, journal


def buffer(directory, replica_id, n):
    for i in range(n):
        directory.on_local_update(
            replica_id, Update("store", {"i": i}), float(i)
        )


def test_journal_records_membership_and_admissions():
    directory, journal = make_directory()
    primary = FakePrimary()
    directory.register_primary("MailServer", primary)
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    buffer(directory, 0, 2)
    for update in directory._replicas[0].pending:
        assert directory.admit(("primary", "MailServer"), update)
    kinds = [rec[0] for rec in journal.records]
    assert kinds == ["primary", "replica", "admit", "admit"]


def test_recovery_rebuilds_membership_frontiers_and_stays_consistent():
    directory, journal = make_directory()
    primary = FakePrimary()
    directory.register_primary("MailServer", primary)
    directory.register_replica("MailServer", cfg(3), FakeHost(), CountPolicy(100))
    directory.register_replica("MailServer", cfg(1), FakeHost(), NeverPolicy())
    buffer(directory, 0, 3)
    for update in list(directory._replicas[0].pending):
        directory.admit(("primary", "MailServer"), update)
        directory.admit(("replica", 1), update)

    new, report = recover_directory(journal, directory, 1_000.0)
    assert report.consistent
    assert report.families == ["MailServer"]
    assert report.replicas_reattached == [0, 1]
    assert new._primaries.get("MailServer") is primary
    # The rebuilt frontiers reject exactly what the originals rejected.
    replayed = Update("store", {"i": 0}, origin=0, seq=1)
    assert not new.admit(("primary", "MailServer"), replayed)
    assert not new.admit(("replica", 1), replayed)
    fresh = Update("store", {"i": 9}, origin=0, seq=99)
    assert new.admit(("replica", 1), fresh)
    # Volatile flush state was re-reported by the surviving replica.
    assert new._replicas[0].pending_units == 3


def test_recovery_skips_dead_replica_and_requeues_its_buffer():
    directory, journal = make_directory()
    directory.register_primary("MailServer", FakePrimary())
    dead = FakeHost()
    directory.register_replica("MailServer", cfg(3), dead, NeverPolicy())
    buffer(directory, 0, 2)
    dead.failed = True

    new, report = recover_directory(journal, directory, 1_000.0)
    assert report.consistent
    assert report.replicas_skipped == [0]
    assert 0 not in new._replicas
    assert new._retired_families[0] == "MailServer"
    # The dead replica's acked-but-unflushed buffer entered the lost
    # ledger for anti-entropy replay — not the void.
    assert new.has_lost_buffers
    family, batch = new._lost_buffers[0]
    assert family == "MailServer" and len(batch) == 2
    # Its id is never reused.
    entry = new.register_replica("MailServer", cfg(2), FakeHost(), NeverPolicy())
    assert entry.replica_id >= 1


def test_recovery_replays_stash_minus_reconciled():
    directory, journal = make_directory()
    primary = FakePrimary()
    directory.register_primary("MailServer", primary)
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    buffer(directory, 0, 2)
    directory.report_lost(0)  # stashes the versioned batch
    assert any(rec[0] == "stash" for rec in journal.records)

    new, report = recover_directory(journal, directory, 1_000.0)
    assert report.stash_entries == 1
    assert new.has_lost_buffers

    # Reconcile at the successor: the journal records the consumption,
    # so a *second* recovery owes nothing.
    new.reconcile(2_000.0)
    assert len(primary.applied) == 2
    assert any(rec[0] == "reconciled" for rec in journal.records)
    third, report3 = recover_directory(journal, new, 3_000.0)
    assert report3.stash_entries == 0
    assert not third.has_lost_buffers


def test_recovery_detects_unjournaled_frontier_mutation():
    directory, journal = make_directory()
    directory.register_primary("MailServer", FakePrimary())
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    # An admission that bypasses the journal: exactly the corruption the
    # cross-check exists to catch.
    directory.frontier(("primary", "MailServer")).admit(0, 7)

    _new, report = recover_directory(journal, directory, 1_000.0)
    assert not report.consistent
    assert any("primary" in line for line in report.frontier_mismatches)


def test_retired_replica_frontier_is_dropped_like_unregister():
    directory, journal = make_directory()
    directory.register_primary("MailServer", FakePrimary())
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    buffer(directory, 0, 1)
    update = directory._replicas[0].pending[0]
    directory.admit(("replica", 0), update)
    directory.unregister_replica(0)  # pops the ('replica', 0) frontier

    _new, report = recover_directory(journal, directory, 1_000.0)
    assert report.consistent  # rebuilt state mirrors the pop


def test_successor_journals_to_the_same_journal():
    directory, journal = make_directory()
    directory.register_primary("MailServer", FakePrimary())
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    new, _report = recover_directory(journal, directory, 1_000.0)
    assert new.journal is journal
    before = len(journal)
    new.register_replica("MailServer", cfg(2), FakeHost(), NeverPolicy())
    assert len(journal) == before + 1


def test_unjournaled_directory_appends_nothing():
    directory = CoherenceDirectory(
        AttributeConflictMap("sensitivity", "TrustLevel")
    )
    assert directory.journal is None
    directory.register_primary("MailServer", FakePrimary())
    directory.register_replica("MailServer", cfg(3), FakeHost(), NeverPolicy())
    buffer(directory, 0, 1)
    directory.admit(("primary", "MailServer"), directory._replicas[0].pending[0])
