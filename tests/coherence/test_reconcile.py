"""Tests for the anti-entropy primitives: version vectors, LWW, reports."""

from repro.coherence import Update
from repro.coherence.reconcile import (
    ReconcileReport,
    VersionVector,
    last_writer_wins,
)


def u(origin, seq, ts_ms=0.0, **attrs):
    return Update("store", attrs, origin=origin, seq=seq, ts_ms=ts_ms)


# -- VersionVector -----------------------------------------------------------

def test_admit_in_order_advances_frontier():
    vv = VersionVector()
    for seq in (1, 2, 3):
        assert vv.admit(7, seq)
    assert vv.frontier(7) == 3
    assert vv._tail[7] == set()  # fully folded: no sparse residue


def test_admit_rejects_duplicates():
    vv = VersionVector()
    assert vv.admit(7, 1)
    assert not vv.admit(7, 1)  # at the frontier
    assert vv.admit(7, 5)
    assert not vv.admit(7, 5)  # in the tail


def test_out_of_order_tail_folds_when_gap_closes():
    vv = VersionVector()
    vv.admit(7, 3)
    vv.admit(7, 2)
    assert vv.frontier(7) == 0  # 1 still missing
    assert vv.contains(7, 2) and vv.contains(7, 3)
    assert not vv.contains(7, 1)
    vv.admit(7, 1)  # gap closes: tail folds into the frontier
    assert vv.frontier(7) == 3
    assert vv._tail[7] == set()


def test_origins_are_independent():
    vv = VersionVector()
    vv.admit(1, 1)
    vv.admit(2, 4)
    assert vv.frontier(1) == 1
    assert vv.frontier(2) == 0  # seq 4 sits in origin-2's tail
    assert vv.contains(2, 4)
    assert not vv.contains(1, 4)


def test_delta_filters_applied_keeps_unversioned():
    vv = VersionVector()
    vv.admit(7, 1)
    legacy = Update("store", {})  # origin None: never buffered, so unstamped
    batch = [u(7, 1), u(7, 2), legacy]
    delta = vv.delta(batch)
    assert [x.seq for x in delta if x.origin is not None] == [2]
    assert legacy in delta
    assert not vv.contains(7, 2)  # delta never mutates the vector


# -- last_writer_wins --------------------------------------------------------

def test_lww_later_timestamp_wins():
    assert last_writer_wins(u(1, 1, ts_ms=200.0), 100.0, (2, 9))
    assert not last_writer_wins(u(1, 1, ts_ms=100.0), 200.0, (2, 9))


def test_lww_tie_breaks_on_version():
    assert last_writer_wins(u(3, 5, ts_ms=100.0), 100.0, (2, 9))  # (3,5) > (2,9)
    assert not last_writer_wins(u(2, 5, ts_ms=100.0), 100.0, (2, 9))


def test_lww_unversioned_semantics_at_tie():
    legacy = Update("store", {}, ts_ms=100.0)
    # An unstamped incoming write wins a tie.
    assert last_writer_wins(legacy, 100.0, (2, 9))
    # A stamped incoming write yields to an unstamped incumbent at a tie.
    assert not last_writer_wins(u(1, 1, ts_ms=100.0), 100.0, None)


# -- ReconcileReport ---------------------------------------------------------

def test_report_note_counts_outcomes():
    report = ReconcileReport(family="MailServer", replica_id=3, recovered=4)
    for outcome in ("applied", "applied", "duplicate", "conflict"):
        report.note(outcome)
    assert report.outcomes == {"applied": 2, "duplicate": 1, "conflict": 1}
