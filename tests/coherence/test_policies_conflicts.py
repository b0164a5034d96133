"""Tests for flush policies and conflict maps."""

import pytest

from repro.coherence import (
    AttributeConflictMap,
    ConflictMap,
    CountPolicy,
    NeverPolicy,
    TimePolicy,
    Update,
    WriteThroughPolicy,
    policy_from_name,
)


def test_never_policy():
    p = NeverPolicy()
    assert not p.should_flush(10**6, 0.0, 0.0)


def test_count_policy_threshold():
    p = CountPolicy(500)
    assert not p.should_flush(499, 0.0, 0.0)
    assert p.should_flush(500, 0.0, 0.0)
    assert p.should_flush(501, 0.0, 0.0)


def test_count_policy_validation():
    with pytest.raises(ValueError):
        CountPolicy(0)


def test_time_policy():
    p = TimePolicy(1000.0)
    assert not p.should_flush(5, 500.0, 0.0)
    assert p.should_flush(5, 1000.0, 0.0)
    assert not p.should_flush(0, 5000.0, 0.0)  # clean replica never flushes
    with pytest.raises(ValueError):
        TimePolicy(0)


def test_time_policy_rejects_nan_interval():
    """``--flush-policy time:nan`` used to build a policy that never flushed."""
    with pytest.raises(ValueError):
        policy_from_name("time:nan")


def test_write_through_policy():
    p = WriteThroughPolicy()
    assert p.should_flush(1, 0.0, 0.0)
    assert not p.should_flush(0, 0.0, 0.0)


def test_policy_from_name():
    assert isinstance(policy_from_name("never"), NeverPolicy)
    assert isinstance(policy_from_name("write_through"), WriteThroughPolicy)
    assert policy_from_name("count:500").limit == 500
    assert policy_from_name("time:250").interval_ms == 250.0
    with pytest.raises(ValueError):
        policy_from_name("gibberish")


def test_conflict_map_defaults_to_conflict():
    cm = ConflictMap()
    u = Update("anything", {"x": 1})
    assert cm.conflicts(u, ("V", ()))


def test_conflict_map_custom_predicate():
    cm = ConflictMap()
    cm.register("store", lambda u, cfg: u.attr("level", 0) <= 2)
    assert cm.conflicts(Update("store", {"level": 1}), ("V", ()))
    assert not cm.conflicts(Update("store", {"level": 3}), ("V", ()))
    # other ops fall back to the default (conflict)
    assert cm.conflicts(Update("delete", {"level": 3}), ("V", ()))


def test_conflict_map_is_dynamic():
    cm = ConflictMap()
    cm.register("store", lambda u, cfg: True)
    assert cm.conflicts(Update("store"), ("V", ()))
    cm.register("store", lambda u, cfg: False)  # replaced at run time
    assert not cm.conflicts(Update("store"), ("V", ()))


def test_attribute_conflict_map_mail_rule():
    cm = AttributeConflictMap("sensitivity", "TrustLevel")
    low_view = ("ViewMailServer", (("TrustLevel", 2),))
    high_view = ("ViewMailServer", (("TrustLevel", 5),))
    secret = Update("store_message", {"sensitivity": 4, "recipient": "Alice"})
    public = Update("store_message", {"sensitivity": 1, "recipient": "Alice"})
    assert not cm.conflicts(secret, low_view)  # never stored there
    assert cm.conflicts(secret, high_view)
    assert cm.conflicts(public, low_view)


def test_attribute_conflict_map_missing_data_is_conservative():
    cm = AttributeConflictMap("sensitivity", "TrustLevel")
    assert cm.conflicts(Update("store_message", {}), ("V", (("TrustLevel", 2),)))
    assert cm.conflicts(Update("store_message", {"sensitivity": 5}), ("V", ()))


def test_update_multiplicity_default():
    u = Update("store")
    assert u.multiplicity == 1
    assert u.attr("missing") is None
