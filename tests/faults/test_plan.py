"""Tests for the declarative fault-plan model and its CLI syntax."""

import pytest

from repro.faults import FaultAction, FaultKind, FaultPlan, FaultPlanError


def test_parse_crash_and_restart():
    plan = FaultPlan.parse(["crash:sandiego-gw@2000", "restart:sandiego-gw@6000"])
    assert len(plan) == 2
    crash, restart = plan.sorted_actions()
    assert crash.kind == FaultKind.CRASH
    assert crash.node == "sandiego-gw"
    assert crash.at_ms == 2000.0
    assert restart.kind == FaultKind.RESTART
    assert restart.at_ms == 6000.0


def test_parse_partition_and_heal():
    plan = FaultPlan.parse(
        ["partition:newyork-gw/newyork-ms@1000", "heal:newyork-gw/newyork-ms@4000"]
    )
    part, heal = plan.sorted_actions()
    assert part.link == ("newyork-gw", "newyork-ms")
    assert part.subject == "newyork-gw<->newyork-ms"
    assert heal.kind == FaultKind.HEAL


def test_parse_drop_window():
    (action,) = FaultPlan.parse(["drop:a/b:0.3@1000-5000"]).actions
    assert action.kind == FaultKind.DROP
    assert action.link == ("a", "b")
    assert action.magnitude == pytest.approx(0.3)
    assert (action.at_ms, action.until_ms) == (1000.0, 5000.0)


def test_parse_delay_window():
    (action,) = FaultPlan.parse(["delay:a/b:25@1000-5000"]).actions
    assert action.kind == FaultKind.DELAY
    assert action.magnitude == 25.0


def test_describe_round_trips_the_syntax():
    specs = ["crash:n1@100", "drop:a/b:0.5@200-300"]
    plan = FaultPlan.parse(specs)
    assert plan.describe() == specs


def test_sorted_actions_orders_by_time():
    plan = FaultPlan.parse(["restart:n@500", "crash:n@100"])
    assert [a.at_ms for a in plan.sorted_actions()] == [100.0, 500.0]


@pytest.mark.parametrize(
    "spec",
    [
        "crash:n1",  # missing @time
        "crash:n1@soon",  # bad time
        "frobnicate:n1@100",  # unknown kind
        "partition:n1@100",  # missing A/B
        "drop:a/b:1.5@100-200",  # probability out of range
        "drop:a/b:0.5@200-100",  # inverted window
        "drop:a/b:0.5@100",  # missing window
        "delay:a/b:-5@100-200",  # negative delay
        "drop:a/b:lots@100-200",  # bad magnitude
        "crash:n1:extra@100",  # trailing field
    ],
)
def test_malformed_specs_raise(spec):
    with pytest.raises(FaultPlanError):
        FaultPlan.parse([spec])


@pytest.mark.parametrize(
    "spec",
    [
        "crash:n1@nan",  # would schedule at NaN and crash the kernel
        "drop:a/b:0.5@nan-2000",
        "drop:a/b:0.5@1000-nan",
        "delay:a/b:nan@1000-2000",
        "reorder:a/b:nan@1000-2000",
    ],
)
def test_nan_times_and_magnitudes_raise(spec):
    with pytest.raises(FaultPlanError):
        FaultPlan.parse([spec])


def test_action_validation_direct_construction():
    with pytest.raises(FaultPlanError):
        FaultAction(kind=FaultKind.CRASH, at_ms=0.0)  # no node
    with pytest.raises(FaultPlanError):
        FaultAction(kind=FaultKind.PARTITION, at_ms=0.0)  # no link
    with pytest.raises(FaultPlanError):
        FaultAction(kind="nope", at_ms=0.0, node="n")


# -- message-fault and split syntax ------------------------------------------

def test_parse_duplicate_window():
    (action,) = FaultPlan.parse(["duplicate:a/b:0.2@1000-5000"]).actions
    assert action.kind == FaultKind.DUPLICATE
    assert action.link == ("a", "b")
    assert action.magnitude == pytest.approx(0.2)
    assert (action.at_ms, action.until_ms) == (1000.0, 5000.0)


def test_parse_reorder_window():
    (action,) = FaultPlan.parse(["reorder:a/b:40@1000-5000"]).actions
    assert action.kind == FaultKind.REORDER
    assert action.magnitude == 40.0


def test_parse_corrupt_window():
    (action,) = FaultPlan.parse(["corrupt:a/b:0.1@1000-5000"]).actions
    assert action.kind == FaultKind.CORRUPT
    assert action.magnitude == pytest.approx(0.1)


def test_parse_split_groups():
    (action,) = FaultPlan.parse(["split:gw1,ms1|gw2,gw3@1000-6000"]).actions
    assert action.kind == FaultKind.SPLIT
    assert action.groups == (("gw1", "ms1"), ("gw2", "gw3"))
    assert action.subject == "gw1,ms1|gw2,gw3"
    assert (action.at_ms, action.until_ms) == (1000.0, 6000.0)


def test_new_kinds_round_trip_describe():
    specs = [
        "duplicate:a/b:0.2@1000-5000",
        "reorder:a/b:40@1000-5000",
        "corrupt:a/b:0.1@2000-3000",
        "split:g1,m1|g2@1000-6000",
    ]
    # sorted_actions is stable for equal times; corrupt starts later.
    plan = FaultPlan.parse(specs)
    assert sorted(plan.describe()) == sorted(specs)


@pytest.mark.parametrize(
    "spec",
    [
        "duplicate:a/b:1.5@100-200",  # probability out of range
        "corrupt:a/b:-0.1@100-200",  # negative probability
        "reorder:a/b:-5@100-200",  # negative hold-back
        "duplicate:a/b:0.2@100",  # missing window
        "split:a,b@100-200",  # single group
        "split:a,b|@100-200",  # empty group
        "split:a,b|b,c@100-200",  # node in two groups
        "split:a,b|c@100",  # missing window
    ],
)
def test_malformed_new_kind_specs_raise(spec):
    with pytest.raises(FaultPlanError):
        FaultPlan.parse([spec])


# -- plan validation ----------------------------------------------------------

def test_validate_accepts_clean_plan_and_chains():
    plan = FaultPlan.parse(
        ["crash:n@100", "restart:n@500", "drop:a/b:0.5@100-200",
         "drop:a/b:0.5@200-300"]  # back-to-back windows touch, don't overlap
    )
    assert plan.validate() is plan


def test_validate_rejects_overlapping_same_subject_windows():
    plan = FaultPlan.parse(
        ["drop:a/b:0.5@100-300", "drop:a/b:0.2@200-400"]
    )
    with pytest.raises(FaultPlanError, match="overlaps"):
        plan.validate()


def test_validate_allows_different_kinds_to_overlap():
    plan = FaultPlan.parse(
        ["drop:a/b:0.5@100-300", "delay:a/b:25@200-400"]
    )
    plan.validate()


def test_validate_allows_same_kind_on_different_subjects():
    plan = FaultPlan.parse(
        ["drop:a/b:0.5@100-300", "drop:b/c:0.5@200-400"]
    )
    plan.validate()


def test_validate_rejects_duplicate_actions():
    plan = FaultPlan.parse(["crash:n@100", "crash:n@100"])
    with pytest.raises(FaultPlanError, match="duplicate action"):
        plan.validate()


def test_validate_rejects_negative_timestamps():
    # parse_action rejects these at construction; build directly.
    for bad in (-5.0, float("nan")):
        plan = FaultPlan()
        action = FaultAction(kind=FaultKind.CRASH, at_ms=100.0, node="n")
        object.__setattr__(action, "at_ms", bad)  # corrupt a frozen field
        plan.add(action)
        with pytest.raises(FaultPlanError, match="negative or NaN timestamp"):
            plan.validate()
