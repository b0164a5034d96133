"""Regression tests: change coalescing and external-report dedup."""

from repro.network import Network
from repro.network.monitor import ChangeEvent, NetworkMonitor
from repro.sim import Simulator


def tiny_network():
    net = Network()
    net.add_node("a", cpu_capacity=1000)
    net.add_node("b", cpu_capacity=1000)
    net.add_link("a", "b", latency_ms=100, bandwidth_mbps=10)
    return net


def make_monitor():
    return NetworkMonitor(Simulator(), tiny_network(), poll_interval_ms=1000.0)


def ev(attr, old, new, subject="a<->b", kind="link", t=0.0):
    return ChangeEvent(time_ms=t, kind=kind, subject=subject,
                       attribute=attr, old=old, new=new)


def test_coalesce_merges_duplicates_keeping_first_old_last_new():
    merged = NetworkMonitor._coalesce([
        ev("latency_ms", 100.0, 500.0),
        ev("latency_ms", 500.0, 300.0, t=1.0),
    ])
    assert len(merged) == 1
    assert (merged[0].old, merged[0].new) == (100.0, 300.0)


def test_coalesce_drops_round_trip_noop():
    merged = NetworkMonitor._coalesce([
        ev("secure", False, True),
        ev("secure", True, False, t=1.0),
    ])
    assert merged == []


def test_coalesce_keeps_distinct_attributes_apart():
    merged = NetworkMonitor._coalesce([
        ev("latency_ms", 100.0, 200.0),
        ev("bandwidth_mbps", 10.0, 5.0),
    ])
    assert len(merged) == 2


def test_poll_round_trip_perturbation_is_silent():
    monitor = make_monitor()
    seen = []
    monitor.subscribe(seen.append)
    monitor.perturb_link("a", "b", latency_ms=500.0)
    monitor.perturb_link("a", "b", latency_ms=100.0)  # reverted pre-poll
    assert monitor.poll() == []
    assert seen == []
    assert monitor.history == []


def test_link_up_transitions_are_polled():
    monitor = make_monitor()
    monitor.network.set_link_up("a", "b", False)
    (change,) = monitor.poll()
    assert (change.kind, change.attribute, change.new) == ("link", "up", False)


def test_report_folds_into_snapshot_and_dedupes():
    monitor = make_monitor()
    seen = []
    monitor.subscribe(seen.append)
    # Belief flipped by an external channel (a failure detector)...
    monitor.network.set_node_up("b", False)
    down = ev("up", True, False, subject="b", kind="node")
    monitor.report(down)
    assert seen == [down]
    # ...re-reporting the same fact is suppressed,
    monitor.report(down)
    assert seen == [down]
    # and a subsequent poll does not re-observe it either.
    assert all(
        not (c.kind == "node" and c.attribute == "up") for c in monitor.poll()
    )
    assert len(seen) == 1


def test_reported_facts_outlive_a_poll():
    """A poll refreshes what it observes and keeps what ``report``
    folded in: the same lease lapse reported on both sides of a poll
    is dispatched once, not once per polling round."""
    monitor = make_monitor()
    seen = []
    monitor.subscribe(seen.append)
    lapse = ev("lease", True, False, subject="mail", kind="service")
    monitor.report(lapse)
    assert monitor.poll() == []
    monitor.report(lapse)
    assert seen == [lapse]
    renewed = ev("lease", False, True, subject="mail", kind="service")
    monitor.report(renewed)
    assert seen == [lapse, renewed]
