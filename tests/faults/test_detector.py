"""Tests for heartbeat-based failure detection."""

import pytest

from repro.faults import FailureDetector, FailureEvent, FaultInjector
from repro.network.monitor import ChangeEvent, NetworkMonitor


@pytest.fixture()
def detected(world):
    monitor = NetworkMonitor(world.sim, world.network, poll_interval_ms=1000.0)
    detector = FailureDetector(world, monitor, interval_ms=100.0, miss_threshold=2)
    return monitor, detector


def node_events(monitor):
    return [e for e in monitor.history if e.kind == "node" and e.attribute == "up"]


def test_quiet_network_no_detections(world, detected):
    monitor, detector = detected
    detector.start()
    world.sim.run(until=5_000.0)
    detector.stop()
    assert node_events(monitor) == []
    assert world.network.node("b").up and world.network.node("c").up


def test_crash_is_detected_within_latency_bound(world, detected):
    monitor, detector = detected
    detector.start()
    injector = FaultInjector(world)
    world.sim.call_at(1_000.0, lambda: injector.crash_node("c"))
    world.sim.run(until=10_000.0)
    detector.stop()

    assert not world.network.node("c").up  # belief updated
    events = node_events(monitor)
    assert [e.subject for e in events] == ["c"]
    event = events[0]
    assert isinstance(event, FailureEvent)
    assert event.new is False
    # Detection lag is bounded by miss_threshold rounds of
    # (interval + ping timeout); the c ping budget here is the 230 ms
    # RTT-derived value, so the bound is 2 × (100 + 230) = 660 ms.
    assert 0.0 < event.detection_ms <= 2 * (100.0 + 230.0) + 1.0
    assert detector.failures_detected == 1

    hist = world.obs.metrics.snapshot()["histograms"]
    assert hist["faults.detection_ms"]["count"] == 1


def test_crash_behind_dead_hop_detected_too(world, detected):
    monitor, detector = detected
    detector.start()
    injector = FaultInjector(world)
    world.sim.call_at(1_000.0, lambda: injector.crash_node("b"))
    world.sim.run(until=10_000.0)
    detector.stop()
    # b is dead and c is unreachable behind it: both declared down.
    assert {e.subject for e in node_events(monitor)} == {"b", "c"}
    assert not world.network.node("b").up
    assert not world.network.node("c").up


def test_recovery_is_detected(world, detected):
    monitor, detector = detected
    detector.start()
    injector = FaultInjector(world)
    world.sim.call_at(1_000.0, lambda: injector.crash_node("c"))
    world.sim.call_at(5_000.0, lambda: injector.restart_node("c"))
    world.sim.run(until=15_000.0)
    detector.stop()

    assert world.network.node("c").up
    transitions = [(e.subject, e.new) for e in node_events(monitor)]
    assert transitions == [("c", False), ("c", True)]
    assert detector.recoveries_detected == 1
    counters = world.obs.metrics.snapshot()["counters"]
    assert counters["faults.recoveries_detected{node=c}"] == 1


def test_duplicate_observations_are_suppressed(world, detected):
    monitor, detector = detected
    detector.start()
    FaultInjector(world).crash_node("c")
    world.sim.run(until=5_000.0)
    detector.stop()
    # Many missed rounds, exactly one FailureEvent: the monitor snapshot
    # already records the belief, so re-reports are dropped.
    assert len(node_events(monitor)) == 1
    monitor.report(
        ChangeEvent(
            time_ms=world.sim.now, kind="node", subject="c",
            attribute="up", old=True, new=False,
        )
    )
    assert len(node_events(monitor)) == 1


def test_nan_interval_rejected(world, detected):
    monitor, _ = detected
    with pytest.raises(ValueError):
        FailureDetector(world, monitor, interval_ms=float("nan"))


def test_constructor_validation(world, detected):
    monitor, _ = detected
    with pytest.raises(ValueError):
        FailureDetector(world, monitor, interval_ms=0.0)
    with pytest.raises(ValueError):
        FailureDetector(world, monitor, miss_threshold=0)


def test_ping_timeouts_are_recomputed_after_a_flip(world, detected, monkeypatch):
    """Timeouts are kept per structure epoch: a round in an unchanged
    network resolves no route, and a flip that moves the route to c
    moves c's timeout at the next round."""
    monitor, detector = detected
    net = world.network
    resolved = []
    path = net.path

    def counted(src, dst):
        resolved.append((src, dst))
        return path(src, dst)

    monkeypatch.setattr(net, "path", counted)
    assert detector._timeout_for("c") == 3.0 * 2.0 * 30.0 + 50.0  # a -> b -> c
    assert detector._timeout_for("c") == 230.0
    assert resolved == [("a", "c")]
    # A reservation moves the version but no route: still kept.
    net.touch_reservations()
    assert detector._timeout_for("c") == 230.0 and len(resolved) == 1

    net.set_link_up("b", "c", False)  # no believed route: fail fast
    assert detector._timeout_for("c") == detector.interval_ms
    net.add_link("a", "c", latency_ms=15.0)  # a new, shorter route
    net.set_link_up("b", "c", True)
    assert detector._timeout_for("c") == 3.0 * 2.0 * 15.0 + 50.0
    assert resolved == [("a", "c")] * 3
