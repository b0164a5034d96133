"""Tests for the Remos-style network monitor."""

import pytest

from repro.network import Network, NetworkMonitor
from repro.sim import Simulator


@pytest.fixture()
def world():
    sim = Simulator()
    net = Network()
    net.add_node("a", cpu_capacity=1000, credentials={"trust_level": 3})
    net.add_node("b", cpu_capacity=2000)
    net.add_link("a", "b", latency_ms=10, bandwidth_mbps=100, secure=True)
    return sim, net, NetworkMonitor(sim, net, poll_interval_ms=100.0)


def test_poll_detects_link_change(world):
    sim, net, mon = world
    mon.perturb_link("a", "b", latency_ms=50.0, secure=False)
    changes = mon.poll()
    attrs = {c.attribute for c in changes}
    assert attrs == {"latency_ms", "secure"}
    assert all(c.kind == "link" and c.subject == "a<->b" for c in changes)


def test_poll_detects_node_change(world):
    sim, net, mon = world
    mon.perturb_node("a", cpu_capacity=500.0, credentials={"trust_level": 1})
    changes = {c.attribute: (c.old, c.new) for c in mon.poll()}
    assert changes["cpu_capacity"] == (1000, 500.0)
    assert changes["credential:trust_level"] == (3, 1)


def test_no_change_no_events(world):
    sim, net, mon = world
    assert mon.poll() == []
    assert mon.history == []


def test_subscribers_notified_once_per_change(world):
    sim, net, mon = world
    seen = []
    mon.subscribe(seen.append)
    mon.perturb_link("a", "b", latency_ms=99.0)
    mon.poll()
    mon.poll()  # no further change
    assert len(seen) == 1


def test_polling_loop_runs_on_interval(world):
    sim, net, mon = world
    mon.start()
    mon.schedule_perturbation(250.0, lambda: mon.perturb_link("a", "b", latency_ms=1.0))
    sim.run(until=299.0)
    assert not mon.history  # change at 250 observed at the t=300 poll
    sim.run(until=301.0)
    assert len(mon.history) == 1
    assert mon.history[0].time_ms == 300.0
    mon.stop()


def test_start_is_idempotent(world):
    sim, net, mon = world
    mon.start()
    mon.start()
    mon.perturb_link("a", "b", latency_ms=2.0)
    sim.run(until=150.0)
    assert len(mon.history) == 1  # not double-reported
    mon.stop()


def test_perturbation_touches_network_version(world):
    sim, net, mon = world
    v = net.version
    mon.perturb_node("a", cpu_capacity=1.0)
    assert net.version > v


def test_bad_interval_rejected(world):
    sim, net, _ = world
    with pytest.raises(ValueError):
        NetworkMonitor(sim, net, poll_interval_ms=0)


def test_nan_interval_rejected(world):
    sim, net, _ = world
    with pytest.raises(ValueError):
        NetworkMonitor(sim, net, poll_interval_ms=float("nan"))


def _count_scans(monkeypatch, net):
    """Count the polls that walk the links (a scan reads them first)."""
    scans = []
    links = net.links

    def counted():
        scans.append(None)
        return links()

    monkeypatch.setattr(net, "links", counted)
    return scans


def test_an_unchanged_network_is_not_rescanned(world, monkeypatch):
    sim, net, mon = world
    scans = _count_scans(monkeypatch, net)
    for _ in range(3):
        assert mon.poll() == []
    assert not scans
    # A change nobody polls (believed node liveness) still moves the
    # version: one scan, no event, and quiet again after it.
    net.set_node_up("b", False)
    assert mon.poll() == [] and len(scans) == 1
    assert mon.poll() == [] and len(scans) == 1


def _direct_write_then_touch(net, mon):
    net.node("b").credentials["trust_level"] = 2
    net.touch()
    return ("node", "b", "credential:trust_level", None, 2)


def _partition(net, mon):
    net.set_link_up("a", "b", False)
    return ("link", "a<->b", "up", True, False)


def _perturb_link(net, mon):
    mon.perturb_link("a", "b", bandwidth_mbps=5.0)
    return ("link", "a<->b", "bandwidth_mbps", 100, 5.0)


def _perturb_node(net, mon):
    mon.perturb_node("a", cpu_capacity=10.0)
    return ("node", "a", "cpu_capacity", 1000, 10.0)


def _add_node(net, mon):
    net.add_node("c", cpu_capacity=7.0)
    return ("node", "c", "cpu_capacity", None, 7.0)


@pytest.mark.parametrize(
    "change", [_direct_write_then_touch, _partition, _perturb_link, _perturb_node, _add_node]
)
def test_every_api_change_is_reported_at_the_next_poll(world, change):
    sim, net, mon = world
    assert mon.poll() == []  # idle: skipped
    expected = change(net, mon)
    changes = mon.poll()
    assert [(c.kind, c.subject, c.attribute, c.old, c.new) for c in changes] == [expected]
    assert mon.poll() == []
