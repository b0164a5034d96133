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
