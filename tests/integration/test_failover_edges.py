"""Edge cases of the replanning loop under failures."""

import pytest

from repro.experiments.mail_setup import build_mail_testbed
from repro.network.monitor import ChangeEvent, NetworkMonitor
from repro.smock.replanner import ReplanManager


@pytest.fixture()
def world():
    tb = build_mail_testbed(clients_per_site=2, flush_policy="count:500",
                            algorithm="exhaustive")
    rt = tb.runtime
    monitor = NetworkMonitor(rt.sim, rt.network, poll_interval_ms=1000.0)
    manager = ReplanManager(rt, monitor)
    proxy = rt.run(rt.client_connect("sandiego-client1", {"User": "Bob"}))
    manager.track_access(proxy, rt.generic_server.accesses[-1])
    return tb, rt, monitor, manager, proxy


def test_vanished_client_node_is_a_failure_not_a_crash(world):
    tb, rt, monitor, manager, proxy = world
    # The client's own host disappears: planning for that binding cannot
    # succeed, but the round must survive and say so.
    rt.network.set_node_up("sandiego-client1", False)
    event = rt.run(manager.replan_all(trigger=None))
    assert event.failures == ["sandiego-client1"]
    assert not event.rebound
    # Its on-host instance was reconciled away in the same round.
    assert any("MailClient" in label for label in event.reconciled)


def test_replan_during_replan_defers_and_reruns(world, monkeypatch):
    tb, rt, monitor, manager, proxy = world
    sim = rt.sim

    orig_execute = rt.deployer.execute

    def slow_execute(plan, bundle):
        yield sim.timeout(500.0)  # hold the round open mid-deploy
        record = yield from orig_execute(plan, bundle)
        return record

    monkeypatch.setattr(rt.deployer, "execute", slow_execute)

    # A structural change so the first round actually deploys: the WAN
    # link turning secure retires the crypto pair.
    monitor.perturb_link("newyork-gw", "sandiego-gw", secure=True)
    ev1 = ChangeEvent(time_ms=sim.now, kind="link",
                      subject="newyork-gw<->sandiego-gw",
                      attribute="secure", old=False, new=True)
    ev2 = ChangeEvent(time_ms=sim.now + 100.0, kind="node",
                      subject="sandiego-gw", attribute="cpu_capacity",
                      old=1000.0, new=900.0)

    sim.process(manager.replan_all(trigger=ev1), name="round-1")
    sim.call_at(sim.now + 100.0,
                lambda: sim.process(manager.replan_all(trigger=ev2),
                                    name="round-2"))
    sim.run(until=sim.now + 60_000.0)

    assert not manager.busy
    deferred = [e for e in manager.events if e.deferred]
    assert len(deferred) == 1 and deferred[0].trigger is ev2
    # The late trigger was not lost: a rerun round ran it to completion
    # after the first round finished — no interleaving.
    real = [e for e in manager.events if not e.deferred]
    assert [e.trigger for e in real] == [ev1, ev2]
    assert real[1].time_ms >= real[0].time_ms + 500.0
    # First round did the structural work; the rerun found nothing new.
    assert any("Encryptor" in label for label in real[0].retired)
    assert not real[1].rebound and not real[1].retired
