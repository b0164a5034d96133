"""Chaos integration tests: crash + failover through the whole stack.

The acceptance scenario for the fault subsystem: crash the node hosting
a deployed view mid-workload, and show that (a) in-flight requests
eventually succeed via client retry + failover replanning, (b) no
update is double-applied despite retries, and (c) the recovery loop
records its latency metrics end to end.
"""

import pytest

from repro.experiments.mail_setup import build_mail_testbed
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observability, use_obs
from repro.services.mail import WorkloadConfig, mail_workload
from repro.smock import RetryPolicy


@pytest.fixture()
def obs():
    ob = Observability(tracing=False, metrics=True)
    with use_obs(ob):
        yield ob


def make_world():
    tb = build_mail_testbed(clients_per_site=2, flush_policy="count:500",
                            algorithm="exhaustive")
    rt = tb.runtime
    replanner = rt.enable_self_healing(heartbeat_interval_ms=250.0,
                                       miss_threshold=3)
    proxy = rt.run(rt.client_connect("sandiego-client1", {"User": "Bob"}))
    proxy.retry_policy = RetryPolicy(timeout_ms=3000.0, max_retries=15, seed=1)
    replanner.track_access(proxy, rt.generic_server.accesses[-1])
    return tb, rt, replanner, proxy


@pytest.fixture()
def world(obs):
    return make_world()


def test_crash_and_restart_of_view_host_mid_workload(obs, world):
    tb, rt, replanner, proxy = world
    t0 = rt.sim.now
    # sandiego-gw hosts the client's ViewMailServer + Encryptor and is
    # sandiego-client1's only route out: a full site outage.
    injector = FaultInjector(rt, FaultPlan.parse(
        [f"crash:sandiego-gw@{t0 + 1000.0}",
         f"restart:sandiego-gw@{t0 + 20000.0}"], seed=3))
    injector.schedule()

    cfg = WorkloadConfig(user="Bob", peers=["Alice"], n_sends=60,
                         n_receives=5, cluster_size=10, max_sensitivity=3)
    proc = rt.sim.process(mail_workload(proxy, cfg), name="workload:Bob")
    rt.sim.run(until=t0 + 400_000.0)
    rt.failure_detector.stop()
    rt.monitor.stop()

    assert proc.triggered, "workload did not finish"
    if proc.failed:
        raise proc.value
    result = proc.value

    # (a) every in-flight request succeeded.  The fetch caught mid-crash is served *degraded* from the view's
    # local store instead of bouncing back for a client retry.
    assert result.errors == []
    assert proxy.retries > 0 or rt.coherence.stats.degraded_reads >= 1

    # The failure was detected, the binding reconciled, and — once the
    # host returned — replanned onto a freshly installed chain.
    assert any(e.reconciled for e in replanner.events)
    recovery = [e for e in replanner.events
                if "sandiego-client1" in e.rebound]
    assert recovery, "client binding was never rebound"
    assert all(key in rt.instances
               for key in (p.key for p in replanner.bindings[0].plan.placements))

    # (b) no double-apply: every send is either at the primary or an
    # accounted lost update from the crashed view's dirty buffer.
    # Anti-entropy replays the stashed buffer at the primary, so the
    # "lost" count nets back out of the ledger as updates are recovered.
    primary = rt.instance_of("MailServer")
    stats = rt.coherence.stats
    assert primary.store.messages_stored + stats.lost_updates == cfg.n_sends
    assert primary.duplicates_suppressed == 0
    assert stats.recovered_updates > 0
    assert stats.lost_updates == 0

    # (c) the loop's latency metrics recorded.
    snapshot = obs.metrics.snapshot()
    assert snapshot["histograms"]["failover.recovery_ms"]["count"] >= 1
    assert snapshot["histograms"]["faults.detection_ms"]["count"] >= 1
    assert any(k.startswith("faults.failures_detected") and "sandiego-gw" in k
               for k in snapshot["counters"])


def test_detection_only_losses_are_accounted_not_masked(obs):
    """Crash with no restart: the client site stays dark and the
    failover round reports the binding unservable instead of masking
    the outage."""
    tb, rt, replanner, proxy = make_world()
    t0 = rt.sim.now
    injector = FaultInjector(rt)
    rt.sim.call_at(t0 + 1000.0, lambda: injector.crash_node("sandiego-gw"))
    cfg = WorkloadConfig(user="Bob", peers=["Alice"], n_sends=30,
                         n_receives=0, cluster_size=10, max_sensitivity=3)
    proc = rt.sim.process(mail_workload(proxy, cfg), name="workload:Bob")
    rt.sim.run(until=t0 + 120_000.0)
    rt.failure_detector.stop()
    rt.monitor.stop()

    assert any(e.reconciled for e in replanner.events)
    assert any("sandiego-client1" in e.failures for e in replanner.events)
    counters = obs.metrics.snapshot()["counters"]
    assert counters.get("failover.unservable_clients", 0) >= 1


def test_versioned_coherence_recovers_lost_buffers(obs, world):
    """Same crash-only scenario, seen from the coherence ledger: the dirty
    buffer stashed by ``report_lost`` is replayed at the primary by the
    replanner's anti-entropy pass, so no acked send is lost."""
    tb, rt, replanner, proxy = world
    t0 = rt.sim.now
    injector = FaultInjector(rt)
    rt.sim.call_at(t0 + 1000.0, lambda: injector.crash_node("sandiego-gw"))
    cfg = WorkloadConfig(user="Bob", peers=["Alice"], n_sends=30,
                         n_receives=0, cluster_size=10, max_sensitivity=3)
    proc = rt.sim.process(mail_workload(proxy, cfg), name="workload:Bob")
    rt.sim.run(until=t0 + 120_000.0)
    rt.failure_detector.stop()
    rt.monitor.stop()

    assert proc.triggered and not proc.failed
    assert proc.value.errors == []
    stats = rt.coherence.stats
    primary = rt.instance_of("MailServer")
    # Every acked send reached the primary: the crash lost the view's
    # dirty buffer, anti-entropy replayed it, and the ledger nets to 0.
    assert stats.recovered_updates > 0
    assert stats.lost_updates == 0
    assert primary.store.messages_stored == cfg.n_sends
    assert primary.duplicates_suppressed == 0
    counters = obs.metrics.snapshot()["counters"]
    assert sum(v for k, v in counters.items()
               if k.startswith("coherence.reconcile.recovered")) > 0
