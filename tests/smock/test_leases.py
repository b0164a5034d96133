"""Lease lifecycle, re-registration renewal, and lookup failover.

Satellite coverage for the control-plane availability work: lease
expiry purges registrations, renewals are clock-skew safe, an expired
service raises :class:`LookupError`, a dead service's lapsed lease
triggers a replan round even with the heartbeat detector stopped, and
client lookups fail over to a surviving replica when the lookup
primary's host dies.
"""

import logging

import pytest

from repro.experiments.mail_setup import build_mail_testbed
from repro.smock import (
    Lease,
    LeaseConfig,
    LookupError,
    LookupService,
)

LOOKUP_HOSTS = ["sandiego-gw", "seattle-gw"]


def leased_testbed(duration_ms=2_000.0, **kwargs):
    return build_mail_testbed(
        clients_per_site=2,
        flush_policy="count:500",
        lookup_hosts=list(LOOKUP_HOSTS),
        lookup_leases=LeaseConfig(duration_ms=duration_ms),
        **kwargs,
    )


# -- Lease / LeaseConfig units ------------------------------------------------

def test_lease_grant_expire_and_renew():
    lease = Lease.grant(0.0, 1_000.0)
    assert not lease.expired(999.0)
    assert lease.expired(1_000.0)
    lease.renew(500.0)
    assert lease.expires_at_ms == 1_500.0
    assert lease.renewals == 1


def test_lease_renewal_is_skew_safe():
    """A renewal arriving 'from the past' never shortens the lease."""
    lease = Lease.grant(0.0, 1_000.0)
    lease.renew(500.0)  # expires 1500
    lease.renew(100.0)  # skewed heartbeat: must not pull expiry back
    assert lease.expires_at_ms == 1_500.0
    assert lease.renewed_at_ms == 500.0


def test_lease_config_coerce():
    assert LeaseConfig.coerce(False) is None
    assert LeaseConfig.coerce(None) is None
    cfg = LeaseConfig(duration_ms=9_000.0)
    assert LeaseConfig.coerce(cfg) is cfg
    with pytest.raises(TypeError):
        LeaseConfig.coerce("soon")
    with pytest.raises(ValueError):
        LeaseConfig(duration_ms=0.0)


def test_lease_config_rejects_nan_duration():
    """NaN passes ``<= 0``; it used to yield a NaN duration and a NaN
    renewal interval."""
    with pytest.raises(ValueError, match="duration_ms"):
        LeaseConfig(duration_ms=float("nan"))


# -- re-registration is renewal, not clobbering (satellite 1) ----------------

def test_reregistration_renews_in_place_and_counts(runtime, caplog):
    original = runtime.lookup.replicas[0].resolve(name="mail")
    with caplog.at_level(logging.WARNING, logger="repro.smock.lookup"):
        again = runtime.lookup.register("mail", {"replaced": True})
    assert again is original  # live proxies keep a valid reference
    assert original.attributes == {"replaced": True}
    assert runtime.lookup.reregistrations == 1
    assert any(
        "re-registration" in rec.message for rec in caplog.records
    )


# -- lease expiry through the full runtime -----------------------------------

def test_dead_home_lease_expires_and_lookup_raises():
    testbed = leased_testbed()
    runtime = testbed.runtime
    sim = runtime.sim
    client = testbed.client_nodes("seattle")[0]

    # Healthy: renewals flow, lookups resolve through the primary.
    sim.run(until=sim.now + 3_000.0)
    proxy = runtime.run(runtime.lookup.lookup(client, name="mail"))
    assert proxy is not None

    # The service's home stops renewing; both replicas witness the
    # silence and purge after the lease duration.
    runtime.transport.node(runtime.server_node).crash()
    sim.run(until=sim.now + 3 * 2_000.0)
    for replica in runtime.lookup.replicas:
        assert "mail" not in replica._registry
    with pytest.raises(LookupError):
        runtime.run(runtime.lookup.lookup(client, name="mail"))
    runtime.lookup.stop()


def test_lease_lapse_triggers_replan_without_detector():
    """The lease machinery is its own failure detector: a lapsed lease
    must kick a replan round even with heartbeat detection stopped."""
    testbed = leased_testbed()
    runtime = testbed.runtime
    sim = runtime.sim
    replanner = runtime.enable_self_healing()
    runtime.failure_detector.stop()
    runtime.monitor.stop()  # no link probes either: leases only

    runtime.lookup.register("aux", {"kind": "probe"}, home_node="newyork-gw")
    sim.run(until=sim.now + 3_000.0)
    runtime.transport.node("newyork-gw").crash()
    sim.run(until=sim.now + 3 * 2_000.0)

    lease_rounds = [
        e for e in replanner.events
        if e.trigger is not None
        and e.trigger.kind == "service"
        and e.trigger.subject == "aux"
        and e.trigger.attribute == "lease"
    ]
    assert lease_rounds, "lease lapse never reached the replanner"
    with pytest.raises(LookupError):
        runtime.run(
            runtime.lookup.lookup(testbed.client_nodes("seattle")[0], name="aux")
        )
    runtime.lookup.stop()


def test_unwitnessed_expiry_purges_quietly():
    """A replica whose own host crashed since the last renewal cannot
    testify the service died: it purges without reporting."""
    testbed = leased_testbed()
    runtime = testbed.runtime
    service = LookupService(
        runtime, ["sandiego-gw"], LeaseConfig(duration_ms=1_000.0)
    )
    registry = service.replicas[0]
    service.register("svc", {})
    # Host crashes and restarts: its crash count moves past the witness
    # snapshot taken at grant time.
    purged = registry.purge_expired(5_000.0, host_crashes=1)
    assert purged == [("svc", False)]  # purged, but not witnessed
    service.register("svc2", {})
    purged = registry.purge_expired(10_000.0, host_crashes=1)
    assert purged == [("svc2", False)] or purged == []


def test_witnessed_expiry_is_reported():
    testbed = leased_testbed()
    runtime = testbed.runtime
    service = LookupService(
        runtime, ["sandiego-gw"], LeaseConfig(duration_ms=1_000.0)
    )
    registry = service.replicas[0]
    service.register("svc", {})
    purged = registry.purge_expired(5_000.0, host_crashes=0)
    assert purged == [("svc", True)]
    with pytest.raises(LookupError):
        registry.resolve(name="svc")


# -- failover across lookup hosts --------------------------------------------

def test_lookup_fails_over_to_surviving_replica():
    testbed = leased_testbed()
    runtime = testbed.runtime
    # A Seattle client: its path to the surviving (Seattle) replica
    # does not transit the crashed San Diego gateway.
    client = testbed.client_nodes("seattle")[0]
    assert runtime.lookup.hosts == LOOKUP_HOSTS

    runtime.transport.node(LOOKUP_HOSTS[0]).crash()
    proxy = runtime.run(runtime.lookup.lookup(client, name="mail"))
    assert proxy is not None
    assert runtime.lookup.failovers == 1
    _t, logged_client, serving = runtime.lookup.lookup_log[-1]
    assert logged_client == client
    assert serving == LOOKUP_HOSTS[1]
    runtime.lookup.stop()


def test_lookup_raises_when_every_replica_host_is_down():
    testbed = leased_testbed()
    runtime = testbed.runtime
    client = testbed.client_nodes("newyork")[0]
    for host in LOOKUP_HOSTS:
        runtime.transport.node(host).crash()
    with pytest.raises(Exception):
        runtime.run(runtime.lookup.lookup(client, name="mail"))
    runtime.lookup.stop()


def test_replicated_lookup_rejects_bad_hosts():
    testbed = build_mail_testbed(clients_per_site=2)
    runtime = testbed.runtime
    with pytest.raises(ValueError):
        LookupService(runtime, [])
    with pytest.raises(ValueError):
        LookupService(runtime, ["sandiego-gw", "sandiego-gw"])
    with pytest.raises(KeyError):
        LookupService(runtime, ["no-such-node"])


def test_gossip_recreates_purged_registration():
    """A replica that purged an entry while its host was down gets it
    re-created by the next heartbeat's gossip."""
    testbed = leased_testbed()
    runtime = testbed.runtime
    sim = runtime.sim
    secondary = runtime.lookup.replicas[1]

    sim.run(until=sim.now + 1_000.0)
    node = runtime.transport.node(LOOKUP_HOSTS[1])
    node.crash()
    # Down past the lease horizon: every entry it held would be expired.
    sim.run(until=sim.now + 3 * 2_000.0)
    secondary.purge_expired(sim.now, host_crashes=node.crashes)
    assert "mail" not in secondary._registry
    node.restart()
    sim.run(until=sim.now + 2 * 2_000.0)
    assert "mail" in secondary._registry  # gossip re-created it
    runtime.lookup.stop()


# -- the lease loop -----------------------------------------------------------

def _renewal_messages_after_reregister(stop_first):
    """Transport messages in the 10 s after a re-registration 1.5 s into
    a run with 2 lookup hosts and 3 s leases."""
    testbed = leased_testbed(duration_ms=3_000.0)
    runtime = testbed.runtime
    sim = runtime.sim
    sim.run(until=sim.now + 1_500.0)
    if stop_first:
        runtime.lookup.stop()
    runtime.lookup.register("mail", {})
    before = runtime.transport.messages_sent
    sim.run(until=sim.now + 10_000.0)
    runtime.lookup.stop()
    return runtime.transport.messages_sent - before


def test_stop_then_register_leaves_one_lease_loop():
    """A loop sleeping through ``stop()`` must not resume when a
    ``register()`` restarts the lease machinery: only the new loop
    renews, so renewal traffic is that of a plain re-registration."""
    assert _renewal_messages_after_reregister(stop_first=True) == (
        _renewal_messages_after_reregister(stop_first=False)
    )
