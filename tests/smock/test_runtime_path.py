"""Integration-grade tests for the Figure 1 client path."""

import pytest

from repro.services.mail import WorkloadConfig, mail_workload
from repro.smock import ServiceProxy
from repro.smock.lookup import LookupError


def test_lookup_registers_and_finds(runtime):
    regs = runtime.lookup.find({})
    assert [r.name for r in regs] == ["mail"]
    assert runtime.lookup.find({"nope": 1}) == []


def test_lookup_unknown_service_raises(runtime):
    def go():
        yield from runtime.lookup.lookup("newyork-client1", name="ghost")

    with pytest.raises(LookupError):
        runtime.run(go())


def test_client_connect_deploys_and_binds(runtime):
    proxy = runtime.run(runtime.client_connect("newyork-client1", {"User": "Alice"}))
    assert isinstance(proxy, ServiceProxy)
    assert proxy.root.unit.name == "MailClient"
    assert proxy.root.node_name == "newyork-client1"
    # bind record captured the one-time costs
    record = runtime.bind_records[0]
    assert record.lookup_ms > 0
    assert record.planning_ms > 0
    assert record.deployment_ms > 0
    assert record.total_ms > 0


def test_generic_proxy_binds_lazily(runtime):
    def go():
        proxy = yield from runtime.lookup.lookup("newyork-client1", name="mail")
        assert not proxy.bound
        resp = yield from proxy.request(
            "send_mail",
            {"recipient": "Bob", "sensitivity": 1, "body": "hi"},
            context={"User": "Alice"},
        )
        assert proxy.bound
        return resp

    resp = runtime.run(go())
    assert resp.ok


def test_request_traffic_follows_planned_linkages(runtime):
    proxy = runtime.run(runtime.client_connect("sandiego-client1", {"User": "Bob"}))

    def send():
        resp = yield from proxy.request(
            "send_mail", {"recipient": "Alice", "sensitivity": 2, "body": "x"}
        )
        return resp

    resp = runtime.run(send())
    assert resp.ok
    # The send is absorbed by the local ViewMailServer: no slow-link hop.
    vms = runtime.instance_of("ViewMailServer")
    assert vms.store.messages_stored == 1
    assert runtime.instance_of("MailServer").store.messages_stored == 0


def test_sends_eventually_reach_primary_via_coherence(runtime):
    proxy = runtime.run(runtime.client_connect("sandiego-client1", {"User": "Bob"}))
    cfg = WorkloadConfig(
        user="Bob", peers=["Alice"], n_sends=100, n_receives=0,
        cluster_size=10, max_sensitivity=3,
    )
    result = runtime.run(mail_workload(proxy, cfg))
    assert not result.errors
    # 100 sends x multiplicity 10 = 1000 units -> two count:500 flushes.
    assert runtime.coherence.stats.syncs == 2
    assert runtime.instance_of("MailServer").store.messages_stored == 100


def test_encrypted_relay_roundtrips_bodies(runtime):
    """A message stored through the E/D pair decrypts correctly at NY."""
    proxy = runtime.run(runtime.client_connect("sandiego-client1", {"User": "Bob"}))
    cfg = WorkloadConfig(
        user="Bob", peers=["Alice"], n_sends=50, n_receives=0,
        cluster_size=10, max_sensitivity=3, seed=3,
    )
    runtime.run(mail_workload(proxy, cfg))
    ms = runtime.instance_of("MailServer")
    from repro.services.mail import KeyRing, decrypt

    inbox = ms.store.ensure_account("Alice").inbox
    assert inbox  # the flush delivered messages
    msg = inbox[0]
    ring = KeyRing("Alice")
    assert decrypt(ring.key_for(msg.sensitivity), msg.body) == b"x" * 256


def test_address_book_only_on_full_client(runtime):
    proxy = runtime.run(runtime.client_connect("newyork-client1", {"User": "Alice"}))
    resp = runtime.run(proxy.request("address_book", {"user": "Alice"}))
    assert resp.ok
    assert "Bob" in resp.payload["contacts"]


def test_view_client_lacks_address_book():
    from repro.experiments.mail_setup import build_mail_testbed

    tb = build_mail_testbed(clients_per_site=2)
    rt = tb.runtime
    proxy = rt.run(rt.client_connect("seattle-client1", {"User": "Carol"}))
    assert proxy.root.unit.name == "ViewMailClient"
    resp = rt.run(proxy.request("address_book", {"user": "Carol"}))
    assert not resp.ok  # object view restricts functionality


def test_unknown_op_fails_cleanly(runtime):
    proxy = runtime.run(runtime.client_connect("newyork-client1", {"User": "Alice"}))
    resp = runtime.run(proxy.request("frobnicate", {}))
    assert not resp.ok
    assert "frobnicate" in resp.error


def test_shared_placements_not_reinstalled(runtime):
    runtime.run(runtime.client_connect("sandiego-client1", {"User": "Bob"}))
    installs_before = sum(w.installs for w in runtime.wrappers.values())
    runtime.run(runtime.client_connect("sandiego-client2", {"User": "Carol"}))
    installs_after = sum(w.installs for w in runtime.wrappers.values())
    # Second client adds its own MailClient (and possibly a local VMS),
    # but never re-installs the primary or the relay pair.
    new = installs_after - installs_before
    assert 1 <= new <= 3
    labels = [k[0] for k in runtime.instances]
    assert labels.count("MailServer") == 1


def test_preinstall_registers_primary(runtime):
    primary = runtime.coherence._primaries.get("MailServer")
    assert primary is runtime.instance_of("MailServer")


def test_instance_of_unknown_raises(runtime):
    with pytest.raises(KeyError):
        runtime.instance_of("Nonexistent")
