"""A view's write-back flush, end to end on the case-study testbed.

The batch a view drains goes upstream as it was buffered: each
``store_message`` update carries its message, the primary files those
very messages, and the invalidation fan-out hands the view's own
``Update`` objects to the conflicting replicas.  Every flush enters
through :meth:`ServiceBundle.flush`.
"""

import operator

import pytest

from repro.experiments.mail_setup import build_mail_testbed
from repro.services.mail import StoredMessage


def _bed():
    """Bob's chain MC -> VMS[3] -> Encryptor -> Decryptor -> MS from San
    Diego, Carol's view VMS[2] in Seattle; flush ``never``, so only an
    explicit flush moves a buffer."""
    rt = build_mail_testbed(clients_per_site=2, flush_policy="never").runtime
    bob = rt.run(rt.client_connect("sandiego-client1", {"User": "Bob"}))
    carol = rt.run(rt.client_connect("seattle-client1", {"User": "Carol"}))
    vms = rt.instance_of("ViewMailServer", "sandiego-client1")
    return rt, bob, carol, vms


def _send(rt, proxy, n, recipient="Carol"):
    for i in range(n):
        resp = rt.run(proxy.request(
            "send_mail", {"recipient": recipient, "sensitivity": 1 + i % 2, "body": "hi"}))
        assert resp.ok


def test_a_flush_carries_the_views_own_messages_and_updates():
    rt, bob, _carol, vms = _bed()
    _send(rt, bob, 4)
    pending = list(rt.coherence.entry(vms.replica_id).pending)
    buffered = [u.attributes["message"] for u in pending]
    assert all(map(operator.is_, vms.store.mailbox("Carol").inbox, buffered))

    primary = rt.instance_of("MailServer")
    payloads = []
    dispatch = primary.dispatch

    def spy(req):
        if req.op == "sync_batch":
            payloads.append(req.payload)
        return dispatch(req)

    primary.dispatch = spy
    seattle = rt.instance_of("ViewMailServer", "seattle-client1")
    invalidated = []
    seattle.on_invalidate = invalidated.extend

    assert rt.run(rt.primary.flush(vms)) is True
    assert rt.coherence.stats.syncs == 1
    (payload,) = payloads
    assert set(payload) == {"updates", "units", "origin_config"}
    assert all(map(operator.is_, payload["updates"], pending))
    inbox = primary.store.mailbox("Carol").inbox
    assert len(inbox) == 4 and all(map(operator.is_, inbox, buffered))
    # Seattle's view (TrustLevel 2) conflicts with all four (sensitivity 1-2).
    assert len(invalidated) == 4 and all(map(operator.is_, invalidated, pending))


def test_a_replica_retired_mid_flush_counts_its_flush():
    """A replanning round may retire a view while its flush is in flight:
    the batch still lands upstream, and the flush ends without an
    exception and is counted."""
    rt, bob, _carol, vms = _bed()
    _send(rt, bob, 3)
    flush = rt.sim.process(rt.primary.flush(vms), name="flush")
    rt.sim.run(until=rt.sim.now + 1.0)  # the prepare round trip is in flight
    assert not flush.triggered
    (key,) = [k for k, inst in rt.primary.instances.items() if inst is vms]
    rt.primary.uninstall(key)
    assert vms.replica_id is None
    assert rt.sim.run_until_complete(flush) is True
    stats = rt.coherence.stats
    assert stats.syncs == 1 and stats.messages_propagated == 3
    assert len(rt.instance_of("MailServer").store.mailbox("Carol").inbox) == 3
    assert stats.lost_updates == 0


@pytest.mark.parametrize("route", ["flush", "reconcile"])
def test_folder_updates_merge_at_the_primary(route):
    """Folder writes a partitioned view buffered reach the primary's
    merge: after the heal by a flush, or by anti-entropy replay of the
    buffer stashed as lost.  One batch reaches each outcome: a new folder
    (``applied``), one the primary already has (``duplicate``), a move
    that a newer direct move at the primary beats last-writer-wins
    (``conflict``), and a move of mail the primary never received
    (``unapplied``)."""
    rt, bob, _carol, vms = _bed()
    ny = rt.run(rt.client_connect("newyork-client1", {"User": "Bob"}))
    _send(rt, bob, 1, recipient="Bob")
    assert rt.run(rt.primary.flush(vms)) is True
    (shared,) = vms.store.mailbox("Bob").inbox
    assert rt.run(bob.request("create_folder", {"folder": "work"})).ok
    # Mail only the view holds: its store update never reached the primary.
    only_here = StoredMessage(sender="Alice", recipient="Bob", sensitivity=1, body=b"x")
    vms.store.store(only_here)

    rt.network.remove_link("newyork-gw", "sandiego-gw")
    rt.network.remove_link("sandiego-gw", "seattle-gw")
    for op, payload in [
        ("create_folder", {"folder": "trips"}),
        ("create_folder", {"folder": "work"}),
        ("move_mail", {"msg_id": shared.msg_id, "folder": "trips"}),
        ("move_mail", {"msg_id": only_here.msg_id, "folder": "trips"}),
    ]:
        assert rt.run(bob.request(op, payload)).ok
    assert rt.coherence.stats.degraded_writes == 4
    # Bob files the shared message again from New York, after the view did.
    assert rt.run(ny.request("move_mail", {"msg_id": shared.msg_id, "folder": "work"})).ok

    primary = rt.instance_of("MailServer")
    outcomes = []
    merge = primary._apply_folder_update

    def spy(update):
        outcomes.append(merge(update))
        return outcomes[-1]

    primary._apply_folder_update = spy
    if route == "flush":
        rt.network.add_link("newyork-gw", "sandiego-gw",
                            latency_ms=200.0, bandwidth_mbps=20.0, secure=False)
        assert rt.run(rt.primary.flush(vms)) is True
    else:
        rt.coherence.report_lost(vms.replica_id)
        (report,) = rt.coherence.reconcile(rt.sim.now)
        assert report.outcomes == {"applied": 1, "duplicate": 1, "conflict": 1, "unapplied": 1}
        assert report.conflicts == 1
    assert outcomes == ["applied", "duplicate", "conflict", "unapplied"]
    box = primary.store.mailbox("Bob")
    assert {"trips", "work"} <= set(primary.store.folder_names("Bob"))
    assert box.folder("work") == [shared]
    assert not primary.store.holds("Bob", only_here.msg_id)
