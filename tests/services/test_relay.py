"""The Encryptor -> Decryptor relay.

The relay seals ``(op, payload)`` under the session key and carries it
by reference, as every other hop carries its payload: only a Decryptor
holding the session key opens it, the relayed size grows by the
cipher's header, and an envelope sealed under another key is refused as
a ``CryptoError`` that either end answers as a failure response.
"""

import operator
from typing import List

import pytest

from repro.coherence import Update
from repro.experiments.mail_setup import build_mail_testbed
from repro.services.mail import derive_key
from repro.services.mail.components import _SESSION_KEY
from repro.services.mail.crypto import Sealed
from repro.smock import ServiceRequest, ServiceResponse


def test_sync_batch_of_500_updates_survives_the_relay():
    """San Diego's chain is MC -> VMS -> Encryptor -> Decryptor -> MS:
    500 single-unit sends under ``count:500`` make one 500-update batch
    that reaches the primary only through the relay."""
    rt = build_mail_testbed(clients_per_site=2, flush_policy="count:500").runtime
    proxy = rt.run(rt.client_connect("sandiego-client1", {"User": "Bob"}))
    assert rt.instance_of("Encryptor") and rt.instance_of("Decryptor")  # relay deployed
    primary = rt.instance_of("MailServer")
    seen: List[Update] = []
    dispatch = primary.dispatch

    def spy(req):
        if req.op == "sync_batch":
            seen.extend(req.payload["updates"])
        return dispatch(req)

    primary.dispatch = spy
    for i in range(500):
        resp = rt.run(proxy.request(
            "send_mail", {"recipient": "Alice", "sensitivity": 1 + i % 3, "body": "x" * 64}))
        assert resp.ok

    vms = rt.instance_of("ViewMailServer")
    assert rt.coherence.stats.syncs == 1
    assert len(seen) == 500
    assert {u.origin for u in seen} == {vms.replica_id}
    assert [u.seq for u in seen] == list(range(1, 501))
    assert all(u.ts_ms > 0 and u.multiplicity == 1 for u in seen)
    assert [u.ts_ms for u in seen] == sorted(u.ts_ms for u in seen)
    # same ids, fields and ciphertexts on both sides of the relay
    assert primary.store.mailbox("Alice").inbox == vms.store.mailbox("Alice").inbox
    assert primary.store.messages_stored == 500


def _relay_bed():
    """San Diego's chain, MC -> VMS[3] -> Encryptor -> Decryptor -> MS:
    a fetch above the view's trust level crosses the relay both ways."""
    rt = build_mail_testbed(clients_per_site=1).runtime
    proxy = rt.run(rt.client_connect("sandiego-client1", {"User": "Bob"}))
    for i in range(4):
        resp = rt.run(proxy.request(
            "send_mail", {"recipient": "Bob", "sensitivity": 4 + i % 2, "body": "hi"}))
        assert resp.ok
    return rt, proxy


def _finish(gen):
    """Run a component operation that must not yield."""
    with pytest.raises(StopIteration) as stop:
        next(gen)
    return stop.value.value


def test_an_envelope_under_another_key_is_refused_at_both_ends(monkeypatch):
    """Neither end raises: each answers ``relay unwrap failed:
    CryptoError``, and the next relayed request still succeeds."""
    rt, proxy = _relay_bed()
    enc, dec = rt.instance_of("Encryptor"), rt.instance_of("Decryptor")
    other = derive_key("smock-session", "eve")
    forged = Sealed(other, "fetch_mail", {"user": "Bob", "max_sensitivity": 5})
    resp = _finish(dec.op_relay(ServiceRequest(op="relay", payload={"sealed": forged})))
    assert not resp.ok and resp.error.startswith("relay unwrap failed: CryptoError: ")

    reply = ServiceResponse(payload={"sealed": Sealed(other, "fetch_mail", {})}, size_bytes=512)

    def answer(interface, req):
        return reply
        yield  # pragma: no cover - generator marker

    monkeypatch.setattr(enc, "call", answer)
    request = ServiceRequest(op="fetch_mail", payload={"user": "Bob", "max_sensitivity": 5})
    resp = _finish(enc.dispatch(request))
    assert not resp.ok and resp.error.startswith("relay unwrap failed: CryptoError: ")
    monkeypatch.undo()
    assert rt.run(proxy.request("fetch_mail", {"max_sensitivity": 5})).ok


@pytest.mark.parametrize("payload", [{}, {"sealed": b"not an envelope"}], ids=["none", "bytes"])
def test_a_relay_request_without_an_envelope_is_a_failure_response(payload):
    rt, _proxy = _relay_bed()
    dec = rt.instance_of("Decryptor")
    resp = _finish(dec.op_relay(ServiceRequest(op="relay", payload=payload)))
    assert not resp.ok and resp.error.startswith("relay unwrap failed: ")


def test_a_relayed_answer_is_the_stores_own_messages(decrypt_calls):
    """A fetch above the view's trust level is answered by the primary
    through the relay: the answer holds the primary's own messages, so
    a repeated fetch decrypts only the new tail."""
    rt, proxy = _relay_bed()
    inbox = rt.instance_of("MailServer").store.mailbox("Bob").inbox

    def fetch():
        before = len(decrypt_calls)
        resp = rt.run(proxy.request("fetch_mail", {"max_sensitivity": 5}))
        assert resp.ok, resp.error
        assert len(resp.payload["messages"]) == len(inbox)
        assert all(map(operator.is_, resp.payload["messages"], inbox))
        return resp.payload["bodies"], decrypt_calls[before:]

    bodies, decrypted = fetch()
    assert bodies == [b"hi"] * 4 and len(decrypted) == 4
    assert rt.run(proxy.request(
        "send_mail", {"recipient": "Bob", "sensitivity": 5, "body": "new"})).ok
    bodies, decrypted = fetch()
    assert bodies == [b"hi"] * 4 + [b"new"]
    assert decrypted == [inbox[-1].body]
