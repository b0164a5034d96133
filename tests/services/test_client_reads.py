"""What a client's ``fetch_mail`` hands back: every message's plaintext.

``MailClientComponent.op_fetch_mail`` decrypts each fetched message
under the reading user's per-level key and returns the results as
``bodies``, aligned with ``messages``: the plaintext, or ``None`` where
the user holds no key for the level or the body is not encrypted under
the user's key.  The reference below recomputes that from scratch with
the uncached cipher, so the cipher's LRU cannot make it agree.

The client decrypts only what its last answer for the same ``(user,
max_sensitivity)`` did not hold; the differential below scripts the
upstream's answers to try every way a reused body could go stale.
"""

import dataclasses
from types import SimpleNamespace
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.mail_setup import build_mail_testbed
from repro.services.mail import StoredMessage, build_mail_spec, crypto
from repro.services.mail.components import MailClientComponent
from repro.services.mail.crypto import CryptoError, KeyRing
from repro.smock import ServiceRequest, ServiceResponse


def reference_bodies(user: str, messages) -> List[Optional[bytes]]:
    keys = KeyRing(user).level_keys()
    bodies: List[Optional[bytes]] = []
    for msg in messages:
        key = keys.get(msg.sensitivity)
        try:
            bodies.append(
                None if key is None else crypto._decrypt_cached.__wrapped__(key, msg.body)
            )
        except CryptoError:
            bodies.append(None)
    return bodies


@pytest.fixture(scope="module")
def reads():
    """Bob at a San Diego client (behind the trust-3 view), with mail at
    levels 1-4 from Alice and one level-2 message from ``Mallory``, a
    sender no store provisioned: the store cannot transform that body,
    so it stays under Mallory's key and Bob cannot read it."""
    testbed = build_mail_testbed(clients_per_site=1, flush_policy="write_through")
    rt = testbed.runtime
    proxy = testbed.connect(testbed.client_nodes("sandiego")[0], "Bob")
    assert rt.instance_of("ViewMailServer").trust_level == 3
    sent = [("Alice", level, f"level {level} for Bob".encode()) for level in (1, 2, 3, 4)]
    sent.append(("Mallory", 2, b"from an unknown sender"))
    for sender, level, body in sent:
        resp = rt.run(
            proxy.request(
                "send_mail",
                {"recipient": "Bob", "sensitivity": level, "body": body},
                user=sender,
            )
        )
        assert resp.ok, resp.error

    def fetch(max_sensitivity):
        resp = rt.run(
            proxy.request("fetch_mail", {"user": "Bob", "max_sensitivity": max_sensitivity})
        )
        assert resp.ok, resp.error
        return resp.payload["messages"], resp.payload["bodies"]

    return sent, fetch


@pytest.mark.parametrize("max_sensitivity", [3, 5], ids=["view-serves", "miss-path"])
def test_fetch_bodies_match_a_fresh_decryption(reads, max_sensitivity):
    sent, fetch = reads
    expected = [body for sender, level, body in sent if sender == "Alice" and level <= max_sensitivity]
    for _ in range(2):  # the second read finds the same inbox
        messages, bodies = fetch(max_sensitivity)
        assert bodies == reference_bodies("Bob", messages)
        assert [b for b in bodies if b is not None] == expected
        assert [m.sender for m, b in zip(messages, bodies) if b is None] == ["Mallory"]


# -- the client's read memo, against a scripted upstream ----------------------


def _message(sender: str, level: int, text: bytes) -> StoredMessage:
    return StoredMessage(
        sender=sender,
        recipient="Bob",
        sensitivity=level,
        body=crypto.encrypt(KeyRing(sender).key_for(level), text),
    )


#: Bob's mail as a store holds it once transformed to his keys, plus
#: bodies still under Mallory's key (a sender no store provisioned)
POOL = [_message("Bob", 1 + i % 5, f"message {i}".encode()) for i in range(10)] + [
    _message("Mallory", 2, b"unreadable"),
    _message("Mallory", 4, b"also unreadable"),
]


class ScriptedClient:
    """A lone ``MailClient`` whose upstream answers whatever the test
    scripts next: ``fetch`` returns the client's response to it."""

    def __init__(self) -> None:
        unit = build_mail_spec().unit("MailClient")
        self.client = MailClientComponent(
            SimpleNamespace(sim=None), unit, SimpleNamespace(name="n"), {}, "c1"
        )
        self.client.call = self._upstream
        self.answer: Optional[ServiceResponse] = None

    def _upstream(self, interface, req):
        return self.answer
        yield  # pragma: no cover - generator marker

    def fetch(self, answer: ServiceResponse, max_sensitivity=None) -> ServiceResponse:
        self.answer = answer
        req = ServiceRequest(
            op="fetch_mail", payload={"max_sensitivity": max_sensitivity}, user="Bob"
        )
        gen = self.client.op_fetch_mail(req)
        with pytest.raises(StopIteration) as stop:
            next(gen)
        return stop.value.value


def answer(messages) -> ServiceResponse:
    return ServiceResponse(payload={"messages": list(messages)})


STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["repeat", "extend", "drop", "reorder", "copy", "bound", "fail", "mutate"]
        ),
        st.integers(0, 99),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(STEPS)
def test_memoized_bodies_match_a_fresh_decryption(steps):
    scripted = ScriptedClient()
    inbox: List[StoredMessage] = []
    bound = None
    for action, k in steps:
        if action == "extend":
            inbox.append(POOL[k % len(POOL)])
        elif action == "drop" and inbox:
            del inbox[k % len(inbox)]
        elif action == "reorder" and inbox:
            inbox = inbox[k % len(inbox):] + inbox[: k % len(inbox)]
            inbox.reverse()
        elif action == "copy" and inbox:
            i = k % len(inbox)
            inbox[i] = dataclasses.replace(inbox[i])  # equal, not identical
        elif action == "bound":
            bound = (None, 3, 5)[k % 3]
        if action == "fail":
            resp = scripted.fetch(ServiceResponse.failure("unreachable"), bound)
            assert not resp.ok
            continue
        resp = scripted.fetch(answer(inbox), bound)
        assert resp.ok
        assert resp.payload["messages"] == inbox
        assert resp.payload["bodies"] == reference_bodies("Bob", inbox)
        if action == "mutate":  # the caller owns what it was handed
            if k % 2:
                resp.payload["messages"].clear()
            else:
                resp.payload["bodies"][:] = [b"corrupted"] * len(inbox)


def test_an_unchanged_inbox_is_not_decrypted_again(decrypt_calls):
    scripted = ScriptedClient()
    inbox = POOL[:6]
    first = scripted.fetch(answer(inbox), 5)
    assert len(decrypt_calls) == 6

    again = scripted.fetch(answer(inbox), 5)
    assert len(decrypt_calls) == 6
    assert again.payload["bodies"] == first.payload["bodies"]
    assert again.payload["bodies"] is not first.payload["bodies"]

    grown = scripted.fetch(answer(inbox + [POOL[7]]), 5)
    assert len(decrypt_calls) == 7
    assert grown.payload["bodies"] == reference_bodies("Bob", inbox + [POOL[7]])

    # Another bound is another memo entry: decrypted in full once.
    scripted.fetch(answer(inbox), 3)
    assert len(decrypt_calls) == 13
