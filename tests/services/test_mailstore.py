"""Tests for the mail store.

A full-inbox fetch (``since_id == 0``) answers from the mailbox's last
scan while the inbox is unchanged; the tests below check that every
inbox change drops it and that no caller can change it
(``test_wire_pickle.py``'s differential checks it over random histories).
"""

import pytest

from repro.experiments.mail_setup import build_mail_testbed
from repro.services.mail import MailStore, MailStoreError, StoredMessage
from repro.services.mail.mailstore import total_size_bytes


def msg(sender="Alice", recipient="Bob", sensitivity=2, body=b"x"):
    return StoredMessage(sender=sender, recipient=recipient, sensitivity=sensitivity, body=body)


def test_store_and_fetch():
    store = MailStore()
    store.create_account("Alice")
    store.create_account("Bob")
    m = msg()
    store.store(m)
    assert store.fetch("Bob") == [m]
    assert store.mailbox("Alice").folder("sent") == [m]
    assert len(store.mailbox("Bob").inbox) == 1


def test_total_size_is_the_sum_of_message_sizes():
    batch = [msg(body=b"x" * n) for n in (0, 1, 264, 1200)]
    assert total_size_bytes(batch) == sum(m.size_bytes for m in batch)
    assert total_size_bytes([]) == 0


def test_store_creates_recipient_account_lazily():
    store = MailStore()
    store.store(msg(recipient="Newcomer"))
    assert store.fetch("Newcomer")


def test_sensitivity_bound_enforced():
    store = MailStore(max_sensitivity=3)
    store.store(msg(sensitivity=3))
    assert store.accepts(3) and not store.accepts(4)
    with pytest.raises(MailStoreError):
        store.store(msg(sensitivity=4))


def test_fetch_since_id():
    store = MailStore()
    m1, m2 = msg(), msg()
    store.store(m1)
    store.store(m2)
    assert store.fetch("Bob", since_id=m1.msg_id) == [m2]


def test_fetch_sensitivity_filter():
    store = MailStore()
    lo, hi = msg(sensitivity=1), msg(sensitivity=5)
    store.store(lo)
    store.store(hi)
    assert store.fetch("Bob", max_sensitivity=2) == [lo]
    assert store.fetch("Bob") == [lo, hi]


def test_view_store_filter_caps_at_bound():
    store = MailStore(max_sensitivity=3)
    m = msg(sensitivity=2)
    store.store(m)
    # asking for more than the bound still returns only <= bound
    assert store.fetch("Bob", max_sensitivity=5) == [m]


def test_duplicate_account_rejected():
    store = MailStore()
    store.create_account("Alice")
    with pytest.raises(MailStoreError):
        store.create_account("Alice")


def test_contacts():
    store = MailStore()
    store.create_account("Alice", contacts=["Bob", "Carol"])
    assert store.contacts("Alice") == ["Bob", "Carol"]
    with pytest.raises(MailStoreError):
        store.contacts("Ghost")


def test_message_validation():
    with pytest.raises(MailStoreError):
        StoredMessage(sender="a", recipient="b", sensitivity=0, body=b"")
    with pytest.raises(MailStoreError):
        StoredMessage(sender="a", recipient="b", sensitivity=6, body=b"")


def test_bad_bound_rejected():
    with pytest.raises(MailStoreError):
        MailStore(max_sensitivity=0)


def test_message_ids_monotonic():
    a, b = msg(), msg()
    assert b.msg_id > a.msg_id


# -- the full-inbox answer ------------------------------------------------------
def test_an_unchanged_inbox_answers_from_its_last_scan():
    store = MailStore()
    m = msg()
    store.store(m)
    first, size = store.fetch_sized("Bob")
    assert (first, size) == ([m], m.size_bytes)
    box = store.mailbox("Bob")
    cached = box.answers[None]
    again, _ = store.fetch_sized("Bob")
    assert again == first and again is not first and again is not cached[0]
    assert box.answers[None] is cached


@pytest.mark.parametrize("change", ["store", "absorb", "move_message"])
def test_every_inbox_change_drops_the_cached_answer(change):
    store = MailStore()
    store.create_account("Bob")
    store.create_folder("Bob", "archive")
    m = msg()
    store.store(m)
    assert store.fetch("Bob") == [m]
    assert store.mailbox("Bob").answers
    if change == "store":
        extra = msg()
        store.store(extra)
        expected = [m, extra]
    elif change == "absorb":
        extra = msg()
        store.absorb("Bob", [extra])
        expected = [m, extra]
    else:
        store.move_message("Bob", m.msg_id, "archive")
        expected = []
    assert not store.mailbox("Bob").answers
    assert store.fetch("Bob") == expected
    assert store.fetch_sized("Bob")[1] == total_size_bytes(expected)


def test_mutating_an_answer_does_not_change_the_next():
    store = MailStore(max_sensitivity=3)
    low, mid = msg(sensitivity=1), msg(sensitivity=3)
    store.store(low)
    store.store(mid)
    for bound in (None, 2):
        answer = store.fetch("Bob", max_sensitivity=bound)
        expected = list(answer)
        answer.clear()
        answer.append(msg(sensitivity=2))
        assert store.fetch("Bob", max_sensitivity=bound) == expected


def test_a_relayed_reread_of_an_unchanged_inbox_decrypts_nothing(decrypt_calls):
    """Bob behind San Diego's trust-3 view asks for level 5: each fetch
    crosses the Encryptor -> Decryptor relay to the primary.  The second
    answer unpickles to the very messages of the first, so the client's
    read memo decrypts none of their bodies again."""
    testbed = build_mail_testbed(clients_per_site=1, flush_policy="write_through")
    rt = testbed.runtime
    proxy = testbed.connect(testbed.client_nodes("sandiego")[0], "Bob")
    assert rt.instance_of("Encryptor") and rt.instance_of("Decryptor")
    for level in (1, 2, 3, 4, 5):
        resp = rt.run(proxy.request(
            "send_mail", {"recipient": "Bob", "sensitivity": level, "body": b"hi"},
            user="Alice"))
        assert resp.ok, resp.error

    def fetch():
        before = len(decrypt_calls)
        resp = rt.run(proxy.request("fetch_mail", {"user": "Bob", "max_sensitivity": 5}))
        assert resp.ok, resp.error
        messages = resp.payload["messages"]
        bodies = {m.body for m in messages}
        client_decrypts = [b for b in decrypt_calls[before:] if b in bodies]
        return messages, resp.payload["bodies"], client_decrypts

    messages, bodies, decrypted = fetch()
    assert len(messages) == 5 and len(decrypted) == 5
    again, bodies_again, decrypted = fetch()
    assert decrypted == []
    assert again == messages and bodies_again == bodies
    assert bodies == [b"hi"] * 5
