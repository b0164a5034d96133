"""Tests for the mail store."""

import pytest

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
