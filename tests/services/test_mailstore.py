"""Tests for the mail store.

A full-inbox fetch (``since_id == 0``) answers from the mailbox's last
scan while the inbox is unchanged; the tests below check that every
inbox change drops it and that no caller can change it
(the differential at the end checks it over random histories).
"""

from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

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
    answer holds the very messages of the first, so the client's read
    memo decrypts none of their bodies again."""
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


# -- the merge, against the rebuild it replaced ---------------------------------
USERS = ("Alice", "Bob", "Carol")
FOLDERS = ("inbox", "sent", "archive", "missing")
VIEW_BOUND = 3


class NaiveView:
    """Reference view store: plain folder lists, no index.  ``merge`` is
    the old miss path — one id set rebuilt per fetched message — widened
    from the inbox to every folder (moved mail must not reappear)."""

    def __init__(self) -> None:
        self.boxes: Dict[str, Dict[str, List[StoredMessage]]] = {}

    def box(self, user: str) -> Dict[str, List[StoredMessage]]:
        return self.boxes.setdefault(user, {"inbox": [], "sent": []})

    def store(self, msg: StoredMessage) -> None:
        self.box(msg.recipient)["inbox"].append(msg)
        if msg.sender in self.boxes:
            self.boxes[msg.sender]["sent"].append(msg)

    def merge(self, user: str, messages: List[StoredMessage]) -> None:
        for msg in messages:
            if msg.sensitivity <= VIEW_BOUND and msg.msg_id not in {
                m.msg_id for folder in self.box(user).values() for m in folder
            }:
                self.box(user)["inbox"].append(msg)

    def fetch(self, user: str, since_id: int, max_s: int) -> List[StoredMessage]:
        bound = min(max_s, VIEW_BOUND)
        return [
            m for m in self.box(user)["inbox"]
            if m.msg_id > since_id and m.sensitivity <= bound
        ]

    def move(self, user: str, msg_id: int, dest: str) -> bool:
        folders = self.boxes.get(user)
        if folders is None or dest not in folders:
            return False
        for folder in folders.values():
            for i, msg in enumerate(folder):
                if msg.msg_id == msg_id:
                    if folder is not folders[dest]:
                        folders[dest].append(folder.pop(i))
                    return True
        return False


_user = st.sampled_from(USERS)
_ops = st.one_of(
    st.tuples(st.just("store_upstream"), _user, _user, st.integers(1, 5)),
    st.tuples(st.just("store_local"), _user, _user, st.integers(1, VIEW_BOUND)),
    st.tuples(st.just("miss_fetch"), _user, st.integers(0, 3), st.integers(1, 5)),
    st.tuples(st.just("local_fetch"), _user, st.integers(0, 3), st.integers(1, 5)),
    st.tuples(st.just("move"), _user, st.integers(0, 40), st.sampled_from(FOLDERS)),
    st.tuples(st.just("create_folder"), _user, st.just("archive")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ops, max_size=40))
def test_absorb_matches_naive_merge(ops):
    primary = MailStore()
    view = MailStore(max_sensitivity=VIEW_BOUND)
    naive = NaiveView()
    made: List[StoredMessage] = []

    def since(back: int) -> int:
        """0 = everything; otherwise the id of a recent message."""
        return made[-back].msg_id if 0 < back <= len(made) else 0

    for op in ops:
        kind = op[0]
        if kind in ("store_upstream", "store_local"):
            _, sender, recipient, sensitivity = op
            msg = StoredMessage(sender, recipient, sensitivity, b"body")
            made.append(msg)
            primary.store(msg)
            if kind == "store_local":
                view.store(msg)
                naive.store(msg)
        elif kind == "miss_fetch":
            _, user, back, max_s = op
            fetched, size = primary.fetch_sized(user, since(back), max_s)
            scan = [
                m for m in primary.mailbox(user).inbox
                if m.msg_id > since(back) and m.sensitivity <= max_s
            ]
            assert fetched == scan and size == total_size_bytes(scan)
            view.absorb(user, fetched)
            naive.merge(user, fetched)
            fetched.clear()  # the caller's own list: the next answer is unchanged
            assert primary.fetch(user, since(back), max_s) == scan
        elif kind == "local_fetch":
            _, user, back, max_s = op
            assert view.fetch(user, since(back), max_s) == naive.fetch(user, since(back), max_s)
        elif kind == "move":
            _, user, pick, dest = op
            msg_id = made[pick % len(made)].msg_id if made else 0
            try:
                view.move_message(user, msg_id, dest)
                moved = True
            except MailStoreError:
                moved = False
            assert moved == naive.move(user, msg_id, dest)
        else:
            _, user, folder = op
            if view.has_account(user) and folder not in view.folder_names(user):
                view.create_folder(user, folder)
                naive.box(user)[folder] = []

        assert view.users() == sorted(naive.boxes)
        for user in view.users():
            box = view.mailbox(user)
            assert box.folders == naive.boxes[user]
            # the index invariant: in some folder <=> id in the index
            assert box.ids == {m.msg_id for f in box.folders.values() for m in f}
            # a full-inbox answer, kept from an earlier step unless the
            # inbox changed since, equals a fresh scan
            for bound in (1, VIEW_BOUND, 5):
                answer, size = view.fetch_sized(user, 0, bound)
                assert answer == naive.fetch(user, 0, bound)
                assert size == total_size_bytes(answer)
                answer.clear()
