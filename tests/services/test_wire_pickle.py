"""The two wire types and the view's miss-path merge.

``StoredMessage`` and ``coherence.Update`` are what crosses the
Encryptor -> Decryptor relay by ``pickle``; both define ``__reduce__``
(a callable + field tuple) so that stays in C.  A message unpickles to
the live instance with the same fields when there is one, and to a new,
validated message otherwise.  The merge is ``MailStore.absorb`` over the
mailbox id index; the per-message set rebuild it replaced survives here
only, as the differential's reference.  The same differential checks
every fetch, which a full-inbox read answers from the mailbox's last
scan, against a fresh scan of plain lists.
"""

import dataclasses
import operator
import pickle
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence import Update
from repro.experiments.mail_setup import build_mail_testbed
from repro.services.mail import MailStore, MailStoreError, StoredMessage, mailstore
from repro.services.mail.mailstore import total_size_bytes

PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


def _message() -> StoredMessage:
    return StoredMessage(sender="Bob", recipient="Alice", sensitivity=3, body=b"\x00ct\xff" * 9)


def _update(message: StoredMessage) -> Update:
    return Update(
        op="store_message",
        attributes={"recipient": "Alice", "sensitivity": 3, "message": message,
                    "idempotency_key": "k-1"},
        size_bytes=message.size_bytes,
        multiplicity=10,
        origin=4,
        seq=17,
        ts_ms=1234.5,
    )


# -- pickling -----------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_wire_types_round_trip(protocol):
    msg = _message()
    update = _update(msg)
    msg2, update2 = pickle.loads(pickle.dumps((msg, update), protocol))
    assert msg2 == msg and msg2.msg_id == msg.msg_id
    assert update2 == update
    assert (update2.origin, update2.seq, update2.ts_ms) == (4, 17, 1234.5)
    assert update2.version == (4, 17)
    assert update2.attr("message") == msg
    # an unstamped (never buffered) update survives too
    bare = Update(op="create_folder", attributes={"user": "Bob", "folder": "f"})
    assert pickle.loads(pickle.dumps(bare, protocol)) == bare
    assert pickle.loads(pickle.dumps(bare, protocol)).origin is None


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_live_message_unpickles_to_itself(protocol):
    msg = _message()
    inbox = [msg, _message()]
    assert pickle.loads(pickle.dumps(msg, protocol)) is msg
    loaded = pickle.loads(pickle.dumps(inbox, protocol))
    assert loaded == inbox and all(map(operator.is_, loaded, inbox))


def test_a_restore_matches_every_field_not_the_id_alone():
    msg = _message()
    blob = pickle.dumps(msg)
    forged = mailstore._restore_message("Bob", "Alice", 3, b"other body", msg.msg_id)
    assert forged is not msg
    assert (forged.body, forged.msg_id) == (b"other body", msg.msg_id)
    # the live message keeps its id's entry
    assert pickle.loads(blob) is msg
    again = pickle.loads(pickle.dumps(forged))
    assert again == forged and again is not msg
    for fields in (("Eve", "Alice", 3), ("Bob", "Eve", 3), ("Bob", "Alice", 4)):
        other = mailstore._restore_message(*fields, msg.body, msg.msg_id)
        assert other is not msg and (other.sender, other.recipient, other.sensitivity) == fields


def test_the_live_table_holds_no_message_alive():
    msg = _message()
    msg_id = msg.msg_id
    assert pickle.loads(pickle.dumps(msg)) is msg
    assert mailstore._live[msg_id]() is msg
    del msg
    assert msg_id not in mailstore._live


def test_a_forged_restore_is_still_validated():
    msg = StoredMessage(sender="Bob", recipient="Alice", sensitivity=5, body=b"")
    assert pickle.loads(pickle.dumps(msg)) is msg
    with pytest.raises(MailStoreError, match="sensitivity out of range"):
        mailstore._restore_message("Bob", "Alice", 9, b"", msg.msg_id)


def test_loading_draws_no_message_id():
    blob = pickle.dumps([_message() for _ in range(20)])
    before = next(mailstore._message_ids)
    loaded = pickle.loads(blob)
    assert next(mailstore._message_ids) == before + 1
    assert len({m.msg_id for m in loaded}) == 20


def test_pickling_is_not_reflective(monkeypatch):
    """The slotted-dataclass default (``_dataclass_getstate`` /
    ``_dataclass_setstate``) walks ``dataclasses.fields()`` per object."""

    def no_reflection(_cls):
        raise AssertionError("dataclasses.fields() called while pickling")

    batch = [_update(_message()) for _ in range(5)]
    monkeypatch.setattr(dataclasses, "fields", no_reflection)
    assert pickle.loads(pickle.dumps(batch)) == batch


class _Forged:
    """Pickles as a ``StoredMessage`` constructor call with bad fields."""

    def __reduce__(self):
        return (StoredMessage, ("Bob", "Alice", 9, b"", 1))


def test_validation_runs_on_load():
    with pytest.raises(MailStoreError, match="sensitivity out of range"):
        StoredMessage(sender="Bob", recipient="Alice", sensitivity=9, body=b"")
    with pytest.raises(MailStoreError, match="sensitivity out of range"):
        pickle.loads(pickle.dumps(_Forged()))


def test_sync_batch_of_500_updates_survives_the_relay():
    """San Diego's chain is MC -> VMS -> Encryptor -> Decryptor -> MS:
    500 single-unit sends under ``count:500`` make one 500-update batch
    that reaches the primary only through the relay's pickle."""
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
