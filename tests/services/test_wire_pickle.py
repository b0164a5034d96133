"""The two wire types, the relay's pickle memo, and the view's miss-path merge.

``StoredMessage`` and ``coherence.Update`` are what crosses the
Encryptor -> Decryptor relay by ``pickle``; both define ``__reduce__``
(a callable + field tuple) so that stays in C.  A message unpickles to
the live instance with the same fields when there is one, and to a new,
validated message otherwise.  Each relay component pickles a payload
shape it has pickled before, and unpickles a plaintext it has unpickled
before, from its memo: the tests check a hit against a fresh round trip
(equal values of equal types, the same message objects, containers the
caller owns) and that an ``Update``, a float or a shared container is
pickled every time.  The merge is ``MailStore.absorb`` over the
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
from repro.services.mail.components import _SESSION_KEY, RELAY_MEMO_SIZE, _RelayMemo
from repro.services.mail.crypto import decrypt, encrypt
from repro.services.mail.mailstore import total_size_bytes
from repro.smock import ServiceRequest, ServiceResponse

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


# -- the relay memo -------------------------------------------------------------
class _PickleCounts:
    """Counts ``pickle.dumps`` / ``pickle.loads`` calls while installed."""

    def __init__(self, monkeypatch) -> None:
        self.dumps = self.loads = 0
        dumps, loads = pickle.dumps, pickle.loads

        def counted_dumps(*args, **kwargs):
            self.dumps += 1
            return dumps(*args, **kwargs)

        def counted_loads(*args, **kwargs):
            self.loads += 1
            return loads(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counted_dumps)
        monkeypatch.setattr(pickle, "loads", counted_loads)


def _same(a, b) -> bool:
    """Equal values of equal types all the way down (``True`` is not
    ``1``), and messages by identity."""
    if type(a) is not type(b):
        return False
    if isinstance(a, StoredMessage):
        return a is b
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _mutables(obj) -> List[object]:
    """Every dict and list in ``obj``, ``obj`` itself when it is one."""
    if isinstance(obj, dict):
        return [obj] + [c for v in obj.values() for c in _mutables(v)]
    if isinstance(obj, (list, tuple)):
        inner = [c for v in obj for c in _mutables(v)]
        return [obj] + inner if isinstance(obj, list) else inner
    return []


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


def test_a_repeated_answer_is_relayed_from_the_memo(monkeypatch):
    rt, proxy = _relay_bed()
    enc, dec = rt.instance_of("Encryptor"), rt.instance_of("Decryptor")
    inbox = rt.instance_of("MailServer").store.mailbox("Bob").inbox
    answers: List[Dict] = []
    loads = enc.wire.loads

    def keep(data):
        answers.append(loads(data))
        return answers[-1]

    monkeypatch.setattr(enc.wire, "loads", keep)

    def fetch():
        resp = rt.run(proxy.request("fetch_mail", {"max_sensitivity": 5}))
        assert resp.ok
        return resp

    fetch()
    fresh = pickle.loads(pickle.dumps(answers[0]))
    hits = enc.wire.hits, dec.wire.hits
    counts = _PickleCounts(monkeypatch)
    second = fetch()
    assert (counts.dumps, counts.loads) == (0, 0)
    # one hit for the request, one for the answer, at each end
    assert (enc.wire.hits, dec.wire.hits) == (hits[0] + 2, hits[1] + 2)
    first, again = answers
    assert _same(again, fresh)
    assert len(again["messages"]) == 4 and all(map(operator.is_, again["messages"], inbox))
    assert again is not first and again["messages"] is not first["messages"]
    assert second.payload["messages"] is again["messages"]
    # what a caller does to one answer reaches neither the memo nor the next
    first["messages"].clear()
    again["messages"].clear()
    again["count"] = -1
    third = fetch()
    assert (counts.dumps, counts.loads) == (0, 0)
    assert all(map(operator.is_, answers[2]["messages"], inbox)) and answers[2]["count"] == 4
    assert third.payload["bodies"] == [b"hi"] * 4


def test_equal_shapes_decode_alike_and_different_ones_apart():
    a, b = _message(), _message()
    memo = _RelayMemo()
    for payload in ({"messages": [a, b]}, {"messages": [b, a]}, {"messages": [a, a]},
                    {"messages": [a], "count": 1}, {"messages": [a], "count": True},
                    ("op", {"messages": [b], "count": 1})):
        for _ in range(2):
            assert _same(pickle.loads(memo.dumps(payload)), payload)
    assert memo.hits == 6 and len(memo) == 6


_POOL = [StoredMessage("Bob", "Alice", 1 + i % 5, b"body%d" % i) for i in range(3)]
_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from(["", "a", "b"]),
    st.sampled_from([b"", b"a"]), st.sampled_from(_POOL), st.just(0.5),
)
_payload = st.recursive(
    _leaf,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.tuples(kids, kids),
        st.dictionaries(st.sampled_from(["k", "m", 1]), kids, max_size=3),
    ),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(range(6)), min_size=1, max_size=12),
       st.lists(_payload, min_size=6, max_size=6))
def test_a_memo_hit_is_a_fresh_round_trip(order, pool):
    """Each payload goes through both directions of one memo, in an
    order that repeats some: what comes out must be what a fresh
    ``pickle.dumps`` / ``pickle.loads`` gives, in containers of its own."""
    memo = _RelayMemo()
    handed_out: List[object] = []  # kept alive, so no id is reused
    for i in order:
        payload = pool[i]
        assert _same(pickle.loads(memo.dumps(payload)), payload)
        out = memo.loads(pickle.dumps(payload))
        assert _same(out, payload)
        mine = {id(c) for c in _mutables(out)}
        assert mine.isdisjoint(id(c) for c in _mutables(payload))
        assert mine.isdisjoint(id(c) for c in handed_out)
        handed_out += _mutables(out)
        assert len(memo) <= RELAY_MEMO_SIZE


def _shared_list() -> Dict:
    shared = [_message()]
    return {"a": shared, "b": shared}


@pytest.mark.parametrize("make", [
    lambda: {"ts_ms": 1.5},
    lambda: {"updates": [_update(_message())]},
    _shared_list,
], ids=["float", "update", "shared-list"])
def test_a_payload_without_a_shape_is_pickled_every_time(monkeypatch, make):
    payload = make()
    memo = _RelayMemo()
    counts = _PickleCounts(monkeypatch)
    blob = pickle.dumps(payload)
    for _ in range(2):
        assert memo.dumps(payload) == blob
        out = memo.loads(blob)
        assert out == payload
    assert (counts.dumps, counts.loads) == (3, 2)
    assert len(memo) == 0 and memo.hits == 0
    if "a" in payload:
        assert out["a"] is out["b"]  # pickle's sharing survives


def _finish(gen):
    """Run a component operation that must not yield."""
    with pytest.raises(StopIteration) as stop:
        next(gen)
    return stop.value.value


def test_a_tampered_blob_still_fails_the_unwrap():
    rt, _proxy = _relay_bed()
    dec = rt.instance_of("Decryptor")
    good = encrypt(_SESSION_KEY, pickle.dumps(("fetch_mail", {"user": "Bob"})))
    bad = bytes([good[0] ^ 0xFF]) + good[1:]
    for blob in (bad, bad, good[:5]):
        resp = _finish(dec.op_relay(ServiceRequest(op="relay", payload={"blob": blob})))
        assert not resp.ok and resp.error.startswith("relay unwrap failed")
    resp = _finish(dec.op_relay(ServiceRequest(op="relay", payload={})))
    assert not resp.ok and resp.error.startswith("relay unwrap failed")


def _flip(blob: bytes, i: int, mask: int) -> bytes:
    return blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:]


#: each byte of a relayed blob is flipped under every one of these masks
_MASKS = (0x01, 0x80, 0xFF)


def _spy_loads(monkeypatch) -> List[bytes]:
    """Every blob ``pickle.loads`` is handed while installed."""
    seen: List[bytes] = []
    loads = pickle.loads

    def spy(data, *args, **kwargs):
        seen.append(bytes(data))
        return loads(data, *args, **kwargs)

    monkeypatch.setattr(pickle, "loads", spy)
    return seen


def _assert_refused(resp, kinds) -> None:
    assert not resp.ok and resp.error.startswith("relay unwrap failed: ")
    kinds.add(resp.error.split(": ")[1])


def test_a_tampered_request_body_fails_the_unwrap(monkeypatch):
    """The session cipher authenticates: every single-byte flip of a
    request blob, header or body, is refused by ``decrypt`` as a
    ``CryptoError`` before ``pickle.loads`` sees a byte of it.  Each one
    is a failure response, never an exception out of the component."""
    rt, _proxy = _relay_bed()
    dec = rt.instance_of("Decryptor")
    good = encrypt(_SESSION_KEY, pickle.dumps(("fetch_mail", {"user": "Bob", "since_id": 3})))
    loaded = _spy_loads(monkeypatch)
    kinds = set()
    for i in range(len(good)):
        for mask in _MASKS:
            request = ServiceRequest(op="relay", payload={"blob": _flip(good, i, mask)})
            _assert_refused(_finish(dec.op_relay(request)), kinds)
    assert kinds == {"CryptoError"}
    assert loaded == []
    # the spy does see what reaches the unpickler: the untouched blob's plaintext
    gen = dec.op_relay(ServiceRequest(op="relay", payload={"blob": good}))
    next(gen)  # unwrapped, and calling upstream
    gen.close()
    assert loaded == [decrypt(_SESSION_KEY, good)]


def test_a_tampered_response_body_fails_the_unwrap(monkeypatch):
    """The Encryptor's end: a reply blob altered on the way back is a
    failed answer to the client, not an exception in its chain, and
    never reaches ``pickle.loads``; the next request succeeds."""
    rt, proxy = _relay_bed()
    enc = rt.instance_of("Encryptor")
    call = enc.call
    replies = []

    def tamper(interface, req):
        resp = yield from call(interface, req)
        replies.append(resp.payload["blob"])
        resp.payload["blob"] = _flip(replies[-1], 20, 0x80)
        return resp

    monkeypatch.setattr(enc, "call", tamper)
    resp = rt.run(proxy.request("fetch_mail", {"max_sensitivity": 5}))
    assert replies
    assert not resp.ok and resp.error.startswith("relay unwrap failed: CryptoError: ")
    # every single-byte flip of that reply, handed straight to the Encryptor
    good = replies[-1]
    loaded = _spy_loads(monkeypatch)
    kinds = set()
    for i in range(len(good)):
        for mask in _MASKS:
            reply = ServiceResponse(payload={"blob": _flip(good, i, mask)}, size_bytes=512)

            def answer(interface, req, reply=reply):
                return reply
                yield  # pragma: no cover - generator marker

            monkeypatch.setattr(enc, "call", answer)
            request = ServiceRequest(op="fetch_mail", payload={"user": "Bob", "max_sensitivity": 5})
            _assert_refused(_finish(enc.dispatch(request)), kinds)
    assert kinds == {"CryptoError"}
    assert loaded == []
    monkeypatch.undo()
    assert rt.run(proxy.request("fetch_mail", {"max_sensitivity": 5})).ok


def test_the_memo_keeps_at_most_its_bound():
    memo = _RelayMemo()
    payloads = [{"user": "Bob", "since_id": i} for i in range(RELAY_MEMO_SIZE + 20)]
    for payload in payloads:
        memo.loads(memo.dumps(payload))
        assert len(memo) <= RELAY_MEMO_SIZE
    assert len(memo) == RELAY_MEMO_SIZE and memo.hits == 0
    # the most recent payloads are still held, the oldest are not
    memo.dumps(payloads[-1])
    memo.dumps(payloads[0])
    assert memo.hits == 1


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
