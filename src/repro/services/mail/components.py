"""Runtime implementations of the mail-service components.

These are the live counterparts of the Figure 2 units:

- :class:`MailServerComponent` — the primary store (all accounts, all
  sensitivity levels, full keyrings).
- :class:`ViewMailServerComponent` — a data view: state bounded by its
  ``TrustLevel`` factor, keys released only up to that level,
  write-back coherence through its *planned* upstream linkage (so
  coherence traffic crosses Encryptor/Decryptor pairs exactly like
  request traffic).
- :class:`EncryptorComponent` / :class:`DecryptorComponent` — relays
  that protect any operation crossing insecure links with a session
  key.  The payload crosses by reference, as on every other hop, in a
  :class:`~repro.services.mail.crypto.Sealed` envelope only the session
  key opens; the relayed size grows by the cipher's 12-byte header.
- :class:`MailClientComponent` — full client (send/receive + address
  book); :class:`ViewMailClientComponent` — the object view without the
  address book.

Messages are encrypted under the *sender's* per-level key by the client
and transformed to the *recipient's* key by the first store that holds
both keys — "the service transparently encrypts messages according to
the sender's sensitivity upon a send, and transforms these messages to
those encrypted to the recipient's sensitivity upon a receive."
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Generator, List, Optional, Tuple

from ...coherence import Update, last_writer_wins
from ...smock import RuntimeComponent, ServiceRequest, ServiceResponse
from .crypto import (
    CIPHER_OVERHEAD_BYTES, CryptoError, KeyRing, Sealed, decrypt, derive_key, encrypt,
)
from .mailstore import ENVELOPE_BYTES, MailStore, StoredMessage

__all__ = [
    "MailServerComponent",
    "ViewMailServerComponent",
    "EncryptorComponent",
    "DecryptorComponent",
    "MailClientComponent",
    "ViewMailClientComponent",
    "MAIL_COMPONENT_CLASSES",
]

#: session key protecting Encryptor<->Decryptor traffic
_SESSION_KEY = derive_key("smock-session", "mail")

#: upper bound on one coherence sync RPC when message faults are active
#: (a dropped sync message would otherwise hang the flush forever)
SYNC_TIMEOUT_MS = 30_000.0

#: rosters up to this size get the historical full contact graph; the
#: open-loop load harness provisions 10k–100k generated accounts, where
#: the everyone-knows-everyone O(n^2) tuples would dominate setup
_FULL_CONTACTS_MAX_ROSTER = 128


def _contacts_for(roster: Tuple[str, ...], i: int) -> Tuple[str, ...]:
    """Contact list for ``roster[i]``: everyone else when the roster is
    small, otherwise a wrapping window of the next 128 names."""
    n = len(roster)
    if n <= _FULL_CONTACTS_MAX_ROSTER + 1:
        return tuple(u for j, u in enumerate(roster) if j != i)
    return tuple(roster[(i + k) % n] for k in range(1, _FULL_CONTACTS_MAX_ROSTER + 1))


class _StoreBase(RuntimeComponent):
    """Shared mail-store behavior of MailServer and ViewMailServer."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.store = MailStore(self._sensitivity_bound())
        self.keyrings: Dict[str, KeyRing] = {}
        #: idempotency key -> response of the attempt that applied it.
        #: A retried store (client timeout raced a slow success, or a
        #: failover re-sent through a new chain) replays the recorded
        #: response instead of storing the message twice.
        self._applied: Dict[str, ServiceResponse] = {}
        self.duplicates_suppressed = 0

    def _sensitivity_bound(self) -> Optional[int]:
        return None

    def _replay(self, key: Optional[str]) -> Optional[ServiceResponse]:
        if key is None:
            return None
        resp = self._applied.get(key)
        if resp is not None:
            self.duplicates_suppressed += 1
        return resp

    def _record_applied(self, key: Optional[str], resp: ServiceResponse) -> None:
        if key is not None and resp.ok:
            self._applied[key] = resp

    def _store_replicated(self, update: Update) -> bool:
        """File the message a replicated ``store_message`` update carries:
        False (a suppressed duplicate) when its idempotency key already
        applied here.  A view stores only what its trust level holds, and
        records the key either way."""
        attrs = update.attributes
        key = attrs["idempotency_key"]
        if key is not None and key in self._applied:
            self.duplicates_suppressed += 1
            return False
        msg = attrs["message"]
        if self.store.accepts(msg.sensitivity):
            self.store.store(msg)
        if key is not None:
            self._applied[key] = ServiceResponse(payload={"msg_id": msg.msg_id}, size_bytes=256)
        return True

    def on_linked(self) -> None:
        """Provision the service's account roster on this store.

        The roster comes from ``runtime.service_state['mail_users']``;
        views receive only the keys their trust level allows.  Every
        user starts with the rest of the roster as contacts.
        """
        roster = tuple(self.runtime.service_state.get("mail_users", ()))
        for i, user in enumerate(roster):
            if not self.store.has_account(user):
                self.provision_account(user, _contacts_for(roster, i))

    # -- account management (service setup, not timed) ------------------------
    def provision_account(self, user: str, contacts: Tuple[str, ...] = ()) -> None:
        """Create an account + keyring (bounded for views)."""
        if not self.store.has_account(user):
            self.store.create_account(user, contacts)
        ring = KeyRing(user)
        bound = self._sensitivity_bound()
        self.keyrings[user] = ring if bound is None else ring.subset(bound)

    def _transform_to_recipient(self, msg: Dict[str, Any]) -> StoredMessage:
        """Decrypt under the sender's key, re-encrypt under the
        recipient's (the 'transform on receive' the paper describes,
        done eagerly at store time)."""
        sender, recipient = msg["sender"], msg["recipient"]
        sensitivity = msg["sensitivity"]
        body = msg["body"]
        sender_ring = self.keyrings.get(sender)
        recipient_ring = self.keyrings.get(recipient)
        if sender_ring is not None and recipient_ring is not None:
            plaintext = decrypt(sender_ring.key_for(sensitivity), body)
            body = encrypt(recipient_ring.key_for(sensitivity), plaintext)
        return StoredMessage(
            sender=sender, recipient=recipient, sensitivity=sensitivity, body=body
        )

    @staticmethod
    def _fetch_args(req: ServiceRequest) -> Tuple[str, int, Optional[int]]:
        user = req.payload.get("user") or req.user or ""
        return (
            user,
            int(req.payload.get("since_id", 0)),
            req.payload.get("max_sensitivity"),
        )

    @staticmethod
    def _messages_response(answer: Tuple[List[StoredMessage], int]) -> ServiceResponse:
        """Respond with a :meth:`MailStore.fetch_sized` answer."""
        messages, size_bytes = answer
        return ServiceResponse(
            payload={"messages": messages, "count": len(messages)},
            size_bytes=size_bytes + 256,
        )

    def op_sync_prepare(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        """Directory lock acquisition for an incoming write-back batch
        (both the primary and intermediate view replicas can grant)."""
        return ServiceResponse(payload={"granted": True}, size_bytes=128)
        yield  # pragma: no cover - generator marker


class MailServerComponent(_StoreBase):
    """The primary mail server (Figure 2's ``MailServer``)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: (user, msg_id) -> (ts_ms, version) of the last accepted move,
        #: the incumbent side of last-writer-wins for folder moves that
        #: raced a partition (stamped on direct applies too, so a
        #: reconciled replay can lose to a newer direct move).
        self._move_clock: Dict[Tuple[str, int], Tuple[float, Optional[Tuple[int, int]]]] = {}

    def op_store_message(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        cached = self._replay(req.idempotency_key)
        if cached is not None:
            return cached
        msg = self._transform_to_recipient(req.payload)
        self.store.store(msg)
        resp = ServiceResponse(payload={"msg_id": msg.msg_id}, size_bytes=256)
        self._record_applied(req.idempotency_key, resp)
        return resp
        yield  # pragma: no cover - generator marker

    def op_fetch_mail(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        user, since_id, max_s = self._fetch_args(req)
        return self._messages_response(self.store.fetch_sized(user, since_id, max_s))
        yield  # pragma: no cover - generator marker

    def op_sync_batch(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        """Apply a replica's write-back batch; fan out invalidations.

        ``updates`` is the batch the replica buffered: a ``store_message``
        update carries its message, and batches can mix them with folder
        updates a partitioned replica buffered in degraded mode.  Updates
        whose ``(origin, seq)`` version the frontier has already admitted
        (a duplicated or replayed batch) are skipped, and so are messages
        whose idempotency key already applied here (e.g. a client retried
        through a fresh failover chain while the old replica's buffer was
        still in flight).
        """
        directory = self.coherence
        applier = ("primary", self.unit.name)
        admitted: List[Update] = []
        applied = 0
        for update in req.payload["updates"]:
            if not directory.admit(applier, update):
                continue
            admitted.append(update)
            if update.op == "store_message":
                if self._store_replicated(update):
                    applied += 1
            elif self._apply_folder_update(update) in ("applied", "conflict"):
                applied += 1
        directory.broadcast_invalidations(
            family=self.unit.name,
            batch=admitted,
            origin_config=req.payload.get("origin_config"),
        )
        return ServiceResponse(payload={"applied": applied}, size_bytes=256)
        yield  # pragma: no cover - generator marker

    # -- partition-tolerance merge hooks ------------------------------------
    def _apply_folder_update(self, update: Update) -> str:
        """Merge one folder-structure update (union folders, LWW moves)."""
        user = update.attr("user", "")
        if update.op == "create_folder":
            box = self.store.ensure_account(user)
            folder = update.attr("folder", "")
            if not folder or not box.add_folder(folder):
                return "duplicate"  # union merge: both sides created it
            return "applied"
        if update.op == "move_mail":
            msg_id = int(update.attr("msg_id", 0))
            folder = update.attr("folder", "")
            incumbent = self._move_clock.get((user, msg_id))
            if incumbent is not None:
                ts, version = incumbent
                if not last_writer_wins(update, ts, version):
                    return "conflict"  # a newer move already won this cell
                outcome = "conflict"
            else:
                outcome = "applied"
            try:
                box = self.store.mailbox(user)
                if folder:
                    box.add_folder(folder)  # created during the partition
                self.store.move_message(user, msg_id, folder)
            except Exception:
                return "unapplied"  # message never reached the primary
            self._move_clock[(user, msg_id)] = (update.ts_ms, update.version)
            return outcome
        return "ignored"

    def apply_reconciled(self, update: Update) -> str:
        """Anti-entropy hook: replay one recovered update at the primary.

        Called by :meth:`CoherenceDirectory.reconcile` for the frontier
        delta of a crashed replica's recovered buffer.  Returns an
        outcome label for the reconcile report.
        """
        if update.op != "store_message":
            return self._apply_folder_update(update)
        msg = update.attr("message")
        if msg is None:
            return "unapplied"  # metadata-only: payload died with the host
        key = update.attr("idempotency_key")
        if key is None or key not in self._applied:  # else: suppressed below
            if self.store.holds(msg.recipient, msg.msg_id):
                return "duplicate"  # a client retry re-applied it directly
        return "applied" if self._store_replicated(update) else "duplicate"

    def op_create_account(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        self.provision_account(req.payload["user"], tuple(req.payload.get("contacts", ())))
        return ServiceResponse(payload={"user": req.payload["user"]}, size_bytes=128)
        yield  # pragma: no cover - generator marker

    def op_contacts(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        user = req.payload.get("user") or req.user or ""
        contacts = self.store.contacts(user) if self.store.has_account(user) else []
        return ServiceResponse(payload={"contacts": contacts}, size_bytes=256)
        yield  # pragma: no cover - generator marker

    def op_create_folder(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        user = req.payload.get("user") or req.user or ""
        try:
            self.store.create_folder(user, req.payload.get("folder", ""))
        except Exception as exc:  # MailStoreError -> failure response
            return ServiceResponse.failure(str(exc))
        return ServiceResponse(
            payload={"folders": self.store.folder_names(user)}, size_bytes=256
        )
        yield  # pragma: no cover - generator marker

    def op_move_mail(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        user = req.payload.get("user") or req.user or ""
        try:
            msg = self.store.move_message(
                user, int(req.payload["msg_id"]), req.payload.get("folder", "")
            )
        except Exception as exc:
            return ServiceResponse.failure(str(exc))
        # Direct moves are incumbents for reconciliation-time LWW.
        self._move_clock[(user, msg.msg_id)] = (self.sim.now, None)
        return ServiceResponse(payload={"msg_id": msg.msg_id}, size_bytes=128)
        yield  # pragma: no cover - generator marker


class ViewMailServerComponent(_StoreBase):
    """A data-view replica bounded by its ``TrustLevel`` factor."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.stale_users: set = set()
        self.replica_id: Optional[int] = None
        self.upstream_forwards = 0
        self._daemon_running = False

    def on_linked(self) -> None:
        """Start the coherence daemon for time-driven policies.

        Count-based policies flush synchronously on the triggering
        update; a *time-driven* replica must also reconcile when the
        interval elapses with updates pending but no new traffic — that
        needs a background process polling the directory.
        """
        super().on_linked()
        if self.replica_id is None:
            return
        from ...coherence import TimePolicy

        entry = self.coherence.entry(self.replica_id)
        if isinstance(entry.policy, TimePolicy) and not self._daemon_running:
            self._daemon_running = True
            self.sim.process(
                self._coherence_daemon(entry.policy.interval_ms),
                name=f"coherence-daemon:{self.instance_id}",
            )

    def _coherence_daemon(self, interval_ms: float) -> Generator[Any, Any, None]:
        """Event-driven periodic reconciliation.

        While the replica is clean the daemon blocks on a wake event
        (so an idle simulation can drain its event list); the first
        buffered update wakes it, it sleeps out the interval, flushes if
        still due, and goes back to waiting.
        """
        directory = self.coherence
        while self._daemon_running:
            if self.replica_id is None:
                break
            try:
                entry = directory.entry(self.replica_id)
            except KeyError:
                break  # replica retired (replanning)
            if not entry.dirty:
                self._wake = self.sim.event()
                yield self._wake
                continue
            yield self.sim.timeout(interval_ms)
            try:
                due = directory.needs_flush(self.replica_id, self.sim.now)
            except KeyError:
                break
            if due:
                yield from self.write_back()

    def _notify_daemon(self) -> None:
        wake = getattr(self, "_wake", None)
        if wake is not None and not wake.triggered:
            wake.succeed()

    def stop_daemon(self) -> None:
        self._daemon_running = False
        self._notify_daemon()

    @property
    def trust_level(self) -> int:
        return int(self.factor_values.get("TrustLevel", 1))

    def _sensitivity_bound(self) -> Optional[int]:
        return int(self.factor_values.get("TrustLevel", 1))

    @property
    def config(self) -> Tuple[str, Tuple[Tuple[str, Any], ...]]:
        return (self.unit.name, tuple(sorted(self.factor_values.items())))

    # -- coherence hooks -----------------------------------------------------
    def on_invalidate(self, updates: List[Update]) -> None:
        for u in updates:
            recipient = u.attr("recipient")
            if recipient is not None:
                self.stale_users.add(recipient)

    def _call_upstream(
        self, req: ServiceRequest
    ) -> Generator[Any, Any, ServiceResponse]:
        """Upstream RPC for coherence traffic, bounded under faults.

        With message faults active a sync RPC can be silently dropped,
        which would hang the flush generator forever with its drained,
        client-acked batch stranded.  Racing the call against a timeout
        bounds that: the attempt is abandoned, the caller requeues, and
        the version frontier dedups the re-send if the abandoned attempt
        applied after all.  Without a fault hook the call is the plain
        blocking RPC: a fault-free run schedules no timeout events.
        """
        if self.runtime.transport.fault_hook is None:
            resp = yield from self.call("ServerInterface", req)
            return resp
        sim = self.sim
        rpc = sim.process(
            self.call("ServerInterface", req),
            name=f"sync-rpc:{self.instance_id}:{req.op}",
        )
        timeout = sim.timeout(SYNC_TIMEOUT_MS)
        yield sim.any_of([rpc, timeout])
        if rpc.triggered:
            return rpc.value
        return ServiceResponse.failure(
            f"sync {req.op!r} timed out after {SYNC_TIMEOUT_MS:.0f}ms",
            retryable=True,
        )

    def write_back(self) -> Generator[Any, Any, None]:
        """Reconcile with upstream through the planned linkage.

        Two-phase, like a directory protocol: a small prepare/lock round
        trip to the upstream directory entry, then the batch transfer
        with the commit acknowledgement.  The batch goes upstream as it
        was drained, each update with its version stamp (upstream
        frontiers dedup on it) and a ``store_message`` update with its
        message.
        """
        # Captured before the first yield: a replanning round may retire
        # this instance mid-flush, which clears ``self.replica_id`` — the
        # batch must still be requeued under the id it was drained from
        # (the directory keeps a family tombstone for exactly that).
        replica_id = self.replica_id
        assert replica_id is not None
        directory = self.coherence
        batch, units = directory.drain(replica_id)
        if not batch:
            return
        prepare = ServiceRequest(
            op="sync_prepare",
            payload={"origin_config": self.config, "units": units},
            size_bytes=128,
        )
        prep_resp = yield from self._call_upstream(prepare)
        if not prep_resp.ok:
            directory.requeue(replica_id, batch)
            return
        size = 512
        for u in batch:
            size += u.size_bytes
        req = ServiceRequest(
            op="sync_batch",
            payload={"updates": batch, "units": units, "origin_config": self.config},
            size_bytes=size,
        )
        resp = yield from self._call_upstream(req)
        if resp.ok:
            directory.record_flush(replica_id, self.sim.now, batch)
        else:
            directory.requeue(replica_id, batch)

    # -- operations -----------------------------------------------------------------
    def op_store_message(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        cached = self._replay(req.idempotency_key)
        if cached is not None:
            return cached
        sensitivity = int(req.payload["sensitivity"])
        multiplicity = int(req.payload.get("multiplicity", 1))
        if not self.store.accepts(sensitivity):
            # Above our trust: never stored here; forward synchronously.
            self.upstream_forwards += 1
            resp = yield from self.call("ServerInterface", req)
            return resp
        msg = self._transform_to_recipient(req.payload)
        self.store.store(msg)
        assert self.replica_id is not None
        # The idempotency key rides in the update so every upstream store
        # the batch reaches can suppress a copy the client's retry
        # already applied there directly.
        update = Update(
            op="store_message",
            attributes={
                "recipient": msg.recipient,
                "sensitivity": msg.sensitivity,
                "message": msg,
                "idempotency_key": req.idempotency_key,
            },
            size_bytes=msg.size_bytes,
            multiplicity=multiplicity,
        )
        must_flush = self.coherence.on_local_update(
            self.replica_id, update, self.sim.now
        )
        self._notify_daemon()
        if must_flush:
            # Write-back reconciliation blocks the triggering request —
            # the source of the DS500/DS1000 group separation in Fig. 7.
            yield from self.write_back()
        resp = ServiceResponse(payload={"msg_id": msg.msg_id}, size_bytes=256)
        self._record_applied(req.idempotency_key, resp)
        return resp

    def op_fetch_mail(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        user, since_id, max_s = self._fetch_args(req)
        if user in self.stale_users:
            self.coherence.note_stale_read(self.unit.represents)
        needs_upstream = user in self.stale_users or (
            max_s is not None and max_s > self.trust_level
        )
        if not needs_upstream:
            return self._messages_response(self.store.fetch_sized(user, since_id, max_s))
        # Miss path: fetch through the planned upstream linkage.
        self.upstream_forwards += 1
        resp = yield from self.call("ServerInterface", req)
        if resp.ok:
            self.store.absorb(user, resp.payload.get("messages", ()))
            # Only a fetch that covered everything this view may hold
            # re-validates the user; a bounded one (``since_id``, or a
            # sensitivity cap below our trust level) leaves the rest of
            # the local copy as stale as it was.
            if since_id == 0 and (max_s is None or max_s >= self.trust_level):
                self.stale_users.discard(user)
        elif resp.retryable:
            # Degraded mode: the upstream is unreachable (partition), so
            # serve the local — possibly stale — copy per our flush
            # policy's consistency promise, with stale-read accounting.
            # The user stays marked stale, so the next reachable fetch
            # re-validates.
            self.coherence.note_degraded_read(self.unit.represents)
            return self._messages_response(self.store.fetch_sized(user, since_id, max_s))
        return resp

    def op_create_folder(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        """Folder structure lives at the primary: write through.

        When the primary is unreachable (partition), the folder is
        created locally and the update buffered
        for write-back; reconciliation merges folder structure by union.
        """
        self.upstream_forwards += 1
        resp = yield from self.call("ServerInterface", req)
        if resp.ok or not resp.retryable:
            return resp
        user = req.payload.get("user") or req.user or ""
        folder = req.payload.get("folder", "")
        if not folder:
            return resp
        self.store.ensure_account(user).add_folder(folder)
        resp = yield from self._buffer_degraded(
            Update(
                op="create_folder",
                attributes={"user": user, "folder": folder, "recipient": user},
                size_bytes=128,
            ),
            ServiceResponse(
                payload={"folders": self.store.folder_names(user)}, size_bytes=256
            ),
        )
        return resp

    def op_move_mail(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        """Folder structure lives at the primary: write through.

        Under a partition the move applies locally
        when this view holds the message, and is buffered for write-back
        — reconciliation resolves racing moves last-writer-wins.
        """
        self.upstream_forwards += 1
        resp = yield from self.call("ServerInterface", req)
        if resp.ok or not resp.retryable:
            return resp
        user = req.payload.get("user") or req.user or ""
        msg_id = int(req.payload.get("msg_id") or 0)
        folder = req.payload.get("folder", "")
        try:
            box = self.store.mailbox(user)
            if folder:
                box.add_folder(folder)
            msg = self.store.move_message(user, msg_id, folder)
        except Exception:
            return resp  # message not held here: genuinely unservable
        resp = yield from self._buffer_degraded(
            Update(
                op="move_mail",
                attributes={
                    "user": user, "msg_id": msg_id,
                    "folder": folder, "recipient": user,
                },
                size_bytes=128,
            ),
            ServiceResponse(payload={"msg_id": msg.msg_id}, size_bytes=128),
        )
        return resp

    def _buffer_degraded(
        self, update: Update, resp: ServiceResponse
    ) -> Generator[Any, Any, ServiceResponse]:
        """Buffer a degraded-mode write for write-back and ack locally."""
        assert self.replica_id is not None
        self.coherence.note_degraded_write(self.unit.represents)
        must_flush = self.coherence.on_local_update(
            self.replica_id, update, self.sim.now
        )
        self._notify_daemon()
        if must_flush:
            # Likely still partitioned — the attempt requeues on failure
            # and anti-entropy / later flushes carry it after the heal.
            yield from self.write_back()
        return resp

    def op_sync_batch(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        """A downstream replica reconciles through us: apply, then chain.

        Each update we apply is buffered here as it arrived, message and
        version stamp included, to chain upstream with our next flush.
        Updates whose version this replica's frontier already admitted (a
        duplicated or replayed batch) are dropped, and so are messages
        whose idempotency key already applied at this store: our own
        buffered copy (recorded when the key first applied) is already on
        its way upstream.  Degraded-mode folder updates chain unchanged.
        """
        assert self.replica_id is not None
        directory = self.coherence
        applier = ("replica", self.replica_id)
        must_flush = False
        applied = 0
        for update in req.payload["updates"]:
            if not directory.admit(applier, update):
                continue
            if update.op == "store_message" and not self._store_replicated(update):
                continue
            applied += 1
            if directory.on_local_update(self.replica_id, update, self.sim.now):
                must_flush = True
        self._notify_daemon()
        if must_flush:
            yield from self.write_back()
        return ServiceResponse(payload={"applied": applied}, size_bytes=256)


def _unwrap_failed(exc: Exception) -> ServiceResponse:
    """The answer to a relayed envelope that does not open.

    An envelope sealed under another key is refused by
    :meth:`Sealed.open` as a ``CryptoError``.  Either end catches every
    ``Exception`` around its unwrap, so a request or reply without an
    envelope is a failure response too and never an exception out of
    the component.
    """
    return ServiceResponse.failure(f"relay unwrap failed: {type(exc).__name__}: {exc}")


class EncryptorComponent(RuntimeComponent):
    """Protects component interactions across insecure links.

    Any operation is wrapped: ``(op, payload)`` is sealed under the
    session key, forwarded over ``DecryptorInterface``, and the (sealed)
    response opened.
    """

    def dispatch(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        wrapped = req.child(
            op="relay",
            payload={"sealed": Sealed(_SESSION_KEY, req.op, req.payload)},
            size_bytes=req.size_bytes + CIPHER_OVERHEAD_BYTES,
        )
        resp = yield from self.call("DecryptorInterface", wrapped)
        if not resp.ok or "sealed" not in resp.payload:
            return resp
        try:
            _op, payload = resp.payload["sealed"].open(_SESSION_KEY)
        except Exception as exc:  # see _unwrap_failed
            return _unwrap_failed(exc)
        return ServiceResponse(
            payload=payload,
            size_bytes=max(64, resp.size_bytes - CIPHER_OVERHEAD_BYTES),
            ok=resp.ok,
            error=resp.error,
        )


class DecryptorComponent(RuntimeComponent):
    """The receiving end of an Encryptor across an insecure link."""

    def op_relay(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        try:
            op, payload = req.payload["sealed"].open(_SESSION_KEY)
        except Exception as exc:  # see _unwrap_failed
            return _unwrap_failed(exc)
        inner = req.child(
            op=op,
            payload=payload,
            size_bytes=max(64, req.size_bytes - CIPHER_OVERHEAD_BYTES),
        )
        resp = yield from self.call("ServerInterface", inner)
        return ServiceResponse(
            payload={"sealed": Sealed(_SESSION_KEY, op, resp.payload)},
            size_bytes=resp.size_bytes + CIPHER_OVERHEAD_BYTES,
            ok=resp.ok,
            error=resp.error,
        )


class MailClientComponent(RuntimeComponent):
    """Full-featured client: send, receive, address book."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.keyrings: Dict[str, KeyRing] = {}
        self.sends = 0
        self.fetches = 0
        #: (user, max_sensitivity) -> (messages, bodies) of the last
        #: successful fetch, both private copies
        self._reads: Dict[
            Tuple[str, Any], Tuple[List[StoredMessage], List[Optional[bytes]]]
        ] = {}

    def _ring(self, user: str) -> KeyRing:
        ring = self.keyrings.get(user)
        if ring is None:
            ring = KeyRing(user)
            self.keyrings[user] = ring
        return ring

    def op_send_mail(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        """Encrypt under the sender's level key, then store upstream."""
        self.sends += 1
        sender = req.user or req.payload.get("sender", "")
        sensitivity = int(req.payload["sensitivity"])
        body_text = req.payload.get("body", b"")
        if isinstance(body_text, str):
            body_text = body_text.encode()
        body = encrypt(self._ring(sender).key_for(sensitivity), body_text)
        downstream = req.child(
            op="store_message",
            payload={
                "sender": sender,
                "recipient": req.payload["recipient"],
                "sensitivity": sensitivity,
                "body": body,
                "multiplicity": req.payload.get("multiplicity", 1),
            },
            size_bytes=len(body) + ENVELOPE_BYTES,
        )
        resp = yield from self.call("ServerInterface", downstream)
        return resp

    def op_fetch_mail(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        """Fetch and decrypt this user's new messages.

        Only what the last answer for the same ``(user, max_sensitivity)``
        did not hold is decrypted.  A message is a frozen object and a
        user's keyring is never replaced, so when the answer starts with
        the very objects of that last answer, their bodies are the ones
        decrypted then; any other answer is decrypted in full.  An answer
        relayed through an Encryptor/Decryptor pair holds the store's own
        objects too: the relay carries its payload by reference.
        """
        self.fetches += 1
        user = req.user or req.payload.get("user", "")
        max_s = req.payload.get("max_sensitivity")
        downstream = req.child(
            op="fetch_mail",
            payload={
                "user": user,
                "since_id": req.payload.get("since_id", 0),
                "max_sensitivity": max_s,
            },
            size_bytes=256,
        )
        resp = yield from self.call("ServerInterface", downstream)
        if not resp.ok:
            return resp
        messages = resp.payload.get("messages", [])
        start = 0
        bodies: List[Optional[bytes]] = []
        last = self._reads.get((user, max_s))
        if last is not None:
            last_messages, last_bodies = last
            if len(messages) >= len(last_messages) and all(
                map(operator.is_, last_messages, messages)
            ):
                start = len(last_messages)
                bodies = last_bodies[:]
        if start < len(messages):
            keys = self._ring(user).level_keys()  # once per fetch, not per message
            for msg in messages[start:]:
                key = keys.get(msg.sensitivity)
                try:
                    bodies.append(None if key is None else decrypt(key, msg.body))
                except CryptoError:
                    bodies.append(None)  # not encrypted under this user's key
        self._reads[(user, max_s)] = (list(messages), bodies[:])
        return ServiceResponse(
            payload={"messages": messages, "bodies": bodies},
            size_bytes=resp.size_bytes,
        )

    def op_address_book(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        """Full-client extra feature (absent from the object view)."""
        downstream = req.child(
            op="contacts",
            payload={"user": req.user or req.payload.get("user", "")},
            size_bytes=128,
        )
        resp = yield from self.call("ServerInterface", downstream)
        return resp

    def op_create_folder(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        """Folder management — also a full-client-only feature."""
        downstream = req.child(
            op="create_folder",
            payload={
                "user": req.user or req.payload.get("user", ""),
                "folder": req.payload.get("folder", ""),
            },
            size_bytes=128,
        )
        resp = yield from self.call("ServerInterface", downstream)
        return resp

    def op_move_mail(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        downstream = req.child(
            op="move_mail",
            payload={
                "user": req.user or req.payload.get("user", ""),
                "msg_id": req.payload.get("msg_id"),
                "folder": req.payload.get("folder", ""),
            },
            size_bytes=128,
        )
        resp = yield from self.call("ServerInterface", downstream)
        return resp


class ViewMailClientComponent(MailClientComponent):
    """Object view of the client: send/receive only — no address book,
    no folder management.

    "ViewMailClient exemplifies an object view, which restricts the
    functionality of the MailClient."
    """

    op_address_book = None  # type: ignore[assignment]
    op_create_folder = None  # type: ignore[assignment]
    op_move_mail = None  # type: ignore[assignment]


#: unit name -> runtime class, for SmockRuntime.add_service(component_classes=)
MAIL_COMPONENT_CLASSES = {
    "MailServer": MailServerComponent,
    "ViewMailServer": ViewMailServerComponent,
    "Encryptor": EncryptorComponent,
    "Decryptor": DecryptorComponent,
    "MailClient": MailClientComponent,
    "ViewMailClient": ViewMailClientComponent,
}
