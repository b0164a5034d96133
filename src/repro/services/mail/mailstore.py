"""Mail state: accounts, folders, contacts, messages.

"In addition to traditional mail functionality — user accounts, folders,
contact lists, and the ability to send and receive e-mail, our example
service allows a user to associate a sensitivity level with each
message."

The same store class backs both the primary ``MailServer`` (unbounded
sensitivity) and ``ViewMailServer`` data views (``max_sensitivity``
bound): a view's store refuses messages above its bound, which is the
state-subset semantics the planner's trust conditions protect.

A message is a frozen object that every hop hands over by reference,
the Encryptor -> Decryptor relay included, so an answer is made of the
very objects the store holds and a client's identity-keyed read memo
hits on it.  A mailbox keeps, per sensitivity bound, its last
full-inbox answer and that answer's byte size until the inbox next
changes (:meth:`Mailbox.file` into the inbox,
:meth:`MailStore.move_message`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "StoredMessage",
    "Mailbox",
    "MailStore",
    "MailStoreError",
    "ENVELOPE_BYTES",
    "total_size_bytes",
]

#: headers/envelope estimate added to a body's length for transfer sizes
ENVELOPE_BYTES = 96

_message_ids = itertools.count(1)


class MailStoreError(ValueError):
    """Unknown account, sensitivity violation, or malformed message."""


@dataclass(frozen=True, slots=True)
class StoredMessage:
    """One e-mail message as held by a store (body already encrypted)."""

    sender: str
    recipient: str
    sensitivity: int
    body: bytes
    msg_id: int = field(default_factory=lambda: next(_message_ids))

    def __post_init__(self) -> None:
        if not 1 <= self.sensitivity <= 5:
            raise MailStoreError(f"sensitivity out of range: {self.sensitivity}")

    @property
    def size_bytes(self) -> int:
        return len(self.body) + ENVELOPE_BYTES


def total_size_bytes(messages: Sequence[StoredMessage]) -> int:
    """``sum(m.size_bytes for m in messages)`` without a generator
    resume and a property call per message (fetch responses are sized
    on every receive)."""
    return sum([len(m.body) for m in messages]) + ENVELOPE_BYTES * len(messages)


@dataclass
class Mailbox:
    """Folders of one account.

    ``inbox`` and ``sent`` always exist; users may add custom folders
    and move messages between them ("traditional mail functionality —
    user accounts, folders, contact lists", §2).

    ``ids`` indexes the whole mailbox: a message is in some folder iff
    its id is in ``ids``.  Messages enter through :meth:`file` only and
    never leave (a move changes the folder, not the mailbox), so the
    invariant needs no other upkeep.

    ``answers`` maps a sensitivity bound to the inbox messages within it
    and their total size, as :meth:`MailStore.fetch_sized` last computed
    them; whatever changes the inbox clears it.
    """

    folders: Dict[str, List[StoredMessage]] = field(
        default_factory=lambda: {"inbox": [], "sent": []}
    )
    contacts: List[str] = field(default_factory=list)
    ids: Set[int] = field(init=False)
    answers: Dict[Optional[int], Tuple[List[StoredMessage], int]] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.ids = {msg.msg_id for folder in self.folders.values() for msg in folder}

    def file(self, folder: str, message: StoredMessage) -> None:
        """Append ``message`` to ``folder`` and index it."""
        self.folders[folder].append(message)
        self.ids.add(message.msg_id)
        if folder == "inbox":
            self.answers.clear()

    def add_folder(self, name: str) -> bool:
        """Create folder ``name`` unless it exists; True if it did."""
        if name in self.folders:
            return False
        self.folders[name] = []
        return True

    @property
    def inbox(self) -> List[StoredMessage]:
        return self.folders["inbox"]

    def folder(self, name: str) -> List[StoredMessage]:
        try:
            return self.folders[name]
        except KeyError:
            raise MailStoreError(f"no folder {name!r}") from None


class MailStore:
    """Accounts + folders, optionally bounded by sensitivity.

    ``max_sensitivity=None`` is the primary (full state); an integer
    bound makes this a data-view store that only accepts messages at or
    below the bound.
    """

    def __init__(self, max_sensitivity: Optional[int] = None) -> None:
        if max_sensitivity is not None and not 1 <= max_sensitivity <= 5:
            raise MailStoreError(f"bad sensitivity bound {max_sensitivity}")
        self.max_sensitivity = max_sensitivity
        self._accounts: Dict[str, Mailbox] = {}
        self.messages_stored = 0

    # -- accounts -----------------------------------------------------------
    def create_account(self, user: str, contacts: Iterable[str] = ()) -> Mailbox:
        if user in self._accounts:
            raise MailStoreError(f"account {user!r} already exists")
        box = Mailbox(contacts=list(contacts))
        self._accounts[user] = box
        return box

    def has_account(self, user: str) -> bool:
        return user in self._accounts

    def ensure_account(self, user: str) -> Mailbox:
        if user not in self._accounts:
            self._accounts[user] = Mailbox()
        return self._accounts[user]

    def mailbox(self, user: str) -> Mailbox:
        try:
            return self._accounts[user]
        except KeyError:
            raise MailStoreError(f"no account {user!r}") from None

    def users(self) -> List[str]:
        return sorted(self._accounts)

    def contacts(self, user: str) -> List[str]:
        return list(self.mailbox(user).contacts)

    # -- folders ------------------------------------------------------------
    def create_folder(self, user: str, name: str) -> None:
        box = self.mailbox(user)
        if not name:
            raise MailStoreError("folder name must be non-empty")
        if not box.add_folder(name):
            raise MailStoreError(f"folder {name!r} already exists")

    def folder_names(self, user: str) -> List[str]:
        return sorted(self.mailbox(user).folders)

    def move_message(self, user: str, msg_id: int, dest: str) -> StoredMessage:
        """Move one message from whatever folder holds it into ``dest``."""
        box = self.mailbox(user)
        target = box.folder(dest)
        for folder in box.folders.values():
            for i, msg in enumerate(folder):
                if msg.msg_id == msg_id:
                    if folder is target:
                        return msg
                    folder.pop(i)
                    target.append(msg)  # same mailbox: ``ids`` is unaffected
                    box.answers.clear()
                    return msg
        raise MailStoreError(f"{user!r} has no message {msg_id}")

    # -- messages --------------------------------------------------------------
    def accepts(self, sensitivity: int) -> bool:
        return self.max_sensitivity is None or sensitivity <= self.max_sensitivity

    def store(self, message: StoredMessage) -> None:
        """File into the recipient's inbox and the sender's sent folder."""
        if not self.accepts(message.sensitivity):
            raise MailStoreError(
                f"message sensitivity {message.sensitivity} exceeds store bound "
                f"{self.max_sensitivity}"
            )
        accounts = self._accounts
        recipient = accounts.get(message.recipient)
        if recipient is None:
            recipient = accounts[message.recipient] = Mailbox()
        recipient.file("inbox", message)
        sender = accounts.get(message.sender)  # after the above: may be the same box
        if sender is not None:
            sender.file("sent", message)
        self.messages_stored += 1

    def holds(self, user: str, msg_id: int) -> bool:
        """Is ``msg_id`` in any of ``user``'s folders?"""
        box = self._accounts.get(user)
        return box is not None and msg_id in box.ids

    def absorb(self, user: str, messages: Iterable[StoredMessage]) -> None:
        """Merge messages fetched from upstream into ``user``'s inbox.

        A view's miss path: messages above this store's bound are
        skipped, and so is any message the mailbox already holds *in any
        folder* — one the user moved out of the inbox must not come back.
        One set probe per message; not counted in ``messages_stored``
        (nothing new entered the service).
        """
        bound = self.max_sensitivity
        box: Optional[Mailbox] = None
        for message in messages:
            if bound is not None and message.sensitivity > bound:
                continue
            if box is None:
                box = self.ensure_account(user)
            if message.msg_id not in box.ids:
                box.file("inbox", message)

    def fetch(
        self,
        user: str,
        since_id: int = 0,
        max_sensitivity: Optional[int] = None,
    ) -> List[StoredMessage]:
        """Inbox messages newer than ``since_id`` within the bound."""
        return self.fetch_sized(user, since_id, max_sensitivity)[0]

    def fetch_sized(
        self,
        user: str,
        since_id: int = 0,
        max_sensitivity: Optional[int] = None,
    ) -> Tuple[List[StoredMessage], int]:
        """:meth:`fetch` and the answer's :func:`total_size_bytes`.

        A full-inbox answer (``since_id == 0``) comes from the mailbox's
        ``answers`` while the inbox is unchanged; the caller always gets
        its own list.
        """
        box = self.ensure_account(user)
        bound = max_sensitivity
        if self.max_sensitivity is not None:
            bound = min(bound, self.max_sensitivity) if bound is not None else self.max_sensitivity
        if since_id == 0:
            answer = box.answers.get(bound)
            if answer is None:
                messages = [m for m in box.inbox if bound is None or m.sensitivity <= bound]
                answer = box.answers[bound] = (messages, total_size_bytes(messages))
            return answer[0][:], answer[1]
        messages = [
            m
            for m in box.inbox
            if m.msg_id > since_id and (bound is None or m.sensitivity <= bound)
        ]
        return messages, total_size_bytes(messages)

    def __len__(self) -> int:
        return len(self._accounts)
