"""The security-sensitive mail service of the paper's case study (§2, §4)."""

from .components import (
    DecryptorComponent,
    EncryptorComponent,
    MAIL_COMPONENT_CLASSES,
    MailClientComponent,
    MailServerComponent,
    ViewMailClientComponent,
    ViewMailServerComponent,
)
from .crypto import CIPHER_OVERHEAD_BYTES, CryptoError, KeyRing, decrypt, derive_key, encrypt
from .mailstore import Mailbox, MailStore, MailStoreError, StoredMessage
from .spec import DEFAULT_USERS, MAIL_SPEC_TEXT, build_mail_spec
from .translator import mail_translator
from .workload import (
    WorkloadConfig,
    WorkloadResult,
    mail_workload,
    open_loop_mail_ops,
)

__all__ = [
    "build_mail_spec",
    "MAIL_SPEC_TEXT",
    "DEFAULT_USERS",
    "mail_translator",
    "MAIL_COMPONENT_CLASSES",
    "MailServerComponent",
    "ViewMailServerComponent",
    "EncryptorComponent",
    "DecryptorComponent",
    "MailClientComponent",
    "ViewMailClientComponent",
    "MailStore",
    "Mailbox",
    "StoredMessage",
    "MailStoreError",
    "KeyRing",
    "encrypt",
    "decrypt",
    "derive_key",
    "CryptoError",
    "CIPHER_OVERHEAD_BYTES",
    "WorkloadConfig",
    "WorkloadResult",
    "mail_workload",
    "open_loop_mail_ops",
]
