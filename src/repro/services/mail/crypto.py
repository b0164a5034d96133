"""Toy cryptography for the mail service.

The paper's implementation used the Cryptix JCE; here a small
deterministic authenticated scheme built from stdlib ``hashlib``
primitives (which run in C) plays the same role: every user gets one
key per sensitivity level at account-setup time, and messages are
encrypted under the key of their sensitivity level and kept encrypted
at rest.

The scheme, for a 16-byte key ``K`` and a plaintext zero-padded to a
multiple of 8 bytes (``padded``), with ``L`` the plaintext length as 8
big-endian bytes::

    tag    = blake2b(L || padded, key=K, digest_size=4)
    header = tag || L
    body   = padded XOR shake_256(K || header)[:len(padded)]

It is SIV-style: the keystream is drawn from the tag, so encryption is
deterministic and two distinct plaintexts share a keystream only when
their 32-bit tags collide.  Decryption checks the framing, derives the
keystream, and refuses a body whose recomputed tag differs — a wrong
key or any altered byte — before anything reads the plaintext.

This is **toy-grade** cryptography: a 32-bit tag can be forged by
brute force, and determinism shows equal plaintexts.  It exists so the
encryption code paths are real (ciphertexts round-trip, wrong keys and
altered ciphertexts fail, sizes grow by a header) while staying fast
inside the simulator.

The whole-message transforms are pure functions of (key, input), so a
bounded LRU over full messages absorbs the experiments' repeated send
bodies; a hit is byte-identical to recomputation.  There is no cache
below that: a body the LRU has not seen makes one keyed hash and one
XOF call over its bytes, and one big-int XOR.

Encryptor / Decryptor components protect traffic crossing insecure
links with a session key, and nothing in the simulator reads the bytes
of that traffic: what the protection has to show is who may open it.
So a relayed payload travels by reference, as on every other hop, in a
:class:`Sealed` envelope that only the session key opens; the relayed
size still grows by :data:`CIPHER_OVERHEAD_BYTES`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Tuple

__all__ = [
    "derive_key",
    "encrypt",
    "decrypt",
    "KeyRing",
    "Sealed",
    "CryptoError",
    "CIPHER_OVERHEAD_BYTES",
]

#: header added to every ciphertext (4B tag + 8B length), bytes
CIPHER_OVERHEAD_BYTES = 12


class CryptoError(ValueError):
    """Wrong key, altered or corrupted ciphertext."""


def derive_key(*parts: str) -> Tuple[int, int, int, int]:
    """Derive a 128-bit key, as four 32-bit words, from string parts
    (user, level...)."""
    digest = hashlib.sha256("\x1f".join(parts).encode()).digest()
    return struct.unpack(">4I", digest[:16])


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR an equally long ``stream``, in C on two big ints."""
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(
        len(data), "big"
    )


@lru_cache(maxsize=4096)
def _encrypt_cached(key: Tuple[int, int, int, int], plaintext: bytes) -> bytes:
    secret = struct.pack(">4I", *key)
    length = struct.pack(">Q", len(plaintext))
    padded = plaintext + b"\x00" * (-len(plaintext) % 8)
    header = hashlib.blake2b(length + padded, key=secret, digest_size=4).digest() + length
    return header + _xor(padded, hashlib.shake_256(secret + header).digest(len(padded)))


@lru_cache(maxsize=4096)
def _decrypt_cached(key: Tuple[int, int, int, int], ciphertext: bytes) -> bytes:
    if len(ciphertext) < CIPHER_OVERHEAD_BYTES:
        raise CryptoError("ciphertext too short")
    header, body = ciphertext[:12], ciphertext[12:]
    (length,) = struct.unpack(">Q", header[4:])
    # A legitimate body is the plaintext padded to the next block: a
    # shorter claimed length would silently decrypt to a prefix.
    if len(body) % 8 != 0 or not 0 <= len(body) - length < 8:
        raise CryptoError("corrupted ciphertext")
    secret = struct.pack(">4I", *key)
    padded = _xor(body, hashlib.shake_256(secret + header).digest(len(body)))
    tag = hashlib.blake2b(header[4:] + padded, key=secret, digest_size=4).digest()
    if tag != header[:4]:  # a plain compare: the simulator has no timing adversary
        raise CryptoError("authentication failed: wrong key or altered ciphertext")
    return padded[:length]


def encrypt(key: Tuple[int, int, int, int], plaintext: bytes) -> bytes:
    """Authenticated, deterministic encryption with a 12-byte header
    (4B tag + 8B length); see the module docstring for the scheme."""
    return _encrypt_cached(key, plaintext)


def decrypt(key: Tuple[int, int, int, int], ciphertext: bytes) -> bytes:
    """Inverse of :func:`encrypt`; raises :class:`CryptoError` on
    malformed input, a wrong key, or an altered ciphertext."""
    return _decrypt_cached(key, ciphertext)


@dataclass(frozen=True, slots=True)
class Sealed:
    """``op`` and ``payload`` sealed under ``key``, carried by reference.

    :meth:`open` hands them only to a holder of the same key, and
    refuses any other as :func:`decrypt` refuses a wrong-key ciphertext.
    """

    key: Tuple[int, int, int, int]
    op: str
    payload: Any

    def open(self, key: Tuple[int, int, int, int]) -> Tuple[str, Any]:
        """``(op, payload)``; :class:`CryptoError` for any other key."""
        if key != self.key:
            raise CryptoError("authentication failed: sealed under another key")
        return self.op, self.payload


class KeyRing:
    """Per-user sensitivity-level keys, releasable up to a trust bound.

    "Each level is associated with an encryption/decryption key pair
    (one per user) generated at account setup time."  A node entrusted
    to level *k* receives only the keys for levels <= k
    (:meth:`subset`).
    """

    def __init__(self, user: str, levels: range = range(1, 6)) -> None:
        self.user = user
        self._keys: Dict[int, Tuple[int, int, int, int]] = {
            level: derive_key("mail-key", user, str(level)) for level in levels
        }

    def key_for(self, level: int) -> Tuple[int, int, int, int]:
        try:
            return self._keys[level]
        except KeyError:
            raise CryptoError(f"{self.user!r} holds no key for level {level}") from None

    def level_keys(self) -> Dict[int, Tuple[int, int, int, int]]:
        """Every held ``level -> key`` at once, for a caller about to
        decrypt a whole fetch (a level not held is simply absent)."""
        return dict(self._keys)

    def subset(self, max_level: int) -> "KeyRing":
        """The keys a node trusted to ``max_level`` may hold."""
        ring = KeyRing.__new__(KeyRing)
        ring.user = self.user
        ring._keys = {l: k for l, k in self._keys.items() if l <= max_level}
        return ring

    def __contains__(self, level: int) -> bool:
        return level in self._keys
