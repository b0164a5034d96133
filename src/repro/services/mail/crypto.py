"""Toy cryptography for the mail service.

The paper's implementation used the Cryptix JCE; here a small XTEA-based
scheme (pure Python, deterministic) plays the same role: every user gets
one key per sensitivity level at account-setup time, messages are
encrypted under the key of their sensitivity level, and Encryptor /
Decryptor components protect component interactions crossing insecure
links with a session key.

This is **not** security-grade cryptography — it exists so the
encryption code paths are real (ciphertexts round-trip, wrong keys fail,
sizes grow by a header) while staying fast inside the simulator.

Both the block cipher and the whole-message transforms are pure
functions of (key, input), so their results are cached: a bounded LRU
over full messages absorbs the experiments' repeated send bodies, and a
block-level cache under it absorbs ECB's repeated blocks even for fresh
messages.  A cache hit is byte-identical to recomputation.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from typing import Dict, List, Tuple

__all__ = [
    "derive_key",
    "encrypt",
    "decrypt",
    "KeyRing",
    "CryptoError",
    "CIPHER_OVERHEAD_BYTES",
]

_DELTA = 0x9E3779B9
_MASK = 0xFFFFFFFF
#: XTEA specifies 32 rounds; 8 keeps the same Feistel structure (and all
#: round-trip / wrong-key properties) at a quarter of the interpreter
#: cost — the experiments run hundreds of thousands of block operations.
_ROUNDS = 8

#: header added to every ciphertext (key check + length), bytes
CIPHER_OVERHEAD_BYTES = 12


class CryptoError(ValueError):
    """Wrong key or corrupted ciphertext."""


def derive_key(*parts: str) -> Tuple[int, int, int, int]:
    """Derive a 128-bit XTEA key from string parts (user, level...)."""
    digest = hashlib.sha256("\x1f".join(parts).encode()).digest()
    return struct.unpack(">4I", digest[:16])


# The block transforms are cached — XTEA is a pure permutation per key,
# and ECB makes hits common (identical plaintext blocks recur within and
# across messages).
@lru_cache(maxsize=1 << 16)
def _encipher_block(v0: int, v1: int, key: Tuple[int, int, int, int]) -> Tuple[int, int]:
    total = 0
    for _ in range(_ROUNDS):
        v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ (total + key[total & 3]))) & _MASK
        total = (total + _DELTA) & _MASK
        v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ (total + key[(total >> 11) & 3]))) & _MASK
    return v0, v1


@lru_cache(maxsize=1 << 16)
def _decipher_block(v0: int, v1: int, key: Tuple[int, int, int, int]) -> Tuple[int, int]:
    total = (_DELTA * _ROUNDS) & _MASK
    for _ in range(_ROUNDS):
        v1 = (v1 - ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ (total + key[(total >> 11) & 3]))) & _MASK
        total = (total - _DELTA) & _MASK
        v0 = (v0 - ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ (total + key[total & 3]))) & _MASK
    return v0, v1


@lru_cache(maxsize=1024)
def _key_check(key: Tuple[int, int, int, int]) -> bytes:
    return hashlib.sha256(struct.pack(">4I", *key)).digest()[:4]


# Whole-message transforms unpack and pack every 32-bit word in one
# struct call and walk word pairs; the block cache sees the same
# (v0, v1, key) lookups a per-block unpack would make.
@lru_cache(maxsize=4096)
def _encrypt_cached(key: Tuple[int, int, int, int], plaintext: bytes) -> bytes:
    header = _key_check(key) + struct.pack(">Q", len(plaintext))
    padded = plaintext + b"\x00" * (-len(plaintext) % 8)
    n_words = len(padded) // 4
    words = iter(struct.unpack(f">{n_words}I", padded))
    out: List[int] = []
    for v0, v1 in zip(words, words):
        out += _encipher_block(v0, v1, key)
    return header + struct.pack(f">{n_words}I", *out)


@lru_cache(maxsize=4096)
def _decrypt_cached(key: Tuple[int, int, int, int], ciphertext: bytes) -> bytes:
    if len(ciphertext) < CIPHER_OVERHEAD_BYTES:
        raise CryptoError("ciphertext too short")
    if ciphertext[:4] != _key_check(key):
        raise CryptoError("key mismatch")
    (length,) = struct.unpack(">Q", ciphertext[4:12])
    body = ciphertext[12:]
    if len(body) % 8 != 0 or length > len(body):
        raise CryptoError("corrupted ciphertext")
    n_words = len(body) // 4
    words = iter(struct.unpack(f">{n_words}I", body))
    out: List[int] = []
    for v0, v1 in zip(words, words):
        out += _decipher_block(v0, v1, key)
    return struct.pack(f">{n_words}I", *out)[:length]


def encrypt(key: Tuple[int, int, int, int], plaintext: bytes) -> bytes:
    """ECB-XTEA with a 12-byte header (4B key check + 8B length).

    ECB is fine for a simulator stand-in; see module docstring.
    """
    return _encrypt_cached(key, plaintext)


def decrypt(key: Tuple[int, int, int, int], ciphertext: bytes) -> bytes:
    """Inverse of :func:`encrypt`; raises :class:`CryptoError` on a wrong
    key or malformed input."""
    return _decrypt_cached(key, ciphertext)


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

    def levels(self) -> Tuple[int, ...]:
        return tuple(sorted(self._keys))

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
