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

The whole-message transforms are pure functions of (key, input), so a
bounded LRU over full messages absorbs the experiments' repeated send
bodies; a hit is byte-identical to recomputation.  There is no block
cache: a fresh message (every coherence flush is one) runs the 8 rounds
once, over all its blocks at the same time, on two Python big ints.

A *lane* is the 64 bits one 8-byte block occupies in ``int.from_bytes(
padded, "big")``: ``V0`` / ``V1`` hold every block's first / second word
in the low half of its lane, and a round is lane-wise ``<< >> ^ + &``.
No lane reaches its neighbour: an intermediate stays below 2^38 until
``& M`` cuts it to 32 bits, ``>> 5`` is masked so a neighbour's low bits
never enter, and decipher adds 2^38 (a multiple of 2^32) to every lane
before it subtracts, so none borrows.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from typing import Dict, Tuple

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


@lru_cache(maxsize=1024)
def _key_check(key: Tuple[int, int, int, int]) -> bytes:
    return hashlib.sha256(struct.pack(">4I", *key)).digest()[:4]


@lru_cache(maxsize=1024)
def _schedule(key: Tuple[int, int, int, int]) -> Tuple[Tuple[int, int], ...]:
    """Each round's two subkeys ``total + key[...]``, in encipher order
    (XTEA does not mask the sum, so a subkey may reach 2^33 - 2)."""
    rounds = []
    total = 0
    for _ in range(_ROUNDS):
        k0 = total + key[total & 3]
        total = (total + _DELTA) & _MASK
        rounds.append((k0, total + key[(total >> 11) & 3]))
    return tuple(rounds)


def _lanes(data: bytes) -> Tuple[int, int, int, int]:
    """``(M, ONES, V0, V1)`` for block-aligned ``data``: ``0xFFFFFFFF``
    and ``1`` in every lane, then each block's first and second word."""
    n_blocks = len(data) >> 3
    m = int.from_bytes(b"\x00\x00\x00\x00\xff\xff\xff\xff" * n_blocks, "big")
    ones = int.from_bytes(b"\x00\x00\x00\x00\x00\x00\x00\x01" * n_blocks, "big")
    packed = int.from_bytes(data, "big")
    return m, ones, (packed >> 32) & m, packed & m


def _encipher(key: Tuple[int, int, int, int], data: bytes) -> bytes:
    """XTEA-ECB over every 8-byte block of ``data`` at once."""
    m, ones, v0, v1 = _lanes(data)
    for k0, k1 in _schedule(key):
        v0 = (v0 + ((((v1 << 4) ^ ((v1 >> 5) & m)) + v1) ^ (k0 * ones))) & m
        v1 = (v1 + ((((v0 << 4) ^ ((v0 >> 5) & m)) + v0) ^ (k1 * ones))) & m
    return ((v0 << 32) | v1).to_bytes(len(data), "big")


def _decipher(key: Tuple[int, int, int, int], data: bytes) -> bytes:
    """Inverse of :func:`_encipher`."""
    m, ones, v0, v1 = _lanes(data)
    bias = ones << 38
    for k0, k1 in reversed(_schedule(key)):
        v1 = (v1 + bias - ((((v0 << 4) ^ ((v0 >> 5) & m)) + v0) ^ (k1 * ones))) & m
        v0 = (v0 + bias - ((((v1 << 4) ^ ((v1 >> 5) & m)) + v1) ^ (k0 * ones))) & m
    return ((v0 << 32) | v1).to_bytes(len(data), "big")


@lru_cache(maxsize=4096)
def _encrypt_cached(key: Tuple[int, int, int, int], plaintext: bytes) -> bytes:
    header = _key_check(key) + struct.pack(">Q", len(plaintext))
    padded = plaintext + b"\x00" * (-len(plaintext) % 8)
    return header + _encipher(key, padded)


@lru_cache(maxsize=4096)
def _decrypt_cached(key: Tuple[int, int, int, int], ciphertext: bytes) -> bytes:
    if len(ciphertext) < CIPHER_OVERHEAD_BYTES:
        raise CryptoError("ciphertext too short")
    if ciphertext[:4] != _key_check(key):
        raise CryptoError("key mismatch")
    (length,) = struct.unpack(">Q", ciphertext[4:12])
    body = ciphertext[12:]
    # A legitimate body is the plaintext padded to the next block: a
    # shorter claimed length would silently decrypt to a prefix.
    if len(body) % 8 != 0 or not 0 <= len(body) - length < 8:
        raise CryptoError("corrupted ciphertext")
    return _decipher(key, body)[:length]


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
