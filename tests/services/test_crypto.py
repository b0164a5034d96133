"""Tests for the toy XTEA crypto and keyrings."""

import hashlib
import random
import struct
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.services.mail import (
    CIPHER_OVERHEAD_BYTES,
    CryptoError,
    KeyRing,
    crypto,
    decrypt,
    derive_key,
    encrypt,
)

# -- the per-block reference ----------------------------------------------------
# The cipher as ``crypto.py`` ran it up to commit bd54f10: one 8-byte
# block at a time, on two masked 32-bit words.  The whole-message kernel
# must produce these bytes and raise these errors.
_DELTA, _MASK, _ROUNDS = 0x9E3779B9, 0xFFFFFFFF, 8


def _encipher_block(v0, v1, key):
    total = 0
    for _ in range(_ROUNDS):
        v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ (total + key[total & 3]))) & _MASK
        total = (total + _DELTA) & _MASK
        v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ (total + key[(total >> 11) & 3]))) & _MASK
    return v0, v1


def _decipher_block(v0, v1, key):
    total = (_DELTA * _ROUNDS) & _MASK
    for _ in range(_ROUNDS):
        v1 = (v1 - ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ (total + key[(total >> 11) & 3]))) & _MASK
        total = (total - _DELTA) & _MASK
        v0 = (v0 - ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ (total + key[total & 3]))) & _MASK
    return v0, v1


def _walk(block_fn, key, data):
    out = bytearray()
    for off in range(0, len(data), 8):
        out += struct.pack(">2I", *block_fn(*struct.unpack_from(">2I", data, off), key))
    return bytes(out)


def _key_check(key):
    return hashlib.sha256(struct.pack(">4I", *key)).digest()[:4]


def _reference_encrypt(key, plaintext):
    padded = plaintext + b"\x00" * (-len(plaintext) % 8)
    header = _key_check(key) + struct.pack(">Q", len(plaintext))
    return header + _walk(_encipher_block, key, padded)


def _reference_decrypt(key, ciphertext):
    if len(ciphertext) < CIPHER_OVERHEAD_BYTES:
        raise CryptoError("ciphertext too short")
    if ciphertext[:4] != _key_check(key):
        raise CryptoError("key mismatch")
    (length,) = struct.unpack(">Q", ciphertext[4:12])
    body = ciphertext[12:]
    if len(body) % 8 != 0 or not 0 <= len(body) - length < 8:
        raise CryptoError("corrupted ciphertext")
    return _walk(_decipher_block, key, body)[:length]


def test_roundtrip():
    key = derive_key("k")
    every_short_length = [bytes(range(1, n + 1)) for n in range(25)]
    for plaintext in (b"", b"x", b"hello world", b"a" * 1000, bytes(range(256)), *every_short_length):
        assert decrypt(key, encrypt(key, plaintext)) == plaintext


#: ciphertexts of ``bytes(i % 251 for i in range(n))`` under
#: ``derive_key("vector", "k")``, recorded at commit a4770c4 (one
#: struct call per 8-byte block) — hex below 10 bytes, sha256 above.
#: 0/1/7/8/9 straddle the padding boundary; 1200 is many blocks.
RECORDED_VECTORS = {
    0: "ab7d98bc0000000000000000",
    1: "ab7d98bc00000000000000013b0ab3bff979a432",
    7: "ab7d98bc0000000000000007b2b29372e854ed69",
    8: "ab7d98bc0000000000000008470e213e8ad69678",
    9: "ab7d98bc0000000000000009470e213e8ad696786797e160896208c2",
    1200: "7a907b6bac11f7835686d2774fa93799e2c5c17268c1f22439f85524c12a553c",
}


@pytest.mark.parametrize("n", sorted(RECORDED_VECTORS))
def test_recorded_vectors(n):
    key = derive_key("vector", "k")
    plaintext = bytes(i % 251 for i in range(n))
    ct = encrypt(key, plaintext)
    assert len(ct) == n + (-n % 8) + CIPHER_OVERHEAD_BYTES
    digest = ct.hex() if n < 10 else hashlib.sha256(ct).hexdigest()
    assert digest == RECORDED_VECTORS[n]
    assert decrypt(key, ct) == plaintext


#: two more under the same key, recorded at commit bd54f10 (the last
#: with a per-block loop), sha256 of the ciphertext: every lane all-ones
#: (each add carries, each subtract borrows), and a message the size of
#: ``flash_autonomic``'s largest relay blob.
RECORDED_BULK_VECTORS = {
    "ff-4096": (
        lambda: b"\xff" * 4096,
        "e17d180af350009ac1dacfa8fde109473936d82434ebeb78736b9aa4db42cc1b",
    ),
    "random7-138588": (
        lambda: random.Random(7).randbytes(138_588),
        "082bf7fd4300cac0dd03f34c31c302a566347900330c7b512ba1f6769b1a736d",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_BULK_VECTORS))
def test_recorded_bulk_vectors(name):
    make, digest = RECORDED_BULK_VECTORS[name]
    key = derive_key("vector", "k")
    plaintext = make()
    ct = encrypt(key, plaintext)
    assert hashlib.sha256(ct).hexdigest() == digest
    assert decrypt(key, ct) == plaintext


def test_ciphertext_differs_from_plaintext():
    key = derive_key("k")
    pt = b"secret message!!"
    ct = encrypt(key, pt)
    assert pt not in ct


def test_overhead_constant():
    key = derive_key("k")
    ct = encrypt(key, b"12345678")
    assert len(ct) == 8 + CIPHER_OVERHEAD_BYTES


def test_wrong_key_rejected():
    ct = encrypt(derive_key("a"), b"payload")
    with pytest.raises(CryptoError, match="key mismatch"):
        decrypt(derive_key("b"), ct)


def test_truncated_ciphertext_rejected():
    key = derive_key("k")
    ct = encrypt(key, b"payload!")
    with pytest.raises(CryptoError):
        decrypt(key, ct[:8])
    with pytest.raises(CryptoError):
        decrypt(key, ct[:-3])  # broken block alignment


@pytest.mark.parametrize("length", [20 - 8, 0])
def test_forged_shorter_length_rejected(length):
    """A legitimate header satisfies ``0 <= len(body) - length < 8``; a
    smaller one used to decrypt silently to a prefix of the plaintext."""
    key = derive_key("k")
    ct = encrypt(key, bytes(range(20)))
    bad = ct[:4] + struct.pack(">Q", length) + ct[12:]
    with pytest.raises(CryptoError, match="corrupted ciphertext"):
        decrypt(key, bad)


def test_malformed_inputs_raise_the_reference_errors():
    key = derive_key("k")
    ct = encrypt(key, b"payload!" * 3)
    over_long = ct[:4] + struct.pack(">Q", 25) + ct[12:]
    cases = [
        (derive_key("other"), ct, "key mismatch"),
        (key, ct[:11], "ciphertext too short"),
        (key, b"", "ciphertext too short"),
        (key, ct[:-3], "corrupted ciphertext"),
        (key, over_long, "corrupted ciphertext"),
        # the key check comes first: a wrong key never reads the length
        (derive_key("other"), over_long, "key mismatch"),
    ]
    for k, bad, message in cases:
        for transform in (decrypt, _reference_decrypt, decrypt):  # never cached
            with pytest.raises(CryptoError, match=f"^{message}$"):
                transform(k, bad)


# -- whole-message kernel vs the per-block reference ------------------------------
#: words that carry out of / borrow into / shift across a 32-bit half lane
_EDGE_WORDS = (0, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF, 0x0000001F, 0xF8000000, 1)
_words = st.one_of(st.sampled_from(_EDGE_WORDS), st.integers(0, _MASK))
_keys = st.tuples(
    *[st.one_of(st.sampled_from((0, 0xFFFFFFFF, 0x80000000)), st.integers(0, _MASK))] * 4
)


def _seeded_body(seed, length, edge_share):
    rng = random.Random(seed)
    words = [
        rng.choice(_EDGE_WORDS) if rng.random() < edge_share else rng.getrandbits(32)
        for _ in range(-(-length // 4))
    ]
    return struct.pack(f">{len(words)}I", *words)[:length]


#: edge words in random lane positions: short bodies drawn (and shrunk)
#: word by word, long ones built from a seed so lengths reach 4 096
_bodies = st.one_of(
    st.builds(
        lambda words, cut: struct.pack(f">{len(words)}I", *words)[: max(0, 4 * len(words) - cut)],
        st.lists(_words, max_size=48),
        st.integers(0, 3),
    ),
    st.builds(
        _seeded_body,
        st.integers(0, 2**32),
        st.integers(0, 4096),
        st.sampled_from((0.0, 0.5, 0.9, 1.0)),
    ),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_keys, _bodies)
def test_kernel_matches_per_block_reference(key, body):
    ct = encrypt(key, body)
    assert ct == _reference_encrypt(key, body)
    assert decrypt(key, ct) == _reference_decrypt(key, ct) == body
    # decipher on bytes no encipher produced: the body itself, block-aligned
    aligned = body[: len(body) & ~7]
    forged = _key_check(key) + struct.pack(">Q", len(aligned)) + aligned
    assert decrypt(key, forged) == _reference_decrypt(key, forged)


def _python_calls(fn, *args):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_cipher_cost_is_per_message_not_per_block():
    """One cold ``encrypt`` makes the same handful of Python-level calls
    whatever the length: no per-block function is back in the loop."""
    small = _python_calls(encrypt, derive_key("cold", "512"), random.Random(1).randbytes(512))
    large = _python_calls(encrypt, derive_key("cold", "64k"), random.Random(2).randbytes(65_536))
    assert small == large <= 16


def test_no_cache_beyond_the_message_lru():
    caches = {
        name: obj.cache_parameters()["maxsize"]
        for name, obj in vars(crypto).items()
        if hasattr(obj, "cache_parameters")
    }
    assert caches["_encrypt_cached"] == caches["_decrypt_cached"] == 4096
    assert all(size is not None and size <= 4096 for size in caches.values()), caches
    assert not hasattr(crypto, "_encipher_block") and not hasattr(crypto, "_decipher_block")


def test_key_derivation_deterministic_and_distinct():
    assert derive_key("alice", "1") == derive_key("alice", "1")
    assert derive_key("alice", "1") != derive_key("alice", "2")
    assert derive_key("alice", "1") != derive_key("bob", "1")
    # separator prevents ambiguity between ("ab","c") and ("a","bc")
    assert derive_key("ab", "c") != derive_key("a", "bc")


def test_keyring_levels():
    ring = KeyRing("alice")
    assert tuple(sorted(ring.level_keys())) == (1, 2, 3, 4, 5)
    assert 3 in ring
    assert ring.key_for(2) == derive_key("mail-key", "alice", "2")
    with pytest.raises(CryptoError):
        ring.key_for(9)


def test_keyring_subset_enforces_trust_bound():
    ring = KeyRing("alice").subset(3)
    assert tuple(sorted(ring.level_keys())) == (1, 2, 3)
    assert 4 not in ring
    with pytest.raises(CryptoError):
        ring.key_for(4)


def test_cross_level_decryption_fails():
    ring = KeyRing("alice")
    ct = encrypt(ring.key_for(4), b"topsecret")
    with pytest.raises(CryptoError):
        decrypt(ring.key_for(3), ct)
