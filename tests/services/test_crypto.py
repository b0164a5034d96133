"""Tests for the toy authenticated mail cipher and keyrings."""

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

# -- the reference -----------------------------------------------------------
# The scheme as the module docstring defines it, written straight from
# ``hashlib`` with a per-byte XOR: the module must produce these bytes
# and raise these errors.
_AUTH = "authentication failed: wrong key or altered ciphertext"


def _secret(key):
    return struct.pack(">4I", *key)


def _keystream_xor(key, header, data):
    stream = hashlib.shake_256(_secret(key) + header).digest(len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


def _tag(key, length, padded):
    return hashlib.blake2b(length + padded, key=_secret(key), digest_size=4).digest()


def _reference_encrypt(key, plaintext):
    padded = plaintext + b"\x00" * (-len(plaintext) % 8)
    length = struct.pack(">Q", len(plaintext))
    header = _tag(key, length, padded) + length
    return header + _keystream_xor(key, header, padded)


def _reference_decrypt(key, ciphertext):
    if len(ciphertext) < CIPHER_OVERHEAD_BYTES:
        raise CryptoError("ciphertext too short")
    (length,) = struct.unpack(">Q", ciphertext[4:12])
    body = ciphertext[12:]
    if len(body) % 8 != 0 or not 0 <= len(body) - length < 8:
        raise CryptoError("corrupted ciphertext")
    padded = _keystream_xor(key, ciphertext[:12], body)
    if _tag(key, ciphertext[4:12], padded) != ciphertext[:4]:
        raise CryptoError(_AUTH)
    return padded[:length]


def _outcome(transform, key, ciphertext):
    """What ``transform`` makes of ``ciphertext``: its plaintext, or its
    error message."""
    try:
        return "plaintext", transform(key, ciphertext)
    except CryptoError as exc:
        return "error", str(exc)


def test_roundtrip():
    key = derive_key("k")
    every_short_length = [bytes(range(1, n + 1)) for n in range(25)]
    for plaintext in (b"", b"x", b"hello world", b"a" * 1000, bytes(range(256)), *every_short_length):
        assert decrypt(key, encrypt(key, plaintext)) == plaintext


#: ciphertexts of ``bytes(i % 251 for i in range(n))`` under
#: ``derive_key("vector", "k")``, recorded when the authenticated
#: scheme replaced XTEA — hex below 10 bytes, sha256 above.  0/1/7/8/9
#: straddle the padding boundary; 1200 is many blocks.
RECORDED_VECTORS = {
    0: "7c88f5700000000000000000",
    1: "1d6c68c700000000000000017007414560c9f91a",
    7: "b96ede250000000000000007cc5430ae3663f56e",
    8: "6038d07a0000000000000008f1cf6c47113c9039",
    9: "de205a0f0000000000000009250590a9732c1bfb7517c2412c9edee1",
    1200: "fe316d01ff3f39c0ae34869a12ec3aa5dfd2eb985966c3d669c2b256ab4be51a",
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


#: two more under the same key, recorded with the vectors above, sha256
#: of the ciphertext: a long run of one byte value, and a message the
#: size of ``flash_autonomic``'s largest relay blob.
RECORDED_BULK_VECTORS = {
    "ff-4096": (
        lambda: b"\xff" * 4096,
        "6415ac2d9830a3cc8bc84a3b333bb3dbf5a16d2371f1138cb92777a51abc0ae9",
    ),
    "random7-138588": (
        lambda: random.Random(7).randbytes(138_588),
        "99123fd4a94a6673db5e54014530e346e00c2306acc6da0192c9cfbb2d5e0111",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_BULK_VECTORS))
def test_recorded_bulk_vectors(name):
    make, digest = RECORDED_BULK_VECTORS[name]
    key = derive_key("vector", "k")
    plaintext = make()
    ct = encrypt(key, plaintext)
    assert hashlib.sha256(ct).hexdigest() == digest
    assert ct == _reference_encrypt(key, plaintext)
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
    with pytest.raises(CryptoError, match="wrong key or altered ciphertext"):
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
        (derive_key("other"), ct, _AUTH),
        (key, ct[:11], "ciphertext too short"),
        (key, b"", "ciphertext too short"),
        (key, ct[:-3], "corrupted ciphertext"),
        (key, over_long, "corrupted ciphertext"),
        # the framing comes first: a misframed blob never reaches the tag
        (derive_key("other"), over_long, "corrupted ciphertext"),
        (derive_key("other"), ct[:-3], "corrupted ciphertext"),
        # a length the framing admits is still covered by the tag
        (key, ct[:4] + struct.pack(">Q", 23) + ct[12:], _AUTH),
        (key, bytes([ct[0] ^ 1]) + ct[1:], _AUTH),
        (key, ct[:-1] + bytes([ct[-1] ^ 1]), _AUTH),
    ]
    for k, bad, message in cases:
        for transform in (decrypt, _reference_decrypt, decrypt):  # never cached
            with pytest.raises(CryptoError, match=f"^{message}$"):
                transform(k, bad)


@pytest.mark.parametrize("n", [0, 1, 20, 24])
def test_every_single_bit_flip_is_refused(n):
    """Each of the ciphertext's bits, header and body, flipped alone:
    decryption raises, never hands back a plaintext.  A flip in the
    length either breaks the framing or is caught by the tag."""
    key = derive_key("flip", str(n))
    ct = encrypt(key, bytes(range(7, 7 + n)))
    for i in range(len(ct)):
        for bit in range(8):
            bad = ct[:i] + bytes([ct[i] ^ (1 << bit)]) + ct[i + 1:]
            kind, message = _outcome(decrypt, key, bad)
            assert kind == "error", (i, bit)
            in_length = 4 <= i < 12
            assert message in ((_AUTH, "corrupted ciphertext") if in_length else (_AUTH,))
            assert _outcome(_reference_decrypt, key, bad) == (kind, message)


# -- the module vs the reference ---------------------------------------------------
_keys = st.tuples(
    *[st.one_of(st.sampled_from((0, 0xFFFFFFFF, 0x80000000)), st.integers(0, 0xFFFFFFFF))] * 4
)
#: short bodies drawn (and shrunk) byte by byte, long ones built from a
#: seed so lengths reach 4 096
_bodies = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda seed, n: random.Random(seed).randbytes(n), st.integers(0, 2**32), st.integers(0, 4096)
    ),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_keys, _bodies)
def test_cipher_matches_the_reference(key, body):
    ct = encrypt(key, body)
    assert ct == _reference_encrypt(key, body)
    assert decrypt(key, ct) == _reference_decrypt(key, ct) == body
    # decrypt bytes no encrypt produced: the body itself behind the
    # header of its own encryption, block-aligned
    aligned = body[: len(body) & ~7]
    forged = encrypt(key, aligned)[:12] + aligned
    assert _outcome(decrypt, key, forged) == _outcome(_reference_decrypt, key, forged)


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
    assert caches == {"_encrypt_cached": 4096, "_decrypt_cached": 4096}, caches


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
