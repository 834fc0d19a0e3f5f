"""HMAC key set-up and the KDF's P_hash against their textbook forms.

``HMAC`` builds both pads with one big-integer XOR and ``p_hash`` keys
one ``HMAC`` per call; both must stay byte-identical to the
construction spelled out byte by byte (RFC 2104 pads, a fresh one-shot
HMAC for every P_hash step), and to the standard library's ``hmac``.
"""

import hashlib
import hmac as std_hmac
import random

import pytest

from repro.crypto import fastpath
from repro.crypto.hmac import HMAC, hmac
from repro.crypto.md5 import MD5
from repro.crypto.sha1 import SHA1
from repro.protocols.kdf import p_hash

BLOCK = 64


def _textbook_hmac(key, message, factory):
    """RFC 2104 with byte-wise pads."""
    if len(key) > BLOCK:
        key = factory().update(key).digest()
    key = key + b"\x00" * (BLOCK - len(key))
    inner = factory().update(bytes(b ^ 0x36 for b in key)).update(message)
    return factory().update(bytes(b ^ 0x5C for b in key)).update(
        inner.digest()).digest()


def _textbook_p_hash(secret, seed, length):
    """RFC 2246 P_hash with two one-shot HMACs per step."""
    out = b""
    a = seed
    while len(out) < length:
        a = _textbook_hmac(secret, a, SHA1)
        out += _textbook_hmac(secret, a + seed, SHA1)
    return out[:length]


def _keys(rng):
    """Keys shorter than, equal to and longer than the hash block."""
    lengths = [0, 1, 20, 63, 64, 65, 100, 200]
    lengths += [rng.randrange(1, 3 * BLOCK) for _ in range(24)]
    return [rng.randbytes(n) for n in lengths]


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("factory,digestmod", [(SHA1, hashlib.sha1),
                                               (MD5, hashlib.md5)],
                         ids=["SHA1", "MD5"])
def test_hmac_matches_textbook_and_stdlib(fast, factory, digestmod):
    rng = random.Random(0x4D4C)
    with fastpath.force(fast):
        for key in _keys(rng):
            message = rng.randbytes(rng.randrange(0, 150))
            expected = _textbook_hmac(key, message, factory)
            assert hmac(key, message, factory) == expected
            assert HMAC(key, factory).mac(message) == expected
            assert expected == std_hmac.new(key, message, digestmod).digest()
            assert HMAC(key, factory).digest_size == len(expected)


@pytest.mark.parametrize("fast", [False, True])
def test_p_hash_matches_textbook(fast):
    rng = random.Random(0x9A54)
    with fastpath.force(fast):
        for secret in _keys(rng):
            seed = rng.randbytes(rng.randrange(1, 80))
            for length in (1, 12, 20, 48, 104):
                assert p_hash(secret, seed, length) == _textbook_p_hash(
                    secret, seed, length)
