"""The fused DES/3DES kernel against the reference loops.

``fastpath.des_kernel`` runs IP once (as a swap network), 16 or 48
rounds on packed subkeys and paired SP tables, and FP once.  The
reference loops in :mod:`repro.crypto.des` (``fastpath.force(False)``)
are its oracle: a seeded sweep over every keying option, the FIPS weak
and semi-weak keys, IP/FP against the FIPS tables, the packed key
schedule against the 48-bit ``expand_key``, and the rule that a probed
cipher never reaches the kernel.
"""

import random

import pytest

from repro.crypto import fastpath
from repro.crypto.bitops import permute_bits, rotl32
from repro.crypto.des import _FP, _IP, DES, expand_key
from repro.crypto.tdes import TripleDES
from repro.crypto.trace import TraceRecorder

SWEEP_PAIRS = 500

#: FIPS 74 / SP 800-67 weak keys: E_k(E_k(x)) == x.
WEAK_KEYS = [
    "0101010101010101", "FEFEFEFEFEFEFEFE",
    "E0E0E0E0F1F1F1F1", "1F1F1F1F0E0E0E0E",
]

#: Semi-weak key pairs: E_k1(E_k2(x)) == x.
SEMI_WEAK_PAIRS = [
    ("01FE01FE01FE01FE", "FE01FE01FE01FE01"),
    ("1FE01FE00EF10EF1", "E01FE01FF10EF10E"),
    ("01E001E001F101F1", "E001E001F101F101"),
    ("1FFE1FFE0EFE0EFE", "FE1FFE1FFE0EFE0E"),
    ("011F011F010E010E", "1F011F010E010E01"),
    ("E0FEE0FEF1FEF1FE", "FEE0FEE0FEF1FEF1"),
]


def _reference_and_fast(factory, key, block):
    """(encrypt, decrypt) of ``block`` on the reference loops, then on
    the fused kernel."""
    results = []
    for fast in (False, True):
        with fastpath.force(fast):
            cipher = factory(key)
            results.append((cipher.encrypt_block(block),
                            cipher.decrypt_block(block)))
    return results


@pytest.mark.parametrize("key_bytes", [8, 16, 24])
def test_tdes_sweep_matches_reference(key_bytes):
    rng = random.Random(0x3DE5 + key_bytes)
    for _ in range(SWEEP_PAIRS):
        key = rng.randbytes(key_bytes)
        block = rng.randbytes(8)
        reference, fast = _reference_and_fast(TripleDES, key, block)
        assert fast == reference, (key.hex(), block.hex())


def test_single_des_sweep_matches_reference():
    rng = random.Random(0xDE5)
    for _ in range(SWEEP_PAIRS):
        key, block = rng.randbytes(8), rng.randbytes(8)
        reference, fast = _reference_and_fast(DES, key, block)
        assert fast == reference, (key.hex(), block.hex())


@pytest.mark.parametrize("key_hex", WEAK_KEYS)
def test_weak_keys_are_involutions_on_both_paths(key_hex):
    key = bytes.fromhex(key_hex)
    block = bytes.fromhex("0123456789ABCDEF")
    reference, fast = _reference_and_fast(DES, key, block)
    assert fast == reference
    with fastpath.force(True):
        cipher = DES(key)
        assert cipher.encrypt_block(cipher.encrypt_block(block)) == block
        # A 3DES key of three weak keys collapses to single DES.
        assert TripleDES(key * 3).encrypt_block(block) == cipher.encrypt_block(block)


@pytest.mark.parametrize("first_hex,second_hex", SEMI_WEAK_PAIRS)
def test_semi_weak_pairs_invert_each_other_on_both_paths(first_hex, second_hex):
    first, second = bytes.fromhex(first_hex), bytes.fromhex(second_hex)
    block = bytes.fromhex("0123456789ABCDEF")
    for key in (first, second):
        reference, fast = _reference_and_fast(DES, key, block)
        assert fast == reference
    with fastpath.force(True):
        assert DES(first).encrypt_block(DES(second).encrypt_block(block)) == block
        # (K1, K2, K1) with a semi-weak pair: D_K2 == E_K1, so the EDE
        # is three encryptions under K1.
        pair_key = first + second
        triple = DES(first).encrypt_block(
            DES(first).encrypt_block(DES(first).encrypt_block(block)))
        assert TripleDES(pair_key).encrypt_block(block) == triple


def test_swap_network_ip_fp_match_fips_tables():
    rng = random.Random(0x1F)
    values = [0, (1 << 64) - 1] + [rng.getrandbits(64) for _ in range(300)]
    for value in values:
        permuted = permute_bits(value, _IP, 64)
        rotated = (rotl32(permuted >> 32, 1), rotl32(permuted & 0xFFFFFFFF, 1))
        assert fastpath._ip_rotated(value) == rotated
        left = rotl32(value >> 32, 1)
        right = rotl32(value & 0xFFFFFFFF, 1)
        assert fastpath._fp_rotated(left, right) == permute_bits(value, _FP, 64)


def _packed_from_fips(round_keys):
    """The kernel's schedule built from 48-bit round keys by the
    definition: ``ka`` holds S-box chunks 1, 3, 5, 7 and ``kb`` chunks
    2, 4, 6, 8, one chunk per byte; two rounds per tuple."""
    words = []
    for k in round_keys:
        chunks = [(k >> (42 - 6 * box)) & 0x3F for box in range(8)]
        words.append(int.from_bytes(bytes(chunks[0::2]), "big"))
        words.append(int.from_bytes(bytes(chunks[1::2]), "big"))
    return [tuple(words[i:i + 4]) for i in range(0, len(words), 4)]


def test_packed_schedule_matches_reference_expand_key():
    rng = random.Random(0x5C4)
    keys = [bytes.fromhex(k) for k in WEAK_KEYS]
    keys += [bytes.fromhex(k) for pair in SEMI_WEAK_PAIRS for k in pair]
    keys += [rng.randbytes(8) for _ in range(200)]
    for key in keys:
        with fastpath.force(False):
            round_keys = expand_key(key)
        schedule = fastpath.des_expand_key(key)
        assert schedule == _packed_from_fips(round_keys), key.hex()
        assert fastpath.des_reverse_schedule(schedule) == _packed_from_fips(
            list(reversed(round_keys)))


def test_packed_schedule_ignores_parity_bits():
    key = bytes.fromhex("133457799BBCDFF1")
    flipped = bytes(b ^ 1 for b in key)
    assert fastpath.des_expand_key(key) == fastpath.des_expand_key(flipped)


def test_probed_tdes_stays_on_reference_loops():
    key, block = bytes(range(24)), bytes(range(8))
    recorder = TraceRecorder()
    with fastpath.force(True):
        probed = TripleDES(key, recorder)
        probed_ct = probed.encrypt_block(block)
        plain_ct = TripleDES(key).encrypt_block(block)
    samples = recorder.by_label()["des.sbox_out"]
    assert len(samples) == 3 * 16 * 8
    assert probed_ct == plain_ct
    # Probed ciphers never build a kernel schedule.
    assert probed._fast_enc is None and probed._fast_dec is None


def test_one_way_cipher_holds_one_schedule():
    key, block = bytes(range(24)), bytes(range(8))
    with fastpath.force(True):
        decoder = TripleDES(key)
        decoder.decrypt_block(block)
        encoder = TripleDES(key)
        encoder.encrypt_block(block)
    assert decoder._fast_enc is None and decoder._fast_dec is not None
    assert encoder._fast_dec is None and encoder._fast_enc is not None


def test_switch_after_construction_builds_the_missing_schedule():
    key, block = bytes(range(24)), bytes(range(8))
    with fastpath.force(False):
        cipher = TripleDES(key)
        reference = cipher.encrypt_block(block)
    assert cipher._fast_enc is None
    with fastpath.force(True):
        assert cipher.encrypt_block(block) == reference
        assert cipher.decrypt_block(reference) == block
