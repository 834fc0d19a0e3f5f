"""AES: FIPS 197 known answers, S-box structure, instrumentation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES, INV_SBOX, SBOX, key_expansion
from repro.crypto.errors import InvalidBlockSize, InvalidKeyLength
from repro.crypto.trace import TraceRecorder

FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")

# FIPS 197 Figure 7 (S-box) and Figure 14 (inverse S-box), row x = high
# nibble, column y = low nibble.
FIG7 = """
63 7c 77 7b f2 6b 6f c5 30 01 67 2b fe d7 ab 76
ca 82 c9 7d fa 59 47 f0 ad d4 a2 af 9c a4 72 c0
b7 fd 93 26 36 3f f7 cc 34 a5 e5 f1 71 d8 31 15
04 c7 23 c3 18 96 05 9a 07 12 80 e2 eb 27 b2 75
09 83 2c 1a 1b 6e 5a a0 52 3b d6 b3 29 e3 2f 84
53 d1 00 ed 20 fc b1 5b 6a cb be 39 4a 4c 58 cf
d0 ef aa fb 43 4d 33 85 45 f9 02 7f 50 3c 9f a8
51 a3 40 8f 92 9d 38 f5 bc b6 da 21 10 ff f3 d2
cd 0c 13 ec 5f 97 44 17 c4 a7 7e 3d 64 5d 19 73
60 81 4f dc 22 2a 90 88 46 ee b8 14 de 5e 0b db
e0 32 3a 0a 49 06 24 5c c2 d3 ac 62 91 95 e4 79
e7 c8 37 6d 8d d5 4e a9 6c 56 f4 ea 65 7a ae 08
ba 78 25 2e 1c a6 b4 c6 e8 dd 74 1f 4b bd 8b 8a
70 3e b5 66 48 03 f6 0e 61 35 57 b9 86 c1 1d 9e
e1 f8 98 11 69 d9 8e 94 9b 1e 87 e9 ce 55 28 df
8c a1 89 0d bf e6 42 68 41 99 2d 0f b0 54 bb 16
"""
FIG14 = """
52 09 6a d5 30 36 a5 38 bf 40 a3 9e 81 f3 d7 fb
7c e3 39 82 9b 2f ff 87 34 8e 43 44 c4 de e9 cb
54 7b 94 32 a6 c2 23 3d ee 4c 95 0b 42 fa c3 4e
08 2e a1 66 28 d9 24 b2 76 5b a2 49 6d 8b d1 25
72 f8 f6 64 86 68 98 16 d4 a4 5c cc 5d 65 b6 92
6c 70 48 50 fd ed b9 da 5e 15 46 57 a7 8d 9d 84
90 d8 ab 00 8c bc d3 0a f7 e4 58 05 b8 b3 45 06
d0 2c 1e 8f ca 3f 0f 02 c1 af bd 03 01 13 8a 6b
3a 91 11 41 4f 67 dc ea 97 f2 cf ce f0 b4 e6 73
96 ac 74 22 e7 ad 35 85 e2 f9 37 e8 1c 75 df 6e
47 f1 1a 71 1d 29 c5 89 6f b7 62 0e aa 18 be 1b
fc 56 3e 4b c6 d2 79 20 9a db c0 fe 78 cd 5a f4
1f dd a8 33 88 07 c7 31 b1 12 10 59 27 80 ec 5f
60 51 7f a9 19 b5 4a 0d 2d e5 7a 9f 93 c9 9c ef
a0 e0 3b 4d ae 2a f5 b0 c8 eb bb 3c 83 53 99 61
17 2b 04 7e ba 77 d6 26 e1 69 14 63 55 21 0c 7d
"""


class TestKnownAnswers:
    """FIPS 197 Appendix C vectors for all three key sizes."""

    def test_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        ct = AES(key).encrypt_block(FIPS_PT)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        ct = AES(key).encrypt_block(FIPS_PT)
        assert ct.hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f")
        ct = AES(key).encrypt_block(FIPS_PT)
        assert ct.hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_appendix_b_vector(self):
        # FIPS 197 Appendix B worked example.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert AES(key).encrypt_block(pt).hex() == \
            "3925841d02dc09fbdc118597196a0b32"

    @pytest.mark.parametrize("size", [16, 24, 32])
    def test_decrypt_inverts(self, size):
        key = bytes(range(size))
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(FIPS_PT)) == FIPS_PT


class TestSBox:
    def test_known_entries(self):
        # Spot values straight from the FIPS 197 table.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_matches_fips197_figure7(self):
        assert SBOX == list(bytes.fromhex(FIG7))

    def test_inverse_matches_fips197_figure14(self):
        assert INV_SBOX == list(bytes.fromhex(FIG14))

    def test_bijection(self):
        assert sorted(SBOX) == list(range(256))

    def test_inverse_consistency(self):
        for value in range(256):
            assert INV_SBOX[SBOX[value]] == value

    def test_no_fixed_points(self):
        # AES S-box has no fixed points and no 'anti-fixed' points.
        assert all(SBOX[v] != v for v in range(256))
        assert all(SBOX[v] != (v ^ 0xFF) for v in range(256))


class TestKeyExpansion:
    def test_round_counts(self):
        assert len(key_expansion(bytes(16))) == 11
        assert len(key_expansion(bytes(24))) == 13
        assert len(key_expansion(bytes(32))) == 15

    def test_fips_first_expanded_word(self):
        # FIPS 197 A.1: key 2b7e1516... -> w[4] = a0fafe17.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        rounds = key_expansion(key)
        assert rounds[1][0] == 0xA0FAFE17

    def test_invalid_key_length(self):
        with pytest.raises(InvalidKeyLength):
            key_expansion(bytes(15))


class TestErrors:
    def test_bad_block_size(self):
        with pytest.raises(InvalidBlockSize):
            AES(bytes(16)).encrypt_block(bytes(15))
        with pytest.raises(InvalidBlockSize):
            AES(bytes(16)).decrypt_block(bytes(17))


class TestInstrumentation:
    def test_probe_labels_and_counts(self):
        recorder = TraceRecorder()
        AES(bytes(16), recorder).encrypt_block(bytes(16))
        by_label = recorder.by_label()
        assert len(by_label["aes.sbox_out"]) == 16        # round 1 only
        assert len(by_label["aes.round_out"]) == 9        # rounds 1..9

    def test_probe_indices_cover_state(self):
        recorder = TraceRecorder()
        AES(bytes(16), recorder).encrypt_block(bytes(16))
        indices = {s.index for s in recorder.by_label()["aes.sbox_out"]}
        assert indices == set(range(16))


@settings(max_examples=30, deadline=None)
@given(key=st.binary(min_size=16, max_size=16),
       block=st.binary(min_size=16, max_size=16))
def test_roundtrip_property(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=10, deadline=None)
@given(key=st.binary(min_size=32, max_size=32),
       block=st.binary(min_size=16, max_size=16))
def test_roundtrip_property_256(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block
