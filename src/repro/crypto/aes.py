"""AES (FIPS 197) implemented from scratch.

The paper's Figure 2 highlights the June 2002 TLS revision that added
AES — the motivating example for why a mobile appliance's security
architecture must stay *flexible* (Section 3.1).  Our cipher-suite
registry therefore treats AES as the "newly standardised" algorithm a
deployed handset must be able to adopt after the fact.

The S-box is derived programmatically (multiplicative inverse in
GF(2^8), read off log/antilog tables over the generator 0x03, followed
by the FIPS 197 affine map) rather than transcribed,
eliminating table-entry typos; the implementation is validated against
the FIPS 197 Appendix C known-answer vectors for all three key sizes.

Probe points (``aes.sbox_out`` in round 1, ``aes.round_out``) feed the
DPA attack in :mod:`repro.attacks.power`.
"""

from __future__ import annotations

from typing import List, Optional

from . import fastpath
from .errors import InvalidBlockSize, InvalidKeyLength
from .trace import TraceRecorder

BLOCK_SIZE = 16


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> List[int]:
    # Multiplicative inverses from log/antilog tables over the generator
    # 0x03: exp[i] = 3^i, log[3^i] = i, and a^-1 = 3^(255 - log a).
    exp = [0] * 255
    log = [0] * 256
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value ^= ((value << 1) ^ (0x1B if value & 0x80 else 0)) & 0xFF
    sbox = [0] * 256
    for value in range(256):
        inv = exp[(255 - log[value]) % 255] if value else 0
        transformed = 0
        for bit in range(8):
            t = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            transformed |= t << bit
        sbox[value] = transformed
    return sbox


SBOX = _build_sbox()
INV_SBOX = [0] * 256
for _i, _s in enumerate(SBOX):
    INV_SBOX[_s] = _i

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))


def key_expansion(key: bytes) -> List[List[int]]:
    """FIPS 197 key expansion; returns round keys as lists of 4 words."""
    if len(key) not in (16, 24, 32):
        raise InvalidKeyLength("AES", len(key), "16, 24 or 32")
    nk = len(key) // 4
    rounds = {4: 10, 6: 12, 8: 14}[nk]
    words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
            temp = _sub_word(temp) ^ (_RCON[i // nk - 1] << 24)
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    return [words[4 * r : 4 * r + 4] for r in range(rounds + 1)]


def _sub_word(word: int) -> int:
    return (
        (SBOX[(word >> 24) & 0xFF] << 24)
        | (SBOX[(word >> 16) & 0xFF] << 16)
        | (SBOX[(word >> 8) & 0xFF] << 8)
        | SBOX[word & 0xFF]
    )


def _state_from_bytes(block: bytes) -> List[List[int]]:
    # state[row][col]; FIPS 197 fills column-major.
    return [[block[row + 4 * col] for col in range(4)] for row in range(4)]


def _bytes_from_state(state: List[List[int]]) -> bytes:
    return bytes(state[row][col] for col in range(4) for row in range(4))


def _add_round_key(state: List[List[int]], round_key: List[int]) -> None:
    for col in range(4):
        word = round_key[col]
        for row in range(4):
            state[row][col] ^= (word >> (24 - 8 * row)) & 0xFF


class AES:
    """AES block cipher with 128/192/256-bit keys (ECB at block level).

    Parameters
    ----------
    key:
        16-, 24- or 32-byte key.
    recorder:
        Optional side-channel trace recorder; probes first-round S-box
        outputs (``aes.sbox_out``) and each round's state
        (``aes.round_out``).
    """

    name = "AES"
    block_size = BLOCK_SIZE
    key_size = 16

    def __init__(self, key: bytes, recorder: Optional[TraceRecorder] = None) -> None:
        self._round_keys = key_expansion(key)
        self._rounds = len(self._round_keys) - 1
        self.recorder = recorder
        # Fast-path key schedules, derived lazily and cached so repeated
        # block calls under one mode/record-layer instance never re-expand.
        self._fast_enc: Optional[List[int]] = None
        self._fast_dec: Optional[List[int]] = None

    # -- encryption ---------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockSize("AES", len(block), BLOCK_SIZE)
        if self.recorder is None and fastpath.enabled():
            if self._fast_enc is None:
                self._fast_enc = [w for rk in self._round_keys for w in rk]
            return fastpath.aes_encrypt_block(block, self._fast_enc, self._rounds)
        state = _state_from_bytes(block)
        _add_round_key(state, self._round_keys[0])
        for rnd in range(1, self._rounds):
            self._sub_bytes(state, probe=(rnd == 1))
            _shift_rows(state)
            _mix_columns(state)
            _add_round_key(state, self._round_keys[rnd])
            if self.recorder is not None:
                self.recorder.record(
                    "aes.round_out", rnd, int.from_bytes(_bytes_from_state(state), "big")
                )
        self._sub_bytes(state, probe=False)
        _shift_rows(state)
        _add_round_key(state, self._round_keys[self._rounds])
        return _bytes_from_state(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockSize("AES", len(block), BLOCK_SIZE)
        if self.recorder is None and fastpath.enabled():
            if self._fast_dec is None:
                self._fast_dec = fastpath.aes_decrypt_schedule(self._round_keys)
            return fastpath.aes_decrypt_block(block, self._fast_dec, self._rounds)
        state = _state_from_bytes(block)
        _add_round_key(state, self._round_keys[self._rounds])
        for rnd in range(self._rounds - 1, 0, -1):
            _inv_shift_rows(state)
            _inv_sub_bytes(state)
            _add_round_key(state, self._round_keys[rnd])
            _inv_mix_columns(state)
        _inv_shift_rows(state)
        _inv_sub_bytes(state)
        _add_round_key(state, self._round_keys[0])
        return _bytes_from_state(state)

    def _sub_bytes(self, state: List[List[int]], probe: bool) -> None:
        for row in range(4):
            for col in range(4):
                out = SBOX[state[row][col]]
                if probe and self.recorder is not None:
                    self.recorder.record("aes.sbox_out", 4 * col + row, out)
                state[row][col] = out


def _shift_rows(state: List[List[int]]) -> None:
    for row in range(1, 4):
        state[row] = state[row][row:] + state[row][:row]


def _inv_shift_rows(state: List[List[int]]) -> None:
    for row in range(1, 4):
        state[row] = state[row][-row:] + state[row][:-row]


def _inv_sub_bytes(state: List[List[int]]) -> None:
    for row in range(4):
        for col in range(4):
            state[row][col] = INV_SBOX[state[row][col]]


def _mix_columns(state: List[List[int]]) -> None:
    for col in range(4):
        a = [state[row][col] for row in range(4)]
        state[0][col] = _gf_mul(a[0], 2) ^ _gf_mul(a[1], 3) ^ a[2] ^ a[3]
        state[1][col] = a[0] ^ _gf_mul(a[1], 2) ^ _gf_mul(a[2], 3) ^ a[3]
        state[2][col] = a[0] ^ a[1] ^ _gf_mul(a[2], 2) ^ _gf_mul(a[3], 3)
        state[3][col] = _gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ _gf_mul(a[3], 2)


def _inv_mix_columns(state: List[List[int]]) -> None:
    for col in range(4):
        a = [state[row][col] for row in range(4)]
        state[0][col] = (
            _gf_mul(a[0], 14) ^ _gf_mul(a[1], 11) ^ _gf_mul(a[2], 13) ^ _gf_mul(a[3], 9)
        )
        state[1][col] = (
            _gf_mul(a[0], 9) ^ _gf_mul(a[1], 14) ^ _gf_mul(a[2], 11) ^ _gf_mul(a[3], 13)
        )
        state[2][col] = (
            _gf_mul(a[0], 13) ^ _gf_mul(a[1], 9) ^ _gf_mul(a[2], 14) ^ _gf_mul(a[3], 11)
        )
        state[3][col] = (
            _gf_mul(a[0], 11) ^ _gf_mul(a[1], 13) ^ _gf_mul(a[2], 9) ^ _gf_mul(a[3], 14)
        )
