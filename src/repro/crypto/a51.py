"""A5/1-class LFSR stream cipher — the GSM legacy suite's engine.

Pourghasem et al. ("Light Weight Implementation of Stream Ciphers for
M-Commerce", PAPERS.md) motivate LFSR-class designs as the cheapest
point on the energy/throughput curve for handset bulk protection; A5/1
is *the* deployed example of the class, shipping in every GSM handset
of the paper's era.  This module implements the standard three-register
majority-clocked generator (19/22/23-bit registers, as published by
Briceno, Goldberg and Wagner's pedagogical implementation) in two
forms:

* the GSM frame discipline — :meth:`A51.burst` yields the authentic
  228-bit dual burst (114 bits A→B, 114 bits B→A) for a (key, frame)
  pair, pinned against the published pedagogical test vector in the
  conformance corpus; and
* a continuous record-layer keystream — after the same key/frame/mix
  schedule the generator simply keeps majority-clocking, so the first
  114 bits of the continuous stream equal the A→B burst and the suite
  can protect arbitrary-length records.

The 11-byte suite key blob is ``key[8] || frame_tag[3]``: the record
layers never pass stream ciphers an IV, so the per-record WTLS rekey
(``key XOR sequence``) lands in the trailing frame-tag bytes — exactly
GSM's frame-number re-keying, recreated by the suite plumbing.

Keystream bits leave the generator MSB-first within each byte (the
convention of the published vector).  Both dispatch paths produce
bytes whole-byte-at-a-time from the same register representation, so
:meth:`save_state` snapshots are byte-identical across paths.

Implementation shape
--------------------

Each register is a Python int with the output bit at the top; a clock
is ``<< 1`` with the tap parity inserted at bit 0.  The reference path
(:meth:`A51._clock_all`, :meth:`A51._clock_majority`) clocks one bit
at a time and stays the independent oracle.  The fast path steps four
majority clocks per table lookup, because every bit those four clocks
read is already in the registers:

* *Clock windows.*  A register that has advanced ``a`` times reads its
  clocking bit at ``8 - a`` (R1) or ``10 - a`` (R2, R3), so the next
  four clocks read only bits 8..5 of R1 and 10..7 of R2 and R3.  One
  4096-entry table, indexed by the three 4-bit windows, gives each
  register's advance count (0..4, stored as ``4 - count``) and its
  move pattern (which of the four clocks moved it).
* *Output windows.*  After ``a`` advances the output bit is original
  bit ``18 - a`` (``21 - a``, ``22 - a``), so four clocks read only
  the top 5 bits of each register.  A 512-entry table maps
  (move pattern, 5-bit output window) to that register's 4 output
  bits; the three lookups XOR to the keystream nibble.
* *Shifted-window feedback.*  Each register then advances by its count
  in one step: the four feedback bits of four full clocks are the tap
  windows shifted by ``tap - 3`` (every tap index is at least 7, so
  within 8 clocks a tap never reads a bit inserted by the same batch —
  the 8-clock validity bound), and ``((r << 4) | feedback) >> (4 -
  count)`` keeps the first ``count`` of them.  Those windows read only
  the bits from the lowest tap - 3 up, so the XOR is tabulated over
  them: R1 bits 18..10 (512 entries), R2 21..17 (32) and R3 22..17
  (64); R3's tap 7 sits far below the rest, so its window stays a
  shift.
* *Schedule.*  The 64 key and 22 frame clocks clock every register, so
  they load in 8-clock batches (the last one 6) with the same shifted
  windows and the batch's key bits XORed in at once; the 100 mixing
  clocks are 25 table steps with the output discarded.

All tables are derived from the majority rule and the taps on first
use, never transcribed; ``tests/crypto/test_stream_kernels.py`` checks
every entry against :meth:`A51._clock_majority` and
:meth:`A51._clock_all` steps.  Step entries are interned (256 distinct
tuples), so the tables hold about 90 KB.
"""

from __future__ import annotations

from typing import Tuple

from . import fastpath
from .errors import InvalidKeyLength

# Register widths/masks and feedback taps, MSB = output bit.
_R1_MASK = 0x07FFFF            # 19 bits
_R2_MASK = 0x3FFFFF            # 22 bits
_R3_MASK = 0x7FFFFF            # 23 bits
_R1_TAPS = 0x072000            # bits 18, 17, 16, 13
_R2_TAPS = 0x300000            # bits 21, 20
_R3_TAPS = 0x700080            # bits 22, 21, 20, 7
_R1_CLOCK = 0x000100           # clocking bit 8
_R2_CLOCK = 0x000400           # clocking bit 10
_R3_CLOCK = 0x000400           # clocking bit 10
_R1_OUT = 18
_R2_OUT = 21
_R3_OUT = 22

_FRAME_MASK = 0x3FFFFF         # GSM frame numbers are 22 bits
_LOAD_BITS = 64 + 22           # key clocks + frame clocks

# Nibble values 0..15 -> ASCII hex digits, to pack nibbles into bytes.
_HEX = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")

# (steps, outputs, R1/R2/R3 feedback), derived on first fast-path use.
_TABLES = None


def _parity(word: int) -> int:
    """Parity of the set bits — the LFSR feedback function."""
    return bin(word).count("1") & 1


def _build_tables():
    """Derive the 4-clock step, output and feedback tables from the
    majority rule and the taps (see the module docstring)."""
    global _TABLES
    # table[k] covers k clocks, indexed by three k-bit clock windows.  A
    # clock reads each window's top bit; a register that moves drops
    # that bit, one that stays keeps it for the next clock, so the last
    # k - 1 clocks read a (k - 1)-bit window of each: table[k - 1].
    # Entries: (k - advances, move pattern << 5) per register, clock 1
    # at the pattern's top bit; equal entries are shared, so no level
    # holds more than 256 distinct tuples.
    interned = {}
    table = [(0, 0, 0, 0, 0, 0)]
    for k in range(1, 5):
        top, mask = k - 1, (1 << k) - 1
        rest, table = table, []
        for index in range(1 << 3 * k):
            w1, w2, w3 = index >> 2 * k, (index >> k) & mask, index & mask
            c1, c2, c3 = w1 >> top, w2 >> top, w3 >> top
            majority = c1 + c2 + c3 >= 2
            g1, g2, g3 = c1 == majority, c2 == majority, c3 == majority
            n1 = w1 & (mask >> 1) if g1 else w1 >> 1
            n2 = w2 & (mask >> 1) if g2 else w2 >> 1
            n3 = w3 & (mask >> 1) if g3 else w3 >> 1
            s1, s2, s3, p1, p2, p3 = rest[n1 << 2 * top | n2 << top | n3]
            entry = (s1 + (not g1), s2 + (not g2), s3 + (not g3),
                     g1 << top + 5 | p1, g2 << top + 5 | p2,
                     g3 << top + 5 | p3)
            table.append(interned.setdefault(entry, entry))
    # After a advances the output bit is bit 4 - a of the 5-bit window.
    outputs = []
    for index in range(512):
        pattern, window = index >> 5, index & 0x1F
        moved = nibble = 0
        for clock in range(4):
            moved += (pattern >> (3 - clock)) & 1
            nibble = (nibble << 1) | ((window >> (4 - moved)) & 1)
        outputs.append(nibble)
    # Four clocks' feedback reads each tap's window ``r >> (tap - 3)``,
    # i.e. only register bits from the lowest tap - 3 up.  Tabulate it
    # over those bits; R3's tap 7 is far below the others, so its
    # window stays a shift: R1 bits 18..10, R2 21..17, R3 22..17.
    feedback = [[_window_feedback(value << low, taps)
                 for value in range(1 << (max(taps) + 1 - low))]
                for taps, low in (((18, 17, 16, 13), 10), ((21, 20), 17),
                                  ((22, 21, 20), 17))]
    _TABLES = (table, outputs, *feedback)
    return _TABLES


def _window_feedback(register: int, taps) -> int:
    """The four feedback bits of four clocks of ``register``, first
    clock's at bit 3: the tap windows shifted by ``tap - 3``."""
    bits = 0
    for tap in taps:
        bits ^= register >> (tap - 3)
    return bits & 15


def _majority_nibbles(r1: int, r2: int, r3: int, count: int):
    """``count`` table steps of four majority clocks each.  Returns the
    advanced registers and one keystream nibble per step (first clock's
    bit at bit 3)."""
    steps, outputs, f1, f2, f3 = _TABLES or _build_tables()
    nibbles = []
    append = nibbles.append
    for _ in range(count):
        s1, s2, s3, p1, p2, p3 = steps[
            ((r1 << 3) & 0xF00) | ((r2 >> 3) & 0xF0) | ((r3 >> 7) & 0xF)]
        append(outputs[p1 | r1 >> 14] ^ outputs[p2 | r2 >> 17]
               ^ outputs[p3 | r3 >> 18])
        r1 = ((r1 << 4 | f1[r1 >> 10]) >> s1) & 0x07FFFF
        r2 = ((r2 << 4 | f2[r2 >> 17]) >> s2) & 0x3FFFFF
        r3 = ((r3 << 4 | f3[r3 >> 17] ^ (r3 >> 4) & 15) >> s3) & 0x7FFFFF
    return r1, r2, r3, nibbles


def _schedule_fast(key: bytes, frame: int) -> Tuple[int, int, int]:
    """:meth:`A51._schedule` in batches: the 86 all-clocked load clocks
    8 at a time (feedback windows shifted by ``tap + 1 - n``), then the
    100 mixing clocks as 25 table steps."""
    # Load bit i (key bits LSB-first per byte, then the frame bits) sits
    # at bit 85 - i, so each batch's bits come out first-clock-highest.
    loaded = int.from_bytes(key, "little") | (frame & _FRAME_MASK) << 64
    loaded = int(format(loaded, "086b")[::-1], 2)
    r1 = r2 = r3 = 0
    for done in range(0, _LOAD_BITS, 8):
        n = min(8, _LOAD_BITS - done)
        low = (1 << n) - 1
        bits = (loaded >> (_LOAD_BITS - done - n)) & low
        r1 = ((r1 << n | (r1 >> 19 - n ^ r1 >> 18 - n ^ r1 >> 17 - n
                          ^ r1 >> 14 - n) & low) ^ bits) & _R1_MASK
        r2 = ((r2 << n | (r2 >> 22 - n ^ r2 >> 21 - n) & low)
              ^ bits) & _R2_MASK
        r3 = ((r3 << n | (r3 >> 23 - n ^ r3 >> 22 - n ^ r3 >> 21 - n
                          ^ r3 >> 8 - n) & low) ^ bits) & _R3_MASK
    r1, r2, r3, _ = _majority_nibbles(r1, r2, r3, 100 // 4)
    return r1, r2, r3


class A51:
    """A5/1 keystream generator with the RC4-compatible interface.

    The key blob is either 8 bytes (key alone, frame tag 0) or the
    suite's 11 bytes (``key || frame_tag``, frame tag big-endian,
    truncated to 22 bits).  One instance per direction per key, as
    with :class:`~repro.crypto.rc4.RC4`.
    """

    name = "A51"
    block_size = 1
    key_size = 11

    def __init__(self, key: bytes) -> None:
        key = bytes(key)
        if len(key) == 8:
            frame = 0
        elif len(key) == 11:
            frame = int.from_bytes(key[8:], "big") & _FRAME_MASK
            key = key[:8]
        else:
            raise InvalidKeyLength("A51", len(key), "8 or 11")
        self.recorder = None
        if self.recorder is None and fastpath.enabled():
            self._r1, self._r2, self._r3 = _schedule_fast(key, frame)
        else:
            self._r1, self._r2, self._r3 = self._schedule(key, frame)

    # -- key/frame schedule -------------------------------------------------

    @staticmethod
    def _clock_all(r1: int, r2: int, r3: int) -> Tuple[int, int, int]:
        """Clock every register (key/frame loading ignores majority)."""
        r1 = ((r1 << 1) & _R1_MASK) | _parity(r1 & _R1_TAPS)
        r2 = ((r2 << 1) & _R2_MASK) | _parity(r2 & _R2_TAPS)
        r3 = ((r3 << 1) & _R3_MASK) | _parity(r3 & _R3_TAPS)
        return r1, r2, r3

    @staticmethod
    def _clock_majority(r1: int, r2: int, r3: int) -> Tuple[int, int, int]:
        """Clock the registers agreeing with the majority clocking bit."""
        c1 = r1 & _R1_CLOCK
        c2 = r2 & _R2_CLOCK
        c3 = r3 & _R3_CLOCK
        majority1 = bool(c1) + bool(c2) + bool(c3) >= 2
        if bool(c1) == majority1:
            r1 = ((r1 << 1) & _R1_MASK) | _parity(r1 & _R1_TAPS)
        if bool(c2) == majority1:
            r2 = ((r2 << 1) & _R2_MASK) | _parity(r2 & _R2_TAPS)
        if bool(c3) == majority1:
            r3 = ((r3 << 1) & _R3_MASK) | _parity(r3 & _R3_TAPS)
        return r1, r2, r3

    @classmethod
    def _schedule(cls, key: bytes, frame: int) -> Tuple[int, int, int]:
        """64 key clocks + 22 frame clocks (all-clocked, bit XORed into
        the LSB after the shift, bits taken LSB-first per byte) + 100
        majority-clocked mixing rounds — the published A5/1 schedule."""
        r1 = r2 = r3 = 0
        for i in range(64):
            r1, r2, r3 = cls._clock_all(r1, r2, r3)
            bit = (key[i >> 3] >> (i & 7)) & 1
            r1 ^= bit
            r2 ^= bit
            r3 ^= bit
        for i in range(22):
            r1, r2, r3 = cls._clock_all(r1, r2, r3)
            bit = (frame >> i) & 1
            r1 ^= bit
            r2 ^= bit
            r3 ^= bit
        for _ in range(100):
            r1, r2, r3 = cls._clock_majority(r1, r2, r3)
        return r1, r2, r3

    # -- continuous keystream ----------------------------------------------

    def keystream(self, length: int) -> bytes:
        """Produce the next ``length`` keystream bytes (8 majority
        clocks per byte, output bits MSB-first)."""
        if self.recorder is None and fastpath.enabled():
            self._r1, self._r2, self._r3, nibbles = _majority_nibbles(
                self._r1, self._r2, self._r3, 2 * length)
            return bytes.fromhex(bytes(nibbles).translate(_HEX).decode())
        out = bytearray()
        r1, r2, r3 = self._r1, self._r2, self._r3
        for _ in range(length):
            byte = 0
            for _ in range(8):
                r1, r2, r3 = self._clock_majority(r1, r2, r3)
                bit = ((r1 >> _R1_OUT) ^ (r2 >> _R2_OUT) ^ (r3 >> _R3_OUT)) & 1
                byte = (byte << 1) | bit
            out.append(byte)
        self._r1, self._r2, self._r3 = r1, r2, r3
        return bytes(out)

    def process(self, data) -> bytes:
        """Encrypt or decrypt ``data`` (XOR with keystream)."""
        data = bytes(data)
        if not data:
            return b""
        stream = self.keystream(len(data))
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(len(data), "big")

    # -- transactional state -----------------------------------------------

    def save_state(self):
        """Snapshot the register triple; the record decoder rewinds to
        it when a tampered record must not consume keystream."""
        return self._r1, self._r2, self._r3

    def restore_state(self, snapshot) -> None:
        """Rewind to a :meth:`save_state` snapshot."""
        self._r1, self._r2, self._r3 = snapshot

    # -- the authentic GSM frame discipline ---------------------------------

    @classmethod
    def burst(cls, key: bytes, frame: int) -> Tuple[bytes, bytes]:
        """The 228-bit GSM dual burst for one (key, frame) pair.

        Returns ``(a_to_b, b_to_a)``: two 114-bit bursts packed
        MSB-first into 15 bytes each (the last byte zero-padded) —
        the exact shape of the published pedagogical test vector.
        """
        if len(key) != 8:
            raise InvalidKeyLength("A51", len(key), "8")
        r1, r2, r3 = cls._schedule(key, frame & _FRAME_MASK)
        bits = []
        for _ in range(228):
            r1, r2, r3 = cls._clock_majority(r1, r2, r3)
            bits.append(((r1 >> _R1_OUT) ^ (r2 >> _R2_OUT) ^ (r3 >> _R3_OUT)) & 1)

        def pack(chunk):
            out = bytearray(15)
            for i, bit in enumerate(chunk):
                out[i >> 3] |= bit << (7 - (i & 7))
            return bytes(out)

        return pack(bits[:114]), pack(bits[114:])
