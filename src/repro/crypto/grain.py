"""Grain v1 — the eSTREAM low-footprint NFSR/LFSR stream cipher.

The third lightweight design from Pourghasem et al.'s m-commerce
motivation (PAPERS.md): Hell, Johansson and Meier's Grain v1, an
80-bit-key cipher built from one linear and one nonlinear 80-bit
feedback shift register joined by a boolean filter — the smallest
hardware footprint in the eSTREAM portfolio and therefore the extreme
low-energy point of our suite family.

Implementation shape
--------------------

Both registers live in Python ints with spec bit ``b_i``/``s_i`` at
int bit ``i`` (LSB-first), so loading is just
``int.from_bytes(..., "little")`` and a spec step is ``>> 1`` with the
feedback bit inserted at bit 79.  The reference path
(:meth:`Grain._step`) runs one spec step at a time and stays the
independent oracle.

The fast path (:func:`_windows`) runs 16 spec steps per window: every
tap index is at most 64, so all sixteen steps read pre-window state
bits (the 16-step validity bound ``64 + 15 <= 79``), and one window
computes 16 keystream bits with shifted copies of ``b`` and ``s`` —
Grain's own designers describe exactly this x16 speedup as the
hardware trade-off.  Sixteen is also the limit: a 17th step would
read ``s_80``/``b_80``, which the window itself produces.  One call
runs every window a read needs in a single local loop: each shifted
window of ``b`` and ``s`` is computed once per window, the filter and
the NFSR feedback are factored so that AND subterms shared between
monomials are computed once, and the output words are packed with one
:func:`struct.pack` at the end.  The 160 initialisation steps are ten
such windows with the output fed back.

Both dispatch paths advance in whole 16-bit (2-byte) chunks and buffer
the leftover byte, so :meth:`save_state` snapshots are byte-identical
whichever path produced them.

Conventions (frozen by the KAT corpus): key/IV bits load LSB-first
within each byte (``b_0`` is bit 0 of ``key[0]``), keystream bits pack
LSB-first within each output byte.  The suite key blob is
``key[10] || iv[8]``; the LFSR's top 16 bits are filled with ones per
the spec.
"""

from __future__ import annotations

import struct

from . import fastpath
from .errors import InvalidKeyLength

_M16 = 0xFFFF
_INIT_STEPS = 160


def _windows(b: int, s: int, count: int, feed_z: bool):
    """``count`` 16-step windows from NFSR ``b`` and LFSR ``s``.

    Returns the advanced registers and the 16-bit keystream words,
    step i of each window at bit i.  With ``feed_z`` the output is
    folded back into both feedbacks (initialisation mode)."""
    words = []
    append = words.append
    for _ in range(count):
        x0, x1, x2, x3 = s >> 3, s >> 25, s >> 46, s >> 64
        b9, b15, b21, b28 = b >> 9, b >> 15, b >> 21, b >> 28
        b33, b37, b45, b52 = b >> 33, b >> 37, b >> 45, b >> 52
        b60, b63 = b >> 60, b >> 63
        # Filter h(x0..x4) on (s3, s25, s46, s64, b63 = x4), factored:
        # x1+x4 + x0x2(x1+x4) + x1x2x4 + x3(x0 + x2 + x4 + x0x2 + x2x4),
        # and x0 + x2 + x4 + x0x2 + x2x4 = (x0 + x4) | x2.
        t = x1 ^ b63
        h = t ^ (x0 & x2 & t) ^ (x1 & x2 & b63) ^ (x3 & ((x0 ^ b63) | x2))
        z = ((b >> 1) ^ (b >> 2) ^ (b >> 4) ^ (b >> 10) ^ (b >> 31)
             ^ (b >> 43) ^ (b >> 56) ^ h) & 0xFFFF
        # LFSR feedback f: s_{i+80} = s62+s51+s38+s23+s13+s0.
        ns = (s >> 62) ^ (s >> 51) ^ (s >> 38) ^ (s >> 23) ^ (s >> 13) ^ s
        # NFSR feedback g (masked input s0 added per the spec), with the
        # monomials that share a factor grouped: P + PQ + PR = P & ~(Q ^ R).
        b63b60, b60b52, b52b45 = b63 & b60, b60 & b52, b52 & b45
        b37b33, b28b21, b15b9 = b37 & b33, b28 & b21, b15 & b9
        b33b28b21 = b33 & b28b21
        nb = (s ^ (b >> 62) ^ b60 ^ b52 ^ b45 ^ b37 ^ b33 ^ b28 ^ b21
              ^ (b >> 14) ^ b9 ^ b
              # b63b60 + b63b60b21b15 + b63b60b52b45b37
              ^ (b63b60 & ~((b21 & b15) ^ (b52b45 & b37)))
              # b37b33 + b60b52b37b33 + b52b45b37b33b28b21
              ^ (b37b33 & ~(b60b52 ^ (b52b45 & b28b21)))
              # b15b9 + b33b28b21b15b9
              ^ (b15b9 & ~b33b28b21)
              ^ (b60b52 & b45) ^ b33b28b21 ^ (b63 & b45 & b28 & b9))
        if feed_z:
            ns ^= z
            nb ^= z
        s = (s >> 16) | ((ns & 0xFFFF) << 64)
        b = (b >> 16) | ((nb & 0xFFFF) << 64)
        append(z)
    return b, s, words


class Grain:
    """Grain v1 keystream generator with the RC4-compatible interface.

    The key blob is either 10 bytes (key alone, zero IV) or the
    suite's 18 bytes (``key || iv``).
    """

    name = "GRAIN"
    block_size = 1
    key_size = 18

    def __init__(self, key: bytes) -> None:
        key = bytes(key)
        if len(key) == 10:
            iv = b"\x00" * 8
        elif len(key) == 18:
            key, iv = key[:10], key[10:]
        else:
            raise InvalidKeyLength("GRAIN", len(key), "10 or 18")
        self.recorder = None
        self._b = int.from_bytes(key, "little")            # NFSR b0..b79
        self._s = int.from_bytes(iv, "little") | (_M16 << 64)  # LFSR s0..s79
        self._buffer = b""
        self._warm_up()

    # -- the two registers and the filter ------------------------------------

    def _step(self, feed_z: bool) -> int:
        """One spec step; returns the keystream bit.  With ``feed_z``
        the output is folded back into both feedbacks (initialisation
        mode)."""
        b, s = self._b, self._s
        # Filter h(x0..x4) on (s3, s25, s46, s64, b63).
        x0, x1, x2 = s >> 3, s >> 25, s >> 46
        x3, x4 = s >> 64, b >> 63
        h = (x1 ^ x4 ^ (x0 & x3) ^ (x2 & x3) ^ (x3 & x4)
             ^ (x0 & x1 & x2) ^ (x0 & x2 & x3) ^ (x0 & x2 & x4)
             ^ (x1 & x2 & x4) ^ (x2 & x3 & x4))
        z = ((b >> 1) ^ (b >> 2) ^ (b >> 4) ^ (b >> 10) ^ (b >> 31)
             ^ (b >> 43) ^ (b >> 56) ^ h) & 1
        # LFSR feedback f: s_{i+80} = s62+s51+s38+s23+s13+s0.
        ns = ((s >> 62) ^ (s >> 51) ^ (s >> 38) ^ (s >> 23) ^ (s >> 13) ^ s) & 1
        # NFSR feedback g (masked input s0 added per the spec).
        nb = (s ^ (b >> 62) ^ (b >> 60) ^ (b >> 52) ^ (b >> 45) ^ (b >> 37)
              ^ (b >> 33) ^ (b >> 28) ^ (b >> 21) ^ (b >> 14) ^ (b >> 9) ^ b
              ^ ((b >> 63) & (b >> 60))
              ^ ((b >> 37) & (b >> 33))
              ^ ((b >> 15) & (b >> 9))
              ^ ((b >> 60) & (b >> 52) & (b >> 45))
              ^ ((b >> 33) & (b >> 28) & (b >> 21))
              ^ ((b >> 63) & (b >> 45) & (b >> 28) & (b >> 9))
              ^ ((b >> 60) & (b >> 52) & (b >> 37) & (b >> 33))
              ^ ((b >> 63) & (b >> 60) & (b >> 21) & (b >> 15))
              ^ ((b >> 63) & (b >> 60) & (b >> 52) & (b >> 45) & (b >> 37))
              ^ ((b >> 33) & (b >> 28) & (b >> 21) & (b >> 15) & (b >> 9))
              ^ ((b >> 52) & (b >> 45) & (b >> 37) & (b >> 33) & (b >> 28)
                 & (b >> 21))) & 1
        if feed_z:
            ns ^= z
            nb ^= z
        self._s = (s >> 1) | (ns << 79)
        self._b = (b >> 1) | (nb << 79)
        return z

    def _warm_up(self) -> None:
        """The 160 initialisation clocks with the output fed back."""
        if self.recorder is None and fastpath.enabled():
            self._b, self._s, _ = _windows(
                self._b, self._s, _INIT_STEPS // 16, feed_z=True)
        else:
            for _ in range(_INIT_STEPS):
                self._step(feed_z=True)

    def _chunk(self) -> bytes:
        """The next 2 keystream bytes, one spec step at a time."""
        z = 0
        for i in range(16):
            z |= self._step(feed_z=False) << i
        return z.to_bytes(2, "little")

    # -- the RC4-compatible surface -----------------------------------------

    def keystream(self, length: int) -> bytes:
        """Produce the next ``length`` keystream bytes."""
        buffered = self._buffer
        if len(buffered) < length:
            if self.recorder is None and fastpath.enabled():
                count = (length - len(buffered) + 1) // 2
                self._b, self._s, words = _windows(
                    self._b, self._s, count, feed_z=False)
                buffered += struct.pack(f"<{count}H", *words)
            else:
                while len(buffered) < length:
                    buffered += self._chunk()
        self._buffer = buffered[length:]
        return buffered[:length]

    def process(self, data) -> bytes:
        """Encrypt or decrypt ``data`` (XOR with keystream)."""
        data = bytes(data)
        if not data:
            return b""
        stream = self.keystream(len(data))
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(len(data), "big")

    def save_state(self):
        """Snapshot (NFSR, LFSR, leftover chunk bytes) for the record
        decoder's tamper rollback."""
        return self._b, self._s, self._buffer

    def restore_state(self, snapshot) -> None:
        """Rewind to a :meth:`save_state` snapshot."""
        self._b, self._s, self._buffer = snapshot
