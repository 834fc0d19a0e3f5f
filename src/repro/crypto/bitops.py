"""Bit- and byte-level helpers shared by the cipher implementations.

The paper (Section 4.2.1) singles out bit-level permutations, rotates,
and sub-word operations as the expensive inner loops of symmetric
ciphers on word-oriented processors — precisely the operations that
SmartMIPS/SecurCore-style ISA extensions accelerate.  This module
collects reference implementations of those operations; the hardware
cost models in :mod:`repro.hardware.cycles` charge them differently
depending on whether the modelled processor has the extensions.
"""

from __future__ import annotations

from hmac import compare_digest
from typing import Iterable, List, Sequence

from . import fastpath

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


def rotl32(value: int, amount: int) -> int:
    """Rotate a 32-bit word left by ``amount`` bits."""
    amount %= 32
    value &= MASK32
    return ((value << amount) | (value >> (32 - amount))) & MASK32 if amount else value


def rotr32(value: int, amount: int) -> int:
    """Rotate a 32-bit word right by ``amount`` bits."""
    return rotl32(value, (32 - amount) % 32)


def rotl16(value: int, amount: int) -> int:
    """Rotate a 16-bit word left by ``amount`` bits (RC2 uses these)."""
    amount %= 16
    value &= 0xFFFF
    return ((value << amount) | (value >> (16 - amount))) & 0xFFFF if amount else value


def rotr16(value: int, amount: int) -> int:
    """Rotate a 16-bit word right by ``amount`` bits."""
    return rotl16(value, (16 - amount) % 16)


def bytes_to_int(data: bytes) -> int:
    """Interpret ``data`` as a big-endian unsigned integer."""
    return int.from_bytes(data, "big")


def int_to_bytes(value: int, length: int) -> bytes:
    """Encode ``value`` big-endian into exactly ``length`` bytes."""
    return value.to_bytes(length, "big")


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings.

    Runs as one big-int XOR rather than a per-byte loop — CPython's
    word-at-a-time arbitrary-precision XOR is the closest software
    analogue to the wide datapath Section 4.2.1 argues for.
    """
    length = len(a)
    if length != len(b):
        raise ValueError(f"xor_bytes: length mismatch ({length} vs {len(b)})")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        length, "big"
    )


def permute_bits(block: int, table: Sequence[int], in_width: int) -> int:
    """Apply a DES-style bit permutation.

    ``table`` lists, for each *output* bit (MSB first), the 1-indexed
    position of the *input* bit (MSB first) that supplies it, exactly as
    FIPS 46-3 prints its permutation tables.  The output width equals
    ``len(table)``.

    This is the canonical "expensive on word-oriented CPUs" operation
    from Section 4.2.1 of the paper.
    """
    out = 0
    for position in table:
        out = (out << 1) | ((block >> (in_width - position)) & 1)
    return out


def hamming_weight(value: int) -> int:
    """Number of set bits — the side-channel leakage model's observable.

    The power-analysis simulator (:mod:`repro.attacks.power`) assumes
    instantaneous power consumption proportional to the Hamming weight
    of the data being manipulated, the standard CMOS leakage model
    behind Kocher's DPA (paper reference [44]).
    """
    return bin(value).count("1")


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bits between two words."""
    return hamming_weight(a ^ b)


def split_blocks(data: bytes, block_size: int) -> List[bytes]:
    """Split ``data`` into consecutive ``block_size``-byte blocks.

    Raises :class:`ValueError` if the data is not block-aligned;
    callers that accept ragged tails should pad first.
    """
    if len(data) % block_size:
        raise ValueError(
            f"data length {len(data)} not a multiple of block size {block_size}"
        )
    return [data[i : i + block_size] for i in range(0, len(data), block_size)]


def iter_bits_msb(value: int, width: int) -> Iterable[int]:
    """Yield the bits of ``value`` most-significant first."""
    for shift in range(width - 1, -1, -1):
        yield (value >> shift) & 1


def constant_time_compare(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without data-dependent early exit.

    The timing-attack countermeasure (Section 3.4 / paper ref. [47]):
    a naive ``==`` short-circuits at the first mismatch, leaking the
    length of the matching prefix through execution time.  Like
    :func:`xor_bytes`, the comparison runs as one wide big-int XOR —
    every limb is combined before the zero test, so there is no
    per-byte branch to leak through (and the record layers verify one
    MAC per record on their hot path, so the width matters).  On the
    fast dispatch path this delegates to :func:`hmac.compare_digest`
    (the same reference-loop-plus-stdlib-delegate split as
    :func:`repro.crypto.crc.crc32`).
    """
    if fastpath.enabled():
        return compare_digest(a, b)
    if len(a) != len(b):
        return False
    return not int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
