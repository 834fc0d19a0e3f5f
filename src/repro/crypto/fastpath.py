"""Precomputed fast-path kernels for the hot symmetric-crypto loops.

Section 3.2 of the paper quantifies the *security processing gap*:
bit permutations, S-box lookups and rotates dominate the cycle budget
of software crypto on general-purpose processors.  Section 4.2.1's
answer is precomputation and specialised kernels (SmartMIPS-style ISA
extensions, MOSES-class engines).  This module is the software
expression of that answer for our own reproduction, which pays the
same cost for real: the readable reference loops in
:mod:`repro.crypto.aes`, :mod:`repro.crypto.des` et al. stay the
ground truth, and the kernels here are bit-for-bit equivalent
replacements for the probe-free common case.

Three families of kernel live here:

* **AES T-tables** — four 256-entry tables fusing SubBytes, ShiftRows
  and MixColumns into one lookup+XOR per state byte (and the inverse
  tables plus the equivalent-inverse-cipher key transform for
  decryption).  Every table is derived programmatically from
  :data:`repro.crypto.aes.SBOX` and GF(2^8) arithmetic, so nothing is
  transcribed.
* **One fused DES kernel** — :func:`des_kernel` runs single DES (one
  16-round stage) and 3DES-EDE (three stages, 48 rounds) alike:

  - *IP and FP once per block*, each as Outerbridge's network of five
    masked swaps between the halves rather than a table.  FP∘IP is
    the identity, so between EDE stages only the Feistel half swap
    remains.
  - *Packed subkeys.*  Each round key is stored as two words, one
    holding S-box chunks 1, 3, 5, 7 and the other 2, 4, 6, 8, each
    chunk in the low six bits of a byte.  With both halves kept
    rotated left by one bit (Outerbridge's layout), E(R)'s chunks
    already sit at those byte positions in R and in R rotated right by
    4, so the E-expansion becomes one rotate and two XORs.
  - *Paired SP tables.*  Four tables, each covering two S-boxes and
    indexed by ``(w >> 16) & 0x3F3F`` or ``w & 0x3F3F``, fuse the
    S-box lookups with the P permutation: four lookups per round
    instead of eight.  Their entries are pre-rotated, so the halves
    stay in the rotated domain until FP.  They hold about 1 MB and are
    built on first use, not at import.
  - *Two rounds per loop step*, unpacking ``(ka, kb, kc, kd)`` with no
    tuple swap.

  :func:`des_expand_key` emits that packed form straight from PC2
  tables whose entries are already split, at the cost of the plain
  48-bit schedule.  There is deliberately no cache of expanded keys
  across cipher objects: most keys are expanded once, and a cache
  would keep the schedules of closed sessions in memory.  Every table
  is derived from the FIPS 46-3 constants; the tests pin the swap
  networks to the FIPS IP and FP tables.
* **hash delegation** — SHA-1/MD5 whole-message hashing is handed to
  the platform's optimised primitive (:mod:`hashlib`, the software
  stand-in for the paper's crypto accelerator) when available; the
  from-scratch compression functions remain the instrumented reference
  and the differential tests pin the two bit-for-bit.

The switch
----------

:func:`enabled` is consulted by the cipher/hash classes on every
block.  The fast path is used only when **no**
:class:`~repro.crypto.trace.TraceRecorder` is attached — a probed
cipher always takes the reference loops so the DPA/timing simulators
in :mod:`repro.attacks` keep observing true intermediate values.  Set
``REPRO_FASTPATH=0`` in the environment (or call :func:`disable`) to
force the reference path globally, e.g. when validating the cost
models in :mod:`repro.hardware.cycles` against honest software loops.
"""

from __future__ import annotations

import contextlib
import os
from typing import List, Optional, Sequence, Tuple

from ..observability import probe

MASK32 = 0xFFFFFFFF

_ENABLED = os.environ.get("REPRO_FASTPATH", "1").lower() not in (
    "0", "false", "off", "no",
)


def enabled() -> bool:
    """True when the fast-path kernels should be used."""
    return _ENABLED


def dispatch_path(recorder=None) -> str:
    """Which implementation the dispatch seam will pick right now:
    ``"fast"`` (precomputed kernels) or ``"reference"`` (the readable
    loops — always taken when a trace recorder is attached)."""
    return "fast" if recorder is None and _ENABLED else "reference"


def enable() -> None:
    """Turn the fast-path kernels on globally."""
    global _ENABLED
    if not _ENABLED:
        probe.event("fastpath.switch", enabled=True)
    _ENABLED = True


def disable() -> None:
    """Force every cipher/hash onto the reference loops globally."""
    global _ENABLED
    if _ENABLED:
        probe.event("fastpath.switch", enabled=False)
    _ENABLED = False


@contextlib.contextmanager
def force(flag: bool):
    """Temporarily force the switch; restores the prior state on exit."""
    global _ENABLED
    previous = _ENABLED
    if previous != bool(flag):
        probe.event("fastpath.switch", enabled=bool(flag), forced=True)
    _ENABLED = bool(flag)
    try:
        yield
    finally:
        if _ENABLED != previous:
            probe.event("fastpath.switch", enabled=previous, forced=True)
        _ENABLED = previous


# ---------------------------------------------------------------------------
# AES: T-tables fusing SubBytes + ShiftRows + MixColumns
# ---------------------------------------------------------------------------

_AES_ENC_TABLES: Optional[Tuple[List[int], ...]] = None
_AES_DEC_TABLES: Optional[Tuple[List[int], ...]] = None


def _rotr8(word: int) -> int:
    return ((word >> 8) | (word << 24)) & MASK32


def _aes_enc_tables() -> Tuple[List[int], ...]:
    """T0..T3: T0[x] packs (2·S[x], S[x], S[x], 3·S[x]); Ti rotates T0.

    Column word j of the next state is
    ``T0[b0] ^ T1[b1] ^ T2[b2] ^ T3[b3] ^ rk[j]`` where ``b_r`` is the
    row-*r* byte ShiftRows moves into column j — the whole round in
    four lookups and four XORs per word.
    """
    global _AES_ENC_TABLES
    if _AES_ENC_TABLES is None:
        from .aes import SBOX, _gf_mul

        t0 = []
        for x in range(256):
            s = SBOX[x]
            s2 = _gf_mul(s, 2)
            t0.append((s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s))
        t1 = [_rotr8(t) for t in t0]
        t2 = [_rotr8(t) for t in t1]
        t3 = [_rotr8(t) for t in t2]
        _AES_ENC_TABLES = (t0, t1, t2, t3, SBOX)
    return _AES_ENC_TABLES


def _aes_dec_tables() -> Tuple[List[int], ...]:
    """TD0..TD3 for the equivalent inverse cipher (InvSubBytes fused
    with InvMixColumns); TD0[x] packs (14u, 9u, 13u, 11u) for
    u = InvS[x]."""
    global _AES_DEC_TABLES
    if _AES_DEC_TABLES is None:
        from .aes import INV_SBOX, _gf_mul

        td0 = []
        for x in range(256):
            u = INV_SBOX[x]
            td0.append(
                (_gf_mul(u, 14) << 24)
                | (_gf_mul(u, 9) << 16)
                | (_gf_mul(u, 13) << 8)
                | _gf_mul(u, 11)
            )
        td1 = [_rotr8(t) for t in td0]
        td2 = [_rotr8(t) for t in td1]
        td3 = [_rotr8(t) for t in td2]
        _AES_DEC_TABLES = (td0, td1, td2, td3, INV_SBOX)
    return _AES_DEC_TABLES


def aes_encrypt_block(block: bytes, round_words: Sequence[int], rounds: int) -> bytes:
    """T-table AES encryption of one 16-byte block.

    ``round_words`` is the flat list of 4·(rounds+1) big-endian round
    key words exactly as produced by
    :func:`repro.crypto.aes.key_expansion`.
    """
    t0, t1, t2, t3, sbox = _aes_enc_tables()
    rk = round_words
    s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
    s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
    s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
    s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
    i = 4
    for _ in range(rounds - 1):
        u0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 255] ^ t2[(s2 >> 8) & 255] ^ t3[s3 & 255] ^ rk[i]
        u1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 255] ^ t2[(s3 >> 8) & 255] ^ t3[s0 & 255] ^ rk[i + 1]
        u2 = t0[s2 >> 24] ^ t1[(s3 >> 16) & 255] ^ t2[(s0 >> 8) & 255] ^ t3[s1 & 255] ^ rk[i + 2]
        u3 = t0[s3 >> 24] ^ t1[(s0 >> 16) & 255] ^ t2[(s1 >> 8) & 255] ^ t3[s2 & 255] ^ rk[i + 3]
        s0, s1, s2, s3 = u0, u1, u2, u3
        i += 4
    # Final round: SubBytes + ShiftRows only (no MixColumns).
    o0 = ((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 255] << 16)
          | (sbox[(s2 >> 8) & 255] << 8) | sbox[s3 & 255]) ^ rk[i]
    o1 = ((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 255] << 16)
          | (sbox[(s3 >> 8) & 255] << 8) | sbox[s0 & 255]) ^ rk[i + 1]
    o2 = ((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 255] << 16)
          | (sbox[(s0 >> 8) & 255] << 8) | sbox[s1 & 255]) ^ rk[i + 2]
    o3 = ((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 255] << 16)
          | (sbox[(s1 >> 8) & 255] << 8) | sbox[s2 & 255]) ^ rk[i + 3]
    return ((o0 << 96) | (o1 << 64) | (o2 << 32) | o3).to_bytes(16, "big")


def aes_decrypt_schedule(round_keys: Sequence[Sequence[int]]) -> List[int]:
    """Equivalent-inverse-cipher key schedule.

    Reverses the round key order and applies InvMixColumns to every
    inner round key, so decryption can run the same table-lookup shape
    as encryption.  Computed once per :class:`~repro.crypto.aes.AES`
    instance (key-schedule caching).
    """
    from .aes import SBOX

    td0, td1, td2, td3, _ = _aes_dec_tables()
    rounds = len(round_keys) - 1
    words: List[int] = list(round_keys[rounds])
    for r in range(rounds - 1, 0, -1):
        for w in round_keys[r]:
            # TDi[S[b]] is InvMixColumns applied to byte b in position i.
            words.append(
                td0[SBOX[w >> 24]]
                ^ td1[SBOX[(w >> 16) & 255]]
                ^ td2[SBOX[(w >> 8) & 255]]
                ^ td3[SBOX[w & 255]]
            )
    words.extend(round_keys[0])
    return words


def aes_decrypt_block(block: bytes, inv_words: Sequence[int], rounds: int) -> bytes:
    """T-table AES decryption (equivalent inverse cipher)."""
    td0, td1, td2, td3, inv_sbox = _aes_dec_tables()
    rk = inv_words
    s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
    s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
    s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
    s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
    i = 4
    for _ in range(rounds - 1):
        u0 = td0[s0 >> 24] ^ td1[(s3 >> 16) & 255] ^ td2[(s2 >> 8) & 255] ^ td3[s1 & 255] ^ rk[i]
        u1 = td0[s1 >> 24] ^ td1[(s0 >> 16) & 255] ^ td2[(s3 >> 8) & 255] ^ td3[s2 & 255] ^ rk[i + 1]
        u2 = td0[s2 >> 24] ^ td1[(s1 >> 16) & 255] ^ td2[(s0 >> 8) & 255] ^ td3[s3 & 255] ^ rk[i + 2]
        u3 = td0[s3 >> 24] ^ td1[(s2 >> 16) & 255] ^ td2[(s1 >> 8) & 255] ^ td3[s0 & 255] ^ rk[i + 3]
        s0, s1, s2, s3 = u0, u1, u2, u3
        i += 4
    o0 = ((inv_sbox[s0 >> 24] << 24) | (inv_sbox[(s3 >> 16) & 255] << 16)
          | (inv_sbox[(s2 >> 8) & 255] << 8) | inv_sbox[s1 & 255]) ^ rk[i]
    o1 = ((inv_sbox[s1 >> 24] << 24) | (inv_sbox[(s0 >> 16) & 255] << 16)
          | (inv_sbox[(s3 >> 8) & 255] << 8) | inv_sbox[s2 & 255]) ^ rk[i + 1]
    o2 = ((inv_sbox[s2 >> 24] << 24) | (inv_sbox[(s1 >> 16) & 255] << 16)
          | (inv_sbox[(s0 >> 8) & 255] << 8) | inv_sbox[s3 & 255]) ^ rk[i + 2]
    o3 = ((inv_sbox[s3 >> 24] << 24) | (inv_sbox[(s2 >> 16) & 255] << 16)
          | (inv_sbox[(s1 >> 8) & 255] << 8) | inv_sbox[s0 & 255]) ^ rk[i + 3]
    return ((o0 << 96) | (o1 << 64) | (o2 << 32) | o3).to_bytes(16, "big")


# ---------------------------------------------------------------------------
# DES: one fused kernel for DES and 3DES-EDE
# ---------------------------------------------------------------------------


def byte_permutation_tables(table: Sequence[int], in_width: int,
                            chunk_bits: int = 8) -> List[List[int]]:
    """Per-input-chunk lookup tables equivalent to
    :func:`repro.crypto.bitops.permute_bits`.

    Each FIPS-style permutation routes every *output* bit from a fixed
    *input* bit, so the permutation of an ``in_width``-bit word is the
    OR of one precomputed lookup per ``chunk_bits``-bit input chunk:
    ``out = t[0][chunk0] | t[1][chunk1] | ...`` — Section 4.2.1's
    "expensive on word-oriented CPUs" loop replaced by
    ``in_width/chunk_bits`` indexed loads.
    """
    if in_width % chunk_bits:
        raise ValueError(
            f"in_width {in_width} not a whole number of {chunk_bits}-bit chunks")
    out_width = len(table)
    tables = [[0] * (1 << chunk_bits) for _ in range(in_width // chunk_bits)]
    for out_pos, in_pos in enumerate(table):
        # FIPS tables are 1-indexed from the MSB.
        chunk_index, offset = divmod(in_pos - 1, chunk_bits)
        bit_in_chunk = chunk_bits - 1 - offset
        out_bit = 1 << (out_width - 1 - out_pos)
        chunk = tables[chunk_index]
        for value in range(1 << chunk_bits):
            if (value >> bit_in_chunk) & 1:
                chunk[value] |= out_bit
    return tables


def _pack_round_key(k48: int) -> int:
    """Split a 48-bit round key into the kernel's two words, returned
    as ``(ka << 32) | kb``: ``ka`` holds S-box chunks 1, 3, 5, 7 and
    ``kb`` chunks 2, 4, 6, 8, one 6-bit chunk in the low bits of each
    byte, lined up with where the round finds E(R)'s chunks."""
    c = [(k48 >> (42 - 6 * box)) & 63 for box in range(8)]
    ka = (c[0] << 24) | (c[2] << 16) | (c[4] << 8) | c[6]
    kb = (c[1] << 24) | (c[3] << 16) | (c[5] << 8) | c[7]
    return (ka << 32) | kb


def _paired_sp(sp: Sequence[Sequence[int]], hi: int, lo: int) -> List[int]:
    """One lookup for two S-boxes: entry ``(x << 8) | y`` is
    ``sp[hi][x] ^ sp[lo][y]``; indices with bits 6-7 of a byte set are
    never read."""
    table = [0] * 0x3F40
    for x in range(64):
        high = sp[hi][x]
        for y in range(64):
            table[(x << 8) | y] = high ^ sp[lo][y]
    return table


_DES_TABLES: Optional[dict] = None


def _des_tables() -> dict:
    """The DES lookup tables, built on first use (about 1 MB, almost
    all of it the four paired SP tables)."""
    global _DES_TABLES
    if _DES_TABLES is None:
        from . import des as _des
        from .bitops import permute_bits, rotl32

        # The kernel keeps both halves rotated left by one bit from IP
        # to FP (Outerbridge's layout), so every SP output is rotated
        # to match.
        sp = []
        for box in range(8):
            entries = []
            for six in range(64):
                row = ((six >> 4) & 0b10) | (six & 1)
                col = (six >> 1) & 0xF
                # Fuse S-box output placement with the P permutation.
                entries.append(rotl32(permute_bits(
                    _des._SBOXES[box][row][col] << (28 - 4 * box), _des._P, 32), 1))
            sp.append(entries)
        # Per round, the shifts that read the four 7-bit chunks of a
        # rotated 28-bit half from that half written twice over:
        # rotating left by ``total`` is reading from bit ``28 - total``
        # up.  Two rounds per entry, one entry per schedule tuple.
        shifts, total = [], 0
        for shift in _des._SHIFTS:
            total += shift
            shifts.append((49 - total, 42 - total, 35 - total, 28 - total))
        _DES_TABLES = {
            # Boxes 1+3 and 5+7 read the rotated-right-by-4 half, boxes
            # 2+4 and 6+8 the half as is.
            "sp": (_paired_sp(sp, 0, 2), _paired_sp(sp, 4, 6),
                   _paired_sp(sp, 1, 3), _paired_sp(sp, 5, 7)),
            "pc1": byte_permutation_tables(_des._PC1, 64),
            "pc2": [[_pack_round_key(v) for v in chunk]
                    for chunk in byte_permutation_tables(_des._PC2, 56, 7)],
            "pc2_shifts": [a + b for a, b in zip(shifts[0::2], shifts[1::2])],
        }
    return _DES_TABLES


def des_expand_key(key: bytes) -> List[Tuple[int, int, int, int]]:
    """Table-driven FIPS 46-3 key schedule in the kernel's packed form.

    Returns eight ``(ka, kb, kc, kd)`` tuples, two rounds each.  PC1 is
    eight byte lookups; each round's PC2 is eight 7-bit-chunk lookups on
    the rotated C and D halves, into tables whose entries are already
    split into the two words, so packing costs nothing per key.
    Callers validate the key length.
    """
    t = _des_tables()
    pc1 = t["pc1"]
    key64 = int.from_bytes(key, "big")
    key56 = (
        pc1[0][key64 >> 56] | pc1[1][(key64 >> 48) & 255]
        | pc1[2][(key64 >> 40) & 255] | pc1[3][(key64 >> 32) & 255]
        | pc1[4][(key64 >> 24) & 255] | pc1[5][(key64 >> 16) & 255]
        | pc1[6][(key64 >> 8) & 255] | pc1[7][key64 & 255]
    )
    c = key56 >> 28
    d = key56 & 0x0FFFFFFF
    c |= c << 28
    d |= d << 28
    t0, t1, t2, t3, t4, t5, t6, t7 = t["pc2"]
    return [
        ((k := t0[(c >> s0) & 127] | t1[(c >> s1) & 127]
          | t2[(c >> s2) & 127] | t3[(c >> s3) & 127]
          | t4[(d >> s0) & 127] | t5[(d >> s1) & 127]
          | t6[(d >> s2) & 127] | t7[(d >> s3) & 127]) >> 32,
         k & MASK32,
         (k := t0[(c >> u0) & 127] | t1[(c >> u1) & 127]
          | t2[(c >> u2) & 127] | t3[(c >> u3) & 127]
          | t4[(d >> u0) & 127] | t5[(d >> u1) & 127]
          | t6[(d >> u2) & 127] | t7[(d >> u3) & 127]) >> 32,
         k & MASK32)
        for s0, s1, s2, s3, u0, u1, u2, u3 in t["pc2_shifts"]
    ]


def des_reverse_schedule(schedule: Sequence[Tuple[int, int, int, int]]
                         ) -> List[Tuple[int, int, int, int]]:
    """The decryption schedule: the same round keys, last round first."""
    return [(kc, kd, ka, kb) for ka, kb, kc, kd in reversed(schedule)]


def des_decrypt_stages(stages: Sequence[Sequence[Tuple[int, int, int, int]]]
                       ) -> tuple:
    """Kernel stages that invert ``stages``: last stage first, each
    schedule reversed (3DES E1·D2·E3 becomes D3·E2·D1)."""
    return tuple(des_reverse_schedule(s) for s in reversed(stages))


def _ip_rotated(block64: int) -> Tuple[int, int]:
    """IP as Outerbridge's swap network, returning both halves rotated
    left by one bit.  Each step swaps the bits under a mask between the
    halves, shifted; no table, so nothing for the kernel to fetch from
    memory."""
    left = block64 >> 32
    right = block64 & MASK32
    work = ((left >> 4) ^ right) & 0x0F0F0F0F
    right ^= work
    left ^= work << 4
    work = ((left >> 16) ^ right) & 0x0000FFFF
    right ^= work
    left ^= work << 16
    work = ((right >> 2) ^ left) & 0x33333333
    left ^= work
    right ^= work << 2
    work = ((right >> 8) ^ left) & 0x00FF00FF
    left ^= work
    right ^= work << 8
    right = ((right << 1) | (right >> 31)) & MASK32
    work = (left ^ right) & 0xAAAAAAAA
    left ^= work
    right ^= work
    left = ((left << 1) | (left >> 31)) & MASK32
    return left, right


def _fp_rotated(left: int, right: int) -> int:
    """FP of the pre-output ``left || right`` given in the rotated
    domain: :func:`_ip_rotated`'s steps undone in reverse order."""
    left = ((left << 31) | (left >> 1)) & MASK32
    work = (right ^ left) & 0xAAAAAAAA
    right ^= work
    left ^= work
    right = ((right << 31) | (right >> 1)) & MASK32
    work = ((right >> 8) ^ left) & 0x00FF00FF
    left ^= work
    right ^= work << 8
    work = ((right >> 2) ^ left) & 0x33333333
    left ^= work
    right ^= work << 2
    work = ((left >> 16) ^ right) & 0x0000FFFF
    right ^= work
    left ^= work << 16
    work = ((left >> 4) ^ right) & 0x0F0F0F0F
    right ^= work
    left ^= work << 4
    return (left << 32) | right


def des_kernel(block64: int,
               stages: Sequence[Sequence[Tuple[int, int, int, int]]]) -> int:
    """DES over one or more key schedules: IP, every stage's rounds, FP.

    One stage is single DES; three (E, D, E) are 3DES-EDE.  FP∘IP is
    the identity, so between stages only the Feistel half swap remains.
    Each round is one rotate, two key XORs and four paired-SP lookups.
    """
    left, right = _ip_rotated(block64)
    sp13, sp57, sp24, sp68 = _des_tables()["sp"]
    for stage in stages:
        for ka, kb, kc, kd in stage:
            # ``w`` is the half rotated right by 4, but only its bits 0-29
            # are ever read: leaving bits 30-31 out keeps it one CPython
            # digit wide.
            w = ((right & 3) << 28 | right >> 4) ^ ka
            v = right ^ kb
            left ^= (sp13[(w >> 16) & 0x3F3F] ^ sp57[w & 0x3F3F]
                     ^ sp24[(v >> 16) & 0x3F3F] ^ sp68[v & 0x3F3F])
            w = ((left & 3) << 28 | left >> 4) ^ kc
            v = left ^ kd
            right ^= (sp13[(w >> 16) & 0x3F3F] ^ sp57[w & 0x3F3F]
                      ^ sp24[(v >> 16) & 0x3F3F] ^ sp68[v & 0x3F3F])
        left, right = right, left
    # After the last stage's swap the halves read R16 L16, FIPS's
    # pre-output.
    return _fp_rotated(left, right)


def des_crypt_block(block64: int, round_keys: Sequence[int]) -> int:
    """Single DES on ints with 48-bit round keys in the order to apply
    them (reversed to decrypt), run through :func:`des_kernel`."""
    packed = [_pack_round_key(k) for k in round_keys]
    schedule = [(a >> 32, a & MASK32, b >> 32, b & MASK32)
                for a, b in zip(packed[0::2], packed[1::2])]
    return des_kernel(block64, (schedule,))


# ---------------------------------------------------------------------------
# Hashes: delegate whole-message hashing to the platform primitive
# ---------------------------------------------------------------------------


def hashlib_sha1():
    """A fresh optimised SHA-1 object, or ``None`` if unavailable."""
    try:
        import hashlib

        return hashlib.sha1()
    except (ImportError, ValueError):  # pragma: no cover - exotic builds
        return None


def hashlib_md5():
    """A fresh optimised MD5 object, or ``None`` if unavailable.

    FIPS-restricted builds refuse MD5 unless flagged as
    non-security use; fall back to the reference loop if even that is
    rejected.
    """
    try:
        import hashlib

        try:
            return hashlib.md5(usedforsecurity=False)
        except TypeError:
            return hashlib.md5()
    except (ImportError, ValueError):  # pragma: no cover - exotic builds
        return None
