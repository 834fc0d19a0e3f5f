"""Instruction-cost model for security workloads.

This is the quantitative engine behind Figure 3 ("the wireless
security processing gap") and the Section 3.2 text claims.  Costs are
expressed in *instructions* so that demand in MIPS falls straight out
of ``instructions x rate``; the model is calibrated to the paper's two
anchors:

* **Bulk anchor** — "3DES for encryption/decryption and SHA for
  message authentication at 10 Mbps is around 651.3 MIPS" [12].
  10 Mbps = 1.25 MB/s, so the combined per-byte cost must be
  651.3 / 1.25 = **521.04 instructions/byte**.  We split this as
  3DES = 450.00 (3 x 150 for DES, consistent with optimised C on a
  32-bit core) and SHA-1 = 71.04.
* **Handshake anchor** — "a 235 MIPS embedded processor can be used to
  establish connection latencies at 0.5 sec or 1 sec, but not at
  0.1 sec" [12].  Our SSL-style handshake model (one non-CRT RSA-1024
  private operation + three public operations + protocol processing)
  costs ~57.6 M instructions, i.e. 576 MIPS at 0.1 s (infeasible on
  the SA-1100) but 115 MIPS at 0.5 s (feasible).

Per-algorithm constants for the other ciphers are order-of-magnitude
values for optimised C on a 32-bit embedded core, documented inline.
They only need to be *relatively* sensible: every paper-anchored
number above is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

# -- symmetric/hash bulk costs (instructions per byte) ------------------------

DES_IPB = 150.0          # bit-permutation heavy; Section 4.2.1's pain point
TDES_IPB = 3 * DES_IPB   # EDE = three DES passes
SHA1_IPB = 521.04 - TDES_IPB  # calibration residual = 71.04
MD5_IPB = 55.0           # cheaper than SHA-1 (fewer rounds, simpler schedule)
AES_IPB = 100.0          # table-driven AES on 32-bit
RC4_IPB = 12.0           # byte-swap PRGA, famously cheap
RC2_IPB = 120.0          # 16-bit MIX/MASH rounds

# The lightweight stream family (Pourghasem et al., PAPERS.md):
# bit-serial designs whose software cost is the clocking loop.  A5/1
# pays the majority-clock branch per bit; Grain batches x16 and
# Trivium x64 per word, so the per-byte cost falls in that order.
A51_IPB = 18.0           # 8 majority-clocked LFSR steps per byte
GRAIN_IPB = 14.0         # 16-step batched NFSR/LFSR word updates
TRIVIUM_IPB = 9.0        # 64-step batched cascade, cheapest of all

BULK_IPB: Dict[str, float] = {
    "DES": DES_IPB,
    "3DES": TDES_IPB,
    "AES": AES_IPB,
    "RC4": RC4_IPB,
    "RC2": RC2_IPB,
    "A51": A51_IPB,
    "GRAIN": GRAIN_IPB,
    "TRIVIUM": TRIVIUM_IPB,
    "SHA1": SHA1_IPB,
    "MD5": MD5_IPB,
    "NULL": 0.0,
}

# -- public-key costs ---------------------------------------------------------

MODMULT_INSTR_COEFF = 35.0  # instructions per (bits/32)^2 modular multiply


def modmult_instructions(bits: int) -> float:
    """Instructions for one modular multiplication at a given size."""
    words = bits / 32.0
    return MODMULT_INSTR_COEFF * words * words


def rsa_private_instructions(bits: int, use_crt: bool = False) -> float:
    """RSA private operation: ~1.5*bits modular multiplies (square-and-
    multiply with ~50% multiply density); CRT quarters the cost."""
    base = 1.5 * bits * modmult_instructions(bits)
    return base / 4.0 if use_crt else base


def rsa_public_instructions(bits: int, e: int = 65537) -> float:
    """RSA public operation: one multiply per exponent bit + one per set
    bit (e = 65537 -> 17 multiplies)."""
    mults = e.bit_length() + bin(e).count("1") - 1
    return mults * modmult_instructions(bits)


# -- protocol-level costs -----------------------------------------------------

HANDSHAKE_PROTOCOL_OVERHEAD_MI = 1.0   # parsing, cert decode, state machine
RECORD_OVERHEAD_IPB = 2.0              # per-byte framing/copy cost
PACKET_OVERHEAD_INSTR = 4000.0         # per-packet header processing


@dataclass(frozen=True)
class HandshakeCost:
    """Cost breakdown of an SSL/WTLS-style connection setup."""

    rsa_bits: int
    private_mi: float
    public_mi: float
    protocol_mi: float

    @property
    def total_mi(self) -> float:
        """Total handshake cost in millions of instructions."""
        return self.private_mi + self.public_mi + self.protocol_mi


def handshake_cost(rsa_bits: int = 1024, use_crt: bool = False,
                   mutual_auth: bool = True,
                   resumed: bool = False) -> HandshakeCost:
    """Cost of one RSA-based handshake (client side with client auth).

    The default (non-CRT, mutual auth) reproduces the paper's
    SA-1100 feasibility claim; enabling CRT shows the 4x speedup that
    Section 3.4 warns invites the Bellcore fault attack; ``resumed``
    prices the abbreviated (session-resumption) handshake, which skips
    every public-key operation and keeps only the protocol machinery —
    the protocol-level mitigation of the §3.2 gap.
    """
    if resumed:
        return HandshakeCost(
            rsa_bits=rsa_bits, private_mi=0.0, public_mi=0.0,
            protocol_mi=HANDSHAKE_PROTOCOL_OVERHEAD_MI,
        )
    private_ops = 1 if mutual_auth else 0
    public_ops = 3 if mutual_auth else 2  # verify cert(s) + encrypt premaster
    return HandshakeCost(
        rsa_bits=rsa_bits,
        private_mi=private_ops * rsa_private_instructions(rsa_bits, use_crt) / 1e6,
        public_mi=public_ops * rsa_public_instructions(rsa_bits) / 1e6,
        protocol_mi=HANDSHAKE_PROTOCOL_OVERHEAD_MI,
    )


def bulk_ipb(cipher: str, mac: str, record_overhead: bool = True) -> float:
    """Combined instructions/byte for bulk protection with cipher + MAC."""
    total = BULK_IPB[cipher] + BULK_IPB[mac]
    if record_overhead:
        total += RECORD_OVERHEAD_IPB
    return total


def bulk_mips_demand(data_rate_mbps: float, cipher: str = "3DES",
                     mac: str = "SHA1", record_overhead: bool = False) -> float:
    """MIPS needed to protect a stream at ``data_rate_mbps``.

    With the default (no record overhead, matching how [12] reports the
    bare crypto number): 10 Mbps of 3DES+SHA1 -> 651.3 MIPS.
    """
    bytes_per_second = data_rate_mbps * 1e6 / 8.0
    return bulk_ipb(cipher, mac, record_overhead) * bytes_per_second / 1e6


def handshake_mips_demand(latency_s: float, rsa_bits: int = 1024,
                          use_crt: bool = False) -> float:
    """MIPS needed to complete a handshake within ``latency_s`` seconds."""
    if latency_s <= 0:
        raise ValueError("connection latency must be positive")
    return handshake_cost(rsa_bits, use_crt).total_mi / latency_s


def total_mips_demand(data_rate_mbps: float, latency_s: float,
                      cipher: str = "3DES", mac: str = "SHA1",
                      rsa_bits: int = 1024, use_crt: bool = False) -> float:
    """The Figure 3 demand surface: handshake + bulk protection.

    One connection setup must finish within ``latency_s`` while the
    link simultaneously sustains ``data_rate_mbps`` of protected data.
    """
    return (
        bulk_mips_demand(data_rate_mbps, cipher, mac)
        + handshake_mips_demand(latency_s, rsa_bits, use_crt)
    )
