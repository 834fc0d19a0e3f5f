"""Compact serializable WTLS session state for crash recovery.

A gateway shard's per-session state is small and explicit by
construction — the WTLS datagram record layer keeps an outbound
sequence counter, an inbound replay set, and the (fixed) key material
— so a :class:`SessionSnapshot` captures everything a *different*
shard needs to carry the session forward after the owner dies:

* suite name and both record-protection key sets (cipher/MAC/IV per
  direction);
* the encoder's next sequence number and the decoder's replay state
  (``_seen`` / ``highest_sequence`` / ``received``), which the
  transactional record layer only commits after a record fully
  verifies — a snapshot therefore never captures a half-applied
  record;
* the resumption ticket id (cold-recovery key into the fleet ticket
  cache) and the handset battery reading;
* a monotone ``mutation`` counter so journals can order checkpoints.

``to_bytes`` / ``from_bytes`` are a versioned, length-prefixed binary
codec (no pickle — snapshots cross trust boundaries in a real fleet).
Restoring constructs fresh compiled encode/decode pipelines from the
stored keys: the compiled closures capture key material at
construction, so key bytes must go through the constructor, while the
sequence/replay counters are live attributes set afterwards.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

from ..protocols.ciphersuites import SUITES_BY_NAME
from ..protocols.transport import Endpoint
from ..protocols.wtls import (
    WTLSConnection,
    WTLSRecordDecoder,
    WTLSRecordEncoder,
)

#: v1 had no trace context; v2 appends one length-prefixed
#: ``trace_ctx`` field.  ``from_bytes`` accepts both, so journals
#: written before the observability plane still recover.
SNAPSHOT_VERSION = 2


def _pack_bytes(out: List[bytes], blob: bytes) -> None:
    if len(blob) > 0xFFFF:
        raise ValueError("snapshot field too long")
    out.append(struct.pack(">H", len(blob)))
    out.append(blob)


class _Reader:
    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.raw):
            raise ValueError("snapshot truncated")
        blob = self.raw[self.pos:self.pos + count]
        self.pos += count
        return blob

    def take_bytes(self) -> bytes:
        (length,) = struct.unpack(">H", self.take(2))
        return self.take(length)

    def take_u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def take_i64(self) -> int:
        return struct.unpack(">q", self.take(8))[0]


@dataclass(frozen=True)
class SessionSnapshot:
    """One checkpointed gateway-side WTLS session."""

    session_id: str
    suite_name: str
    # Outbound (gateway -> handset) record protection.
    enc_key: bytes
    enc_mac_key: bytes
    enc_iv: bytes
    enc_sequence: int
    # Inbound (handset -> gateway) record protection + replay state.
    dec_key: bytes
    dec_mac_key: bytes
    dec_iv: bytes
    dec_highest_sequence: int
    dec_received: int
    dec_seen: Tuple[int, ...]
    discarded: int
    ticket: bytes
    battery_remaining_uj: int
    mutation: int
    #: Serialized :class:`~repro.observability.tracecontext.TraceContext`
    #: (empty when tracing is off) — the checkpoint propagation path of
    #: the fleet-wide journey trace.
    trace_ctx: bytes = b""

    def to_bytes(self) -> bytes:
        """Versioned binary form (input to the checkpoint journal)."""
        out: List[bytes] = [bytes([SNAPSHOT_VERSION])]
        _pack_bytes(out, self.session_id.encode("ascii"))
        _pack_bytes(out, self.suite_name.encode("ascii"))
        for blob in (self.enc_key, self.enc_mac_key, self.enc_iv):
            _pack_bytes(out, blob)
        out.append(struct.pack(">I", self.enc_sequence))
        for blob in (self.dec_key, self.dec_mac_key, self.dec_iv):
            _pack_bytes(out, blob)
        out.append(struct.pack(">q", self.dec_highest_sequence))
        out.append(struct.pack(">I", self.dec_received))
        out.append(struct.pack(">I", len(self.dec_seen)))
        for sequence in sorted(self.dec_seen):
            out.append(struct.pack(">I", sequence))
        out.append(struct.pack(">I", self.discarded))
        _pack_bytes(out, self.ticket)
        out.append(struct.pack(">q", self.battery_remaining_uj))
        out.append(struct.pack(">I", self.mutation))
        _pack_bytes(out, self.trace_ctx)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SessionSnapshot":
        """Decode one snapshot; raises ``ValueError`` on damage."""
        reader = _Reader(raw)
        version = reader.take(1)[0]
        if version not in (1, SNAPSHOT_VERSION):
            raise ValueError(f"unknown snapshot version {version}")
        session_id = reader.take_bytes().decode("ascii")
        suite_name = reader.take_bytes().decode("ascii")
        enc_key = reader.take_bytes()
        enc_mac_key = reader.take_bytes()
        enc_iv = reader.take_bytes()
        enc_sequence = reader.take_u32()
        dec_key = reader.take_bytes()
        dec_mac_key = reader.take_bytes()
        dec_iv = reader.take_bytes()
        dec_highest = reader.take_i64()
        dec_received = reader.take_u32()
        seen_count = reader.take_u32()
        seen = tuple(reader.take_u32() for _ in range(seen_count))
        discarded = reader.take_u32()
        ticket = reader.take_bytes()
        battery_remaining_uj = reader.take_i64()
        mutation = reader.take_u32()
        trace_ctx = reader.take_bytes() if version >= 2 else b""
        if reader.pos != len(raw):
            raise ValueError("snapshot has trailing bytes")
        return cls(
            session_id=session_id, suite_name=suite_name,
            enc_key=enc_key, enc_mac_key=enc_mac_key, enc_iv=enc_iv,
            enc_sequence=enc_sequence,
            dec_key=dec_key, dec_mac_key=dec_mac_key, dec_iv=dec_iv,
            dec_highest_sequence=dec_highest, dec_received=dec_received,
            dec_seen=seen, discarded=discarded, ticket=ticket,
            battery_remaining_uj=battery_remaining_uj, mutation=mutation,
            trace_ctx=trace_ctx)


def capture_connection(session_id: str, conn: WTLSConnection,
                       ticket: bytes = b"",
                       battery_remaining_mj: float = 0.0,
                       mutation: int = 0,
                       trace_ctx: bytes = b"") -> SessionSnapshot:
    """Snapshot one gateway-side connection's transferable state."""
    encoder = conn.encoder
    decoder = conn.decoder
    return SessionSnapshot(
        session_id=session_id, suite_name=conn.suite_name,
        enc_key=encoder._key, enc_mac_key=encoder._mac_key,
        enc_iv=encoder._iv, enc_sequence=encoder._sequence,
        dec_key=decoder._key, dec_mac_key=decoder._mac_key,
        dec_iv=decoder._iv,
        dec_highest_sequence=decoder.highest_sequence,
        dec_received=decoder.received,
        dec_seen=tuple(sorted(decoder._seen)),
        discarded=conn.discarded, ticket=ticket,
        battery_remaining_uj=int(round(battery_remaining_mj * 1000.0)),
        mutation=mutation, trace_ctx=trace_ctx)


def restore_connection(snapshot: SessionSnapshot, endpoint: Endpoint,
                       sequence_skip: int = 0) -> WTLSConnection:
    """Rebuild a live gateway-side connection from a checkpoint.

    ``sequence_skip`` jumps the outbound sequence *forward* of the
    checkpointed value.  A checkpoint can be stale by however many
    replies the dead shard sent after its last durable frame (the torn
    tail); re-using those sequence numbers would make the handset's
    replay protection reject the new shard's replies.  Skipping is
    safe — the WTLS datagram layer tolerates gaps by design and only
    rejects *repeats* — so the restored encoder leapfrogs any sequence
    the dead shard could plausibly have consumed.
    """
    suite = SUITES_BY_NAME[snapshot.suite_name]
    encoder = WTLSRecordEncoder(
        suite, snapshot.enc_key, snapshot.enc_mac_key, snapshot.enc_iv)
    encoder._sequence = snapshot.enc_sequence + sequence_skip
    decoder = WTLSRecordDecoder(
        suite, snapshot.dec_key, snapshot.dec_mac_key, snapshot.dec_iv)
    decoder._seen = set(snapshot.dec_seen)
    decoder.highest_sequence = snapshot.dec_highest_sequence
    decoder.received = snapshot.dec_received
    return WTLSConnection(
        encoder=encoder, decoder=decoder, endpoint=endpoint,
        suite_name=snapshot.suite_name, discarded=snapshot.discarded)
