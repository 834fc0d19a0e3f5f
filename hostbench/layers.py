"""Which ``repro`` functions bound each layer, and the per-layer metrics.

Every entry names one public function or method at a layer boundary.
The traced run wraps them all (see :mod:`tracer`); the
metrics below are derived from the resulting spans.  Layer names follow
the package's module names.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import Op, TraceSummary


def _payload(args) -> int:
    return len(args[1])


def _aes_block(args) -> int:
    return 16


STREAM_CIPHERS = {
    "rc4": "repro.crypto.rc4:RC4",
    "a51": "repro.crypto.a51:A51",
    "grain": "repro.crypto.grain:Grain",
    "trivium": "repro.crypto.trivium:Trivium",
}


def build_ops() -> List[Op]:
    """The layer boundaries, innermost kernels first."""
    ops = [
        Op("crypto.tdes", "key", "repro.crypto.tdes:TripleDES.__init__"),
        Op("crypto.tdes", "block", "repro.crypto.tdes:TripleDES.encrypt_block"),
        Op("crypto.tdes", "block", "repro.crypto.tdes:TripleDES.decrypt_block"),
        Op("crypto.tdes", "key", "repro.crypto.des:DES.__init__"),
        Op("crypto.tdes", "block", "repro.crypto.des:DES.encrypt_block"),
        Op("crypto.tdes", "block", "repro.crypto.des:DES.decrypt_block"),
        Op("crypto.aes", "key", "repro.crypto.aes:AES.__init__"),
        Op("crypto.aes", "data", "repro.crypto.aes:AES.encrypt_block",
           _aes_block),
        Op("crypto.aes", "data", "repro.crypto.aes:AES.decrypt_block",
           _aes_block),
    ]
    for name, target in STREAM_CIPHERS.items():
        ops.append(Op(f"crypto.{name}", "key", f"{target}.__init__"))
        ops.append(Op(f"crypto.{name}", "data", f"{target}.process",
                      _payload))
    ops += [
        Op("crypto.hmac", "init", "repro.crypto.hmac:HMAC.__init__"),
        Op("crypto.hmac", "mac", "repro.crypto.hmac:HMAC.mac"),
        Op("crypto.hmac", "mac", "repro.crypto.hmac:HMAC.digest"),
        Op("crypto.hmac", "mac", "repro.crypto.hmac:HMAC.copy"),
        Op("crypto.hmac", "oneshot", "repro.crypto.hmac:hmac"),
        Op("crypto.hmac", "oneshot", "repro.crypto.hmac:hmac_verify"),
        Op("crypto.modexp", "call", "repro.crypto.modmath:modexp"),
        Op("crypto.modexp", "call", "repro.crypto.modmath:modexp_sqm"),
        Op("crypto.modexp", "call", "repro.crypto.modmath:modexp_ladder"),
        Op("crypto.modexp", "keygen", "repro.crypto.rsa:generate_keypair"),
        Op("protocols.kdf", "call", "repro.protocols.kdf:p_hash"),
        Op("protocols.kdf", "call", "repro.protocols.kdf:prf"),
        Op("protocols.kdf", "call", "repro.protocols.kdf:master_secret"),
        Op("protocols.kdf", "call", "repro.protocols.kdf:derive_key_block"),
        Op("protocols.kdf", "call",
           "repro.protocols.kdf:finished_verify_data"),
        Op("protocols.handshake", "full",
           "repro.protocols.handshake:run_handshake"),
        Op("protocols.handshake", "resumed",
           "repro.protocols.resumption:resume"),
        Op("protocols.wtls", "seal",
           "repro.protocols.wtls:WTLSRecordEncoder.encode"),
        Op("protocols.wtls", "seal",
           "repro.protocols.wtls:WTLSRecordEncoder.encode_batch"),
        Op("protocols.wtls", "open",
           "repro.protocols.wtls:WTLSRecordDecoder.decode"),
        Op("protocols.wtls", "open",
           "repro.protocols.wtls:WTLSRecordDecoder.decode_batch"),
        Op("protocols.records", "seal",
           "repro.protocols.records:RecordEncoder.encode"),
        Op("protocols.records", "seal",
           "repro.protocols.records:RecordEncoder.encode_batch"),
        Op("protocols.records", "open",
           "repro.protocols.records:RecordDecoder.decode"),
        Op("protocols.records", "open",
           "repro.protocols.records:RecordDecoder.decode_batch"),
        Op("protocols.rekey", "call",
           "repro.protocols.ciphersuites:CipherSuite.make_cipher"),
        Op("protocols.gateway", "step",
           "repro.protocols.gateway_runtime:GatewayRuntime.step"),
        Op("protocols.gateway", "other",
           "repro.protocols.gateway_runtime:GatewayRuntime.submit"),
        Op("protocols.gateway", "other",
           "repro.protocols.gateway_runtime:GatewayRuntime.send_control_reply"),
        Op("protocols.gateway", "other",
           "repro.protocols.gateway_runtime:GatewayRuntime.flush_all_replies"),
        Op("protocols.payment", "call",
           "repro.protocols.payment:create_payment"),
        Op("protocols.payment", "call",
           "repro.protocols.payment:Merchant.process"),
        Op("protocols.payment", "call",
           "repro.protocols.payment:PaymentGateway.process"),
        Op("protocols.payment", "call",
           "repro.protocols.payment:non_repudiation_evidence"),
        Op("fleet.build", "call", "repro.fleet.runtime:ShardedFleet.__init__"),
        Op("fleet.build", "call", "repro.fleet.runtime:ShardedFleet._restart"),
        Op("fleet.scheduler", "batch",
           "repro.fleet.scheduler:EventScheduler.run_batch"),
        Op("fleet.attach", "call",
           "repro.fleet.runtime:ShardedFleet.attach_session"),
        Op("fleet.checkpoint", "call",
           "repro.fleet.runtime:ShardedFleet._checkpoint"),
        Op("fleet.recover", "migration",
           "repro.fleet.runtime:ShardedFleet._migrate_session"),
        Op("fleet.recover", "other", "repro.fleet.runtime:ShardedFleet._migrate"),
        Op("fleet.recover", "other", "repro.fleet.runtime:ShardedFleet._crash"),
        Op("observability", "span",
           "repro.observability.spans:Telemetry.start_span"),
        Op("observability", "other",
           "repro.observability.spans:Telemetry.end_span"),
        Op("observability", "other",
           "repro.observability.spans:Telemetry.event"),
        Op("observability", "other",
           "repro.observability.spans:Telemetry.add_cycles"),
        Op("observability", "other",
           "repro.observability.spans:Telemetry.add_energy_mj"),
        Op("observability", "other",
           "repro.observability.spans:Telemetry.abort_where"),
    ]
    return ops


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Every per-layer metric: name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {}


def _declare(name: str, unit: str, better: str) -> None:
    PER_LAYER[name] = (unit, better)


_declare("crypto.tdes.self_s", "s", "lower")
_declare("crypto.tdes.blocks", "count", "lower")
_declare("crypto.tdes.key_schedules", "count", "lower")
_declare("crypto.tdes.blocks_per_schedule", "ratio", "higher")
for _name in ("aes", *STREAM_CIPHERS):
    _declare(f"crypto.{_name}.self_s", "s", "lower")
    _declare(f"crypto.{_name}.bytes", "B", "lower")
    _declare(f"crypto.{_name}.kib_per_s", "KiB/s", "higher")
    _declare(f"crypto.{_name}.key_setups", "count", "lower")
_declare("crypto.hmac.inits", "count", "lower")
_declare("crypto.hmac.self_s", "s", "lower")
_declare("crypto.modexp.calls", "count", "lower")
_declare("crypto.modexp.self_s", "s", "lower")
_declare("protocols.kdf.calls", "count", "lower")
_declare("protocols.kdf.self_s", "s", "lower")
_declare("protocols.handshake.full", "count", "lower")
_declare("protocols.handshake.resumed", "count", "lower")
_declare("protocols.handshake.self_s", "s", "lower")
for _codec in ("wtls", "records"):
    _declare(f"protocols.{_codec}.records", "count", "higher")
    _declare(f"protocols.{_codec}.seal_self_s", "s", "lower")
    _declare(f"protocols.{_codec}.open_self_s", "s", "lower")
_declare("protocols.rekey.calls", "count", "lower")
_declare("protocols.rekey.self_s", "s", "lower")
_declare("protocols.rekey.per_record", "ratio", "lower")
_declare("protocols.gateway.steps", "count", "lower")
_declare("protocols.gateway.self_s", "s", "lower")
_declare("protocols.payment.calls", "count", "lower")
_declare("protocols.payment.self_s", "s", "lower")
_declare("fleet.build.self_s", "s", "lower")
_declare("fleet.scheduler.batches", "count", "lower")
_declare("fleet.scheduler.self_s", "s", "lower")
_declare("fleet.attach.self_s", "s", "lower")
_declare("fleet.checkpoint.count", "count", "lower")
_declare("fleet.checkpoint.self_s", "s", "lower")
_declare("fleet.recover.self_s", "s", "lower")
_declare("fleet.migrations", "count", "lower")
_declare("observability.spans", "count", "lower")
_declare("observability.self_s", "s", "lower")
_declare("setup.import_s", "s", "lower")
_declare("setup.world_s", "s", "lower")
_declare("trace.wall_s", "s", "lower")
_declare("trace.unattributed_s", "s", "lower")
_declare("trace.overhead_ratio", "ratio", "lower")


def layer_metrics(summary: TraceSummary) -> Dict[str, float]:
    """Every span-derived per-layer metric of one traced run."""
    out: Dict[str, float] = {}
    blocks = summary.count("crypto.tdes", "block")
    schedules = summary.count("crypto.tdes", "key")
    out["crypto.tdes.self_s"] = summary.layer_s("crypto.tdes")
    out["crypto.tdes.blocks"] = blocks
    out["crypto.tdes.key_schedules"] = schedules
    out["crypto.tdes.blocks_per_schedule"] = _ratio(blocks, schedules)
    for name in ("aes", *STREAM_CIPHERS):
        layer = f"crypto.{name}"
        data = summary.byte_count(layer)
        out[f"{layer}.self_s"] = summary.layer_s(layer)
        out[f"{layer}.bytes"] = data
        out[f"{layer}.kib_per_s"] = _ratio(
            data / 1024.0, summary.op_s(layer, "data"))
        out[f"{layer}.key_setups"] = summary.count(layer, "key")
    out["crypto.hmac.inits"] = summary.count("crypto.hmac", "init")
    out["crypto.hmac.self_s"] = summary.layer_s("crypto.hmac")
    out["crypto.modexp.calls"] = summary.count("crypto.modexp", "call")
    out["crypto.modexp.self_s"] = summary.layer_s("crypto.modexp")
    out["protocols.kdf.calls"] = summary.count("protocols.kdf")
    out["protocols.kdf.self_s"] = summary.layer_s("protocols.kdf")
    out["protocols.handshake.full"] = summary.count(
        "protocols.handshake", "full")
    out["protocols.handshake.resumed"] = summary.count(
        "protocols.handshake", "resumed")
    out["protocols.handshake.self_s"] = summary.layer_s("protocols.handshake")
    processed = 0
    for codec in ("wtls", "records"):
        layer = f"protocols.{codec}"
        out[f"{layer}.records"] = summary.count(layer, "seal")
        out[f"{layer}.seal_self_s"] = summary.op_s(layer, "seal")
        out[f"{layer}.open_self_s"] = summary.op_s(layer, "open")
        processed += summary.count(layer)
    rekeys = summary.count("protocols.rekey")
    out["protocols.rekey.calls"] = rekeys
    out["protocols.rekey.self_s"] = summary.layer_s("protocols.rekey")
    out["protocols.rekey.per_record"] = _ratio(rekeys, processed)
    out["protocols.gateway.steps"] = summary.count("protocols.gateway", "step")
    out["protocols.gateway.self_s"] = summary.layer_s("protocols.gateway")
    out["protocols.payment.calls"] = summary.count("protocols.payment")
    out["protocols.payment.self_s"] = summary.layer_s("protocols.payment")
    out["fleet.build.self_s"] = summary.layer_s("fleet.build")
    out["fleet.scheduler.batches"] = summary.count("fleet.scheduler")
    out["fleet.scheduler.self_s"] = summary.layer_s("fleet.scheduler")
    out["fleet.attach.self_s"] = summary.layer_s("fleet.attach")
    out["fleet.checkpoint.count"] = summary.count("fleet.checkpoint")
    out["fleet.checkpoint.self_s"] = summary.layer_s("fleet.checkpoint")
    out["fleet.recover.self_s"] = summary.layer_s("fleet.recover")
    out["fleet.migrations"] = summary.count("fleet.recover", "migration")
    out["observability.spans"] = summary.count("observability", "span")
    out["observability.self_s"] = summary.layer_s("observability")
    out["trace.wall_s"] = summary.wall_ns / 1e9
    out["trace.unattributed_s"] = summary.unattributed_ns / 1e9
    return out
