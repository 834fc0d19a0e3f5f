"""The failover report: what the multi-shard chaos run survived.

Turns one :class:`~repro.fleet.scenario.FailoverResult` into a plain
dict (and its canonical JSON form): the benign answer ledger with the
``recovering`` shed window broken out, the crash/detection/migration
timeline counters, the warm / cold-resume / cold-full recovery split,
journal health (checkpoints, torn frames, index evictions), the
recovery-latency distribution, per-shard sections, and the energy
block reconciled exactly against the battery ledgers.

``format_report`` is byte-stable: ``json.dumps(..., sort_keys=True)``
over rounded floats, so two same-seed runs compare with ``cmp`` — the
CI gate for deterministic failover.
"""

from __future__ import annotations

from typing import Dict

from .report import format_report  # noqa: F401  (re-exported)

#: The declared availability bound for the acceptance chaos run: every
#: submitted request is answered (served/degraded/structured shed) —
#: a crash may cost latency and recovering sheds, never silence.
DECLARED_ANSWER_RATE = 1.0


def build_report(result) -> Dict[str, object]:
    """The failover report as a plain, JSON-ready dict."""
    stats = result.stats
    fleet = result.fleet
    recon = result.reconciliation
    totals = fleet.runtime_totals()
    answered = sum(result.per_session_replies.values())
    user_mj = sum(battery.drained_mj
                  for battery in result.batteries.values())
    shards = {}
    for shard in fleet.shards:
        ledgers = shard.ledgers
        shards[shard.name] = {
            "crashes": shard.crash_count,
            "incarnations": len(ledgers),
            "served": sum(ledger.served for ledger in ledgers),
            "degraded": sum(ledger.degraded for ledger in ledgers),
            "shed": sum(ledger.shed for ledger in ledgers),
            "checkpoints_written": shard.journal.checkpoints_written,
            "journal_bytes": len(shard.journal),
            "journal_evictions": shard.journal.evictions,
            "journal_torn_records": shard.journal.torn_records,
            "sessions_now": len(shard.runtime.sessions),
        }
    report: Dict[str, object] = {
        "params": dict(result.params),
        "benign": {
            "submitted": fleet.submitted,
            "answered": answered,
            "answer_rate": round(
                answered / fleet.submitted if fleet.submitted else 1.0, 6),
            "counts": dict(result.counts),
            "shed_reasons": {key: result.shed_reasons[key]
                             for key in sorted(result.shed_reasons)},
            "runtime_totals": {key: totals[key] for key in sorted(totals)},
            "requests_while_down": stats.requests_while_down,
            "black_holed_frames": stats.black_holed_frames,
            "flushed_replies": stats.flushed_replies,
        },
        "failover": {
            "crashes": stats.crashes,
            "detections": stats.detections,
            "restarts": stats.restarts,
            "heartbeat_misses": stats.heartbeat_misses,
            "migration_deferrals": stats.migration_deferrals,
            "sessions_migrated": stats.sessions_migrated,
            "migrations": {
                "warm": stats.migrations_warm,
                "cold_resume": stats.migrations_cold_resume,
                "cold_full": stats.migrations_cold_full,
            },
            "checkpoints_written": fleet.checkpoints_written(),
            "checkpoints_restored": stats.checkpoints_restored,
            "journal_evictions": fleet.journal_evictions(),
            "journal_torn_records": fleet.journal_torn_records(),
            "journal_bytes_torn": stats.journal_bytes_torn,
            "shed_recovering": stats.shed_recovering,
            "recovery_latency_s": {
                "count": len(stats.recovery_latencies),
                "p50": round(stats.recovery_p50_s(), 6),
                "p95": round(stats.recovery_p95_s(), 6),
                "max": round(max(stats.recovery_latencies), 6)
                if stats.recovery_latencies else 0.0,
            },
        },
        "tickets": {
            "cached": len(fleet.ticket_cache),
            "hits": fleet.ticket_cache.hits,
            "misses": fleet.ticket_cache.misses,
            "evictions": fleet.ticket_cache.evictions,
            "rotations": fleet.ticket_cache.rotations,
            "expired": fleet.ticket_cache.expired,
        },
        "shards": shards,
        "energy": {
            "user_mj": round(user_mj, 6),
            "gateway_radio_mj": round(totals["energy_mj"], 6),
            "recovery_mj": round(stats.recovery_energy_mj, 6),
            "attributed_mj": round(recon.attributed_mj, 6),
            "battery_drain_mj": round(recon.battery_drain_mj, 6),
            "battery_refusals": (stats.battery_refusals
                                 + int(totals["battery_refusals"])),
            "reconciled": recon.ok,
        },
    }
    return report
