"""The canonical failover scenario: a seeded multi-shard chaos run.

One call builds a whole fleet with telemetry active, spreads handset
sessions across the shards, drives a steady request load, and kills
**every shard at least once** while the load is running.  What comes
back is the acceptance ledger for the crash-fault-tolerance plane:

* every benign request answered — served, degraded, or shed with a
  structured reason (``recovering`` during failover windows);
* every recovery action (checkpoint restores, resumption and
  re-handshake traffic, recovering sheds) charged to handset
  batteries, with the end-to-end energy reconciliation holding
  exactly;
* byte-identical behaviour on same-seed reruns (the CI ``cmp`` gate
  via :mod:`repro.analysis.failover`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..hardware.battery import Battery
from ..observability import probe
from ..observability.attribution import EnergyReconciliation, reconcile_energy
from ..observability.metrics import export_fleet
from ..observability.spans import Telemetry
from ..protocols.gateway_runtime import RuntimeStats
from ..protocols.reliable import VirtualClock
from ..protocols.wap import ORIGIN_NAME
from .runtime import (
    CrashPlan,
    FleetConfig,
    FleetStats,
    ShardedFleet,
)


@dataclass
class FailoverResult:
    """Everything one seeded failover chaos run produced."""

    fleet: ShardedFleet
    telemetry: Telemetry
    stats: FleetStats
    shard_stats: Dict[str, RuntimeStats]
    counts: Dict[str, int]
    shed_reasons: Dict[str, int]
    per_session_replies: Dict[str, int]
    batteries: Dict[str, Battery]
    reconciliation: EnergyReconciliation
    params: Dict[str, object] = field(default_factory=dict)


def run_failover(sessions: int = 24, shards: int = 4,
                 requests_per_session: int = 6,
                 interarrival_s: float = 0.35,
                 crash_start_s: float = 0.4,
                 crash_spacing_s: Optional[float] = None,
                 seed: int = 2003,
                 battery_capacity_j: float = 5.0,
                 config: Optional[FleetConfig] = None,
                 instrument=None,
                 probe_enabled: bool = True) -> FailoverResult:
    """One seeded multi-shard crash run with telemetry on.

    The crash plan is a staggered sweep killing every shard exactly
    once (so migrations always have survivors) spread across the
    request window; shards restart between crashes, so later crashes
    migrate sessions onto earlier casualties.

    ``instrument`` is the observability seam: called with
    ``(fleet, telemetry)`` after the fleet is built but before any
    session attaches, it may return a finisher callable invoked after
    the run loop drains (still inside the probe activation) — the
    fleetwatch layer hooks its window sampler and final flush here
    without forking the scenario.  ``probe_enabled=False`` runs the
    identical scenario with the probe seam dark (no spans, no
    activation — the zero-overhead baseline the observability bench
    compares against); the returned reconciliation is then vacuous,
    since nothing attributes energy.
    """
    if config is None:
        # Size the bounded stores *below* the per-shard session count:
        # journal-index evictions force some sessions down the cold
        # (resumption) path and ticket-cache evictions force a few all
        # the way to the full re-handshake — the chaos run exercises
        # every recovery tier, not just the warm one.
        config = FleetConfig(
            shards=shards,
            journal_index_limit=max(2, (2 * sessions) // (3 * shards)),
            ticket_cache_limit=max(3, (2 * sessions) // 3))
    if config.shards != shards:
        raise ValueError("config.shards must match the shards argument")
    clock = VirtualClock()
    telemetry = Telemetry(
        seed=("fleet-failover", sessions, shards, requests_per_session,
              interarrival_s, seed),
        clock=clock, label="fleet-failover")
    batteries = {
        f"handset-{index:02d}": Battery(capacity_j=battery_capacity_j)
        for index in range(sessions)
    }
    horizon_s = requests_per_session * interarrival_s
    if crash_spacing_s is None:
        crash_spacing_s = max(
            horizon_s / max(1, shards),
            config.restart_delay_s + config.heartbeat_interval_s)
    activation = (probe.activate(telemetry) if probe_enabled
                  else contextlib.nullcontext())
    with activation:
        fleet = ShardedFleet(config=config, seed=seed, clock=clock)
        if probe_enabled:
            export_fleet(telemetry.registry, fleet)
        finisher = instrument(fleet, telemetry) if instrument else None
        session_ids = sorted(batteries)
        for session_id in session_ids:
            fleet.attach_session(session_id, battery=batteries[session_id])
        plan = CrashPlan.seeded_sweep(
            shards, start_s=crash_start_s, spacing_s=crash_spacing_s,
            seed=seed, jitter_s=config.heartbeat_interval_s / 2.0)
        fleet.apply_plan(plan)
        for round_index in range(requests_per_session):
            for slot, session_id in enumerate(session_ids):
                when = (round_index * interarrival_s
                        + slot * interarrival_s / max(1, sessions))
                fleet.submit_at(
                    when, session_id, ORIGIN_NAME,
                    f"req-{session_id}-{round_index}".encode())
        stats = fleet.run()
        if finisher is not None:
            finisher()
        counts, shed_reasons, per_session = fleet.count_replies(
            session_ids)
    return FailoverResult(
        fleet=fleet,
        telemetry=telemetry,
        stats=stats,
        shard_stats={shard.name: shard.runtime.stats
                     for shard in fleet.shards},
        counts=counts,
        shed_reasons=shed_reasons,
        per_session_replies=per_session,
        batteries=batteries,
        reconciliation=reconcile_energy(telemetry, batteries.values()),
        params={
            "sessions": sessions,
            "shards": shards,
            "requests_per_session": requests_per_session,
            "interarrival_s": interarrival_s,
            "crash_start_s": crash_start_s,
            "crash_spacing_s": round(crash_spacing_s, 6),
            "seed": seed,
            "battery_capacity_j": battery_capacity_j,
        },
    )


def answered_total(result: FailoverResult) -> int:
    """Replies the handsets actually decoded, across all sessions."""
    return sum(result.per_session_replies.values())
