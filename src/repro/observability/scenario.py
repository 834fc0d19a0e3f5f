"""The canonical telemetry scenario: a seeded gateway chaos run.

One call builds the full N-handset gateway world **with telemetry
active from the first handshake**, drives the chaos traffic pattern
(:func:`~repro.protocols.gateway_runtime.submit_rounds`), and returns
the finished :class:`~repro.observability.spans.Telemetry` alongside
the usual served/degraded/shed ledger — everything
``python -m repro telemetry-report``, the CI smoke job, and the
acceptance tests need.  :func:`repro.analysis.chaos.chaos_point` is a
view of this run, so the two cannot drift apart.

Determinism: the virtual clock is shared between the runtime and the
telemetry context, every RNG is a seeded
:class:`~repro.crypto.rng.DeterministicDRBG`, and the trace id derives
from the scenario parameters — so two same-seed runs export
byte-identical JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..hardware.battery import Battery
from ..protocols.gateway_runtime import (
    RuntimeConfig,
    RuntimeStats,
    build_gateway_runtime_world,
    handset_reply_counts,
    submit_rounds,
)
from ..protocols.reliable import VirtualClock
from ..protocols.wap import ORIGIN_NAME
from . import probe
from .attribution import EnergyReconciliation, reconcile_energy
from .metrics import export_runtime
from .spans import Telemetry


@dataclass
class ChaosTelemetryResult:
    """Everything one seeded chaos-with-telemetry run produced."""

    telemetry: Telemetry
    stats: RuntimeStats
    counts: Dict[str, int]
    batteries: Dict[str, Battery]
    reconciliation: EnergyReconciliation
    sessions: int = 0
    seed: int = 0
    params: Dict[str, object] = field(default_factory=dict)


def run_gateway_chaos(sessions: int = 32, requests_per_session: int = 4,
                      interarrival_s: float = 0.1, fault_rate: float = 0.2,
                      seed: int = 0, battery_capacity_j: float = 5.0,
                      config: Optional[RuntimeConfig] = None
                      ) -> ChaosTelemetryResult:
    """One seeded chaos run with the telemetry plane on.

    Telemetry is activated *before* the world is built so the session
    handshakes (and their kex/modexp descendants) land in the trace;
    the virtual clock is shared with the runtime so span timestamps
    and gateway scheduling live on one timeline.  Per-handset
    batteries back every radio charge, making the energy
    reconciliation (:func:`~repro.observability.attribution
    .reconcile_energy`) a real end-to-end check.
    """
    clock = VirtualClock()
    telemetry = Telemetry(
        seed=("gateway-chaos", sessions, requests_per_session,
              interarrival_s, fault_rate, seed),
        clock=clock, label="gateway-chaos")
    batteries = {
        f"handset-{index:02d}": Battery(capacity_j=battery_capacity_j)
        for index in range(sessions)
    }
    with probe.activate(telemetry):
        runtime, handsets, _ = build_gateway_runtime_world(
            sessions=sessions, seed=seed, config=config,
            batteries=batteries, clock=clock)
        if fault_rate > 0.0:
            runtime.set_fault_rate(ORIGIN_NAME, fault_rate, seed=seed)
        export_runtime(telemetry.registry, runtime)
        submit_rounds(runtime, handsets, requests_per_session,
                      interarrival_s)
        stats = runtime.run()
        counts = handset_reply_counts(handsets)
    return ChaosTelemetryResult(
        telemetry=telemetry,
        stats=stats,
        counts=counts,
        batteries=batteries,
        reconciliation=reconcile_energy(telemetry, batteries.values()),
        sessions=sessions,
        seed=seed,
        params={
            "sessions": sessions,
            "requests_per_session": requests_per_session,
            "interarrival_s": interarrival_s,
            "fault_rate": fault_rate,
            "seed": seed,
            "battery_capacity_j": battery_capacity_j,
        },
    )
