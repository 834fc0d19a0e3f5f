"""Chaos sweep over the multi-session gateway runtime.

The gateway analogue of the lossy-link drop sweep: drive the
:class:`~repro.protocols.gateway_runtime.GatewayRuntime` across a grid
of **offered load** (request interarrival time per handset) × **origin
fault rate** (seeded i.i.d. wired-leg failures) and report, per point,
how the overload/fault machinery split the traffic — served, degraded,
shed — plus p95 virtual-time latency and handset radio energy per
served request.  Every point is a pure function of its seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..protocols.gateway_runtime import (
    RuntimeConfig,
    build_gateway_runtime_world,
    parse_reply,
)
from .sweep import SweepResult, sweep

ORIGIN = "origin.example"


def chaos_point(sessions: int = 4, requests_per_session: int = 8,
                interarrival_s: float = 0.2, fault_rate: float = 0.0,
                seed: int = 0,
                config: Optional[RuntimeConfig] = None) -> Dict[str, float]:
    """Run one grid point and return its ledger.

    ``interarrival_s`` is the per-handset request period; the aggregate
    offered load is ``sessions / interarrival_s`` requests per virtual
    second, which the runtime's admission rate then accepts or sheds.
    """
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=sessions, seed=seed, config=config)
    if fault_rate > 0.0:
        runtime.set_fault_rate(ORIGIN, fault_rate, seed=seed)
    session_ids = sorted(handsets)
    for round_index in range(requests_per_session):
        for slot, session_id in enumerate(session_ids):
            handsets[session_id].send(
                f"req-{session_id}-{round_index}".encode())
            runtime.submit(
                session_id, ORIGIN,
                arrival_offset_s=round_index * interarrival_s
                + slot * interarrival_s / max(1, sessions))
    stats = runtime.run()
    replies: List[str] = []
    for session_id in session_ids:
        conn = handsets[session_id]
        while conn.endpoint.pending():
            replies.append(parse_reply(conn.receive())[0])
    counts = {kind: replies.count(kind)
              for kind in ("served", "degraded", "shed")}
    if stats.answered != stats.submitted:
        raise RuntimeError("a request went unanswered")
    return {
        "sessions": sessions,
        "offered_per_s": round(sessions / interarrival_s, 3),
        "fault_rate": fault_rate,
        "submitted": stats.submitted,
        "served": counts["served"],
        "degraded": counts["degraded"],
        "shed": counts["shed"],
        "breaker_fast_fails": stats.breaker_fast_fails,
        "wired_failures": stats.wired_failures,
        "p95_latency_s": round(stats.p95_latency_s(), 6),
        "energy_per_served_mj": round(stats.energy_per_served_mj(), 6),
    }


def chaos_sweep(interarrivals: Sequence[float] = (0.4, 0.1, 0.025),
                fault_rates: Sequence[float] = (0.0, 0.2, 0.5),
                sessions: int = 4, requests_per_session: int = 8,
                seed: int = 0) -> SweepResult:
    """The full offered-load × fault-rate grid as a
    :class:`~repro.analysis.sweep.SweepResult`."""
    return sweep(
        lambda interarrival_s, fault_rate: chaos_point(
            sessions=sessions,
            requests_per_session=requests_per_session,
            interarrival_s=interarrival_s,
            fault_rate=fault_rate,
            seed=seed),
        interarrival_s=list(interarrivals),
        fault_rate=list(fault_rates),
    )
