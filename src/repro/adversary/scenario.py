"""The canonical mixed benign/attack load scenario.

One call builds the N-handset gateway world with telemetry active,
fronts it with the stateless-cookie DoS gate, seeds a four-class
attacker population on the same virtual clock, drives the chaos
traffic shape from :mod:`repro.observability.scenario` while the
population fires, and returns everything the survivability report
needs — with the same determinism contract as every other scenario in
the repo: same seed, byte-identical outcome.

The attacker intensity is parameterized as a *fraction of total
traffic*: ``attacker_fraction=0.5`` makes attacker events arrive at
the same aggregate rate as benign requests.  ``attacker_fraction=0``
is the attack-free baseline the survivability bound is declared
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..conformance.fuzzcorpus import default_targets, mutation_stream
from ..crypto.rng import DeterministicDRBG
from ..hardware.battery import Battery
from ..observability import probe
from ..observability.attribution import EnergyReconciliation, reconcile_energy
from ..observability.metrics import (
    export_adversary_population,
    export_dos_responder,
    export_runtime,
)
from ..observability.spans import Telemetry
from ..protocols.dos import CookieProtectedResponder
from ..protocols.faults import FaultyChannel
from ..protocols.gateway_runtime import (
    OPEN,
    RuntimeConfig,
    RuntimeStats,
    build_gateway_runtime_world,
    handset_reply_counts,
    submit_rounds,
)
from ..protocols.alerts import ProtocolAlert
from ..protocols.reliable import VirtualClock
from ..protocols.transport import ChannelClosed
from ..protocols.wap import GATEWAY_NAME, ORIGIN_NAME
from .population import (
    AdversaryPopulation,
    CookieFloodAdversary,
    DowngradeAdversary,
    FuzzInjectionAdversary,
    TimingProbeAdversary,
)

SECRET_ROTATION_S = 0.25


def survivability_config() -> RuntimeConfig:
    """The default runtime sizing for the survivability scenario.

    Unlike the chaos scenario (which deliberately overloads admission
    to exercise shedding), survivability needs a gateway *sized for its
    benign load*: the attack-free baseline serves essentially
    everything, so any goodput lost under attack is attributable to
    the attackers, not to an under-provisioned bucket.
    """
    return RuntimeConfig(queue_limit=64, bucket_capacity=64.0,
                         bucket_refill_per_s=200.0,
                         service_time_s=0.005)


@dataclass
class SurvivabilityResult:
    """Everything one seeded mixed-load run produced."""

    telemetry: Telemetry
    stats: RuntimeStats
    counts: Dict[str, int]
    batteries: Dict[str, Battery]
    population: AdversaryPopulation
    responder: CookieProtectedResponder
    breakers: Dict[str, List]
    reconciliation: EnergyReconciliation
    leftover_discarded: int = 0
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def benign_goodput(self) -> float:
        """Fraction of benign requests fully served."""
        answered = sum(self.counts.values())
        return self.counts.get("served", 0) / answered if answered else 0.0


def _build_population(seed: int, rate_per_class: float,
                      attacker_battery_j: float, runtime, responder,
                      channels, ca) -> AdversaryPopulation:
    wtls_target = next(t for t in default_targets()
                       if t.name == "wtls_record")
    flood = CookieFloodAdversary(
        "flood-0", rate_per_class, seed, responder,
        battery=Battery(capacity_j=attacker_battery_j))
    downgrade = DowngradeAdversary(
        "mitm-0", rate_per_class, seed,
        server_config=runtime.gateway.gateway_config, ca=ca,
        expected_server=GATEWAY_NAME,
        battery=Battery(capacity_j=attacker_battery_j))
    timing = TimingProbeAdversary(
        "probe-0", rate_per_class, seed,
        battery=Battery(capacity_j=attacker_battery_j))
    fuzz = FuzzInjectionAdversary(
        "fuzz-0", rate_per_class, seed, channels,
        mutations=mutation_stream(wtls_target, seed),
        battery=Battery(capacity_j=attacker_battery_j))
    population = AdversaryPopulation(
        [flood, downgrade, timing, fuzz])

    population.add_rule(
        "dos-table-pressure",
        lambda: (f"pending-table evictions: {responder.evicted}"
                 if responder.evicted > 0 else None))
    population.add_rule(
        "wire-garbage",
        lambda: (f"malformed records discarded: "
                 f"{runtime.stats.malformed_discarded}"
                 if runtime.stats.malformed_discarded >= 4 else None))
    population.add_rule(
        "downgrade-attempts",
        lambda: (f"downgrade attempts blocked: "
                 f"{downgrade.downgrades_blocked}"
                 if downgrade.downgrades_blocked >= 1 else None))
    population.add_rule(
        "timing-probe-volume",
        lambda: (f"timing samples observed: {timing.samples_collected}"
                 if timing.samples_collected >= 128 else None))
    population.add_rule(
        "origin-breaker-open",
        lambda: ("origin breaker opened" if any(
            to == OPEN for breaker in runtime.breakers.values()
            for _, _, to in breaker.transitions) else None))
    return population


def run_survivability(sessions: int = 32, requests_per_session: int = 4,
                      interarrival_s: float = 0.1,
                      attacker_fraction: float = 0.5,
                      fault_rate: float = 0.0, seed: int = 2003,
                      battery_capacity_j: float = 5.0,
                      attacker_battery_j: float = 2.0,
                      config: Optional[RuntimeConfig] = None
                      ) -> SurvivabilityResult:
    """One seeded mixed benign/attack run on a single virtual clock.

    The benign side is the chaos traffic shape (``sessions`` handsets,
    ``requests_per_session`` rounds); the attacker side is four
    adversary classes whose aggregate Poisson rate makes up
    ``attacker_fraction`` of total traffic.  Every benign request is
    answered (served / degraded / structured shed), every millijoule
    reconciles, and the whole run is a pure function of its parameters.
    """
    if not 0.0 <= attacker_fraction < 1.0:
        raise ValueError("attacker fraction must be in [0, 1)")
    clock = VirtualClock()
    telemetry = Telemetry(
        seed=("survivability", sessions, requests_per_session,
              interarrival_s, attacker_fraction, fault_rate, seed),
        clock=clock, label="survivability")
    batteries = {
        f"handset-{index:02d}": Battery(capacity_j=battery_capacity_j)
        for index in range(sessions)
    }
    channels = {
        f"handset-{index:02d}": FaultyChannel(
            seed=seed * 1000 + index)
        for index in range(sessions)
    }
    horizon_s = requests_per_session * interarrival_s
    with probe.activate(telemetry):
        runtime, handsets, ca = build_gateway_runtime_world(
            sessions=sessions, seed=seed,
            config=config or survivability_config(),
            batteries=batteries, clock=clock,
            channel_factory=channels.__getitem__)
        if fault_rate > 0.0:
            runtime.set_fault_rate(ORIGIN_NAME, fault_rate, seed=seed)
        export_runtime(telemetry.registry, runtime)
        session_ids = sorted(handsets)

        # The DoS front gate: benign handsets pass the cookie exchange
        # at attach time; the flood adversary hammers the same gate.
        responder = CookieProtectedResponder(
            rng=DeterministicDRBG(("surv-dos", seed).__repr__()),
            pending_limit=64)
        export_dos_responder(telemetry.registry, responder)
        gate_rng = DeterministicDRBG(("surv-gate", seed).__repr__())
        for index, session_id in enumerate(session_ids):
            address = f"192.168.1.{index + 2}"
            nonce = gate_rng.random_bytes(8)
            cookie = responder.first_contact(address, nonce)
            if cookie is None:
                raise RuntimeError(
                    f"cookie gate issued no cookie to {session_id}")
            if not responder.second_contact(address, nonce, cookie):
                raise RuntimeError(
                    f"cookie gate rejected {session_id}'s own cookie")

        population = AdversaryPopulation([])
        if attacker_fraction > 0.0:
            benign_rate = sessions / interarrival_s
            attacker_rate = (attacker_fraction
                             / (1.0 - attacker_fraction)) * benign_rate
            population = _build_population(
                seed, attacker_rate / 4.0, attacker_battery_j,
                runtime, responder, channels, ca)
            export_adversary_population(telemetry.registry, population)
        runtime.add_ticker(population.tick)

        rotation_state = {"last": 0.0}

        def rotate(now: float) -> None:
            while now - rotation_state["last"] >= SECRET_ROTATION_S:
                rotation_state["last"] += SECRET_ROTATION_S
                responder.rotate_secret()

        runtime.add_ticker(rotate)

        submit_rounds(runtime, handsets, requests_per_session,
                      interarrival_s)
        stats = runtime.run()

        # Let the population catch up to the scenario horizon, then
        # sweep any still-queued injected garbage through the gateway's
        # skip-and-count path (it must never crash on leftovers).
        if horizon_s > clock.now:
            clock.advance_to(horizon_s)
        population.tick(clock.now)
        leftover_before = sum(
            runtime.sessions[sid].conn.discarded for sid in session_ids)
        for session_id in session_ids:
            conn = runtime.sessions[session_id].conn
            for _ in range(256):
                try:
                    conn.receive_next(max_skip=64)
                except ChannelClosed:
                    break
                except ProtocolAlert:
                    continue  # budget spent mid-garbage: keep sweeping
        leftover_discarded = sum(
            runtime.sessions[sid].conn.discarded
            for sid in session_ids) - leftover_before
        population.finish(clock.now)
        counts = handset_reply_counts(handsets)
    all_batteries = list(batteries.values()) + [
        adversary.battery for adversary in population.adversaries]
    return SurvivabilityResult(
        telemetry=telemetry,
        stats=stats,
        counts=counts,
        batteries=batteries,
        population=population,
        responder=responder,
        breakers={origin: list(breaker.transitions)
                  for origin, breaker in sorted(runtime.breakers.items())},
        reconciliation=reconcile_energy(telemetry, all_batteries),
        leftover_discarded=leftover_discarded,
        params={
            "sessions": sessions,
            "requests_per_session": requests_per_session,
            "interarrival_s": interarrival_s,
            "attacker_fraction": attacker_fraction,
            "fault_rate": fault_rate,
            "seed": seed,
            "battery_capacity_j": battery_capacity_j,
            "attacker_battery_j": attacker_battery_j,
        },
    )
