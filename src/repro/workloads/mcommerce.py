"""The m-commerce workload plane (§2): seeded handset traffic over
the sharded gateway fleet, with the lightweight suite family doing the
bulk work.

The paper's motivating scenario is a handset buying something: "a
secure transaction needs to be executed within a reasonable amount of
time, without exhausting the battery".  This module makes that
scenario a replayable experiment:

* **handset battery classes** — coin-cell, standard, extended — each
  with its own capacity and cipher-suite *policy* (coin cells insist
  on the lightweight stream family, extended packs can afford legacy
  block suites), negotiated per session through the real handshake;
* **session mixes** — browse / authenticate / purchase — where
  purchases run the full SET dual-signature flow
  (:mod:`repro.protocols.payment`) before the order ever crosses the
  airlink;
* **heavy-tailed arrivals** — Pareto inter-arrival gaps and lognormal
  payload sizes, both drawn by inverse-CDF / Box–Muller from the
  :class:`~repro.crypto.rng.DeterministicDRBG`, so two same-seed runs
  are byte-identical (the CI ``cmp`` gate);
* **an exact energy ledger** — radio energy is charged by the gateway
  runtime per airlink crossing, cipher/MAC compute energy is charged
  here per transaction from the §3 instruction-per-byte model
  (:data:`~repro.hardware.cycles.BULK_IPB`), purchases additionally
  pay the RSA dual signature; every drain reconciles through
  :func:`~repro.observability.attribution.reconcile_energy`.

The deliverable downstream (:mod:`repro.analysis.mcommerce`) is
millijoules *per transaction, per suite, per battery class* — the
paper's Table-1 style comparison, measured instead of asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..crypto.rng import DeterministicDRBG
from ..fleet.runtime import FleetConfig, FleetStats, ShardedFleet
from ..hardware.battery import Battery, BatteryEmpty
from ..hardware.energy import EnergyModel
from ..observability import probe
from ..observability.attribution import EnergyReconciliation, reconcile_energy
from ..observability.metrics import export_fleet
from ..observability.spans import Telemetry
from ..protocols.ciphersuites import (
    ALL_SUITES,
    RSA_WITH_3DES_SHA,
    RSA_WITH_A51_228_SHA,
    RSA_WITH_AES_SHA,
    RSA_WITH_GRAIN_V1_SHA,
    RSA_WITH_RC4_SHA,
    RSA_WITH_TRIVIUM_SHA,
    CipherSuite,
)
from ..protocols.payment import (
    Merchant,
    OrderInfo,
    PaymentGateway,
    PaymentInfo,
    create_payment,
    non_repudiation_evidence,
)
from ..protocols.reliable import VirtualClock
from ..protocols.wap import ORIGIN_NAME

MERCHANT_NAME = "shop.example"

#: Requests per session are capped so a heavy-tail draw cannot blow up
#: a CI run; the cap is reported, never silent.
MAX_REQUESTS_PER_SESSION = 10


@dataclass(frozen=True)
class BatteryClass:
    """A handset class: how much energy it carries and which suites
    its policy leads with (the rest of :data:`ALL_SUITES` rides behind
    as fallback, so a legacy gateway still converges)."""

    name: str
    capacity_j: float
    leads: Tuple[CipherSuite, ...]

    def preference(self, rotation: int) -> List[CipherSuite]:
        """The session's full preference list; ``rotation`` cycles the
        lead suite so one class still exercises its whole policy."""
        lead = self.leads[rotation % len(self.leads)]
        rest = [s for s in self.leads if s is not lead]
        tail = [s for s in ALL_SUITES if s is not lead and s not in rest]
        return [lead] + rest + tail


#: The 2003 handset population.  Coin cells cannot afford block
#: ciphers at all; the extended pack is the PDA-class device that
#: still runs the legacy matrix.
BATTERY_CLASSES: Tuple[BatteryClass, ...] = (
    BatteryClass("coin", 2.0, (RSA_WITH_A51_228_SHA,
                               RSA_WITH_GRAIN_V1_SHA,
                               RSA_WITH_TRIVIUM_SHA)),
    BatteryClass("standard", 5.0, (RSA_WITH_GRAIN_V1_SHA,
                                   RSA_WITH_TRIVIUM_SHA,
                                   RSA_WITH_RC4_SHA)),
    BatteryClass("extended", 9.0, (RSA_WITH_AES_SHA,
                                   RSA_WITH_3DES_SHA)),
)


@dataclass(frozen=True)
class SessionKind:
    """One slice of the session mix.

    ``weight`` is the mix fraction; payload sizes are lognormal with
    the given parameters (natural-log space), clamped to the WTLS
    record budget.
    """

    name: str
    weight: float
    min_requests: int
    payload_mu: float
    payload_sigma: float
    payload_cap: int


SESSION_KINDS: Tuple[SessionKind, ...] = (
    SessionKind("browse", 0.5, 2, math.log(48.0), 0.9, 600),
    SessionKind("authenticate", 0.3, 2, math.log(96.0), 0.5, 400),
    SessionKind("purchase", 0.2, 1, math.log(160.0), 0.4, 700),
)


def _pareto_gap(u: float, scale_s: float, alpha: float) -> float:
    """Inverse-CDF Pareto draw: the heavy tail of human think time."""
    return scale_s / ((1.0 - u) ** (1.0 / alpha))


def _lognormal_int(drbg: DeterministicDRBG, mu: float, sigma: float,
                   lo: int, hi: int) -> int:
    """A lognormal payload size (Box–Muller under the hood via
    :meth:`DeterministicDRBG.gauss`), clamped to ``[lo, hi]``."""
    return max(lo, min(hi, int(round(math.exp(drbg.gauss(mu, sigma))))))


@dataclass(frozen=True)
class HandsetPlan:
    """One handset's precomputed session: everything the fleet run
    needs, decided before any protocol byte moves (so the plan itself
    is a pure, fuzzable function of the seed)."""

    session_id: str
    battery_class: str
    kind: str
    suite_name: str
    suites: Tuple[CipherSuite, ...]
    arrivals_s: Tuple[float, ...]
    payload_sizes: Tuple[int, ...]
    truncated: bool  # heavy tail hit MAX_REQUESTS_PER_SESSION


def plan_workload(sessions: int, seed: int, duration_s: float,
                  arrival_scale_s: float = 0.12,
                  arrival_alpha: float = 1.5) -> List[HandsetPlan]:
    """Lay out the whole workload deterministically from the seed.

    Battery classes rotate round-robin (every class is always
    populated); session kinds are drawn by inverse CDF over the mix
    weights; arrivals accumulate Pareto gaps until ``duration_s`` or
    the request cap.
    """
    drbg = DeterministicDRBG(("mcommerce-plan", seed).__repr__())
    total_weight = sum(kind.weight for kind in SESSION_KINDS)
    plans: List[HandsetPlan] = []
    for index in range(sessions):
        session_id = f"handset-{index:02d}"
        klass = BATTERY_CLASSES[index % len(BATTERY_CLASSES)]
        suites = klass.preference(index // len(BATTERY_CLASSES))

        pick = drbg.random() * total_weight
        kind = SESSION_KINDS[-1]
        for candidate in SESSION_KINDS:
            pick -= candidate.weight
            if pick < 0.0:
                kind = candidate
                break

        arrivals: List[float] = []
        at = _pareto_gap(drbg.random(), arrival_scale_s, arrival_alpha)
        truncated = False
        while len(arrivals) < kind.min_requests or at < duration_s:
            if len(arrivals) >= MAX_REQUESTS_PER_SESSION:
                truncated = True
                break
            arrivals.append(round(at, 6))
            at += _pareto_gap(drbg.random(), arrival_scale_s, arrival_alpha)
        sizes = [
            _lognormal_int(drbg, kind.payload_mu, kind.payload_sigma,
                           16, kind.payload_cap)
            for _ in arrivals
        ]
        plans.append(HandsetPlan(
            session_id=session_id, battery_class=klass.name,
            kind=kind.name, suite_name=suites[0].name,
            suites=tuple(suites), arrivals_s=tuple(arrivals),
            payload_sizes=tuple(sizes), truncated=truncated))
    return plans


@dataclass
class MCommerceResult:
    """Everything one seeded m-commerce run produced."""

    fleet: ShardedFleet
    telemetry: Telemetry
    stats: FleetStats
    plans: List[HandsetPlan]
    counts: Dict[str, int]
    per_session_replies: Dict[str, int]
    batteries: Dict[str, Battery]
    payments: List[Dict[str, object]]
    compute_mj: Dict[str, float]        # bulk cipher+MAC, per suite name
    dual_signature_mj: float            # RSA purchase signatures, pooled
    brownouts: Dict[str, int]           # per battery class
    reconciliation: EnergyReconciliation
    params: Dict[str, object] = field(default_factory=dict)


def _purchase_payload(plan: HandsetPlan, order_seq: int, size: int,
                      cardholder, merchant: Merchant,
                      gateway: PaymentGateway, ca) -> Tuple[bytes, Dict]:
    """Run the SET dual-signature flow for one purchase and return the
    airlink payload (order + authorisation, padded to the drawn size)
    plus the audit record."""
    key, cert = cardholder
    order_id = f"ord-{plan.session_id}-{order_seq}"
    amount = 100 + (order_seq * 7919) % 9900
    order = OrderInfo(merchant=MERCHANT_NAME,
                      description=f"{plan.kind}-{order_seq}",
                      amount_cents=amount, order_id=order_id)
    payment = PaymentInfo(card_number=f"5105{order_seq:012d}",
                          expiry="12/05", amount_cents=amount,
                          order_id=order_id)
    purchase = create_payment(order, payment, key, cert)
    subject = merchant.process(purchase.merchant_view())
    auth_code = gateway.process(purchase.gateway_view())
    evidence = non_repudiation_evidence(purchase, ca)
    body = b"PAY|" + order.to_bytes() + b"|" + auth_code.encode()
    payload = body + b"." * max(0, size - len(body))
    record = {
        "order_id": order_id,
        "amount_cents": amount,
        "auth_code": auth_code,
        "cardholder": subject,
        "binding_holds": evidence["binding_holds"],
    }
    return payload, record


def run_mcommerce(sessions: int = 18, shards: int = 3, seed: int = 2003,
                  duration_s: float = 1.2,
                  config: Optional[FleetConfig] = None) -> MCommerceResult:
    """One seeded m-commerce run over a healthy fleet.

    No crash plan here — the failover scenario owns that axis; this
    run measures the *cost* axis: what each suite and battery class
    pays per transaction when everything works.
    """
    if config is None:
        config = FleetConfig(shards=shards)
    if config.shards != shards:
        raise ValueError("config.shards must match the shards argument")
    plans = plan_workload(sessions, seed, duration_s)
    clock = VirtualClock()
    telemetry = Telemetry(
        seed=("mcommerce", sessions, shards, duration_s, seed),
        clock=clock, label="mcommerce")
    batteries = {
        plan.session_id: Battery(capacity_j=next(
            k.capacity_j for k in BATTERY_CLASSES
            if k.name == plan.battery_class))
        for plan in plans
    }
    energy = EnergyModel()
    payments: List[Dict[str, object]] = []
    compute_mj: Dict[str, float] = {}
    dual_signature_mj = 0.0
    brownouts: Dict[str, int] = {}
    with probe.activate(telemetry):
        fleet = ShardedFleet(config=config, seed=seed, clock=clock)
        export_fleet(telemetry.registry, fleet)
        merchant = Merchant(name=MERCHANT_NAME, ca=fleet.ca)
        pay_gateway = PaymentGateway(ca=fleet.ca)
        cardholder = fleet.ca.issue(
            "cardholder.device",
            DeterministicDRBG(("mcommerce-cardholder", seed).__repr__()),
            key_bits=384)
        for plan in plans:
            fleet.attach_session(plan.session_id,
                                 battery=batteries[plan.session_id],
                                 suites=list(plan.suites))
            negotiated = fleet.handsets[plan.session_id].suite_name
            if negotiated != plan.suite_name:  # pragma: no cover
                raise RuntimeError(
                    f"{plan.session_id} negotiated {negotiated}, "
                    f"planned {plan.suite_name}")
        order_seq = 0
        for plan in plans:
            suite = plan.suites[0]
            battery = batteries[plan.session_id]
            for request_index, (when, size) in enumerate(
                    zip(plan.arrivals_s, plan.payload_sizes)):
                is_purchase = (plan.kind == "purchase"
                               and request_index == 0)
                if is_purchase:
                    order_seq += 1
                    payload, record = _purchase_payload(
                        plan, order_seq, size, cardholder, merchant,
                        pay_gateway, fleet.ca)
                    payments.append(record)
                else:
                    stamp = f"{plan.kind}|{plan.session_id}|{request_index}|"
                    payload = stamp.encode() + b"." * max(
                        0, size - len(stamp))
                fleet.submit_at(when, plan.session_id, ORIGIN_NAME,
                                payload)
                # The §3 compute ledger: cipher + MAC instructions for
                # one airlink crossing of this payload, plus the RSA
                # dual signature on a purchase.  Radio energy is the
                # runtime's job; compute energy is charged here, span-
                # attributed so reconciliation stays exact.
                kilobytes = len(payload) / 1024.0
                bulk_mj = (
                    energy.bulk_crypto_mj(suite.cipher, kilobytes)
                    + energy.bulk_crypto_mj(suite.mac, kilobytes))
                sign_mj = (energy.rsa_private_mj(384)
                           if is_purchase else 0.0)
                with probe.span("mcommerce.crypto", suite=suite.name,
                                handset_class=plan.battery_class,
                                session=plan.session_id):
                    try:
                        battery.drain_mj(bulk_mj + sign_mj)
                        compute_mj[suite.name] = (
                            compute_mj.get(suite.name, 0.0) + bulk_mj)
                        dual_signature_mj += sign_mj
                    except BatteryEmpty:
                        brownouts[plan.battery_class] = (
                            brownouts.get(plan.battery_class, 0) + 1)
        stats = fleet.run()
        counts, _, per_session = fleet.count_replies(
            plan.session_id for plan in plans)
    return MCommerceResult(
        fleet=fleet,
        telemetry=telemetry,
        stats=stats,
        plans=plans,
        counts=counts,
        per_session_replies=per_session,
        batteries=batteries,
        payments=payments,
        compute_mj=compute_mj,
        dual_signature_mj=dual_signature_mj,
        brownouts=brownouts,
        reconciliation=reconcile_energy(telemetry, batteries.values()),
        params={
            "sessions": sessions,
            "shards": shards,
            "seed": seed,
            "duration_s": duration_s,
            "max_requests_per_session": MAX_REQUESTS_PER_SESSION,
        },
    )
