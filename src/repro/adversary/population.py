"""Seeded attacker classes and the population that ticks them.

Each adversary is a generator with its own Poisson arrival process
(seeded exponential gaps on the shared virtual clock), its own DRBG,
its own battery (attackers pay radio energy too — the §3.3 ledger cuts
both ways), and a per-class damage counter.  The population is driven
as a :meth:`GatewayRuntime.add_ticker` hook, so attacker events and
benign arrivals interleave on one deterministic timeline.

Every fired event runs inside a ``probe.span("adversary.fire",
adversary=<class>, ...)`` so battery withdrawals made during the event
are attributed to the attacker class in the telemetry trace
(:func:`~repro.observability.attribution.adversary_energy_mj`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..attacks.timing import TimingAttack, measure_sqm
from ..crypto.rng import DeterministicDRBG
from ..hardware.battery import Battery, BatteryEmpty
from ..hardware.energy import EnergyModel
from ..observability import probe
from ..protocols.alerts import HandshakeFailure, ProtocolAlert
from ..protocols.certificates import CertificateAuthority
from ..protocols.ciphersuites import (
    ALL_SUITES,
    LIGHTWEIGHT_SUITES,
    NULL_WITH_SHA,
)
from ..protocols.dos import CookieProtectedResponder
from ..protocols.faults import FaultyChannel
from ..protocols.handshake import ClientConfig, ServerConfig, run_handshake
from ..protocols.messages import ClientHello
from ..protocols.transport import DuplexChannel

#: Modelled wire size of one spoofed hello / probe datagram (bytes).
PROBE_FRAME_BYTES = 64


class Adversary:
    """Base class: a seeded arrival process wrapped around an attack.

    Subclasses implement :meth:`fire` (one attack event) and
    :meth:`_extra_snapshot` (their damage counters).  ``rate_per_s`` is
    the Poisson intensity of the arrival process; a non-positive rate
    never fires.  The adversary stops (``exhausted``) when its battery
    refuses a withdrawal — attacks are not free.
    """

    kind = "abstract"

    def __init__(self, name: str, rate_per_s: float, seed: int,
                 battery: Optional[Battery] = None,
                 energy: Optional[EnergyModel] = None) -> None:
        self.name = name
        self.rate_per_s = float(rate_per_s)
        self.seed = seed
        self.battery = battery if battery is not None else Battery(
            capacity_j=2.0)
        self.energy = energy or EnergyModel()
        self.events = 0
        self.exhausted = False
        self.energy_spent_mj = 0.0
        self._drbg = DeterministicDRBG(
            ("adversary", self.kind, name, seed).__repr__())
        self._next_at = (self._gap() if self.rate_per_s > 0.0
                         else math.inf)

    # -- arrival process -----------------------------------------------------

    def _gap(self) -> float:
        """One exponential interarrival gap (inverse-CDF sampling)."""
        u = self._drbg.random()
        return -math.log(1.0 - u) / self.rate_per_s

    def tick(self, now: float) -> None:
        """Fire every event due at or before ``now``."""
        while not self.exhausted and self._next_at <= now:
            fire_at = self._next_at
            self._next_at = fire_at + self._gap()
            self.events += 1
            with probe.span("adversary.fire", adversary=self.kind,
                            actor=self.name):
                self.fire(fire_at)

    def _spend(self, num_bytes: int) -> float:
        """Drain attacker battery for one transmitted frame; an empty
        battery retires the adversary instead of raising."""
        millijoules = self.energy.frame_transmit_mj(num_bytes)
        try:
            self.battery.drain_mj(millijoules)
        except BatteryEmpty:
            self.exhausted = True
            return 0.0
        self.energy_spent_mj += millijoules
        return millijoules

    # -- subclass surface ----------------------------------------------------

    def fire(self, at: float) -> None:
        raise NotImplementedError

    def finish(self, now: float) -> None:
        """End-of-run hook (e.g. offline analysis of collected samples)."""

    def _extra_snapshot(self) -> Dict[str, object]:
        return {}

    def snapshot(self) -> Dict[str, object]:
        """The damage ledger as a plain dict (report/export seam)."""
        out: Dict[str, object] = {
            "events": self.events,
            "exhausted": self.exhausted,
            "rate_per_s": round(self.rate_per_s, 6),
            "energy_spent_mj": round(self.energy_spent_mj, 6),
            "battery_drained_mj": round(self.battery.drained_mj, 6),
        }
        out.update(self._extra_snapshot())
        return out


class CookieFloodAdversary(Adversary):
    """Blind spoofed-source hello flood against the stateless-cookie
    gate (§3.2 amplification): drives the responder's bounded pending
    table toward eviction, and occasionally guesses a cookie blind
    (which the HMAC gate must reject)."""

    kind = "cookie-flood"

    def __init__(self, name: str, rate_per_s: float, seed: int,
                 responder: CookieProtectedResponder,
                 floods_per_event: int = 8, **kwargs) -> None:
        super().__init__(name, rate_per_s, seed, **kwargs)
        self.responder = responder
        self.floods_per_event = floods_per_event
        self.hellos_sent = 0
        self.forged_cookies = 0

    def fire(self, at: float) -> None:
        for _ in range(self.floods_per_event):
            if self._spend(PROBE_FRAME_BYTES) == 0.0:
                return
            address = ".".join(
                str(self._drbg.randrange(256)) for _ in range(4))
            nonce = self._drbg.random_bytes(8)
            self.responder.first_contact(address, nonce)
            self.hellos_sent += 1
            # Every fourth hello also tries a blind cookie guess: the
            # spoofed source never saw the real cookie, so the HMAC
            # gate must reject it (cookies_rejected on the responder).
            if self.hellos_sent % 4 == 0:
                if self._spend(PROBE_FRAME_BYTES) == 0.0:
                    return
                self.responder.second_contact(
                    address, nonce, self._drbg.random_bytes(16))
                self.forged_cookies += 1

    def _extra_snapshot(self) -> Dict[str, object]:
        return {"hellos_sent": self.hellos_sent,
                "forged_cookies": self.forged_cookies}


class DowngradeAdversary(Adversary):
    """On-path MITM that rewrites the ClientHello's suite preference
    down to the weakest suite.  The dual-transcript Finished exchange
    must catch the tamper (``verify_data`` diverges), so every attempt
    lands in ``downgrades_blocked``; a nonzero ``downgrades_succeeded``
    is a protocol break."""

    kind = "downgrade"

    def __init__(self, name: str, rate_per_s: float, seed: int,
                 server_config: ServerConfig, ca: CertificateAuthority,
                 expected_server: str, **kwargs) -> None:
        super().__init__(name, rate_per_s, seed, **kwargs)
        self.server_config = server_config
        self.ca = ca
        self.expected_server = expected_server
        self.downgrades_blocked = 0
        self.downgrades_succeeded = 0

    def fire(self, at: float) -> None:
        sent = {"bytes": 0, "rewritten": False}

        def intercept(frame: bytes, direction: str) -> Optional[bytes]:
            if direction == "a->b" and not sent["rewritten"]:
                sent["rewritten"] = True
                try:
                    hello = ClientHello.from_bytes(frame)
                except ProtocolAlert:  # pragma: no cover - hello is valid
                    pass
                else:
                    self._rewrite_hello(hello)
                    frame = hello.to_bytes()
            sent["bytes"] += len(frame)
            return frame

        channel = DuplexChannel(interceptor=intercept)
        client = ClientConfig(
            rng=DeterministicDRBG(
                ("downgrade-client", self.seed, self.events).__repr__()),
            ca=self.ca, expected_server=self.expected_server,
            suites=self._client_suites())
        try:
            run_handshake(client, self.server_config,
                          channel.endpoint_a(), channel.endpoint_b())
        except HandshakeFailure:
            self.downgrades_blocked += 1
        else:
            self.downgrades_succeeded += 1
        # The MITM pays to retransmit every frame it forwarded.
        self._spend(sent["bytes"])

    def _rewrite_hello(self, hello: ClientHello) -> None:
        """The tamper itself: force the weakest suite."""
        hello.suite_names = [NULL_WITH_SHA.name]

    def _client_suites(self) -> List:
        """The victim's suite preference list (overridable)."""
        return list(ALL_SUITES)

    def _extra_snapshot(self) -> Dict[str, object]:
        return {"downgrades_blocked": self.downgrades_blocked,
                "downgrades_succeeded": self.downgrades_succeeded}


class StreamStripAdversary(DowngradeAdversary):
    """Downgrade variant for the lightweight suite family: instead of
    forcing NULL, the MITM *strips* the stream suites from a handset
    that prefers them, leaving only the legacy block suites.

    Negotiation then quietly completes on a legacy suite — which is
    exactly why this is the more dangerous shape: nothing fails until
    the dual-transcript Finished, where the client's transcript (its
    genuine hello) diverges from the server's (the stripped one).
    Every attempt must land in ``downgrades_blocked``;
    ``downgrades_succeeded == 0`` is the acceptance bar."""

    kind = "stream-strip"

    def _rewrite_hello(self, hello: ClientHello) -> None:
        lightweight = {suite.name for suite in LIGHTWEIGHT_SUITES}
        stripped = [name for name in hello.suite_names
                    if name not in lightweight]
        hello.suite_names = stripped or [NULL_WITH_SHA.name]

    def _client_suites(self) -> List:
        # A victim that actually prefers the lightweight family, with
        # legacy fallbacks behind it.
        return LIGHTWEIGHT_SUITES + [
            suite for suite in ALL_SUITES
            if suite not in LIGHTWEIGHT_SUITES]


class TimingProbeAdversary(Adversary):
    """Kocher-style timing probe: each event collects total-time samples
    of the victim's square-and-multiply (``attacks/timing.py`` cost
    model); at end of run the collected budget funds one offline
    recovery attempt against a small demonstration modulus."""

    kind = "timing-probe"

    def __init__(self, name: str, rate_per_s: float, seed: int,
                 samples_per_event: int = 24, exponent_bits: int = 8,
                 max_samples: int = 400, **kwargs) -> None:
        super().__init__(name, rate_per_s, seed, **kwargs)
        self.samples_per_event = samples_per_event
        self.exponent_bits = exponent_bits
        self.max_samples = max_samples
        self.samples_collected = 0
        self.bits_recovered = 0
        self.recovered = False
        self.attack_ran = False
        # A small, odd (Montgomery-friendly) demonstration modulus and
        # a secret exponent with both end bits set, from the DRBG.
        self.modulus = self._drbg.getrandbits(16) | (1 << 15) | 1
        self.secret = (self._drbg.getrandbits(exponent_bits)
                       | (1 << (exponent_bits - 1)) | 1)

    def fire(self, at: float) -> None:
        for _ in range(self.samples_per_event):
            if self._spend(PROBE_FRAME_BYTES) == 0.0:
                return
            self.samples_collected += 1

    def finish(self, now: float) -> None:
        if self.attack_ran or self.samples_collected < 32:
            return
        self.attack_ran = True
        expected = pow(5, self.secret, self.modulus)

        with probe.span("adversary.finish", adversary=self.kind,
                        actor=self.name):
            attack = TimingAttack(
                self.modulus,
                oracle=lambda base: measure_sqm(
                    base, self.secret, self.modulus),
                verifier=lambda cand: pow(5, cand, self.modulus) == expected)
            result = attack.run(
                self.exponent_bits,
                samples=min(self.samples_collected, self.max_samples),
                seed=self.seed, max_retries=2)
        self.bits_recovered = result.bits_recovered
        self.recovered = result.succeeded

    def _extra_snapshot(self) -> Dict[str, object]:
        return {"samples_collected": self.samples_collected,
                "bits_recovered": self.bits_recovered,
                "recovered": self.recovered}


class FuzzInjectionAdversary(Adversary):
    """Wire-injection flood: feeds live mutants from the conformance
    fuzzer's mutation engine (:func:`~repro.conformance.fuzzcorpus
    .mutation_stream`) into victim sessions' FaultyChannels toward the
    gateway, which must skip-and-shed, never crash."""

    kind = "fuzz-injection"

    def __init__(self, name: str, rate_per_s: float, seed: int,
                 channels: Dict[str, FaultyChannel],
                 mutations, injections_per_event: int = 2,
                 burst_every: int = 4, burst_size: int = 24,
                 **kwargs) -> None:
        super().__init__(name, rate_per_s, seed, **kwargs)
        self._victims = sorted(channels)
        self._channels = channels
        self._mutations = mutations
        self.injections_per_event = injections_per_event
        self.burst_every = burst_every
        self.burst_size = burst_size
        self.frames_injected = 0
        self.bursts_fired = 0
        self.bytes_injected = 0

    def fire(self, at: float) -> None:
        # Every ``burst_every``-th event is a concentrated burst at one
        # victim, sized past the gateway's per-receive skip budget so
        # the structured ``malformed`` shed path gets exercised, not
        # just the silent skip-and-continue.
        count = self.injections_per_event
        if self.burst_every > 0 and self.events % self.burst_every == 0:
            count = self.burst_size
            self.bursts_fired += 1
        victim = self._victims[self._drbg.randrange(len(self._victims))]
        for _ in range(count):
            blob = next(self._mutations)
            if self._spend(max(1, len(blob))) == 0.0:
                return
            # Handset writes a->b: injected frames travel toward the
            # gateway, cutting ahead of the handset's queued requests
            # (the attacker transmits from beside the gateway).
            self._channels[victim].inject("a->b", blob, front=True)
            self.frames_injected += 1
            self.bytes_injected += len(blob)

    def _extra_snapshot(self) -> Dict[str, object]:
        return {"frames_injected": self.frames_injected,
                "bytes_injected": self.bytes_injected,
                "bursts_fired": self.bursts_fired}


# ---------------------------------------------------------------------------
# Alerts and the population.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alert:
    """One latched detection: a threshold rule that fired."""

    name: str
    at_s: float
    detail: str


@dataclass(frozen=True)
class AlertRule:
    """A named detection rule: ``check()`` returns the alert detail
    string once the condition holds, else ``None``.  Latched — fires at
    most once."""

    name: str
    check: Callable[[], Optional[str]]


class AdversaryPopulation:
    """The attacker classes plus the defender's alert rules, ticked as
    one unit from the runtime event loop."""

    def __init__(self, adversaries: List[Adversary],
                 rules: Optional[List[AlertRule]] = None) -> None:
        self.adversaries = list(adversaries)
        self.rules = list(rules or [])
        self.alerts: List[Alert] = []
        self._latched: set = set()

    def add_rule(self, name: str,
                 check: Callable[[], Optional[str]]) -> None:
        self.rules.append(AlertRule(name, check))

    def tick(self, now: float) -> None:
        """The runtime ticker hook: fire due attacker events, then
        evaluate the (latched) alert rules."""
        for adversary in self.adversaries:
            adversary.tick(now)
        self._evaluate(now)

    def finish(self, now: float) -> None:
        """End of run: offline analyses, one final alert sweep."""
        for adversary in self.adversaries:
            adversary.finish(now)
        self._evaluate(now)

    def _evaluate(self, now: float) -> None:
        for rule in self.rules:
            if rule.name in self._latched:
                continue
            detail = rule.check()
            if detail is not None:
                self._latched.add(rule.name)
                self.alerts.append(Alert(rule.name, round(now, 6), detail))
                probe.event("adversary.alert", rule=rule.name,
                            detail=detail)

    def total_events(self) -> int:
        return sum(adversary.events for adversary in self.adversaries)

    def energy_spent_mj(self) -> float:
        """Energy the attacker population drained from its batteries."""
        return sum(a.battery.drained_mj for a in self.adversaries)
