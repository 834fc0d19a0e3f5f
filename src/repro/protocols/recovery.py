"""Graceful session recovery over a hostile link.

The stacks' answer to §2's unreliable bearer, stitched together from
pieces that already existed but had never been composed against loss:

* **handshake retry with suite fallback** — repeated
  :class:`~repro.protocols.alerts.HandshakeFailure` walks down the
  client's cipher-suite preference list
  (:func:`~repro.protocols.tls.connect_with_fallback`);
* **reconnect via resumption** — after a link reset the client offers
  its cached session id and both sides run the abbreviated handshake
  (:func:`~repro.protocols.resumption.resume`), avoiding the RSA
  operations §3.2 shows an embedded CPU cannot afford to repeat;
* **alert-driven teardown** — a
  :class:`~repro.protocols.alerts.BadRecordMAC` on application data
  means keys diverged or an attacker is live: both caches invalidate
  the session and a *full* re-handshake replaces it.

:class:`ResilientSession` manages both peers of the in-memory world
(the simulation owns client and server alike) and keeps a
:class:`RecoveryReport` ledger so tests and benches can assert exactly
which recovery path ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..crypto.rng import DeterministicDRBG
from ..observability import probe
from .alerts import BadRecordMAC, HandshakeFailure
from .handshake import ClientConfig, ServerConfig
from .reliable import VirtualClock
from .resumption import CachedSession, SessionCache, resume
from .tls import SecureConnection, connect_with_fallback
from .transport import ChannelClosed, DuplexChannel, Endpoint

EndpointFactory = Callable[[], Tuple[Endpoint, Endpoint]]


@dataclass(frozen=True)
class ReconnectPolicy:
    """Virtual-time budget for the resumption path of a reconnect.

    Each failed resumption attempt backs off exponentially (with
    seeded jitter so concurrent sessions don't thunder in lockstep)
    on the session's virtual clock; once the clock passes
    ``deadline_s`` past the reconnect start — or ``max_attempts``
    resumes have failed — the client stops burning the battery on
    abbreviated handshakes that aren't landing and falls back to one
    full handshake.
    """

    deadline_s: float = 2.0
    base_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 0.8
    jitter_s: float = 0.02
    max_attempts: int = 5

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


@dataclass
class RecoveryReport:
    """Which recovery paths ran, and how often."""

    full_handshakes: int = 0
    resumptions: int = 0
    resume_attempts: int = 0
    suite_fallbacks: int = 0
    handshake_link_failures: int = 0
    mac_failures: int = 0
    rehandshakes_after_mac: int = 0
    link_failures: int = 0
    redeliveries: int = 0
    reconnect_deadline_exceeded: int = 0
    failures: List[str] = field(default_factory=list)


def _default_factory() -> Tuple[Endpoint, Endpoint]:
    channel = DuplexChannel()
    return channel.endpoint_a(), channel.endpoint_b()


class ResilientSession:
    """A client-server session that survives resets, loss, and tampering.

    ``endpoint_factory`` models "bring up a fresh link": every
    (re)connect calls it for a new ``(client_ep, server_ep)`` pair — a
    perfect channel by default, or a
    :class:`~repro.protocols.faults.FaultyChannel` (optionally under a
    :class:`~repro.protocols.reliable.ReliableLink`) for the lossy-link
    harness.

    Delivery is at-least-once: a payload that triggered recovery is
    re-sent on the recovered session (``report.redeliveries`` counts
    these).
    """

    def __init__(self, client: ClientConfig, server: ServerConfig,
                 endpoint_factory: Optional[EndpointFactory] = None,
                 session_rng: Optional[DeterministicDRBG] = None,
                 max_handshake_attempts: int = 4,
                 cache_capacity: int = 32,
                 reconnect_policy: Optional[ReconnectPolicy] = None,
                 clock: Optional[VirtualClock] = None) -> None:
        self.client = client
        self.server = server
        self._factory = endpoint_factory or _default_factory
        self._session_rng = session_rng or DeterministicDRBG("resilient-ids")
        self.max_handshake_attempts = max_handshake_attempts
        self.client_cache = SessionCache(capacity=cache_capacity)
        self.server_cache = SessionCache(capacity=cache_capacity)
        self.reconnect_policy = reconnect_policy
        self.clock = clock if clock is not None else VirtualClock()
        self._backoff_rng = DeterministicDRBG("resilient-backoff")
        self.report = RecoveryReport()
        self._client_conn: Optional[SecureConnection] = None
        self._server_conn: Optional[SecureConnection] = None
        self._session_id: Optional[bytes] = None

    # -- connection management ---------------------------------------------

    @property
    def connected(self) -> bool:
        """Whether a session is currently established."""
        return self._client_conn is not None

    @property
    def session_id(self) -> Optional[bytes]:
        """The cached (resumable) session id, if any."""
        return self._session_id

    @property
    def connections(self) -> Tuple[SecureConnection, SecureConnection]:
        """The live ``(client, server)`` connections (establishing first)."""
        if self._client_conn is None or self._server_conn is None:
            self.establish()
        return self._live_pair()

    def _live_pair(self) -> Tuple[SecureConnection, SecureConnection]:
        if self._client_conn is None or self._server_conn is None:
            raise RuntimeError("no established session")
        return self._client_conn, self._server_conn

    def establish(self) -> None:
        """Full handshake (with retry + suite fallback) and cache it."""
        with probe.span("recovery.establish", path="full"):
            client_conn, server_conn, log = connect_with_fallback(
                self.client, self.server, endpoint_factory=self._factory,
                max_attempts=self.max_handshake_attempts)
        self.report.full_handshakes += 1
        self.report.suite_fallbacks += log.suite_fallbacks
        self.report.handshake_link_failures += log.link_failures
        self.report.failures.extend(log.failures)
        self._client_conn, self._server_conn = client_conn, server_conn
        self._cache_current()

    def _cache_current(self) -> None:
        client_conn, server_conn = self._live_pair()
        session_id = self._session_rng.random_bytes(16)
        client_session = client_conn.session
        server_session = server_conn.session
        self.client_cache.store(CachedSession(
            session_id=session_id, suite_name=client_session.suite.name,
            master=client_session.master))
        self.server_cache.store(CachedSession(
            session_id=session_id, suite_name=server_session.suite.name,
            master=server_session.master))
        self._session_id = session_id

    def reconnect(self) -> str:
        """Bring the session back after a link reset.

        Tries the abbreviated resumption handshake first (no public-key
        work — the §3.2 economics); falls back to a full handshake when
        either side has lost the cached session.  With a
        :class:`ReconnectPolicy`, failed resumes retry under
        exponential backoff with seeded jitter on the virtual clock
        until the per-reconnect deadline or attempt budget runs out
        (``report.reconnect_deadline_exceeded`` counts deadline
        exits).  Returns which path ran: ``"resumed"`` or ``"full"``.
        """
        if self._session_id is not None:
            attempts = (1 if self.reconnect_policy is None
                        else self.reconnect_policy.max_attempts)
            if self._try_resume(attempts):
                return "resumed"
        self.establish()
        return "full"

    def _try_resume(self, max_attempts: int) -> bool:
        policy = self.reconnect_policy
        started = self.clock.now
        backoff = policy.base_backoff_s if policy is not None else 0.0
        for attempt in range(max_attempts):
            if (policy is not None
                    and self.clock.now - started >= policy.deadline_s):
                self.report.reconnect_deadline_exceeded += 1
                self.report.failures.append(
                    f"resume: deadline {policy.deadline_s}s exceeded "
                    f"after {attempt} attempts")
                probe.event("recovery.reconnect-deadline",
                            attempts=attempt,
                            deadline_s=policy.deadline_s)
                return False
            self.report.resume_attempts += 1
            endpoints = self._factory()
            try:
                with probe.span("recovery.reconnect", path="resume",
                                attempt=attempt):
                    client_session, server_session = resume(
                        self.client, self.server,
                        self.client_cache, self.server_cache,
                        self._session_id, endpoints=endpoints)
            except (HandshakeFailure, ChannelClosed) as exc:
                self.report.failures.append(f"resume[{attempt}]: {exc}")
                if policy is not None:
                    pause = min(backoff, policy.max_backoff_s)
                    pause += self._backoff_rng.random() * policy.jitter_s
                    self.clock.advance_to(self.clock.now + pause)
                    backoff *= policy.backoff_factor
            else:
                self.report.resumptions += 1
                self._client_conn = SecureConnection(
                    client_session, endpoints[0])
                self._server_conn = SecureConnection(
                    server_session, endpoints[1])
                return True
        return False

    def teardown(self) -> None:
        """Alert-driven teardown: the session is no longer trustworthy.

        Invalidates the cached session on *both* peers (a tampered
        record must not be resumable) and drops the live connections.
        """
        if self._session_id is not None:
            self.client_cache.invalidate(self._session_id)
            self.server_cache.invalidate(self._session_id)
            self._session_id = None
        self._client_conn = None
        self._server_conn = None

    # -- recovering delivery -----------------------------------------------

    def deliver_to_server(self, data: bytes) -> bytes:
        """Send ``data`` client->server, recovering as needed."""
        return self._deliver(data, to_server=True)

    def deliver_to_client(self, data: bytes) -> bytes:
        """Send ``data`` server->client, recovering as needed."""
        return self._deliver(data, to_server=False)

    def _deliver(self, data: bytes, to_server: bool,
                 max_recoveries: int = 2) -> bytes:
        if self._client_conn is None:
            self.establish()
        for _ in range(max_recoveries + 1):
            client_conn, server_conn = self._live_pair()
            if to_server:
                sender, receiver = client_conn, server_conn
            else:
                sender, receiver = server_conn, client_conn
            try:
                sender.send(data)
                return receiver.receive()
            except BadRecordMAC as exc:
                # Tampering or key divergence: invalidate + full rekey.
                self.report.mac_failures += 1
                self.report.failures.append(f"mac: {exc}")
                probe.event("recovery.mac-failure",
                            error=type(exc).__name__)
                self.teardown()
                self.report.rehandshakes_after_mac += 1
                self.establish()
                self.report.redeliveries += 1
            except ChannelClosed as exc:
                # Link reset, lost frame without ARQ, or retry budget
                # exhausted below us: bring up a fresh link and resume.
                self.report.link_failures += 1
                self.report.failures.append(
                    f"link: {type(exc).__name__}: {exc}")
                probe.event("recovery.link-failure",
                            error=type(exc).__name__)
                self.reconnect()
                self.report.redeliveries += 1
        raise ChannelClosed(
            f"delivery failed after {max_recoveries} recovery attempts: "
            f"{self.report.failures[-max_recoveries:]}")
