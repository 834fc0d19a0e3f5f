"""The WAP architecture: handset, gateway, and origin server.

Section 2: "wireless handsets run the WAP protocol stack, and a WAP
gateway translates traffic to/from the wireless handset to
conventional Internet protocols (HTTP/TCP/IP)".  Security-wise this
creates the famous *WAP gap*: the handset's WTLS session terminates at
the gateway, which decrypts, converts, and re-encrypts toward the
origin server over TLS — so the gateway momentarily holds plaintext.

:class:`WAPGateway` models the translation including the gap; its
``plaintext_log`` is the evidence our tests and the end-to-end example
use to show why §2 says applications needing true end-to-end
guarantees "may decide to directly employ security mechanisms"
(application-layer security on top).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..crypto.rng import DeterministicDRBG
from ..observability import probe
from .alerts import ProtocolAlert
from .certificates import CertificateAuthority
from .handshake import ClientConfig, ServerConfig
from .tls import SecureConnection, connect
from .transport import ChannelClosed
from .wtls import WTLSConnection, wtls_connect

RequestHandler = Callable[[bytes], bytes]

DEGRADED_PREFIX = b"GW-DEGRADED:"

#: Certificate subjects of the gateway and of the origin it fronts.
GATEWAY_NAME = "gateway.operator"
ORIGIN_NAME = "origin.example"


class HandlerFailure(Exception):
    """The origin's application handler raised mid-proxy.

    Distinct from the transport failures (:class:`ProtocolAlert`,
    :class:`ChannelClosed`): the origin is *reachable*, its application
    code failed.  Retrying over a fresh TLS leg cannot help, so
    :meth:`WAPGateway.forward` answers degraded immediately and counts
    it in ``handler_failures`` instead of the wired-leg ledger.
    """


@dataclass
class OriginServer:
    """A wired-Internet application server reachable over TLS."""

    name: str
    handler: RequestHandler
    config: ServerConfig


@dataclass
class WAPGateway:
    """Protocol translator between the WTLS and TLS worlds.

    The gateway is *trusted infrastructure* in the WAP model; the
    plaintext log makes the implied trust explicit and measurable.
    """

    ca: CertificateAuthority
    rng: DeterministicDRBG
    gateway_config: ServerConfig
    plaintext_log: List[bytes] = field(default_factory=list)
    wired_leg_failures: int = 0
    handler_failures: int = 0
    degraded_responses: int = 0
    _server_connections: Dict[str, SecureConnection] = field(default_factory=dict)
    _origin_sides: Dict[str, SecureConnection] = field(default_factory=dict)
    _servers: Dict[str, OriginServer] = field(default_factory=dict)

    handset_side: Optional[WTLSConnection] = None

    def register_origin(self, server: OriginServer) -> None:
        """Make an origin server reachable through this gateway."""
        self._servers[server.name] = server

    def _server_connection(self, name: str) -> Tuple[SecureConnection, OriginServer]:
        server = self._servers[name]
        if name not in self._server_connections:
            client_cfg = ClientConfig(
                rng=DeterministicDRBG(
                    ("gw-client", name, self.rng.getrandbits(32)).__repr__()
                ),
                ca=self.ca,
                expected_server=name,
            )
            gw_conn, origin_conn = connect(client_cfg, server.config)
            self._server_connections[name] = gw_conn
            self._origin_sides[name] = origin_conn
        return self._server_connections[name], self._servers[name]

    def _drop_wired_leg(self, name: str) -> None:
        """Forget a (possibly broken) cached TLS connection to an origin."""
        self._server_connections.pop(name, None)
        self._origin_sides.pop(name, None)

    def _proxy_once(self, destination: str, request: bytes) -> bytes:
        telemetry = probe.active
        if telemetry is None:
            return self._proxy_once_inner(destination, request)
        with telemetry.span("gateway.wired-leg", origin=destination,
                            n=len(request)) as span:
            try:
                return self._proxy_once_inner(destination, request)
            except Exception as exc:
                span.set(error=type(exc).__name__)
                raise

    def _proxy_once_inner(self, destination: str, request: bytes) -> bytes:
        gw_conn, server = self._server_connection(destination)
        gw_conn.send(request)                     # TLS re-encrypt
        origin_conn = self._origin_sides[destination]
        inbound = origin_conn.receive()
        try:
            response = server.handler(inbound)
        except Exception as exc:
            # Application failure, not transport: the TLS legs are fine,
            # so keep them cached and let forward() answer degraded.
            raise HandlerFailure(
                f"origin {destination!r} handler raised "
                f"{type(exc).__name__}: {exc}") from exc
        origin_conn.send(response)
        return gw_conn.receive()

    def forward(self, destination: str, wired_retries: int = 1) -> bytes:
        """Take one pending WTLS request from the handset, proxy it over
        TLS to the origin, and return the response over WTLS.

        The decrypt-then-re-encrypt through gateway memory is the WAP
        gap: the request and response both land in ``plaintext_log``.

        The wired leg degrades gracefully: a failed TLS exchange tears
        down the cached origin connection and retries over a fresh one
        (up to ``wired_retries`` times); if the origin stays
        unreachable the handset gets a ``GW-DEGRADED:`` response
        instead of the gateway crashing mid-proxy.
        """
        if self.handset_side is None:
            raise RuntimeError("gateway has no handset WTLS session")
        if wired_retries < 0:
            raise ValueError("wired_retries must be non-negative")
        telemetry = probe.active
        if telemetry is None:
            return self._forward_inner(destination, wired_retries)
        with telemetry.span("gateway.forward",
                            origin=destination) as span:
            reply = self._forward_inner(destination, wired_retries)
            span.set(degraded=reply.startswith(DEGRADED_PREFIX))
            return reply

    def _forward_inner(self, destination: str, wired_retries: int) -> bytes:
        request = self.handset_side.receive()     # WTLS decrypt: the gap
        self.plaintext_log.append(request)
        reply: Optional[bytes] = None
        last_error: Optional[Exception] = None
        if destination not in self._servers:
            last_error = KeyError(f"unknown origin {destination!r}")
        else:
            for _ in range(wired_retries + 1):
                try:
                    reply = self._proxy_once(destination, request)
                    break
                except HandlerFailure as exc:
                    # Deterministic application error: no retry.
                    self.handler_failures += 1
                    last_error = exc
                    break
                except (ProtocolAlert, ChannelClosed) as exc:
                    self.wired_leg_failures += 1
                    last_error = exc
                    self._drop_wired_leg(destination)
        if reply is None:
            # forward() rejects wired_retries < 0, so the loop ran and
            # every reply-less exit recorded last_error.
            kind = (b" origin handler error ("
                    if isinstance(last_error, HandlerFailure)
                    else b" origin unavailable (")
            reply = (DEGRADED_PREFIX + kind
                     + type(last_error).__name__.encode() + b")")
            self.degraded_responses += 1
        self.plaintext_log.append(reply)          # the gap again
        self.handset_side.send(reply)
        return reply


def build_gateway(seed: int = 0,
                  handler: Optional[RequestHandler] = None) -> WAPGateway:
    """The seeded CA, gateway and origin, with the origin registered.

    Every single-box world (:func:`build_wap_world`,
    :func:`~repro.protocols.gateway_runtime.build_gateway_runtime_world`)
    starts here; ``gateway.ca`` is the CA that issued both certificates.
    """
    ca = CertificateAuthority("WAP-CA", DeterministicDRBG(("ca", seed).__repr__()))
    gw_key, gw_cert = ca.issue(
        GATEWAY_NAME, DeterministicDRBG(("gw", seed).__repr__()))
    origin_key, origin_cert = ca.issue(
        ORIGIN_NAME, DeterministicDRBG(("origin", seed).__repr__()))
    origin = OriginServer(
        name=ORIGIN_NAME,
        handler=handler or (lambda request: b"OK:" + request),
        config=ServerConfig(
            rng=DeterministicDRBG(("origin-rng", seed).__repr__()),
            certificate=origin_cert, private_key=origin_key,
        ),
    )
    gateway = WAPGateway(
        ca=ca,
        rng=DeterministicDRBG(("gw-rng", seed).__repr__()),
        gateway_config=ServerConfig(
            rng=DeterministicDRBG(("gw-srv-rng", seed).__repr__()),
            certificate=gw_cert, private_key=gw_key,
        ),
    )
    gateway.register_origin(origin)
    return gateway


def build_wap_world(seed: int = 0,
                    handler: Optional[RequestHandler] = None):
    """Convenience constructor for a full handset-gateway-origin setup.

    Returns ``(handset_wtls_connection, gateway, ca)`` ready for
    ``gateway.forward(handset_conn, "origin.example")`` round-trips.
    """
    gateway = build_gateway(seed, handler)
    handset_cfg = ClientConfig(
        rng=DeterministicDRBG(("handset", seed).__repr__()),
        ca=gateway.ca, expected_server=GATEWAY_NAME,
    )
    handset_conn, gateway_side = wtls_connect(handset_cfg, gateway.gateway_config)
    # The gateway holds its side of the WTLS session:
    gateway.handset_side = gateway_side
    return handset_conn, gateway, gateway.ca
