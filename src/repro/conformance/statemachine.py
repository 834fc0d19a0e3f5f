"""Explicit handshake/session state-machine model, exhaustively checked.

:func:`repro.protocols.handshake.run_handshake` drives both peers
through the happy path in one call, so nothing in the library ever
*states* what a server must do with an out-of-order, replayed, or
garbage message.  This module makes that contract explicit:

* :class:`ReferenceServerMachine` — a reactive server built from the
  same primitives (messages, certificates, KDF, record layer) that
  consumes **one wire blob at a time**;
* :data:`TRANSITIONS` — the declared model: for every (state, symbol)
  pair, either the successor state or the exact
  :class:`~repro.protocols.alerts.ProtocolAlert` subclass the machine
  must die with;
* :func:`check_model` — exhaustive enumeration of *every* input
  sequence up to a small depth, verifying the machine's observed
  behaviour matches the declared matrix and that any alert lands the
  machine in ``CLOSED`` (further input → ``UnexpectedMessage``, the
  §3.4 software-attack containment property).

Determinism: all randomness comes from fixed-seed DRBGs, so the golden
client messages are byte-identical across runs and valid against every
fresh machine instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..crypto.errors import CryptoError
from ..crypto.rng import DeterministicDRBG
from ..crypto.sha1 import sha1
from ..protocols.alerts import (
    BadRecordMAC,
    DecodeError,
    HandshakeFailure,
    ProtocolAlert,
    UnexpectedMessage,
)
from ..protocols.certificates import Certificate, CertificateAuthority
from ..protocols.ciphersuites import RSA_WITH_3DES_SHA
from ..protocols.handshake import PREMASTER_BYTES
from ..protocols.kdf import (
    derive_key_block,
    finished_verify_data,
    master_secret,
)
from ..protocols.messages import (
    MSG_CERTIFICATE_VERIFY,
    MSG_CLIENT_HELLO,
    MSG_CLIENT_KEY_EXCHANGE,
    ClientHello,
    ClientKeyExchange,
    Finished,
    ServerHello,
)
from ..protocols.records import (
    CONTENT_APPLICATION,
    CONTENT_HANDSHAKE,
    make_record_pair,
)

# -- states ------------------------------------------------------------------

AWAIT_HELLO = "AWAIT_HELLO"
AWAIT_KEY_EXCHANGE = "AWAIT_KEY_EXCHANGE"
AWAIT_FINISHED = "AWAIT_FINISHED"
ESTABLISHED = "ESTABLISHED"
DATA_RECEIVED = "DATA_RECEIVED"
CLOSED = "CLOSED"

#: All model states, in lifecycle order.
STATES = (AWAIT_HELLO, AWAIT_KEY_EXCHANGE, AWAIT_FINISHED,
          ESTABLISHED, DATA_RECEIVED, CLOSED)

# -- input symbols -----------------------------------------------------------

#: The symbol alphabet: each names one golden wire blob from
#: :func:`golden_messages`.
SYMBOLS = ("client_hello", "server_hello", "client_key_exchange",
           "finished", "appdata", "junk")

#: Declared model.  Value is either a successor state (str — the
#: machine must accept the input) or a ProtocolAlert subclass (the
#: machine must raise exactly that alert and close).  Plaintext states
#: classify by leading byte: a known handshake type in the wrong state
#: is ``UnexpectedMessage``; anything else (record framing, garbage)
#: is ``DecodeError``.  Record states treat a raw handshake byte as
#: ``UnexpectedMessage`` and surface record-layer failures
#: (out-of-order/replayed → ``BadRecordMAC``) unchanged.
TRANSITIONS: Dict[Tuple[str, str], object] = {
    (AWAIT_HELLO, "client_hello"): AWAIT_KEY_EXCHANGE,
    (AWAIT_HELLO, "server_hello"): UnexpectedMessage,
    (AWAIT_HELLO, "client_key_exchange"): UnexpectedMessage,
    (AWAIT_HELLO, "finished"): DecodeError,       # record framing, not a msg
    (AWAIT_HELLO, "appdata"): DecodeError,
    (AWAIT_HELLO, "junk"): DecodeError,

    (AWAIT_KEY_EXCHANGE, "client_hello"): UnexpectedMessage,
    (AWAIT_KEY_EXCHANGE, "server_hello"): UnexpectedMessage,
    (AWAIT_KEY_EXCHANGE, "client_key_exchange"): AWAIT_FINISHED,
    (AWAIT_KEY_EXCHANGE, "finished"): DecodeError,
    (AWAIT_KEY_EXCHANGE, "appdata"): DecodeError,
    (AWAIT_KEY_EXCHANGE, "junk"): DecodeError,

    (AWAIT_FINISHED, "client_hello"): UnexpectedMessage,
    (AWAIT_FINISHED, "server_hello"): UnexpectedMessage,
    (AWAIT_FINISHED, "client_key_exchange"): UnexpectedMessage,
    (AWAIT_FINISHED, "finished"): ESTABLISHED,
    (AWAIT_FINISHED, "appdata"): BadRecordMAC,    # out-of-order record
    (AWAIT_FINISHED, "junk"): DecodeError,

    (ESTABLISHED, "client_hello"): UnexpectedMessage,
    (ESTABLISHED, "server_hello"): UnexpectedMessage,
    (ESTABLISHED, "client_key_exchange"): UnexpectedMessage,
    (ESTABLISHED, "finished"): BadRecordMAC,      # replayed record
    (ESTABLISHED, "appdata"): DATA_RECEIVED,
    (ESTABLISHED, "junk"): DecodeError,

    (DATA_RECEIVED, "client_hello"): UnexpectedMessage,
    (DATA_RECEIVED, "server_hello"): UnexpectedMessage,
    (DATA_RECEIVED, "client_key_exchange"): UnexpectedMessage,
    (DATA_RECEIVED, "finished"): BadRecordMAC,    # replayed record
    (DATA_RECEIVED, "appdata"): BadRecordMAC,     # replayed record
    (DATA_RECEIVED, "junk"): DecodeError,
}
# Once closed, everything is rejected uniformly.
for _symbol in SYMBOLS:
    TRANSITIONS[(CLOSED, _symbol)] = UnexpectedMessage

#: The single suite the model runs (RSA kex keeps the machine's
#: server-side premaster recovery deterministic).
SUITE = RSA_WITH_3DES_SHA

_CREDENTIALS: Optional[tuple] = None


def _credentials():
    """Shared CA + server credential (created once; keygen is the only
    expensive step and the certificate is immutable)."""
    global _CREDENTIALS
    if _CREDENTIALS is None:
        ca = CertificateAuthority(
            "ConformanceCA", DeterministicDRBG("conformance-sm-ca"))
        key, cert = ca.issue(
            "conformance.server", DeterministicDRBG("conformance-sm-key"))
        _CREDENTIALS = (ca, key, cert)
    return _CREDENTIALS


class ReferenceServerMachine:
    """A reactive mini-TLS server: one :meth:`feed` call per wire blob.

    Mirrors the server half of
    :func:`repro.protocols.handshake.run_handshake` message for
    message, but holds its state explicitly so the model checker can
    compare every step against :data:`TRANSITIONS`.  Any
    :class:`~repro.protocols.alerts.ProtocolAlert` closes the machine.
    """

    def __init__(self) -> None:
        _, self._key, self._certificate = _credentials()
        self._rng = DeterministicDRBG("conformance-sm-server")
        self.state = AWAIT_HELLO
        self._transcript: List[bytes] = []
        self._master: Optional[bytes] = None
        self._encoder = None
        self._decoder = None
        self.inbox: List[bytes] = []

    def feed(self, blob: bytes) -> Optional[bytes]:
        """Consume one wire blob; returns the response bytes, if any.

        Raises a :class:`~repro.protocols.alerts.ProtocolAlert`
        subclass per the declared matrix; the machine is ``CLOSED``
        afterwards.
        """
        try:
            return self._feed(blob)
        except ProtocolAlert:
            self.state = CLOSED
            raise

    def _feed(self, blob: bytes) -> Optional[bytes]:
        if self.state == CLOSED:
            raise UnexpectedMessage("connection closed")
        if self.state in (AWAIT_HELLO, AWAIT_KEY_EXCHANGE):
            return self._feed_plaintext(blob)
        return self._feed_record(blob)

    # -- plaintext handshake phase -------------------------------------------

    def _feed_plaintext(self, blob: bytes) -> bytes:
        if not blob:
            raise DecodeError("empty handshake message")
        msg_type = blob[0]
        if not MSG_CLIENT_HELLO <= msg_type <= MSG_CERTIFICATE_VERIFY:
            raise DecodeError(
                f"not a handshake message (leading byte {msg_type})")
        expected = (MSG_CLIENT_HELLO if self.state == AWAIT_HELLO
                    else MSG_CLIENT_KEY_EXCHANGE)
        if msg_type != expected:
            raise UnexpectedMessage(
                f"message type {msg_type} in state {self.state}")
        if self.state == AWAIT_HELLO:
            return self._on_client_hello(blob)
        return self._on_client_key_exchange(blob)

    def _on_client_hello(self, blob: bytes) -> bytes:
        hello = ClientHello.from_bytes(blob)
        if SUITE.name not in hello.suite_names:
            raise HandshakeFailure("no common cipher suite")
        self._client_random = hello.client_random
        self._transcript.append(blob)
        self._server_random = self._rng.random_bytes(32)
        reply = ServerHello(
            server_random=self._server_random,
            suite_name=SUITE.name,
            certificate=self._certificate.to_bytes(),
            key_exchange=b"",
            request_client_auth=False,
        ).to_bytes()
        self._transcript.append(reply)
        self.state = AWAIT_KEY_EXCHANGE
        return reply

    def _on_client_key_exchange(self, blob: bytes) -> None:
        ckx = ClientKeyExchange.from_bytes(blob)
        self._transcript.append(blob)
        try:
            premaster = self._key.decrypt(ckx.key_exchange)
        except CryptoError as exc:
            raise HandshakeFailure(
                f"premaster decryption failed: {exc}") from exc
        if len(premaster) != PREMASTER_BYTES:
            raise HandshakeFailure("premaster has wrong length")
        self._master = master_secret(
            premaster, self._client_random, self._server_random)
        keys = derive_key_block(
            self._master, self._client_random, self._server_random, SUITE)
        self._encoder, self._decoder = make_record_pair(
            SUITE, keys, is_client=False)
        self.state = AWAIT_FINISHED
        return None

    # -- record phase ---------------------------------------------------------

    def _feed_record(self, blob: bytes) -> Optional[bytes]:
        if blob and MSG_CLIENT_HELLO <= blob[0] <= MSG_CERTIFICATE_VERIFY:
            raise UnexpectedMessage(
                f"raw handshake message (type {blob[0]}) where a "
                f"protected record was expected")
        content_type, payload = self._decoder.decode(blob)
        if self.state == AWAIT_FINISHED:
            if content_type != CONTENT_HANDSHAKE:
                raise UnexpectedMessage(
                    f"content type {content_type} before Finished")
            finished = Finished.from_bytes(payload)
            expected = finished_verify_data(
                self._master, sha1(b"".join(self._transcript)),
                b"client finished")
            if finished.verify_data != expected:
                raise HandshakeFailure("client Finished verify_data mismatch")
            reply = Finished(finished_verify_data(
                self._master, sha1(b"".join(self._transcript)),
                b"server finished"))
            self.state = ESTABLISHED
            return self._encoder.encode(CONTENT_HANDSHAKE, reply.to_bytes())
        if content_type != CONTENT_APPLICATION:
            raise UnexpectedMessage(
                f"content type {content_type} after handshake")
        self.inbox.append(payload)
        self.state = DATA_RECEIVED
        return None


_GOLDEN: Optional[Dict[str, bytes]] = None


def golden_messages() -> Dict[str, bytes]:
    """The six symbol blobs, produced by one scripted golden client run.

    Valid against any fresh :class:`ReferenceServerMachine` (both sides
    use fixed-seed DRBGs, so the server's nonce — and therefore the
    transcript the Finished message binds — replays identically).
    """
    global _GOLDEN
    if _GOLDEN is not None:
        return _GOLDEN
    machine = ReferenceServerMachine()
    rng = DeterministicDRBG("conformance-sm-client")

    client_random = rng.random_bytes(32)
    client_hello = ClientHello(client_random, [SUITE.name]).to_bytes()
    server_hello_bytes = machine.feed(client_hello)
    server_hello = ServerHello.from_bytes(server_hello_bytes)
    certificate = Certificate.from_bytes(server_hello.certificate)

    premaster = rng.random_bytes(PREMASTER_BYTES)
    ckx = ClientKeyExchange(
        certificate.public_key.encrypt(premaster, rng)).to_bytes()
    machine.feed(ckx)

    master = master_secret(
        premaster, client_random, server_hello.server_random)
    keys = derive_key_block(
        master, client_random, server_hello.server_random, SUITE)
    encoder, decoder = make_record_pair(SUITE, keys, is_client=True)
    transcript = sha1(b"".join([client_hello, server_hello_bytes, ckx]))
    finished_record = encoder.encode(
        CONTENT_HANDSHAKE,
        Finished(finished_verify_data(
            master, transcript, b"client finished")).to_bytes())
    server_finished = machine.feed(finished_record)
    # Close the loop: the golden client verifies the server's Finished.
    content_type, payload = decoder.decode(server_finished)
    if content_type != CONTENT_HANDSHAKE:
        raise RuntimeError("golden client: server Finished is not a "
                           "handshake record")
    expected = finished_verify_data(master, transcript, b"server finished")
    if Finished.from_bytes(payload).verify_data != expected:
        raise RuntimeError("golden client: server Finished does not verify")

    appdata_record = encoder.encode(
        CONTENT_APPLICATION, b"conformance: application data")
    machine.feed(appdata_record)
    if machine.state != DATA_RECEIVED:
        raise RuntimeError(f"golden client: machine ended in {machine.state}, "
                           f"not {DATA_RECEIVED}")

    _GOLDEN = {
        "client_hello": client_hello,
        "server_hello": server_hello_bytes,
        "client_key_exchange": ckx,
        "finished": finished_record,
        "appdata": appdata_record,
        "junk": b"\xff\x00\x03xx",  # bogus type + mismatched length field
    }
    return _GOLDEN


@dataclass
class Mismatch:
    """One divergence between the declared model and the machine."""

    sequence: Tuple[str, ...]
    step: int
    state: str
    symbol: str
    expected: str
    observed: str


@dataclass
class StateMachineReport:
    """Aggregate result of the exhaustive enumeration."""

    depth: int
    sequences: int = 0
    steps: int = 0
    alerts: int = 0
    transitions_covered: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every observed step matched the declared model."""
        return not self.mismatches


def check_model(depth: int = 4) -> StateMachineReport:
    """Drive every input sequence up to ``depth`` symbols.

    For each step the observed behaviour (accepted, or alert class
    raised) must equal the declared :data:`TRANSITIONS` entry, and an
    alert must leave the machine ``CLOSED``.
    """
    golden = golden_messages()
    report = StateMachineReport(depth=depth)
    covered = set()
    for length in range(1, depth + 1):
        for sequence in itertools.product(SYMBOLS, repeat=length):
            report.sequences += 1
            machine = ReferenceServerMachine()
            state = AWAIT_HELLO
            for step, symbol in enumerate(sequence):
                declared = TRANSITIONS[(state, symbol)]
                report.steps += 1
                covered.add((state, symbol))
                observed: object
                try:
                    machine.feed(golden[symbol])
                except ProtocolAlert as alert:
                    observed = type(alert)
                    report.alerts += 1
                else:
                    observed = machine.state
                if isinstance(declared, str):
                    expected_state = declared
                    matched = observed == declared
                else:
                    expected_state = CLOSED
                    matched = observed is declared and machine.state == CLOSED
                if not matched:
                    report.mismatches.append(Mismatch(
                        sequence=sequence, step=step, state=state,
                        symbol=symbol,
                        expected=(declared if isinstance(declared, str)
                                  else declared.__name__),
                        observed=(observed if isinstance(observed, str)
                                  else observed.__name__),
                    ))
                    break
                state = expected_state
    report.transitions_covered = len(covered)
    return report
