"""Bearer security, the WAP gateway, certificates, KDF, messages."""

import pytest

from repro.crypto.rng import DeterministicDRBG
from repro.protocols.alerts import CertificateError, DecodeError
from repro.protocols.bearer import (
    SIM,
    BaseStation,
    Handset,
    HomeRegister,
    clone_sim,
)
from repro.protocols.certificates import Certificate, CertificateAuthority
from repro.protocols.ciphersuites import RSA_WITH_3DES_SHA
from repro.protocols.kdf import (
    derive_key_block,
    finished_verify_data,
    master_secret,
    p_hash,
    prf,
)
from repro.protocols.messages import (
    ClientHello,
    ClientKeyExchange,
    Finished,
    ServerHello,
)
from repro.protocols.wap import DEGRADED_PREFIX, build_wap_world


class TestBearer:
    @pytest.fixture()
    def network(self):
        register = HomeRegister()
        sim = SIM("262-01-0001", bytes(range(16)))
        register.provision(sim)
        base_station = BaseStation(register=register,
                                   rng=DeterministicDRBG("bs"))
        return sim, base_station

    def test_authentication_and_traffic(self, network):
        sim, base_station = network
        handset = Handset(sim)
        handset.attach(base_station)
        frame = handset.send_uplink(b"hello network")
        assert base_station.receive_uplink(sim.imsi, frame) == \
            b"hello network"

    def test_operator_sees_plaintext(self, network):
        """The §2 point: bearer security terminates at the base station."""
        sim, base_station = network
        handset = Handset(sim)
        handset.attach(base_station)
        base_station.receive_uplink(
            sim.imsi, handset.send_uplink(b"private sms"))
        assert b"private sms" in base_station.uplink_plaintext

    def test_unattached_handset_rejected(self, network):
        sim, base_station = network
        from repro.protocols.alerts import HandshakeFailure

        with pytest.raises(HandshakeFailure):
            base_station.receive_uplink(sim.imsi, b"raw")

    def test_ciphering_disabled_mode(self, network):
        """GSM networks can silently disable ciphering — data then rides
        in clear over the air."""
        sim, base_station = network
        base_station.ciphering_enabled = False
        handset = Handset(sim)
        handset.attach(base_station)
        over_the_air = handset.send_uplink(b"clear text", ciphering=False)
        assert over_the_air == b"clear text"  # an eavesdropper reads it

    def test_strong_sim_not_cloneable(self, network):
        sim, _ = network
        assert clone_sim(sim, DeterministicDRBG("clone")) is None

    def test_weak_sim_cloned(self):
        """The [25] GSM-cloning result against a COMP128-style A3."""
        weak = SIM("262-01-0002", bytes(range(16, 32)), weak_a3=True)
        recovered = clone_sim(weak, DeterministicDRBG("clone2"))
        assert recovered == weak.ki

    def test_triplet_determinism(self):
        register = HomeRegister()
        sim = SIM("x", bytes(16))
        register.provision(sim)
        a = register.triplet("x", DeterministicDRBG(1))
        b = register.triplet("x", DeterministicDRBG(1))
        assert a == b

    def test_short_ki_rejected_at_construction(self):
        """Regression: a sub-2-byte Ki used to crash deep inside the
        weak-A3 response (modulo by len-1) instead of failing fast."""
        with pytest.raises(ValueError):
            SIM("262-01-0003", b"")
        with pytest.raises(ValueError):
            SIM("262-01-0003", b"K", weak_a3=True)

    def test_minimum_ki_works_in_both_modes(self):
        strong = SIM("262-01-0004", b"Ki")
        assert len(strong.a3_response(b"challenge")) == 4
        weak = SIM("262-01-0005", b"Ki", weak_a3=True)
        assert len(weak.a3_response(b"challenge")) == 4
        assert clone_sim(weak, DeterministicDRBG("tiny")) == b"Ki"

    def test_empty_challenge_rejected(self):
        sim = SIM("262-01-0006", bytes(range(16)))
        with pytest.raises(ValueError):
            sim.a3_response(b"")


class TestWAPGateway:
    def test_end_to_end_request(self):
        handset, gateway, _ = build_wap_world(seed=1)
        handset.send(b"GET /portfolio")
        gateway.forward("origin.example")
        assert handset.receive() == b"OK:GET /portfolio"

    def test_wap_gap_exposes_plaintext(self):
        """The WAP gap: the gateway momentarily holds request and
        response in the clear."""
        handset, gateway, _ = build_wap_world(seed=2)
        handset.send(b"PIN 1234")
        gateway.forward("origin.example")
        handset.receive()
        assert b"PIN 1234" in gateway.plaintext_log
        assert b"OK:PIN 1234" in gateway.plaintext_log

    def test_multiple_round_trips(self):
        handset, gateway, _ = build_wap_world(seed=3)
        for i in range(4):
            handset.send(f"req{i}".encode())
            gateway.forward("origin.example")
            assert handset.receive() == f"OK:req{i}".encode()

    def test_custom_handler(self):
        handset, gateway, _ = build_wap_world(
            seed=4, handler=lambda request: request[::-1])
        handset.send(b"abc")
        gateway.forward("origin.example")
        assert handset.receive() == b"cba"

    def test_unknown_origin_degrades_gracefully(self):
        """An unreachable origin yields a GW-DEGRADED reply over WTLS
        instead of crashing the gateway mid-proxy."""
        handset, gateway, _ = build_wap_world(seed=5)
        handset.send(b"GET /nowhere")
        reply = gateway.forward("no-such-origin.example")
        assert reply.startswith(DEGRADED_PREFIX)
        assert handset.receive() == reply
        assert gateway.degraded_responses == 1
        assert gateway.wired_leg_failures == 0

    def test_broken_wired_leg_retries_on_fresh_connection(self):
        """A failed TLS exchange toward the origin tears down the cached
        leg and the retry succeeds over a fresh handshake."""
        handset, gateway, _ = build_wap_world(seed=6)
        handset.send(b"warm up")
        gateway.forward("origin.example")
        assert handset.receive() == b"OK:warm up"
        # Desynchronise the cached TLS leg: its next record fails MAC.
        gateway._server_connections[
            "origin.example"].session.encoder._sequence += 1
        handset.send(b"after the storm")
        reply = gateway.forward("origin.example")
        assert reply == b"OK:after the storm"
        assert handset.receive() == reply
        assert gateway.wired_leg_failures == 1
        assert gateway.degraded_responses == 0

    def test_persistently_dead_wired_leg_degrades(self):
        handset, gateway, _ = build_wap_world(seed=7)
        handset.send(b"warm up")
        gateway.forward("origin.example")
        handset.receive()

        original = gateway._proxy_once

        def always_failing(destination, request):
            # Re-break every leg, fresh ones included, before using it.
            gateway._server_connection(destination)
            gateway._server_connections[
                destination].session.encoder._sequence += 1
            return original(destination, request)

        gateway._proxy_once = always_failing
        handset.send(b"doomed")
        reply = gateway.forward("origin.example", wired_retries=1)
        assert reply.startswith(DEGRADED_PREFIX)
        assert gateway.wired_leg_failures == 2
        assert gateway.degraded_responses == 1
        assert handset.receive() == reply

    def test_negative_wired_retries_rejected(self):
        handset, gateway, _ = build_wap_world(seed=8)
        handset.send(b"still queued")
        with pytest.raises(ValueError):
            gateway.forward("origin.example", wired_retries=-1)
        gateway.forward("origin.example")
        assert handset.receive() == b"OK:still queued"


class TestCertificates:
    def test_issue_and_validate(self, ca):
        _, cert = ca.issue("device.example", DeterministicDRBG("dev"))
        ca.validate(cert, now=500, expected_subject="device.example")

    def test_serialization_roundtrip(self, ca):
        _, cert = ca.issue("ser.example", DeterministicDRBG("ser"))
        assert Certificate.from_bytes(cert.to_bytes()) == cert

    def test_wrong_issuer_rejected(self, ca):
        other = CertificateAuthority("Other", DeterministicDRBG("other"))
        _, cert = other.issue("x.example", DeterministicDRBG("x"))
        with pytest.raises(CertificateError):
            ca.validate(cert)

    def test_forged_signature_rejected(self, ca):
        _, cert = ca.issue("f.example", DeterministicDRBG("f"))
        forged = Certificate(
            subject="f.example", issuer=cert.issuer,
            public_key=cert.public_key, not_before=cert.not_before,
            not_after=cert.not_after,
            signature=bytes(len(cert.signature)),
        )
        with pytest.raises(CertificateError):
            ca.validate(forged)

    def test_validity_window(self, ca):
        _, cert = ca.issue("w.example", DeterministicDRBG("w"),
                           not_before=100, not_after=200)
        ca.validate(cert, now=150)
        with pytest.raises(CertificateError):
            ca.validate(cert, now=50)
        with pytest.raises(CertificateError):
            ca.validate(cert, now=250)

    def test_subject_rebinding_rejected(self, ca):
        """Changing the subject breaks the signature (name binding)."""
        _, cert = ca.issue("orig.example", DeterministicDRBG("o"))
        rebound = Certificate(
            subject="evil.example", issuer=cert.issuer,
            public_key=cert.public_key, not_before=cert.not_before,
            not_after=cert.not_after, signature=cert.signature,
        )
        with pytest.raises(CertificateError):
            ca.validate(rebound)

    def test_truncated_bytes_rejected(self, ca):
        _, cert = ca.issue("t.example", DeterministicDRBG("t"))
        with pytest.raises(CertificateError):
            Certificate.from_bytes(cert.to_bytes()[:20])


class TestKDF:
    def test_p_hash_length(self):
        for length in (1, 20, 21, 100):
            assert len(p_hash(b"secret", b"seed", length)) == length

    def test_prf_label_separation(self):
        assert prf(b"s", b"label-a", b"seed", 20) != \
            prf(b"s", b"label-b", b"seed", 20)

    def test_master_secret_binds_both_nonces(self):
        base = master_secret(b"pm", b"cr", b"sr")
        assert master_secret(b"pm", b"cX", b"sr") != base
        assert master_secret(b"pm", b"cr", b"sX") != base
        assert len(base) == 48

    def test_key_block_layout(self):
        keys = derive_key_block(b"m" * 48, b"c" * 32, b"s" * 32,
                                RSA_WITH_3DES_SHA)
        assert len(keys.client_mac_key) == 20
        assert len(keys.client_cipher_key) == 24
        assert len(keys.client_iv) == 8
        assert keys.client_cipher_key != keys.server_cipher_key

    def test_export_weakening_changes_keys(self):
        from repro.protocols.ciphersuites import RSA_WITH_RC2_MD5

        weak = derive_key_block(b"m" * 48, b"c" * 32, b"s" * 32,
                                RSA_WITH_RC2_MD5)
        assert len(weak.client_cipher_key) == 16  # stretched back

    def test_finished_verify_data(self):
        a = finished_verify_data(b"m" * 48, b"digest", b"client finished")
        b = finished_verify_data(b"m" * 48, b"digest", b"server finished")
        assert len(a) == 12
        assert a != b


class TestMessages:
    def test_client_hello_roundtrip(self):
        hello = ClientHello(bytes(32), ["A", "B", "C"])
        assert ClientHello.from_bytes(hello.to_bytes()) == hello

    def test_server_hello_roundtrip(self):
        hello = ServerHello(bytes(32), "SUITE", b"certbytes", b"kex", True)
        parsed = ServerHello.from_bytes(hello.to_bytes())
        assert parsed == hello

    def test_ckx_roundtrip(self):
        ckx = ClientKeyExchange(b"encrypted", b"cert", b"verify")
        assert ClientKeyExchange.from_bytes(ckx.to_bytes()) == ckx

    def test_finished_roundtrip(self):
        finished = Finished(bytes(12))
        assert Finished.from_bytes(finished.to_bytes()) == finished

    def test_wrong_type_rejected(self):
        hello = ClientHello(bytes(32), ["A"])
        with pytest.raises(DecodeError):
            ServerHello.from_bytes(hello.to_bytes())

    def test_truncation_rejected(self):
        hello = ClientHello(bytes(32), ["A"])
        with pytest.raises(DecodeError):
            ClientHello.from_bytes(hello.to_bytes()[:-3])

    def test_trailing_bytes_rejected(self):
        hello = ClientHello(bytes(32), ["A"])
        with pytest.raises(DecodeError):
            ClientHello.from_bytes(hello.to_bytes() + b"x")

    def test_empty_message_rejected(self):
        with pytest.raises(DecodeError):
            Finished.from_bytes(b"")
