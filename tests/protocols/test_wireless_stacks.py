"""WTLS, WEP, and ESP behaviour (the wireless §2 stacks)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import DeterministicDRBG
from repro.protocols.alerts import (
    BadRecordMAC,
    DecodeError,
    ReplayError,
)
from repro.protocols.ciphersuites import RSA_WITH_AES_SHA, RSA_WITH_RC4_SHA
from repro.protocols.handshake import ClientConfig, ServerConfig
from repro.protocols.ipsec import SecurityAssociation, make_tunnel
from repro.protocols.wep import WEPFrame, WEPStation
from repro.protocols.wtls import wtls_connect
from repro.crypto.errors import InvalidKeyLength


@pytest.fixture()
def wtls_pair(ca, server_credentials):
    key, cert = server_credentials
    client = ClientConfig(rng=DeterministicDRBG("wtls-c"), ca=ca)
    server = ServerConfig(rng=DeterministicDRBG("wtls-s"),
                          certificate=cert, private_key=key)
    return wtls_connect(client, server)


class TestWTLS:
    def test_roundtrip(self, wtls_pair):
        handset, gateway = wtls_pair
        handset.send(b"balance?")
        assert gateway.receive() == b"balance?"
        gateway.send(b"42")
        assert handset.receive() == b"42"

    def test_loss_tolerance(self, wtls_pair):
        """Datagram records decode despite lost predecessors."""
        handset, gateway = wtls_pair
        handset.send(b"lost")       # never delivered
        gateway.endpoint.receive()  # simulate loss: drop the frame
        handset.send(b"arrives")
        assert gateway.receive() == b"arrives"

    def test_replay_rejected(self, wtls_pair):
        handset, gateway = wtls_pair
        record = handset.encoder.encode(b"pay 10")
        gateway.decoder.decode(record)
        with pytest.raises(ReplayError):
            gateway.decoder.decode(record)

    def test_tamper_rejected(self, wtls_pair):
        handset, gateway = wtls_pair
        record = bytearray(handset.encoder.encode(b"important"))
        record[-1] ^= 1
        with pytest.raises(BadRecordMAC):
            gateway.decoder.decode(bytes(record))

    def test_receive_next_skips_damaged_datagrams(self, wtls_pair):
        """The datagram reader degrades gracefully: damaged records are
        discarded (and counted) instead of killing the session."""
        handset, gateway = wtls_pair
        damaged = bytearray(handset.encoder.encode(b"mangled"))
        damaged[-1] ^= 1
        handset.endpoint.send(bytes(damaged))
        handset.send(b"good one")
        assert gateway.receive_next() == b"good one"
        assert gateway.discarded == 1

    def test_receive_next_budget_exhausts(self, wtls_pair):
        handset, gateway = wtls_pair
        for _ in range(3):
            damaged = bytearray(handset.encoder.encode(b"x"))
            damaged[-1] ^= 1
            handset.endpoint.send(bytes(damaged))
        with pytest.raises(BadRecordMAC):
            gateway.receive_next(max_skip=2)
        assert gateway.discarded == 3

    def test_receive_next_rejects_negative_budget(self, wtls_pair):
        handset, gateway = wtls_pair
        handset.send(b"kept")
        with pytest.raises(ValueError):
            gateway.receive_next(max_skip=-1)
        assert gateway.receive_next() == b"kept"

    def test_records_lost_counts_sequence_gaps(self, wtls_pair):
        handset, gateway = wtls_pair
        handset.send(b"first")       # seq 0, lost below
        gateway.endpoint.receive()   # simulate loss: drop the frame
        handset.send(b"second")      # seq 1
        assert gateway.receive() == b"second"
        assert gateway.records_lost == 1

    def test_truncated_mac_length(self, wtls_pair):
        """WTLS trades MAC bytes for bandwidth: 10-byte tags."""
        from repro.protocols.wtls import WTLS_MAC_BYTES

        handset, _ = wtls_pair
        record = handset.encoder.encode(b"")
        body_length = int.from_bytes(record[4:6], "big")
        # NULL-adjacent check: for stream/block the body >= MAC size.
        assert body_length >= WTLS_MAC_BYTES

    def test_stream_suite_datagrams(self, ca, server_credentials):
        key, cert = server_credentials
        client = ClientConfig(rng=DeterministicDRBG("wc2"), ca=ca,
                              suites=[RSA_WITH_RC4_SHA])
        server = ServerConfig(rng=DeterministicDRBG("ws2"),
                              certificate=cert, private_key=key)
        handset, gateway = wtls_connect(client, server)
        for i in range(5):
            handset.send(f"dgram {i}".encode())
        # Out-of-order delivery: drain all, order preserved by channel
        for i in range(5):
            assert gateway.receive() == f"dgram {i}".encode()

    def test_short_record_rejected(self, wtls_pair):
        _, gateway = wtls_pair
        with pytest.raises(DecodeError):
            gateway.decoder.decode(b"\x00\x00\x01")


class TestWEP:
    def test_interoperability(self):
        sender = WEPStation(b"abcde")
        receiver = WEPStation(b"abcde")
        frame = sender.encrypt(b"association request")
        assert receiver.decrypt(frame) == b"association request"

    def test_wire_format_roundtrip(self):
        frame = WEPStation(b"abcde").encrypt(b"payload")
        parsed = WEPFrame.from_bytes(frame.to_bytes())
        assert parsed == frame

    def test_wrong_key_fails_icv(self):
        frame = WEPStation(b"abcde").encrypt(b"payload")
        with pytest.raises(BadRecordMAC):
            WEPStation(b"fghij").decrypt(frame)

    def test_iv_counter_mode_increments(self):
        station = WEPStation(b"abcde")
        first = station.encrypt(b"x")
        second = station.encrypt(b"x")
        assert first.iv != second.iv
        assert int.from_bytes(second.iv, "big") == \
            int.from_bytes(first.iv, "big") + 1

    def test_iv_wraps_at_24_bits(self):
        station = WEPStation(b"abcde")
        station._iv_counter = (1 << 24) - 1
        last = station.encrypt(b"x")
        wrapped = station.encrypt(b"x")
        assert last.iv == b"\xff\xff\xff"
        assert wrapped.iv == b"\x00\x00\x00"  # keystream reuse guaranteed

    def test_random_iv_mode(self):
        station = WEPStation(b"abcde", iv_mode="random",
                             rng=DeterministicDRBG(5))
        frames = [station.encrypt(b"x") for _ in range(10)]
        assert len({f.iv for f in frames}) > 1

    def test_key_lengths(self):
        WEPStation(b"a" * 5)
        WEPStation(b"a" * 13)
        with pytest.raises(InvalidKeyLength):
            WEPStation(b"a" * 8)

    def test_same_iv_same_keystream(self):
        """The WEP flaw in one assertion: IV collision => identical
        keystream."""
        station = WEPStation(b"abcde")
        ks1 = station.keystream_for_iv(b"\x00\x01\x02", 32)
        ks2 = station.keystream_for_iv(b"\x00\x01\x02", 32)
        assert ks1 == ks2

    def test_frame_too_short(self):
        with pytest.raises(DecodeError):
            WEPFrame.from_bytes(b"\x00\x00")


class TestESP:
    def test_roundtrip(self):
        sender, receiver = make_tunnel(0x100, seed=1)
        packet = sender.encapsulate(b"ip datagram payload")
        sequence, payload = receiver.decapsulate(packet)
        assert sequence == 1
        assert payload == b"ip datagram payload"

    def test_sequence_increments(self):
        sender, receiver = make_tunnel(0x100, seed=2)
        for expected in (1, 2, 3):
            seq, _ = receiver.decapsulate(sender.encapsulate(b"x"))
            assert seq == expected

    def test_replay_rejected(self):
        sender, receiver = make_tunnel(0x100, seed=3)
        packet = sender.encapsulate(b"once")
        receiver.decapsulate(packet)
        with pytest.raises(ReplayError):
            receiver.decapsulate(packet)
        assert receiver.replay_drops == 1

    def test_out_of_order_within_window_ok(self):
        sender, receiver = make_tunnel(0x100, seed=4)
        packets = [sender.encapsulate(f"p{i}".encode()) for i in range(5)]
        receiver.decapsulate(packets[4])
        receiver.decapsulate(packets[1])  # late but inside window
        receiver.decapsulate(packets[2])
        with pytest.raises(ReplayError):
            receiver.decapsulate(packets[1])  # replayed late packet

    def test_below_window_rejected(self):
        sender, receiver = make_tunnel(0x100, seed=5)
        early = sender.encapsulate(b"early")
        for _ in range(70):  # push window far past sequence 1
            receiver.decapsulate(sender.encapsulate(b"fill"))
        with pytest.raises(ReplayError):
            receiver.decapsulate(early)

    def test_tamper_rejected_before_decrypt(self):
        sender, receiver = make_tunnel(0x100, seed=6)
        packet = bytearray(sender.encapsulate(b"payload"))
        packet[12] ^= 0xFF  # flip ciphertext
        with pytest.raises(BadRecordMAC):
            receiver.decapsulate(bytes(packet))

    def test_wrong_spi_rejected(self):
        sender, _ = make_tunnel(0x100, seed=7)
        _, receiver = make_tunnel(0x200, seed=7)
        with pytest.raises(DecodeError):
            receiver.decapsulate(sender.encapsulate(b"x"))

    def test_aes_suite_tunnel(self):
        sender, receiver = make_tunnel(0x300, seed=8, suite=RSA_WITH_AES_SHA)
        packet = sender.encapsulate(b"aes protected")
        assert receiver.decapsulate(packet)[1] == b"aes protected"

    def test_packet_too_short(self):
        _, receiver = make_tunnel(0x100, seed=9)
        with pytest.raises(DecodeError):
            receiver.decapsulate(bytes(10))


@settings(max_examples=20, deadline=None)
@given(payload=st.binary(max_size=300))
def test_esp_roundtrip_property(payload):
    sender, receiver = make_tunnel(0x500, seed=10)
    assert receiver.decapsulate(sender.encapsulate(payload))[1] == payload
