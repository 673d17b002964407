"""Packets and the transmission ledger."""

import numpy as np
import pytest

from repro.net.packet import DEFAULT_HEADER_BYTES, Packet, PacketKind
from repro.net.trace import PLCP_OVERHEAD_BITS, TransmissionLedger


class TestPacket:
    def test_payload_sizes(self):
        pkt = Packet(
            kind=PacketKind.X_DATA,
            src="a",
            payload=np.zeros(100, dtype=np.uint8),
        )
        assert pkt.body_bytes == 100
        assert pkt.wire_bytes == 100 + DEFAULT_HEADER_BYTES
        assert pkt.wire_bits == 8 * pkt.wire_bytes

    def test_control_sizes(self):
        pkt = Packet(kind=PacketKind.FEEDBACK, src="a", control_bytes=17)
        assert pkt.body_bytes == 17

    def test_payload_coerced_to_uint8(self):
        pkt = Packet(kind=PacketKind.X_DATA, src="a", payload=[1, 2, 3])
        assert pkt.payload.dtype == np.uint8

    def test_2d_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet(
                kind=PacketKind.X_DATA,
                src="a",
                payload=np.zeros((2, 2), dtype=np.uint8),
            )

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            Packet(kind=PacketKind.ACK, src="a", control_bytes=-1)

    def test_seq_monotone(self):
        a = Packet(kind=PacketKind.ACK, src="a")
        b = Packet(kind=PacketKind.ACK, src="a")
        assert b.seq > a.seq

    def test_repr(self):
        assert "kind=ack" in repr(Packet(kind=PacketKind.ACK, src="a"))


class TestLedger:
    def test_charge_includes_plcp(self):
        ledger = TransmissionLedger()
        pkt = Packet(kind=PacketKind.ACK, src="a", control_bytes=14, header_bytes=0)
        bits = ledger.charge(pkt)
        assert bits == 14 * 8 + PLCP_OVERHEAD_BITS

    def test_plcp_optional(self):
        ledger = TransmissionLedger(count_plcp=False)
        pkt = Packet(kind=PacketKind.ACK, src="a", control_bytes=14, header_bytes=0)
        assert ledger.charge(pkt) == 14 * 8

    def test_breakdowns(self):
        ledger = TransmissionLedger(count_plcp=False)
        ledger.charge(Packet(kind=PacketKind.ACK, src="a", control_bytes=10, header_bytes=0))
        ledger.charge(Packet(kind=PacketKind.ACK, src="b", control_bytes=10, header_bytes=0), round_id=1)
        ledger.charge(
            Packet(kind=PacketKind.X_DATA, src="a", payload=np.zeros(5, dtype=np.uint8), header_bytes=0),
            round_id=1,
        )
        assert ledger.total_attempts == 3
        assert ledger.bits_by_kind()[PacketKind.ACK] == 160

    def test_airtime(self):
        # 125 bytes without PLCP are 1,000 bits: 1 ms at the paper's 1 Mbps.
        ledger = TransmissionLedger(count_plcp=False)
        ledger.charge(Packet(kind=PacketKind.ACK, src="a", control_bytes=125, header_bytes=0))
        assert ledger.total_bits / 1e6 == pytest.approx(0.001)
        # The PLCP preamble and header are airtime too, once per attempt.
        with_plcp = TransmissionLedger()
        with_plcp.charge(Packet(kind=PacketKind.ACK, src="a", control_bytes=125, header_bytes=0))
        assert with_plcp.total_bits == 1000 + PLCP_OVERHEAD_BITS

    def test_merge_and_reset(self):
        a = TransmissionLedger()
        b = TransmissionLedger()
        a.charge(Packet(kind=PacketKind.ACK, src="x", control_bytes=1))
        b.charge(Packet(kind=PacketKind.ACK, src="y", control_bytes=1))
        a.merge(b)
        assert a.total_attempts == 2
        a.reset()
        assert a.total_attempts == 0
