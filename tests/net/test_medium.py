"""Broadcast medium: delivery semantics, clock, ledger, multi-antenna."""

import numpy as np
import pytest

from repro.net.channel import GilbertElliottChannel
from repro.net.medium import (
    BroadcastMedium,
    ChannelLossModel,
    IIDLossModel,
    MatrixLossModel,
)
from repro.net.node import Eavesdropper, Node, Terminal
from repro.net.packet import Packet, PacketKind


def data_packet(src="T0", nbytes=10):
    return Packet(
        kind=PacketKind.X_DATA, src=src, payload=np.zeros(nbytes, dtype=np.uint8)
    )


class TestTransmit:
    def test_source_never_receives_itself(self, make_medium):
        medium, names, _ = make_medium(loss=0.0)
        got = medium.transmit("T0", data_packet())
        assert "T0" not in got
        assert got == {"T1", "T2", "eve"}

    def test_full_loss_nobody_receives(self, make_medium):
        medium, names, _ = make_medium(loss=1.0)
        assert medium.transmit("T0", data_packet()) == set()

    def test_unknown_transmitter(self, make_medium):
        medium, _, _ = make_medium()
        with pytest.raises(KeyError):
            medium.transmit("ghost", data_packet())

    def test_duplicate_names_rejected(self, rng):
        with pytest.raises(ValueError):
            BroadcastMedium(
                [Terminal(name="a"), Terminal(name="a")], IIDLossModel(0), rng
            )

    def test_loss_rate_statistics(self, make_medium):
        medium, _, _ = make_medium(loss=0.3, seed=3)
        hits = sum(
            1 for _ in range(3000) if "T1" in medium.transmit("T0", data_packet())
        )
        assert abs(hits / 3000 - 0.7) < 0.03

    def test_per_receiver_independence(self, make_medium):
        medium, _, _ = make_medium(loss=0.5, seed=9)
        both = t1 = t2 = 0
        for _ in range(4000):
            got = medium.transmit("T0", data_packet())
            t1 += "T1" in got
            t2 += "T2" in got
            both += "T1" in got and "T2" in got
        # Independence: P(both) ~ P(T1) P(T2).
        assert abs(both / 4000 - (t1 / 4000) * (t2 / 4000)) < 0.03


class TestClock:
    def test_clock_advances_per_transmit(self, make_medium):
        medium, _, _ = make_medium()
        assert medium.time == 0
        medium.transmit("T0", data_packet())
        medium.transmit("T0", data_packet())
        assert medium.time == 2

    def test_explicit_slot_freezes_clock(self, make_medium):
        medium, _, _ = make_medium()
        medium.transmit("T0", data_packet(), slot=5)
        assert medium.time == 0

    def test_advance(self, make_medium):
        medium, _, _ = make_medium()
        medium.advance(7)
        assert medium.time == 7
        with pytest.raises(ValueError):
            medium.advance(-1)


class TestLedger:
    def test_charge_per_transmission(self, make_medium):
        medium, _, _ = make_medium()
        pkt = data_packet()
        medium.transmit("T0", pkt)
        medium.transmit("T0", pkt)
        assert medium.ledger.total_attempts == 2

    def test_no_charge_flag(self, make_medium):
        medium, _, _ = make_medium()
        medium.transmit("T0", data_packet(), charge=False)
        assert medium.ledger.total_attempts == 0


class TestLossModels:
    def test_matrix_model_per_link(self, rng):
        nodes = [Terminal(name="a"), Terminal(name="b"), Terminal(name="c")]
        model = MatrixLossModel({("a", "b"): 1.0}, default=0.0)
        medium = BroadcastMedium(nodes, model, rng)
        got = medium.transmit("a", data_packet("a"))
        assert got == {"c"}

    def test_matrix_model_validation(self):
        with pytest.raises(ValueError):
            MatrixLossModel({("a", "b"): 1.5})

    def test_channel_model_uses_stateful_channels(self, rng):
        nodes = [Terminal(name="a"), Terminal(name="b")]
        ch = GilbertElliottChannel(p_g2b=1.0, p_b2g=0.0, p_good=0.0, p_bad=1.0)
        medium = BroadcastMedium(nodes, ChannelLossModel({("a", "b"): ch}), rng)
        first = medium.transmit("a", data_packet("a"))
        second = medium.transmit("a", data_packet("a"))
        # Chain jumps to bad immediately and stays: both lost.
        assert first == set() and second == set()

    def test_channel_model_default_factory(self, rng):
        nodes = [Terminal(name="a"), Terminal(name="b")]
        medium = BroadcastMedium(
            nodes,
            ChannelLossModel({}, default_factory=lambda: GilbertElliottChannel(1.0, 0.0)),
            rng,
        )
        medium.transmit("a", data_packet("a"))
        assert ("a", "b") in medium.loss_model.channels

    def test_channel_model_no_default_delivers(self, rng):
        nodes = [Terminal(name="a"), Terminal(name="b")]
        medium = BroadcastMedium(nodes, ChannelLossModel({}), rng)
        assert medium.transmit("a", data_packet("a")) == {"b"}


class TestMultiAntenna:
    def test_any_antenna_suffices(self, rng):
        # Eve's second antenna has a perfect link while the first is dead:
        # position-keyed loss via a custom model.
        class PositionLossModel(IIDLossModel):
            def __init__(self):
                super().__init__(0.0)

            def lost_at(self, src, position, dst, packet, slot, rng):
                return position[0] < 5.0  # only the far antenna receives

        eve = Eavesdropper(name="eve", position=(0.0, 0.0), extra_antennas=[(10.0, 0.0)])
        nodes = [Terminal(name="a", position=(1.0, 1.0)), eve]
        medium = BroadcastMedium(nodes, PositionLossModel(), rng)
        assert "eve" in medium.transmit("a", data_packet("a"))

    def test_all_antennas_dead_means_loss(self, rng):
        eve = Eavesdropper(name="eve", extra_antennas=[(1.0, 1.0)])
        nodes = [Terminal(name="a"), eve]
        medium = BroadcastMedium(nodes, IIDLossModel(1.0), rng)
        assert medium.transmit("a", data_packet("a")) == set()


class TestDiagnostics:
    def test_delivery_probability_estimate(self, make_medium):
        # A delivery estimate samples the loss model with its own
        # generator, so the simulation stream and the ledger are untouched.
        medium, _, _ = make_medium(loss=0.25, seed=4)
        state = medium.rng.bit_generator.state
        probe = np.random.default_rng(5)
        src, dst = medium.node("T0"), medium.node("T1")
        delivered = sum(
            not medium.loss_model.lost(src, dst, data_packet(), 0, probe)
            for _ in range(2000)
        )
        assert abs(delivered / 2000 - 0.75) < 0.05
        assert medium.rng.bit_generator.state == state
        assert medium.ledger.total_attempts == 0

    def test_node_lookup(self, make_medium):
        medium, _, _ = make_medium()
        assert isinstance(medium.node("T0"), Node)
        with pytest.raises(KeyError):
            medium.node("nope")
