"""The broadcast medium: one transmission, many receivers.

:class:`BroadcastMedium` owns the node set, a :class:`LossModel`, the
shared RNG and the :class:`~repro.net.trace.TransmissionLedger`.  A call
to :meth:`BroadcastMedium.transmit` charges the ledger once and samples,
independently per listener (and per eavesdropper antenna), whether the
packet arrived — the defining property of a wireless broadcast channel
that the whole protocol exploits.

Loss models are strategies so the same medium drives both the abstract
(i.i.d. links) and the physical (SINR + interference) deployments.
"""

from __future__ import annotations

import abc
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.net.channel import ErasureChannel
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.trace import TransmissionLedger

__all__ = ["LossModel", "IIDLossModel", "MatrixLossModel", "ChannelLossModel", "BroadcastMedium"]


class LossModel(abc.ABC):
    """Decides the fate of a packet on a directed (src, antenna) link."""

    @abc.abstractmethod
    def lost_at(
        self,
        src: Node,
        position: tuple,
        dst: Node,
        packet: Packet,
        slot: int,
        rng: np.random.Generator,
    ) -> bool:
        """True when the copy aimed at ``position`` of ``dst`` is lost."""

    def lost(
        self, src: Node, dst: Node, packet: Packet, slot: int, rng: np.random.Generator
    ) -> bool:
        """True when *no* antenna of ``dst`` captures the packet."""
        return all(
            self.lost_at(src, pos, dst, packet, slot, rng)
            for pos in dst.antenna_positions()
        )


class IIDLossModel(LossModel):
    """Every link loses every packet independently with probability p."""

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        self.p = p

    def lost_at(self, src, position, dst, packet, slot, rng) -> bool:
        return bool(rng.random() < self.p)


class MatrixLossModel(LossModel):
    """Per-directed-link loss probabilities with a default fallback.

    Args:
        probabilities: mapping (src_name, dst_name) -> loss probability.
        default: probability for unlisted links.
    """

    def __init__(self, probabilities: Mapping, default: float = 0.0) -> None:
        for value in list(probabilities.values()) + [default]:
            if not 0.0 <= value <= 1.0:
                raise ValueError("loss probabilities must be in [0, 1]")
        self.probabilities = dict(probabilities)
        self.default = default

    def lost_at(self, src, position, dst, packet, slot, rng) -> bool:
        p = self.probabilities.get((src.name, dst.name), self.default)
        return bool(rng.random() < p)


class ChannelLossModel(LossModel):
    """Per-directed-link stateful erasure channels (e.g. Gilbert-Elliott).

    Args:
        channels: mapping (src_name, dst_name) -> ErasureChannel.
        default_factory: builds a channel for unlisted links on demand.
    """

    def __init__(self, channels: Mapping, default_factory=None) -> None:
        self.channels = dict(channels)
        self.default_factory = default_factory

    def lost_at(self, src, position, dst, packet, slot, rng) -> bool:
        key = (src.name, dst.name)
        channel: Optional[ErasureChannel] = self.channels.get(key)
        if channel is None:
            if self.default_factory is None:
                return False
            channel = self.default_factory()
            self.channels[key] = channel
        return channel.erased(rng)


class BroadcastMedium:
    """A shared wireless broadcast domain.

    Args:
        nodes: every radio in the domain (terminals and eavesdroppers).
        loss_model: the erasure strategy.
        rng: source of all randomness (inject for reproducibility).
        ledger: transmission accounting; a fresh one is created if absent.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        loss_model: LossModel,
        rng: np.random.Generator,
        ledger: Optional[TransmissionLedger] = None,
    ) -> None:
        self.nodes: dict = {}
        for node in nodes:
            if node.name in self.nodes:
                raise ValueError(f"duplicate node name {node.name!r}")
            self.nodes[node.name] = node
        self.loss_model = loss_model
        self.rng = rng
        self.ledger = ledger if ledger is not None else TransmissionLedger()
        #: Monotone transmission counter; loss models with time-varying
        #: state (rotating interference patterns) key off it.
        self.time = 0

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def advance(self, slots: int) -> None:
        """Let time pass without transmitting (backoff, idle waiting).

        Only transmitted bits cost anything in the paper's efficiency
        metric, so waiting out an interference dwell before a retry is
        free — exactly what a CSMA backoff would do.
        """
        if slots < 0:
            raise ValueError("cannot advance time backwards")
        self.time += slots

    def transmit(
        self,
        src_name: str,
        packet: Packet,
        slot: Optional[int] = None,
        round_id: int = 0,
        charge: bool = True,
    ) -> set:
        """Broadcast one packet; returns the names of nodes that got it.

        Reception is sampled independently for every other node (per
        antenna for multi-antenna eavesdroppers).  ``slot`` overrides the
        medium's internal clock (tests use this); by default the clock
        advances by one per transmission attempt, which is what rotates
        the interference schedule.  ``charge=False`` lets callers model
        free retransmissions in what-if analyses; normal protocol code
        always charges.
        """
        if src_name not in self.nodes:
            raise KeyError(f"unknown transmitter {src_name!r}")
        src = self.nodes[src_name]
        effective_slot = self.time if slot is None else slot
        if slot is None:
            self.time += 1
        if charge:
            self.ledger.charge(packet, round_id=round_id)
        received = set()
        for name, node in self.nodes.items():
            if name == src_name:
                continue
            if not self.loss_model.lost(src, node, packet, effective_slot, self.rng):
                received.add(name)
        return received
