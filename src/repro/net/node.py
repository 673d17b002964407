"""Nodes: terminals and eavesdroppers.

A :class:`Node` is a named radio at a position.  :class:`Terminal` keeps
the reception log the protocol feeds on (x-id -> payload per round);
:class:`Eavesdropper` does the same but may listen through *multiple
antennas* (positions) — the paper's §6 threat model — receiving a packet
when any antenna captures it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["Node", "Terminal", "Eavesdropper"]


@dataclass
class Node:
    """A named radio at a 2-D position (metres)."""

    name: str
    position: tuple = (0.0, 0.0)

    def antenna_positions(self) -> list:
        """Positions this node listens from (one, for plain nodes)."""
        return [self.position]


@dataclass
class Terminal(Node):
    """A protocol participant.

    ``received`` maps round id -> {x-id: payload} and is filled in by the
    medium on successful deliveries of X_DATA packets.
    """

    received: dict = field(default_factory=dict)

    def record(self, round_id: int, x_id: int, payload: np.ndarray) -> None:
        self.received.setdefault(round_id, {})[x_id] = payload

    def received_ids(self, round_id: int) -> set:
        return set(self.received.get(round_id, {}))

    def received_payloads(self, round_id: int) -> dict:
        return dict(self.received.get(round_id, {}))

    def clear(self) -> None:
        self.received.clear()


@dataclass
class Eavesdropper(Node):
    """Eve: a passive adversary, possibly with several antennas.

    ``extra_antennas`` lists additional listening positions; a packet is
    captured when *any* antenna receives it.  ``received`` mirrors the
    Terminal log so the exact-leakage engine can consume it.
    """

    extra_antennas: list = field(default_factory=list)
    received: dict = field(default_factory=dict)

    def antenna_positions(self) -> list:
        return [self.position] + list(self.extra_antennas)

    def record(self, round_id: int, x_id: int, payload: Optional[np.ndarray]) -> None:
        self.received.setdefault(round_id, {})[x_id] = payload

    def received_ids(self, round_id: int) -> set:
        return set(self.received.get(round_id, {}))

    def clear(self) -> None:
        self.received.clear()
