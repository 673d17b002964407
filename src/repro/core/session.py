"""One protocol round: both phases, end to end, on a broadcast medium.

:class:`ProtocolSession` orchestrates the paper's §3 algorithm:

Phase 1 (pair-wise secrets)
    1. The leader ("Alice") transmits N x-packets of random symbols.
    2. Every other terminal reliably broadcasts a reception report.
    3. The leader plans the y-combinations (via
       :func:`repro.coding.privacy.plan_y_allocation`, budgeted by the
       configured estimator) and reliably broadcasts their *identities*.
    4. Each terminal reconstructs the y-packets its report entitles it to.

Phase 2 (group secret)
    1. The leader reliably broadcasts the *contents* of the z-packets
       (and the phase-2 descriptor).
    2. Each terminal solves for its missing y-packets.
    3. The s-identities are implicit in the descriptor; every terminal
       applies the s-map.
    4. All terminals now hold the same L s-packets: the group secret.

What each step computes comes from the round core
(:mod:`repro.core.round`): :func:`~repro.core.round.plan_round` is the
leader's side and :func:`~repro.core.round.terminal_secret` each
receiver's, the same functions the live service engines call.  This
module moves the packets: it broadcasts over the medium, in protocol
order, what the core computed.

The session runs all parties honestly but keeps their information sets
separate: terminals decode exclusively from their own receptions plus
broadcast identities, and a defensive check verifies every terminal
derived the identical secret.  Eve's knowledge is *accounted*, not
simulated: every reliably broadcast byte is assumed heard by her (the
paper's conservative model) and her over-the-air captures are recorded
by the medium, feeding :func:`repro.core.eve.round_leakage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

import numpy as np

from repro.coding.privacy import GroupCodingPlan, YAllocation
from repro.core.estimator import EveErasureEstimator
from repro.core.eve import LeakageReport
from repro.core.messages import (
    BlockDescriptorSet,
    Phase2Descriptor,
    ReceptionReport,
    z_content_overhead_bytes,
)
from repro.core.round import SessionConfig, plan_round, terminal_secret
from repro.net.medium import BroadcastMedium
from repro.net.node import Eavesdropper, Terminal
from repro.net.packet import Packet, PacketKind
from repro.net.reliable import reliable_broadcast

__all__ = ["SessionConfig", "RoundResult", "ProtocolSession", "ProtocolError"]


class ProtocolError(RuntimeError):
    """An invariant the protocol guarantees was violated."""


@dataclass
class RoundResult:
    """Everything observable about one completed round."""

    leader: str
    round_id: int
    n_x_packets: int
    reports: Dict[str, Set[int]]
    allocation: YAllocation
    plan: GroupCodingPlan
    secret: np.ndarray  # (L, payload_bytes)
    leakage: LeakageReport
    eve_received_ids: FrozenSet[int]

    @property
    def secret_packets(self) -> int:
        return int(self.secret.shape[0])

    @property
    def secret_bits(self) -> int:
        return int(self.secret.size) * 8


class ProtocolSession:
    """Runs protocol rounds for a fixed group on a fixed medium.

    Args:
        medium: the broadcast domain (terminals + at most one Eve).
        terminal_names: the group, in a stable order.
        estimator: the Eve-erasure estimator (§3.3).
        rng: randomness for payload generation (channel randomness lives
            in the medium's rng; they may be the same generator).
        config: protocol parameters.
        eve_name: the eavesdropper's node name, or None when the medium
            has no Eve (pure functionality tests).
    """

    def __init__(
        self,
        medium: BroadcastMedium,
        terminal_names: Sequence[str],
        estimator: EveErasureEstimator,
        rng: np.random.Generator,
        config: Optional[SessionConfig] = None,
        eve_name: Optional[str] = "eve",
    ) -> None:
        if len(terminal_names) < 2:
            raise ValueError("the protocol needs at least two terminals")
        for name in terminal_names:
            node = medium.node(name)
            if not isinstance(node, Terminal):
                raise TypeError(f"{name!r} is not a Terminal")
        if eve_name is not None and eve_name in medium.nodes:
            if not isinstance(medium.node(eve_name), Eavesdropper):
                raise TypeError(f"{eve_name!r} is not an Eavesdropper")
        else:
            eve_name = None
        self.medium = medium
        self.terminal_names = list(terminal_names)
        self.estimator = estimator
        self.rng = rng
        self.config = config if config is not None else SessionConfig()
        self.eve_name = eve_name

    # -- phase 1 -------------------------------------------------------

    def _broadcast_x_packets(
        self, leader: str, round_id: int
    ) -> Tuple[np.ndarray, Dict[int, int]]:
        cfg = self.config
        payloads = self.rng.integers(
            0, 256, size=(cfg.n_x_packets, cfg.payload_bytes), dtype=np.uint8
        )
        eve = self.medium.node(self.eve_name) if self.eve_name else None
        x_slots: Dict[int, int] = {}
        for x_id in range(cfg.n_x_packets):
            packet = Packet(
                kind=PacketKind.X_DATA,
                src=leader,
                payload=payloads[x_id],
                meta={"x_id": x_id, "round": round_id},
            )
            x_slots[x_id] = self.medium.time
            got = self.medium.transmit(leader, packet, round_id=round_id)
            for name in got:
                node = self.medium.nodes[name]
                if isinstance(node, Terminal) and name in self.terminal_names:
                    node.record(round_id, x_id, payloads[x_id])
                elif eve is not None and name == self.eve_name:
                    eve.record(round_id, x_id, payloads[x_id])
        return payloads, x_slots

    def _collect_reports(
        self, leader: str, round_id: int
    ) -> Dict[str, Set[int]]:
        cfg = self.config
        reports: Dict[str, Set[int]] = {}
        receivers = [t for t in self.terminal_names if t != leader]
        for name in receivers:
            node = self.medium.node(name)
            received = frozenset(node.received_ids(round_id))
            report = ReceptionReport(
                round_id=round_id,
                terminal=name,
                received_ids=received,
                n_packets=cfg.n_x_packets,
            )
            packet = Packet(
                kind=PacketKind.FEEDBACK,
                src=name,
                control_bytes=report.body_bytes(),
                meta={"round": round_id},
            )
            self._reliable(packet, round_id)
            reports[name] = set(received)
        return reports

    def _reliable(self, packet: Packet, round_id: int) -> None:
        """Reliably broadcast ``packet`` to the group's other terminals."""
        reliable_broadcast(
            self.medium,
            packet.src,
            packet,
            [t for t in self.terminal_names if t != packet.src],
            round_id=round_id,
            max_attempts=self.config.max_attempts,
            backoff_slots=self.config.control_backoff_slots,
        )

    # -- the round -------------------------------------------------------

    def _reset_round_logs(self, round_id: int) -> None:
        """Drop stale receptions for ``round_id``.

        Consecutive experiments on one medium (continuous key refresh)
        reuse round ids; packets recorded under the same id in an
        earlier execution must not contaminate this round's reports.
        """
        for name in self.terminal_names:
            self.medium.node(name).received.pop(round_id, None)
        if self.eve_name:
            self.medium.node(self.eve_name).received.pop(round_id, None)

    def run_round(self, leader: str, round_id: int = 0) -> RoundResult:
        """Execute one full round with ``leader`` as Alice."""
        if leader not in self.terminal_names:
            raise ValueError(f"{leader!r} is not in the group")
        cfg = self.config
        self._reset_round_logs(round_id)

        # Phase 1, step 1: x-packets over the lossy broadcast channel.
        payloads, x_slots = self._broadcast_x_packets(leader, round_id)
        # Phase 1, step 2: reception reports (reliable).
        reports = self._collect_reports(leader, round_id)
        # Phase 1, step 3 to phase 2, step 4: the round core plans the
        # y-identities, the phase-2 maps and the z-contents; the
        # broadcasts follow in protocol order.
        eve_received = (
            frozenset(self.medium.node(self.eve_name).received_ids(round_id))
            if self.eve_name
            else frozenset()
        )
        planned = plan_round(
            leader, reports, self.estimator, eve_received, x_slots, payloads, cfg
        )
        for descriptor in (
            BlockDescriptorSet.from_allocation(round_id, planned.allocation),
            Phase2Descriptor.from_plan(round_id, planned.plan),
        ):
            packet = Packet(
                kind=PacketKind.DESCRIPTOR,
                src=leader,
                control_bytes=descriptor.body_bytes(),
                meta={"round": round_id},
            )
            self._reliable(packet, round_id)
        for chunk_idx, z_vals in enumerate(planned.z_values):
            for row, z in enumerate(z_vals):
                packet = Packet(
                    kind=PacketKind.Z_CONTENT,
                    src=leader,
                    payload=z,
                    control_bytes=z_content_overhead_bytes(),
                    meta={"round": round_id, "chunk": chunk_idx, "z_row": row},
                )
                self._reliable(packet, round_id)

        # Every receiver decodes from its own receptions and the
        # broadcasts alone, and must reach the leader's secret.
        for name in reports:
            received = self.medium.node(name).received_payloads(round_id)
            secret = terminal_secret(
                planned.allocation, planned.plan, name, received, planned.z_values
            )
            if not np.array_equal(secret, planned.secret):
                raise ProtocolError(
                    f"terminal {name} derived a different secret than the leader"
                )

        return RoundResult(
            leader=leader,
            round_id=round_id,
            n_x_packets=cfg.n_x_packets,
            reports=reports,
            allocation=planned.allocation,
            plan=planned.plan,
            secret=planned.secret,
            leakage=planned.leakage,
            eve_received_ids=eve_received,
        )
