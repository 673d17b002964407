"""The round core: what one protocol round computes, with no I/O.

A round of the paper's §3 runs x-broadcast, reception reports,
y-identities, z-contents, s-map.  How packets travel is the caller's
business (a medium in :class:`repro.core.session.ProtocolSession`,
frames in :mod:`repro.service.engine`); what they carry is computed
here, once.  :func:`plan_round` is the leader's side: allocation,
phase-2 maps, y- and z-values, secret and exact leakage.
:func:`terminal_secret` is a receiver's: decode, recover, s-map.
Nothing here draws randomness, so a caller's random streams do not
depend on where it calls the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.coding.privacy import (
    GroupCodingPlan,
    YAllocation,
    build_phase2_matrices,
    plan_y_allocation,
)
from repro.coding.reconcile import (
    assemble_secret,
    decode_y_from_x,
    recover_missing_y,
)
from repro.core.estimator import EveErasureEstimator, RoundContext
from repro.core.eve import LeakageReport, round_leakage
from repro.gf.linalg import GFMatrix

__all__ = [
    "SessionConfig",
    "PlannedRound",
    "plan_round",
    "terminal_secret",
    "stack_secrets",
]


@dataclass(frozen=True)
class SessionConfig:
    """Per-session protocol parameters.

    Attributes:
        n_x_packets: N, x-packets per round (paper example: tens to
            hundreds; default chosen so one round rotates through all 9
            interference patterns at the testbed's default dwell).
        payload_bytes: symbols per packet (paper: 100 bytes = 800 bits).
        max_attempts: reliable-broadcast retry bound.
    """

    n_x_packets: int = 90
    payload_bytes: int = 100
    max_attempts: int = 400
    #: Cap on combination-block decodable-set size; None = unrestricted.
    #: Empirical estimators prefer small caps (see the estimator
    #: granularity ablation), schedule-based ones handle any order.
    max_subset_size: Optional[int] = None
    #: Secret dimensions withheld per phase-2 chunk to absorb estimator
    #: error (see repro.coding.privacy.build_phase2_matrices).
    secrecy_slack: int = 0
    #: Idle slots before each reliable-broadcast retry, letting rotating
    #: interference dwells pass (free in the bit-count metric).
    control_backoff_slots: int = 5
    #: Relative airtime cost of one z-packet in the allocation objective.
    z_cost_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.n_x_packets < 1:
            raise ValueError("need at least one x-packet")
        if self.payload_bytes < 1:
            raise ValueError("payloads must be non-empty")


@dataclass(frozen=True)
class PlannedRound:
    """The leader's side of one round; ``z_values`` holds one
    ``(n_public, payload_bytes)`` array per chunk of ``plan``."""

    allocation: YAllocation
    plan: GroupCodingPlan
    y_values: np.ndarray
    z_values: List[np.ndarray]
    secret: np.ndarray
    leakage: LeakageReport


def plan_round(
    leader: str,
    reports: Mapping[str, Set[int]],
    estimator: EveErasureEstimator,
    eve_received: FrozenSet[int],
    x_slots: Mapping[int, int],
    payloads: np.ndarray,
    config: SessionConfig,
) -> PlannedRound:
    """Plan a round from the reports and the leader's ``(N,
    payload_bytes)`` payloads.  ``eve_received`` (empty when Eve is not
    modelled) feeds the oracle estimator and the leakage; ``x_slots``
    maps x-ids to send slots for schedule-aware estimators."""
    estimator.begin_round(
        RoundContext(
            leader=leader,
            reports=reports,
            n_packets=config.n_x_packets,
            eve_received=eve_received,
            x_slots=x_slots,
        )
    )
    allocation = plan_y_allocation(
        reports,
        estimator.budget,
        overhead_packets=config.n_x_packets,
        max_subset_size=config.max_subset_size,
        z_cost_factor=config.z_cost_factor,
    )
    plan = build_phase2_matrices(allocation, secrecy_slack=config.secrecy_slack)
    width = payloads.shape[1]
    if allocation.total_rows:
        y_values = np.vstack(
            [
                (block.matrix @ GFMatrix(payloads[list(block.support)])).data
                for block in allocation.blocks
            ]
        )
    else:
        y_values = np.zeros((0, width), dtype=np.uint8)
    z_values = [
        (chunk.z_matrix @ GFMatrix(y_values[list(chunk.y_rows)])).data
        if chunk.n_public
        else np.zeros((0, width), dtype=np.uint8)
        for chunk in plan.chunks
    ]
    secret = assemble_secret(
        plan, {g: y_values[g] for g in range(allocation.total_rows)}
    )
    leakage = round_leakage(
        allocation, plan, eve_received, list(range(config.n_x_packets))
    )
    return PlannedRound(allocation, plan, y_values, z_values, secret, leakage)


def terminal_secret(
    allocation: YAllocation,
    plan: GroupCodingPlan,
    terminal: str,
    received: Mapping[int, np.ndarray],
    z_values: Sequence[np.ndarray],
) -> np.ndarray:
    """``terminal``'s copy of the secret from its ``received`` x-id ->
    payload map and the per-chunk z-values.  Raises ValueError or
    KeyError when the plan and the inputs do not fit together."""
    known = decode_y_from_x(allocation, terminal, received)
    full: Dict[int, np.ndarray] = {}
    for chunk, z in zip(plan.chunks, z_values):
        full.update(recover_missing_y(chunk, known, z))
    return assemble_secret(plan, full)


def stack_secrets(pieces: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate per-round secrets; shape (0, 0) when nothing agreed."""
    real = [np.asarray(p, dtype=np.uint8) for p in pieces if np.asarray(p).size]
    if not real:
        return np.zeros((0, 0), dtype=np.uint8)
    return np.vstack(real)
