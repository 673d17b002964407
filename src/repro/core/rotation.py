"""Leader rotation: terminals take turns playing Alice (§3.2).

The paper's worst case — Eve overhearing everything some terminal
received — is defused by rotating the leader role: "make each terminal
receive information through multiple different channels", so Eve would
have to match every terminal's channel simultaneously.  An *experiment*
in the paper runs one protocol execution per placement; we follow suit,
rotating the leader across all terminals within the experiment and
concatenating the per-round group secrets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.estimator import EveErasureEstimator
from repro.core.metrics import ExperimentMetrics
from repro.core.round import stack_secrets
from repro.core.session import ProtocolSession, RoundResult, SessionConfig
from repro.net.medium import BroadcastMedium

__all__ = ["ExperimentResult", "run_experiment"]


@dataclass
class ExperimentResult:
    """Outcome of a full rotated experiment."""

    rounds: List[RoundResult]
    metrics: ExperimentMetrics

    @property
    def group_secret(self) -> np.ndarray:
        """Concatenated secret packets across rounds (K, payload_bytes)."""
        return stack_secrets([r.secret for r in self.rounds])

    @property
    def secret_bits(self) -> int:
        return sum(r.secret_bits for r in self.rounds)

    @property
    def reliability(self) -> float:
        return self.metrics.reliability

    @property
    def efficiency(self) -> float:
        return self.metrics.efficiency


def run_experiment(
    medium: BroadcastMedium,
    terminal_names: Sequence[str],
    estimator: EveErasureEstimator,
    rng: np.random.Generator,
    config: Optional[SessionConfig] = None,
    leaders: Optional[Sequence[str]] = None,
    eve_name: Optional[str] = "eve",
    bitrate_bps: float = 1e6,
) -> ExperimentResult:
    """Run one experiment: a full leader rotation on a fixed placement.

    Args:
        medium: broadcast domain with the nodes already placed.
        terminal_names: the group.
        estimator: Eve-erasure estimator shared by all leaders.
        rng: payload randomness.
        config: protocol parameters.
        leaders: leader order; defaults to every terminal once.
        eve_name: eavesdropper node name (None to skip leakage).
        bitrate_bps: PHY rate for the kbps figure (paper: 1 Mbps).

    Returns:
        :class:`ExperimentResult` with per-round details and aggregate
        metrics computed over the experiment's entire ledger.
    """
    session = ProtocolSession(
        medium, terminal_names, estimator, rng, config=config, eve_name=eve_name
    )
    if leaders is None:
        leaders = list(terminal_names)
    rounds = [
        session.run_round(leader, round_id=k) for k, leader in enumerate(leaders)
    ]
    secret_bits = sum(r.secret_bits for r in rounds)
    metrics = ExperimentMetrics.compute(
        [r.leakage for r in rounds],
        secret_bits,
        medium.ledger,
        bitrate_bps=bitrate_bps,
    )
    return ExperimentResult(rounds=rounds, metrics=metrics)
