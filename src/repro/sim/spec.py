"""Declarative scenario specifications for the batched engine.

A :class:`Scenario` is pure data: group size, loss process, adversary
shape, estimator policy and protocol sizing.  Scenarios are frozen
dataclasses so they can serve as cache keys, be expanded from a
:class:`~repro.sim.campaign.ScenarioGrid` cartesian product, and be
pickled to pool worker processes without carrying simulator state.

Loss specs own their *sampling law*: each knows how to draw the full
``(rounds, links, packets)`` loss tensor in vectorised numpy and what
its per-link marginal loss probabilities are (the contract the tests
check against the per-packet :class:`repro.net.medium.LossModel`
counterparts).

Invariants every spec upholds (the engine and bridges rely on them):

* **Link order.**  A scenario with ``n`` terminals and an adversary
  with ``k`` antennas has ``(n - 1) + k`` directed links, always in
  the same order: the leader's ``n - 1`` fellow receivers first (in
  placement/name order), then the adversary's antenna columns — her
  primary vantage followed by any extra cells in the order given.
  :func:`repro.sim.reception.sample_receptions` splits the tensor on
  exactly that boundary and unions Eve's trailing ``k`` columns into
  one capture bit per packet.  Specs that carry explicit per-link
  entries (:class:`MatrixLossSpec`, :class:`ScheduleLossSpec`) demand
  an *exact* width match — slicing a wider table would silently hand
  Eve a receiver's probabilities.
* **Loss tensor axes.**  ``sample_losses`` returns bool
  ``(rounds, n_links, n_packets)``, True where the copy is LOST; the
  packet axis is transmission order, which is what lets
  :class:`ScheduleLossSpec` tile its ``(n_patterns, n_links)`` table
  across packets (packet ``j`` airs in slot ``phase + j``; all links
  share a slot's pattern, so jamming hits them simultaneously).
* **Planning marginals.**  ``planning_loss`` feeds the allocation LP
  and averages *receiver* links only — Eve's trailing columns must
  never bias the plan.
* **Seed streams.**  Specs are pure data and never hold generators; a
  spec draws only from the ``rng`` it is handed, in a single
  vectorised pass per batch.  Campaign runners hand each scenario
  cell / experiment its own ``SeedSequence``-spawned generator
  (:mod:`repro.sim.campaign`,
  ``repro.analysis.experiments._experiment_seed_sequence``), which is
  what makes sharded campaigns bit-identical to serial ones.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "LossSpec",
    "IIDLossSpec",
    "MatrixLossSpec",
    "ScheduleLossSpec",
    "GilbertElliottLossSpec",
    "AdversarySpec",
    "EstimatorSpec",
    "OracleEstimatorSpec",
    "FixedFractionEstimatorSpec",
    "LeaveOneOutEstimatorSpec",
    "CollusionEstimatorSpec",
    "CombinedEstimatorSpec",
    "Scenario",
]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


class LossSpec(abc.ABC):
    """A vectorisable packet-loss law for a set of directed links."""

    @abc.abstractmethod
    def sample_losses(
        self, rounds: int, n_links: int, n_packets: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw the loss tensor: bool ``(rounds, n_links, n_packets)``,
        True where the copy on that link is LOST."""

    @abc.abstractmethod
    def link_loss_probabilities(self, n_links: int) -> np.ndarray:
        """Marginal loss probability per link, shape ``(n_links,)``."""

    def planning_loss(self, n_links: int) -> float:
        """The symmetric erasure probability the allocation LP plans
        for: the mean marginal across links."""
        return float(np.mean(self.link_loss_probabilities(n_links)))


@dataclass(frozen=True)
class IIDLossSpec(LossSpec):
    """Every link loses every packet independently with probability p
    (the batched counterpart of :class:`repro.net.medium.IIDLossModel`)."""

    p: float

    def __post_init__(self) -> None:
        _check_probability("p", self.p)

    def sample_losses(self, rounds, n_links, n_packets, rng) -> np.ndarray:
        return rng.random((rounds, n_links, n_packets)) < self.p

    def link_loss_probabilities(self, n_links: int) -> np.ndarray:
        return np.full(n_links, self.p)


@dataclass(frozen=True)
class MatrixLossSpec(LossSpec):
    """Per-link loss probabilities (counterpart of
    :class:`repro.net.medium.MatrixLossModel`).

    ``probabilities`` is ordered like the engine's link order: the
    ``n - 1`` receiver links first, then the adversary's antennas (when
    the adversary does not override its own loss law).
    """

    probabilities: tuple

    def __post_init__(self) -> None:
        for value in self.probabilities:
            _check_probability("link loss probability", value)

    def sample_losses(self, rounds, n_links, n_packets, rng) -> np.ndarray:
        p = self.link_loss_probabilities(n_links)
        return rng.random((rounds, n_links, n_packets)) < p[None, :, None]

    def link_loss_probabilities(self, n_links: int) -> np.ndarray:
        # Exact match required: the last entry is Eve's antenna, so
        # slicing a longer tuple would silently hand Eve a receiver's
        # probability and drop her real one.
        if len(self.probabilities) != n_links:
            raise ValueError(
                f"spec lists {len(self.probabilities)} link probabilities, "
                f"scenario needs exactly {n_links}"
            )
        return np.asarray(self.probabilities, dtype=float)

    def planning_loss(self, n_links: int) -> float:
        """Mean over the first ``n_links`` entries — the receiver links.

        The engine plans on the terminals' channel quality only; Eve's
        trailing antenna entries must not bias the allocation LP.
        """
        if len(self.probabilities) < n_links:
            raise ValueError(
                f"spec lists {len(self.probabilities)} link probabilities, "
                f"planning needs at least {n_links}"
            )
        return float(np.mean(np.asarray(self.probabilities[:n_links], dtype=float)))


@dataclass(frozen=True)
class ScheduleLossSpec(LossSpec):
    """Slot-aware loss under a rotating interference schedule.

    The testbed's artificial interference cycles through noise patterns,
    each held for ``slots_per_pattern`` transmission slots; a link's loss
    probability depends on which pattern is up when the packet airs.
    This spec carries the full per-pattern per-link table and samples it
    by tiling the pattern axis across the packet axis — packet ``k`` of
    a round airs in slot ``phase + k`` (x-packets go out back-to-back in
    the per-packet engine, so consecutive packets share a dwell), which
    is exactly the slot-level burstiness the pattern-averaged
    :class:`MatrixLossSpec` bridge erased.

    Attributes:
        pattern_probabilities: nested tuple, shape ``(n_patterns,
            n_links)`` — loss probability of each link while each
            pattern is active.  Link order follows the engine
            convention: receiver links first, then Eve's antenna.
        slots_per_pattern: transmission slots per pattern dwell.
        random_phase: when True (default), each round starts at an
            independent uniformly-random point of the schedule period,
            making rounds exchangeable and the per-link marginal exactly
            the pattern-mean; False pins every round to phase 0
            (deterministic tiling, used by unit tests).
    """

    pattern_probabilities: tuple
    slots_per_pattern: int = 1
    random_phase: bool = True

    def __post_init__(self) -> None:
        if self.slots_per_pattern < 1:
            raise ValueError("slots_per_pattern must be at least 1")
        if not self.pattern_probabilities:
            raise ValueError("need at least one pattern")
        width = len(self.pattern_probabilities[0])
        for row in self.pattern_probabilities:
            if len(row) != width:
                raise ValueError("pattern rows must list the same links")
            for value in row:
                _check_probability("pattern loss probability", value)

    @property
    def n_patterns(self) -> int:
        return len(self.pattern_probabilities)

    def table(self) -> np.ndarray:
        """The ``(n_patterns, n_links)`` probability table as an array."""
        return np.asarray(self.pattern_probabilities, dtype=float)

    def _checked_table(self, n_links: int) -> np.ndarray:
        table = self.table()
        # Exact match required, like MatrixLossSpec: the last column is
        # Eve's antenna, so slicing a wider table would silently hand
        # Eve a receiver's probabilities.
        if table.shape[1] != n_links:
            raise ValueError(
                f"spec lists {table.shape[1]} links per pattern, "
                f"scenario needs exactly {n_links}"
            )
        return table

    def sample_losses(self, rounds, n_links, n_packets, rng) -> np.ndarray:
        table = self._checked_table(n_links)
        n_patterns = table.shape[0]
        period = n_patterns * self.slots_per_pattern
        if self.random_phase:
            phase = rng.integers(0, period, size=rounds)
        else:
            phase = np.zeros(rounds, dtype=np.int64)
        slots = phase[:, None] + np.arange(n_packets)[None, :]
        pattern_idx = (slots // self.slots_per_pattern) % n_patterns
        # (rounds, n_packets, n_links) -> engine's (rounds, links, packets).
        # All links share a slot's pattern: jamming hits simultaneously.
        p = np.moveaxis(table[pattern_idx], 2, 1)
        return rng.random((rounds, n_links, n_packets)) < p

    def link_loss_probabilities(self, n_links: int) -> np.ndarray:
        """Pattern-mean marginal per link (exact under ``random_phase``)."""
        return self._checked_table(n_links).mean(axis=0)

    def planning_loss(self, n_links: int) -> float:
        """Pattern-mean over the first ``n_links`` (receiver) columns.

        Like :meth:`MatrixLossSpec.planning_loss`: the allocation LP
        plans on the terminals' channel quality only, so Eve's trailing
        column must not bias it.
        """
        table = self.table()
        if table.shape[1] < n_links:
            raise ValueError(
                f"spec lists {table.shape[1]} links per pattern, "
                f"planning needs at least {n_links}"
            )
        return float(table[:, :n_links].mean())


@dataclass(frozen=True)
class GilbertElliottLossSpec(LossSpec):
    """Two-state bursty erasures, one independent chain per link
    (counterpart of :class:`repro.net.channel.GilbertElliottChannel`
    behind a :class:`repro.net.medium.ChannelLossModel`).

    The chain starts in its stationary distribution so every packet
    position shares the steady-state marginal
    ``(p_b2g p_good + p_g2b p_bad) / (p_g2b + p_b2g)``.
    """

    p_g2b: float
    p_b2g: float
    p_good: float = 0.0
    p_bad: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_g2b", "p_b2g", "p_good", "p_bad"):
            _check_probability(name, getattr(self, name))

    def steady_state_bad(self) -> float:
        total = self.p_g2b + self.p_b2g
        if total == 0.0:
            return 0.0
        return self.p_g2b / total

    def steady_state_loss(self) -> float:
        bad = self.steady_state_bad()
        return bad * self.p_bad + (1.0 - bad) * self.p_good

    def sample_losses(self, rounds, n_links, n_packets, rng) -> np.ndarray:
        # One Markov chain per (round, link); the packet axis is the
        # only sequential dependency, so iterate it on (rounds, links)
        # planes — N steps of vectorised work instead of B*L*N draws.
        bad = rng.random((rounds, n_links)) < self.steady_state_bad()
        lost = np.empty((rounds, n_links, n_packets), dtype=bool)
        for k in range(n_packets):
            p_loss = np.where(bad, self.p_bad, self.p_good)
            lost[:, :, k] = rng.random((rounds, n_links)) < p_loss
            flip = rng.random((rounds, n_links))
            bad = np.where(bad, flip >= self.p_b2g, flip < self.p_g2b)
        return lost

    def link_loss_probabilities(self, n_links: int) -> np.ndarray:
        return np.full(n_links, self.steady_state_loss())


@dataclass(frozen=True)
class AdversarySpec:
    """Eve's shape: how many antennas, and (optionally) her own loss law.

    Attributes:
        antennas: independent receive antennas; Eve captures a packet
            when *any* antenna does (the multi-antenna model of the
            paper's §3.3 sketch and examples/multiantenna_eve.py).
        loss: when set, every antenna loses i.i.d. at this probability
            instead of following the scenario's loss spec — models an
            adversary at a different vantage than the terminals.
    """

    antennas: int = 1
    loss: Optional[float] = None

    def __post_init__(self) -> None:
        if self.antennas < 1:
            raise ValueError("Eve needs at least one antenna")
        if self.loss is not None:
            _check_probability("adversary loss", self.loss)


class EstimatorSpec:
    """Marker base for declarative estimator policies (data only; the
    budget arithmetic lives in :mod:`repro.sim.engine`)."""


@dataclass(frozen=True)
class OracleEstimatorSpec(EstimatorSpec):
    """Ground truth: budgets equal Eve's actual misses per pool."""


@dataclass(frozen=True)
class FixedFractionEstimatorSpec(EstimatorSpec):
    """Artificial-interference guarantee: Eve misses >= ``fraction`` of
    any packet set."""

    fraction: float

    def __post_init__(self) -> None:
        _check_probability("fraction", self.fraction)


@dataclass(frozen=True)
class LeaveOneOutEstimatorSpec(EstimatorSpec):
    """Worst pretend-Eve miss *rate* among terminals outside the block's
    decodable subset, minus a safety margin."""

    rate_margin: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("rate_margin", self.rate_margin)


@dataclass(frozen=True)
class CollusionEstimatorSpec(EstimatorSpec):
    """Every k-subset of eligible terminals jointly plays Eve; budgets
    use the worst union miss rate."""

    k: int
    rate_margin: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        _check_probability("rate_margin", self.rate_margin)


@dataclass(frozen=True)
class CombinedEstimatorSpec(EstimatorSpec):
    """Most conservative answer across child policies (the deployment
    pairing: interference guarantee + leave-one-out)."""

    children: tuple

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("need at least one child estimator")
        for child in self.children:
            if not isinstance(child, EstimatorSpec):
                raise TypeError(f"{child!r} is not an EstimatorSpec")


@dataclass(frozen=True)
class Scenario:
    """One cell of a campaign matrix: everything a batch needs.

    Attributes:
        n_terminals: group size n (leader + n-1 receivers).
        loss: the packet-loss law for the broadcast links.
        adversary: Eve's antenna count / vantage.
        estimator: the budget policy (mirrors repro.core.estimator).
        n_x_packets: N, x-packets per round.
        rounds: Monte-Carlo rounds to simulate for this cell.
        payload_bytes: symbols per packet (bit accounting only).
        z_cost_factor: z-packet airtime weight in the allocation LP.
        secrecy_slack: withheld dimensions per phase-2 chunk.
        max_subset_size: cap on decodable-set size, mirroring
            SessionConfig.max_subset_size; None = unrestricted.
        name: optional label for reports.
    """

    n_terminals: int
    loss: LossSpec
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    estimator: EstimatorSpec = field(default_factory=OracleEstimatorSpec)
    n_x_packets: int = 90
    rounds: int = 100
    payload_bytes: int = 100
    z_cost_factor: float = 1.0
    secrecy_slack: int = 0
    max_subset_size: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.n_terminals < 2:
            raise ValueError("need at least two terminals")
        if self.n_x_packets < 1:
            raise ValueError("need at least one x-packet")
        if self.rounds < 1:
            raise ValueError("need at least one round")
        if self.payload_bytes < 1:
            raise ValueError("payloads must be non-empty")
        if self.z_cost_factor <= 0:
            raise ValueError("z_cost_factor must be positive")
        if self.secrecy_slack < 0:
            raise ValueError("secrecy_slack must be non-negative")
        if self.max_subset_size is not None and self.max_subset_size < 1:
            raise ValueError("max_subset_size must be positive (or None)")

    @property
    def n_receivers(self) -> int:
        return self.n_terminals - 1

    def label(self) -> str:
        if self.name:
            return self.name
        return (
            f"n={self.n_terminals} loss={self.loss!r} "
            f"est={type(self.estimator).__name__}"
        )
