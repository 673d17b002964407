"""Batched Monte-Carlo protocol accounting: B rounds as numpy arrays.

The per-packet :class:`~repro.core.session.ProtocolSession` simulates
every transmission, retry, Cauchy block and GF solve — the ground-truth
oracle.  This engine reproduces the *statistics* the figures need
(delivery rates, secret length, z-overhead, efficiency, reliability)
for B independent rounds simultaneously:

1. **Receptions** — the whole ``(B, links, N)`` loss tensor is drawn in
   one vectorised call per loss model (:mod:`repro.sim.reception`).
   Eve's reception is the union across her antennas (multi-antenna
   adversaries included) *before* any accounting happens, exactly like
   :meth:`repro.net.medium.LossModel.lost`.
2. **Pattern histogram** — each packet's reception pattern (the subset
   of receivers that captured it) is encoded as a bitmask and the per
   round pattern counts are built with one ``bincount``.
3. **Pools** — a superset-sum (zeta) transform over the subset lattice
   turns pattern counts into ``pools[b, T]`` = packets received by all
   of ``T``, and the same transform over Eve-missed packets yields the
   oracle budgets, all as ``(B, 2^r)`` arrays.
4. **Planning** — the symmetric allocation LP is solved once per
   scenario (:func:`planning_profile`, memoized in
   :mod:`repro.theory.efficiency`); its per-level row targets, clamped
   by each round's certified budgets, set the *demand* side of the
   realised assignment.
5. **Realised assignment** — each round's demand is realised by an
   *integral* transportation max-flow on the round's observed pattern
   histogram (:func:`repro.theory.allocation.realised_support_flow`,
   sharing the flow core of :mod:`repro.solvers` with the per-packet
   session), solved once per observed-pattern key and cell: the memo
   is a dict of the cell's own, freed when the cell returns.  Supports
   are disjoint, rows are whole numbers, and shortfalls land exactly
   where the session's flow assignment would put them — no
   fractional-LP optimism at small N.
6. **Accounting** — Eve's misses *inside each realised support* are
   drawn from the exact multivariate hypergeometric law of the cell
   composition; per-round ``M_i``, ``L = min_i M_i`` (after the
   session's excess-row trim), z-overhead, the Figure-1
   efficiency ``L / (N + z)`` and the reliability of the resulting
   secret (estimator over-promises convert into rank deficit exactly
   as in :mod:`repro.core.eve`, block by disjoint block).

**One kernel.**  Steps 2-3 run in :func:`_pattern_lattice` and steps
4-6 in :func:`_account_cell`, for both callers: a single cell
(:meth:`BatchedRoundEngine.account`) and a group of cells stacked into
one reception tensor (:func:`repro.sim.stack.run_stacked_batch`, which
slices the lattice arrays per cell — every step is row-wise, so a
slice is indistinguishable from a per-cell array).  Demand
integerisation uses no randomness and runs once over all of a cell's
rounds (:func:`_integerise_rows`); the per-round loop (the cell's
plan memo, hypergeometric sampling, certification, excess-row trim)
runs on plain Python scalars and lists (:func:`_realise_fast`):
numpy's per-op dispatch dominates at subset-lattice sizes.  The memo
keeps each plan as its subsets' nonzero ``(cell index, units)`` pairs,
so the draw loop walks only the flow's nonzero entries.  Golden
digests recorded from the earlier array form of that loop
(``tests/sim/test_accounting_golden.py``) pin its results.

The engine remains a statistical model, not a bit-exact replay: it
applies leave-one-out exclusions at subset granularity using global
miss rates, and it accounts supports at histogram granularity rather
than packet identity.  The cross-validation suite pins the agreement
with the oracle under Monte-Carlo tolerance; anything sharper belongs
to the per-packet session.

Seed-stream derivation: an engine owns one
:class:`numpy.random.Generator` (constructed from ``seed`` or passed
in via ``rng``) and consumes it in a fixed order per batch — the
reception tensor first, then one hypergeometric draw per (active
subset, contributing cell) pair per round, iterated in ascending mask
order.  Campaign runners derive per-cell/per-experiment generators
from ``SeedSequence`` spawns (:mod:`repro.sim.campaign`,
:func:`repro.analysis.experiments._experiment_seed_sequence`), which is
what makes sharded campaigns bit-identical to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import floor as _floor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.coding.privacy import MAX_PHASE2_ROWS, trim_excess_rows
from repro.sim.reception import ReceptionBatch, sample_receptions
from repro.sim.spec import (
    CollusionEstimatorSpec,
    CombinedEstimatorSpec,
    EstimatorSpec,
    FixedFractionEstimatorSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    Scenario,
)
from repro.theory.allocation import count_realised_flow_hit, realised_support_flow
from repro.theory.efficiency import AllocationProfile, group_allocation_profile

__all__ = ["BatchResult", "BatchedRoundEngine", "run_batch", "planning_profile"]

_INF = float("inf")


def _superset_sums(table: np.ndarray) -> np.ndarray:
    """Zeta transform along axis 1: ``out[:, S] = sum_{P >= S} table[:, P]``
    (P ranges over bitmask supersets of S)."""
    out = table.copy()
    size = table.shape[1]
    idx = np.arange(size)
    bit = 1
    while bit < size:
        lower = idx[(idx & bit) == 0]
        out[:, lower] += out[:, lower | bit]
        bit <<= 1
    return out


def _subset_sums(table: np.ndarray) -> np.ndarray:
    """Zeta transform along axis 1: ``out[:, S] = sum_{P <= S} table[:, P]``."""
    out = table.copy()
    size = table.shape[1]
    idx = np.arange(size)
    bit = 1
    while bit < size:
        upper = idx[(idx & bit) != 0]
        out[:, upper] += out[:, upper ^ bit]
        bit <<= 1
    return out


@dataclass
class BatchResult:
    """Per-round statistics of one simulated batch (arrays of shape (B,)
    unless noted).

    ``secret_packets`` holds whole packets per round (the realised
    planner allocates integral rows, like the session); the float dtype
    and :attr:`secret_packets_int` survive for API compatibility.

    Leakage accounting (the measured-secrecy contract, mirroring
    :class:`repro.core.eve.LeakageReport` per round):

    * ``hidden_dims`` — packets of the round's secret that stay fully
      unknown to Eve after her sampled misses settle the rank deficit.
    * ``eve_equations`` — linear equations Eve observed about the
      round's x-payloads: her captured x-packets plus every public
      z-row (broadcast reliably, the paper's conservative assumption).

    Records written before these fields existed reconstruct them from
    ``reliability * secret_packets`` (an exact inverse of the engines'
    division whenever the quotient was exact, and within one ulp
    otherwise) — see ``__post_init__``.
    """

    scenario: Scenario
    secret_packets: np.ndarray
    public_packets: np.ndarray
    total_rows: np.ndarray
    efficiency: np.ndarray
    reliability: np.ndarray
    eve_missed: np.ndarray
    terminal_receptions: np.ndarray  # (B, n_receivers)
    delivery_rates: np.ndarray  # (n_receivers,)
    hidden_dims: Optional[np.ndarray] = None
    eve_equations: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.hidden_dims is None:
            secret = np.asarray(self.secret_packets, dtype=np.float64)
            rel = np.asarray(self.reliability, dtype=np.float64)
            self.hidden_dims = np.where(secret > 0.0, rel * secret, 0.0)
        if self.eve_equations is None:
            captured = self.scenario.n_x_packets - np.asarray(
                self.eve_missed, dtype=np.int64
            )
            self.eve_equations = captured + np.asarray(
                self.public_packets, dtype=np.float64
            )

    @property
    def rounds(self) -> int:
        return int(self.secret_packets.shape[0])

    @property
    def leaked_dims(self) -> np.ndarray:
        """Secret packets Eve can compute per round (0 when perfect)."""
        return np.maximum(
            np.asarray(self.secret_packets, dtype=np.float64) - self.hidden_dims,
            0.0,
        )

    @property
    def min_entropy_bits(self) -> np.ndarray:
        """Residual min-entropy of each round's secret, in bits."""
        return self.hidden_dims * (self.scenario.payload_bytes * 8)

    @property
    def total_min_entropy_bits(self) -> float:
        return float(self.min_entropy_bits.sum())

    @property
    def total_leaked_bits(self) -> float:
        return float(self.leaked_dims.sum()) * self.scenario.payload_bytes * 8

    @property
    def secret_packets_int(self) -> np.ndarray:
        return np.floor(self.secret_packets + 1e-9).astype(np.int64)

    @property
    def secret_bits(self) -> int:
        return int(self.secret_packets_int.sum()) * self.scenario.payload_bytes * 8

    @property
    def mean_efficiency(self) -> float:
        return float(np.mean(self.efficiency))

    @property
    def mean_reliability(self) -> float:
        return float(np.mean(self.reliability))

    @property
    def min_reliability(self) -> float:
        return float(np.min(self.reliability))

    def reliabilities(self) -> list:
        return [float(v) for v in self.reliability]

    def efficiencies(self) -> list:
        return [float(v) for v in self.efficiency]


class BatchedRoundEngine:
    """Simulates batches of protocol rounds for one scenario.

    Args:
        scenario: the cell to simulate.
        seed: seeds a private :class:`numpy.random.Generator`; pass an
            existing generator via ``rng`` instead to share a stream.
        rng: explicit generator (overrides ``seed``).
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if scenario.n_receivers > 16:
            raise ValueError(
                "the subset-lattice accounting is sized for n <= 17 terminals"
            )
        self.scenario = scenario
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        r = scenario.n_receivers
        self._n_subsets = 1 << r
        #: membership[S, i] — receiver i belongs to subset bitmask S.
        self._membership, self._subset_sizes, _, _ = _lattice_geometry(r)

    # -- budgets ---------------------------------------------------------

    def _certified_rates(
        self, spec: EstimatorSpec, counts: np.ndarray, miss_rates: np.ndarray
    ) -> Tuple[Optional[np.ndarray], bool]:
        """Rate-based certification per (round, subset), plus oracle flag.

        Returns ``(rates, uses_oracle)``: ``rates`` is the certified
        Eve-miss *rate* a block decodable by each subset may claim on
        any support drawn from its pool (None when the spec has no
        rate-based component), and ``uses_oracle`` says whether the
        estimator also knows Eve's exact misses (the ground-truth
        budget).  Rate evidence scales linearly with support size; the
        oracle is evaluated on the realised support itself.
        """
        if isinstance(spec, OracleEstimatorSpec):
            return None, True
        if isinstance(spec, FixedFractionEstimatorSpec):
            rates = np.full((counts.shape[0], self._n_subsets), spec.fraction)
            return rates, False
        if isinstance(spec, LeaveOneOutEstimatorSpec):
            return self._leave_one_out_rates(miss_rates, spec.rate_margin), False
        if isinstance(spec, CollusionEstimatorSpec):
            return self._collusion_rates(counts, spec), False
        if isinstance(spec, CombinedEstimatorSpec):
            rates: Optional[np.ndarray] = None
            uses_oracle = False
            for child in spec.children:
                child_rates, child_oracle = self._certified_rates(
                    child, counts, miss_rates
                )
                uses_oracle = uses_oracle or child_oracle
                if child_rates is not None:
                    rates = (
                        child_rates
                        if rates is None
                        else np.minimum(rates, child_rates)
                    )
            return rates, uses_oracle
        raise TypeError(f"unknown estimator spec {spec!r}")

    def _leave_one_out_rates(
        self, miss_rates: np.ndarray, margin: float
    ) -> np.ndarray:
        """Worst eligible pretend-Eve rate per (round, subset), where a
        block decodable by subset S may only cite receivers outside S.

        One ``np.minimum`` pass per receiver i covers every mask that
        lacks i; ``min`` is exact, so the order of the passes does not
        matter.  The full mask has no receiver outside: nothing is
        certifiable there.
        """
        rates = np.full((miss_rates.shape[0], self._n_subsets), _INF)
        for i in range(self.scenario.n_receivers):
            np.minimum(
                rates,
                miss_rates[:, i, None],
                out=rates,
                where=~self._membership[None, :, i],
            )
        rates[:, -1] = 0.0
        return np.maximum(rates - margin, 0.0)

    def _collusion_rates(
        self, counts: np.ndarray, spec: CollusionEstimatorSpec
    ) -> np.ndarray:
        """Worst union-miss rate over k-subsets of eligible receivers."""
        import itertools

        n = self.scenario.n_x_packets
        r = self.scenario.n_receivers
        full = self._n_subsets - 1
        # missed_by_all[b, C] = packets no member of bitmask C received
        #                     = sum of counts over patterns disjoint from C.
        missed_by_all = _subset_sums(counts)[:, full ^ np.arange(self._n_subsets)]
        b = counts.shape[0]
        rates = np.zeros((b, self._n_subsets))
        for s in range(self._n_subsets):
            eligible = [i for i in range(r) if not self._membership[s, i]]
            if len(eligible) < spec.k:
                continue
            worst = None
            for combo in itertools.combinations(eligible, spec.k):
                mask = 0
                for i in combo:
                    mask |= 1 << i
                rate = missed_by_all[:, mask] / n
                worst = rate if worst is None else np.minimum(worst, rate)
            rates[:, s] = worst
        return np.maximum(rates - spec.rate_margin, 0.0)

    # -- the batch -------------------------------------------------------

    def run(self, rounds: Optional[int] = None) -> BatchResult:
        """Simulate ``rounds`` rounds (default: the scenario's count)."""
        scenario = self.scenario
        b = scenario.rounds if rounds is None else int(rounds)
        if b < 1:
            raise ValueError("need at least one round")
        batch = sample_receptions(scenario, b, self.rng)
        return self.account(batch)

    def account(self, batch: ReceptionBatch) -> BatchResult:
        """Run the protocol accounting on an already-sampled batch."""
        _, r, n = batch.terminals.shape
        if r != self.scenario.n_receivers or n != self.scenario.n_x_packets:
            raise ValueError("batch shape does not match the scenario")
        return _account_cell(
            self, *_pattern_lattice(batch), batch.terminals, batch.eve
        )


def _certifiable_level_cap(scenario: Scenario, spec: EstimatorSpec) -> int:
    """Largest decodable-subset size the estimator can fund at all.

    Leave-one-out needs at least one witness terminal outside the
    subset; k-collusion needs k.  Blocks above the cap would clamp
    to zero rows anyway, so the planning LP must not allocate there
    (mirrors the per-round planner, whose LP sees the zero budgets).
    """
    r = scenario.n_receivers
    if isinstance(spec, (OracleEstimatorSpec, FixedFractionEstimatorSpec)):
        cap = r
    elif isinstance(spec, LeaveOneOutEstimatorSpec):
        cap = r - 1
    elif isinstance(spec, CollusionEstimatorSpec):
        cap = r - spec.k
    elif isinstance(spec, CombinedEstimatorSpec):
        cap = min(_certifiable_level_cap(scenario, c) for c in spec.children)
    else:
        raise TypeError(f"unknown estimator spec {spec!r}")
    if scenario.max_subset_size is not None:
        cap = min(cap, scenario.max_subset_size)
    return cap


def _planning_certified_rate(spec: EstimatorSpec, p: float) -> float:
    """Expected certified Eve-miss rate per support packet, used to
    size the planning LP's support-feasibility rows.

    The oracle certifies Eve's true rate ``p``; leave-one-out
    certifies a witness's rate minus its margin (~``p - margin``
    under symmetric channels); k-collusion certifies the union-miss
    rate ``p**k`` minus the margin; a fixed-fraction guarantee
    certifies its fraction.  Weaker rates mean each planned row
    needs proportionally more support packets.
    """
    if isinstance(spec, OracleEstimatorSpec):
        return p
    if isinstance(spec, FixedFractionEstimatorSpec):
        return spec.fraction
    if isinstance(spec, LeaveOneOutEstimatorSpec):
        return max(p - spec.rate_margin, 0.0)
    if isinstance(spec, CollusionEstimatorSpec):
        return max(p**spec.k - spec.rate_margin, 0.0)
    if isinstance(spec, CombinedEstimatorSpec):
        return min(_planning_certified_rate(child, p) for child in spec.children)
    raise TypeError(f"unknown estimator spec {spec!r}")


def planning_profile(scenario: Scenario) -> Tuple[dict, AllocationProfile]:
    """A scenario's planning LP: its arguments and its memoized solve.

    Returns ``(arguments, profile)``: the keyword arguments of
    :func:`~repro.theory.efficiency.group_allocation_profile` for the
    scenario (its planning loss, z-cost, the estimator's certifiable
    level cap and certified rate, support-feasible) and the profile
    that call returns.  The accounting kernel plans every cell with
    it, and a serial batched testbed campaign's table helper calls it
    for each leader of an upcoming placement in its forked helper
    process (:func:`repro.analysis.experiments._prefetch_table`); the
    caller adopts each profile under its arguments
    (:func:`~repro.theory.efficiency.adopt_allocation_profile`), so
    the leader's own call here is a memo hit.  A serial
    :class:`~repro.sim.CampaignRunner` calls it for every cell of a
    stacked group before it forks the group's twin
    (:func:`repro.sim.campaign._run_group_split`), so the twin inherits
    the solved profiles.
    """
    planning_loss = scenario.loss.planning_loss(scenario.n_receivers)
    arguments = dict(
        n=scenario.n_terminals,
        p=planning_loss,
        z_cost_factor=scenario.z_cost_factor,
        max_level=_certifiable_level_cap(scenario, scenario.estimator),
        support_feasible=True,
        support_rate=_planning_certified_rate(scenario.estimator, planning_loss),
    )
    return arguments, group_allocation_profile(**arguments)


def run_batch(
    scenario: Scenario,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> BatchResult:
    """One-call convenience: simulate a scenario's full batch."""
    return BatchedRoundEngine(scenario, seed=seed, rng=rng).run()


@lru_cache(maxsize=None)
def _lattice_geometry(r: int) -> Tuple[np.ndarray, np.ndarray, tuple, tuple]:
    """Subset-lattice tables for ``r`` receivers, shared read-only
    (at most 17 entries: the engine caps ``r`` at 16).

    Returns ``(membership, sizes, size_of, members_of)``:
    ``membership[S, i]`` says receiver i belongs to bitmask S,
    ``sizes[S]`` is its popcount, and ``size_of`` / ``members_of`` are
    the same two facts as Python tuples for the scalar kernel.
    """
    subsets = np.arange(1 << r)
    membership = (subsets[:, None] >> np.arange(r)[None, :] & 1).astype(bool)
    sizes = membership.sum(axis=1)
    membership.flags.writeable = False
    sizes.flags.writeable = False
    size_of = tuple(int(x) for x in sizes)
    members_of = tuple(
        tuple(int(i) for i in np.flatnonzero(row)) for row in membership
    )
    return membership, sizes, size_of, members_of


def _pattern_lattice(batch: ReceptionBatch) -> Tuple[np.ndarray, ...]:
    """Per-round lattice arrays of a (possibly stacked) batch.

    Returns ``(counts, miss_counts, pools, eve_pools, miss_rates)``:
    the pattern histogram (one ``bincount`` over (round, pattern)
    pairs), the same histogram over Eve-missed packets, both
    superset-sum transforms, and each receiver's miss rate.  Every
    array is row-wise in the round axis, so a caller may slice a cell's
    row range out of a stacked batch.
    """
    recv = batch.terminals
    b, r, n = recv.shape
    n_sub = 1 << r
    weights = (1 << np.arange(r)).astype(np.int64)
    patterns = np.tensordot(recv.astype(np.int64), weights, axes=([1], [0]))
    flat = (np.arange(b, dtype=np.int64)[:, None] * n_sub + patterns).ravel()
    counts = (
        np.bincount(flat, minlength=b * n_sub).reshape(b, n_sub).astype(float)
    )
    eve_miss = ~batch.eve
    miss_counts = np.bincount(
        flat, weights=eve_miss.ravel().astype(float), minlength=b * n_sub
    ).reshape(b, n_sub)
    # Missed-count over n, not 1 - mean(): bitwise-identical to the
    # collusion estimator's missed_by_all / n, so k = 1 collusion
    # and leave-one-out certify the same budgets to the last ulp
    # (the realised planner's integer thresholds amplify ulps).
    miss_rates = (n - recv.sum(axis=2)) / float(n)
    return (
        counts,
        miss_counts,
        _superset_sums(counts),
        _superset_sums(miss_counts),
        miss_rates,
    )


def _account_cell(
    engine: BatchedRoundEngine,
    counts: np.ndarray,
    miss_counts: np.ndarray,
    pools: np.ndarray,
    eve_pools: np.ndarray,
    miss_rates: np.ndarray,
    recv: np.ndarray,
    eve: np.ndarray,
) -> BatchResult:
    """One cell's accounting on its rows of :func:`_pattern_lattice`.

    The planning prelude and the epilogue are vectorised over the
    cell's rounds; the per-round loop runs the scalar kernels and
    consumes ``engine.rng``.
    """
    scenario = engine.scenario
    b, r, n = recv.shape
    n_sub = engine._n_subsets
    _, _, sizes, members_of = _lattice_geometry(r)

    # Certified budgets per (round, subset) pool: rate evidence
    # times pool size, floored by the oracle's exact misses when
    # the estimator knows them.
    rates, uses_oracle = engine._certified_rates(
        scenario.estimator, counts, miss_rates
    )
    if rates is not None:
        budgets = np.clip(rates, 0.0, 1.0) * pools
        if uses_oracle:
            budgets = np.minimum(budgets, eve_pools)
    else:
        budgets = eve_pools.copy()
    budgets[:, 0] = 0.0

    # Planning: one memoized LP per scenario sets the per-level row
    # targets; each round's demand is the target clamped by its
    # certified budget and realised pool.
    _, profile = planning_profile(scenario)
    level_rows = np.concatenate(([0.0], np.asarray(profile.level_rows)))
    targets = level_rows[engine._subset_sizes] * n  # (2^r,)
    demand_rows = np.minimum(targets[None, :], np.minimum(budgets, pools))
    demand_rows = np.maximum(demand_rows, 0.0)

    # Support demand in packets: rate evidence needs pool/budget
    # packets per certified row.
    with np.errstate(divide="ignore", invalid="ignore"):
        pool_rates = np.where(pools > 0, budgets / pools, 0.0)
        id_need = np.where(pool_rates > 1e-12, demand_rows / pool_rates, 0.0)

    # Realised feasibility: the planning targets saturate the
    # *expected* support-capacity families, so on a realised
    # histogram roughly half the rounds overshoot them.  Scale each
    # nested size family (blocks decodable by >= s receivers can
    # only draw support from patterns of size >= s — the Hall
    # condition of the transportation flow) down to what the round
    # actually holds, largest s first, so the max-flow distributes
    # demand instead of starving whichever subsets it visits last.
    sizes_arr = engine._subset_sizes
    for s in range(r, 0, -1):
        family = sizes_arr >= s
        need = id_need[:, family].sum(axis=1)
        cap = counts[:, family].sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(need > cap, cap / np.maximum(need, 1e-12), 1.0)
        if np.any(scale < 1.0):
            id_need[:, family] *= scale[:, None]
            demand_rows[:, family] *= scale[:, None]

    # Rounds where the demand floors to zero rows request no
    # support at all (they must not starve other subsets).
    id_need = np.minimum(id_need, pools)
    id_need[np.floor(demand_rows + 1e-9) < 1.0] = 0.0
    id_need[:, 0] = 0.0

    # Scalar form for the per-round loop: exact conversions only.
    counts_int = np.rint(counts).astype(np.int64)
    counts_list = counts_int.tolist()
    miss_list = np.rint(miss_counts).astype(np.int64).tolist()
    id_demands = _integerise_rows(id_need, counts_int, r)
    demand_list = demand_rows.tolist()
    rates_list = rates.tolist() if rates is not None else None
    rng = engine.rng
    plan_memo: Dict[tuple, tuple] = {}

    rows_out = np.zeros((b, n_sub))
    deficit = np.zeros(b)
    for bi in range(b):
        row, d = _realise_fast(
            counts_list[bi],
            miss_list[bi],
            demand_list[bi],
            id_demands[bi],
            rates_list[bi] if rates_list is not None else None,
            uses_oracle,
            rng,
            r,
            sizes,
            members_of,
            plan_memo,
        )
        rows_out[bi] = row
        deficit[bi] = d

    m_i = rows_out @ engine._membership.astype(float)  # (B, r)
    l_cap = m_i.min(axis=1)
    m_total = rows_out.sum(axis=1)
    z_public = m_total - l_cap

    # Phase-2 chunking: slack dims withheld per chunk shrink the
    # secret but absorb estimator over-promises first (see
    # repro.coding.privacy.build_phase2_matrices).
    chunks = np.ceil(np.maximum(m_total, 1e-12) / MAX_PHASE2_ROWS)
    slack = scenario.secrecy_slack * chunks
    secret = np.maximum(l_cap - slack, 0.0)
    secret[m_total <= 0] = 0.0

    # Secrecy deficit: inside each block's realised support, Eve's
    # sampled misses may fall short of the certified rows; every
    # missing dimension costs one rank of hiddenness (disjoint
    # blocks add).  The withheld slack dims absorb deficit first.
    effective_deficit = np.maximum(deficit - slack, 0.0)
    hidden = np.maximum(secret - effective_deficit, 0.0)
    reliability = np.ones(b)
    positive = secret > 1e-12
    reliability[positive] = hidden[positive] / secret[positive]

    efficiency = secret / (n + z_public)

    # Measured secrecy: Eve's equation count (captured x-packets plus
    # every public z-row) and the residual hidden dimensions the
    # deficit accounting leaves her.
    eve_missed_counts = (~eve).sum(axis=1)
    eve_equations = (n - eve_missed_counts) + z_public

    return BatchResult(
        scenario=scenario,
        secret_packets=secret,
        public_packets=z_public,
        total_rows=m_total,
        efficiency=efficiency,
        reliability=reliability,
        eve_missed=eve_missed_counts,
        terminal_receptions=recv.sum(axis=2),
        delivery_rates=recv.mean(axis=(0, 2)),
        hidden_dims=hidden,
        eve_equations=eve_equations,
    )


def _integerise_rows(
    id_need: np.ndarray, counts_int: np.ndarray, r: int
) -> List[List[int]]:
    """Round every round's fractional support demand to whole packets.

    ``id_need`` and ``counts_int`` are ``(B, 2^r)``: per round, the
    demand and the pattern histogram, indexed by subset bitmask.
    Largest-remainder rounding, capped by the nested size-family
    capacities: a unit granted to subset ``T`` counts against every
    family ``s <= |T|`` (blocks decodable by >= s receivers draw from
    patterns of size >= s), so a blanket ``ceil`` — which can inflate
    total demand past the realised histogram and push the max-flow into
    starving whole subsets — never happens.  Rounds whose demand is
    family-feasible after this step almost always get their full
    assignment from a single flow solve.  Grants go biggest remainder
    first, ties to the lower mask; the empty subset gets none.

    The floors, remainders, family sums and grant order are computed
    for all rounds at once; the grants themselves change the family
    totals as they go, so they run per round, over the remainders above
    ``1e-9`` only.
    """
    _, sizes, size_of, _ = _lattice_geometry(r)
    base = np.floor(id_need + 1e-9)
    rem = id_need - base
    demand = base.astype(np.int64)
    # room[b, s]: how many more units family s (subsets of size >= s)
    # can take, capacity minus floored demand; integers throughout.
    by_size = sizes[:, None] == np.arange(r + 1)
    room = np.cumsum(((counts_int - demand) @ by_size)[:, ::-1], axis=1)[:, ::-1]
    rows = demand.tolist()
    live = rem > 1e-9
    live[:, 0] = False
    if not live.any():
        return rows
    # Each round's live subsets in grant order: a stable sort on the
    # negated remainder keeps ties in mask order, dead entries last.
    order = np.argsort(np.where(live, -rem, np.inf), axis=1, kind="stable")
    round_of, rank = np.nonzero(np.take_along_axis(live, order, axis=1))
    room_rows = room.tolist()
    current = -1
    for b, i in zip(round_of.tolist(), order[round_of, rank].tolist()):
        if b != current:
            current, row, left = b, rows[b], room_rows[b]
        level = size_of[i]
        if min(left[1 : level + 1]) > 0:
            row[i] += 1
            for t in range(1, level + 1):
                left[t] -= 1
    return rows


def _realise_fast(
    counts_int: List[int],
    miss_int: List[int],
    demand_rows: List[float],
    id_demand: List[int],
    rates_row: Optional[List[float]],
    uses_oracle: bool,
    rng: np.random.Generator,
    r: int,
    sizes: Tuple[int, ...],
    members_of: Tuple[tuple, ...],
    plan_memo: Dict[tuple, tuple],
) -> Tuple[List[float], float]:
    """One round's integral assignment: (rows over 2^r subsets, deficit).

    Draws the round's support assignment from the flow on the observed
    pattern histogram, samples Eve's misses inside each realised support
    (multivariate hypergeometric over the support's cell composition:
    one draw per (subset j, cell k) with flow, ascending), certifies
    rows per estimator on the realised support, trims rows that cannot
    raise ``L`` (the session's
    :func:`repro.coding.privacy.trim_excess_rows`), and sums the rank
    deficit Eve's actual misses leave behind.  Rows are integral
    doubles throughout, so the membership sums and the trim's slack
    arithmetic are exact in any order.  ``plan_memo`` is the cell's plan
    memo: per key, the plan's subsets and cells, each subset's nonzero
    ``(cell index, units)`` flow pairs, its units in total, and the
    plan's scale.
    """
    n_sub = len(counts_int)
    rows = [0.0] * n_sub
    active = tuple((s, id_demand[s]) for s in range(n_sub) if id_demand[s])
    if not active:
        return rows, 0.0
    cells = tuple(
        (p, counts_int[p]) for p in range(1, n_sub) if counts_int[p]
    )
    if not cells:
        return rows, 0.0

    plan_parts = plan_memo.get((cells, active))
    if plan_parts is None:
        plan = realised_support_flow(cells, active, top_up=rates_row is None)
        flow = plan.flow.tolist()
        plan_parts = (
            plan.subsets,
            plan.cells,
            [[(k, take) for k, take in enumerate(frow) if take] for frow in flow],
            [sum(frow) for frow in flow],
            plan.scale,
        )
        plan_memo[(cells, active)] = plan_parts
    else:
        count_realised_flow_hit()
    subsets, plan_cells, pairs, assigned, scale = plan_parts
    n_plan = len(subsets)

    # Eve's misses inside each realised support: cells are
    # exchangeable pools, so sequential hypergeometric draws give the
    # exact multivariate law of the disjoint supports.  Plan cells are
    # distinct patterns, so positional lists track what each has left.
    good_left = [miss_int[p] for p in plan_cells]
    total_left = [counts_int[p] for p in plan_cells]
    sampled = [0] * n_plan
    hyper = rng.hypergeometric
    for j in range(n_plan):
        drawn_total = 0
        for k, take in pairs[j]:
            good = good_left[k]
            total = total_left[k]
            if good <= 0:
                drawn = 0
            elif take >= total:
                drawn = good
            else:
                drawn = int(hyper(good, total - good, take))
            drawn_total += drawn
            good_left[k] = good - drawn
            total_left[k] = total - take
        sampled[j] = drawn_total

    # Certified rows per realised support, integral like the session:
    # rate evidence scales linearly with support size (the session's
    # LeaveOneOutEstimator deliberately applies *global* pretend-Eve
    # rates — counting a witness's misses inside a subset pool is
    # circular, the pool is missed wholesale by terminals outside its
    # patterns), while the oracle certifies the support's actual
    # sampled misses.
    for j in range(n_plan):
        s = subsets[j]
        cert = _INF
        if uses_oracle:
            cert = float(sampled[j])
        if rates_row is not None:
            rate_cert = rates_row[s] * float(assigned[j])
            if rate_cert < cert:
                cert = rate_cert
        value = float(_floor(scale * demand_rows[s] + 1e-9))
        if cert != _INF:
            ceiling = float(_floor(cert + 1e-9))
            if ceiling < value:
                value = ceiling
        granted_cap = float(assigned[j])
        if granted_cap < value:
            value = granted_cap
        rows[s] = value if value > 0.0 else 0.0

    # Trim rows that cannot raise L = min_i M_i (every extra z-packet
    # hands Eve a free equation), small subsets first.
    order = sorted((s for s in subsets if rows[s] > 0), key=lambda s: (sizes[s], s))
    trim_excess_rows(rows, order, members_of, r)

    deficit = 0.0
    for j in range(n_plan):
        shortfall = rows[subsets[j]] - sampled[j]
        if shortfall > 0.0:
            deficit += shortfall
    return rows, deficit
