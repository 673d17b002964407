"""Privacy amplification: the y/z/s combination constructions.

This module is our concrete realisation of the constructions the paper
delegates to its technical report.  The requirements, straight from §3 of
the paper:

* **y-packets** (phase 1): linear combinations of x-packets such that
  terminal ``T_i`` can reconstruct ``M_i`` of them from what it received,
  while Eve — who missed at least the estimator's lower bound of
  x-packets — can reconstruct *none* (jointly: her information about the
  whole y-vector is zero).
* **z-packets** (phase 2, public): ``M - L`` combinations of y-packets
  whose *contents* are broadcast so every terminal completes its y-set.
* **s-packets** (phase 2, secret): ``L = min_i M_i`` combinations whose
  identities only are broadcast; they are the group secret and must stay
  uniform given the z-contents and everything else Eve heard.

Construction summary (see DESIGN.md §4 for the argument):

1. Partition the x-packets Alice sent by *reception pattern* — the exact
   subset of terminals that acknowledged each packet.
2. Solve a small LP (Dinkelbach fractional programming) deciding how many
   y-packets to dedicate to each terminal-subset ``T`` and which pattern
   cells fund them, maximising the protocol's efficiency metric.
3. Realise the plan with *disjoint support slices*: each block of
   y-packets owns a private set of x-ids, sliced out of cells whose
   packets all of ``T`` received, sized so the estimator certifies enough
   Eve-misses inside every slice.  Block coefficients are Cauchy, so any
   miss pattern meeting the per-slice counts leaves the block full rank;
   disjointness makes the stacked matrix block-diagonal, so the *joint*
   y-vector is then uniform given Eve's observations — a deterministic
   secrecy certificate, no randomised construction involved.
4. Phase 2 uses the first ``M - L`` rows of an ``M x M`` Cauchy matrix as
   the z-map and the last ``L`` rows as the s-map: every minor of the
   z-block is nonsingular (any terminal can solve for any ≤ M - L missing
   y-packets) and the stacked matrix is invertible (the s-packets are
   uniform given the z-packets).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.gf.linalg import GFMatrix
from repro.gf.matrices import cauchy_matrix

try:  # scipy is a hard dependency of the package, but keep the import local-ish
    # Private binding: setup.py pins scipy's minor version for it.
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # pragma: no cover - environment guard
    raise ImportError("repro.coding.privacy requires scipy") from exc

__all__ = [
    "BudgetFn",
    "CombinationBlock",
    "YAllocation",
    "Phase2Chunk",
    "GroupCodingPlan",
    "plan_y_allocation",
    "allocation_lp_cache_info",
    "clear_allocation_lp_cache",
    "solve_lp",
    "build_phase2_matrices",
    "solve_transport_counts",
    "route_direct",
    "flow_matrix",
    "TransportGraph",
    "MAX_BLOCK_POINTS",
    "MAX_PHASE2_ROWS",
    "MEMO_MAX_ENTRIES",
]

#: ``budget_fn(ids, exclude)`` returns a certified lower bound (a float —
#: rate-based estimators scale smoothly and must not truncate on small
#: queries) on how many of the given x-packet ids Eve missed.  ``exclude``
#: names terminals that must not serve as evidence (the paper's
#: leave-one-out estimator pretends each *other* terminal is Eve; a block
#: decodable by subset ``T`` can only cite terminals outside ``T``).
#: Estimators live in :mod:`repro.core.estimator`; this module only
#: consumes the callable.  Flooring to whole packets happens once per
#: block, at build time.
BudgetFn = Callable[[Sequence[int], frozenset], float]

#: A Cauchy block of ``a`` rows on a support of ``m`` ids needs
#: ``a + m <= 256`` field points; pools are chunked below this.
MAX_BLOCK_POINTS = 256

#: Phase-2 Cauchy matrices are ``M x M`` stacked from ``2M`` points.
MAX_PHASE2_ROWS = 128

#: Largest allocation-LP matrix, in entries, the memo keeps.  One to
#: three receivers stay below it (at most 29 x 20); four receivers
#: reach 84 x 66 and seven about 1,900 x 1,800, keys of 44 KB to 27 MB
#: that rarely repeat.  Those are solved without caching, so the memo's
#: 2,048 keys of at most 8 KB each stay under 17 MB.
MEMO_MAX_ENTRIES = 1024


@dataclass(frozen=True)
class CombinationBlock:
    """A block of y-packets decodable by a fixed set of terminals.

    Attributes:
        subset: terminal ids that received every support packet and can
            therefore reconstruct these y-rows in phase 1.
        support: the x-packet ids combined (disjoint from all other
            blocks' supports by construction).
        matrix: ``rows x len(support)`` Cauchy coefficient block.
        certified_budget: the estimator's lower bound on Eve's misses
            inside ``support`` at build time (``>= rows``).
    """

    subset: frozenset
    support: tuple
    matrix: GFMatrix
    certified_budget: int

    @property
    def rows(self) -> int:
        return self.matrix.rows

    def __post_init__(self) -> None:
        if self.matrix.cols != len(self.support):
            raise ValueError("coefficient columns must match support size")
        if self.rows > len(self.support):
            raise ValueError("cannot extract more secrets than support packets")


@dataclass
class YAllocation:
    """The full phase-1 plan: ordered combination blocks plus bookkeeping.

    Row indices are global across blocks, in block order; this global
    order is what phase 2 and Eve's accounting use.
    """

    blocks: list = field(default_factory=list)
    receivers: tuple = ()

    @property
    def total_rows(self) -> int:
        """M — the total number of y-packets."""
        return sum(b.rows for b in self.blocks)

    def block_row_offsets(self) -> list:
        offsets = []
        acc = 0
        for b in self.blocks:
            offsets.append(acc)
            acc += b.rows
        return offsets

    def rows_for_terminal(self, terminal) -> list:
        """Global y-row indices terminal ``terminal`` can decode (M_i rows)."""
        rows = []
        offset = 0
        for b in self.blocks:
            if terminal in b.subset:
                rows.extend(range(offset, offset + b.rows))
            offset += b.rows
        return rows

    def m_i(self, terminal) -> int:
        return sum(b.rows for b in self.blocks if terminal in b.subset)

    def min_m_i(self) -> int:
        """L — the size cap of the group secret."""
        if not self.receivers:
            return 0
        return min(self.m_i(t) for t in self.receivers)

    def support_ids(self) -> list:
        ids = []
        for b in self.blocks:
            ids.extend(b.support)
        return ids

    def global_matrix(self, column_ids: Sequence[int]) -> GFMatrix:
        """The M x len(column_ids) map from x-payloads to y-payloads.

        ``column_ids`` fixes the column order (typically every x-id the
        leader transmitted); block coefficients land in their support's
        columns, zero elsewhere.  Used by Eve's exact accounting and by
        tests; terminals decode block-locally instead.
        """
        col_of = {xid: j for j, xid in enumerate(column_ids)}
        out = np.zeros((self.total_rows, len(column_ids)), dtype=np.uint8)
        offset = 0
        for b in self.blocks:
            cols = [col_of[xid] for xid in b.support]
            out[offset : offset + b.rows, cols] = b.matrix.data
            offset += b.rows
        return GFMatrix(out)


@dataclass(frozen=True)
class Phase2Chunk:
    """Phase-2 matrices for one chunk of y-rows.

    Attributes:
        y_rows: global y-row indices in this chunk (ordered).
        z_matrix: ``(m_c - l_c) x m_c`` public-combination map.
        s_matrix: ``l_c x m_c`` secret-combination map.
    """

    y_rows: tuple
    z_matrix: GFMatrix
    s_matrix: GFMatrix

    @property
    def size(self) -> int:
        return len(self.y_rows)

    @property
    def n_secret(self) -> int:
        return self.s_matrix.rows

    @property
    def n_public(self) -> int:
        return self.z_matrix.rows


@dataclass
class GroupCodingPlan:
    """Everything phase 2 needs: the chunked z/s matrices."""

    chunks: list

    @property
    def total_secret(self) -> int:
        """Total group-secret size L (packets)."""
        return sum(c.n_secret for c in self.chunks)

    @property
    def total_public(self) -> int:
        """Total number of z-packets whose contents go on the air."""
        return sum(c.n_public for c in self.chunks)


# ---------------------------------------------------------------------------
# Allocation planning (the LP of DESIGN.md §4 step 2)
# ---------------------------------------------------------------------------


def _pattern_cells(reports: Mapping) -> dict:
    """Group x-ids by their reception pattern (the set of terminals that
    received them).  Packets nobody received are useless and dropped."""
    pattern_of: dict = {}
    for terminal, ids in reports.items():
        for xid in ids:
            pattern_of.setdefault(xid, set()).add(terminal)
    cells: dict = {}
    for xid, terms in pattern_of.items():
        cells.setdefault(frozenset(terms), []).append(xid)
    for ids in cells.values():
        ids.sort()
    return cells


def _candidate_subsets(
    receivers: Sequence, cells: Mapping, max_subset_size: Optional[int] = None
) -> list:
    """Terminal subsets worth dedicating y-blocks to.

    For up to 8 receivers we enumerate every nonempty subset that is
    contained in at least one reception pattern (others have empty
    pools).  Beyond that we restrict to the patterns themselves plus
    their high-order intersections, a documented heuristic that keeps the
    LP small for stress tests.

    ``max_subset_size`` caps |T|: blocks decodable by large subsets live
    on high-order intersection pools whose composition is correlated
    with channel state, which biases *empirical* Eve estimators; capping
    the order trades efficiency for estimator soundness (see the
    estimator-granularity ablation benchmark).
    """
    receivers = tuple(receivers)
    if len(receivers) <= 8:
        candidates = set()
        for pattern in cells:
            members = sorted(pattern)
            for mask in range(1, 1 << len(members)):
                subset = frozenset(
                    members[k] for k in range(len(members)) if mask >> k & 1
                )
                candidates.add(subset)
    else:
        candidates = set(cells)
        full = frozenset(receivers)
        candidates.add(full)
        for pattern in cells:
            for t in receivers:
                reduced = pattern - {t}
                if reduced:
                    candidates.add(frozenset(reduced))
    if max_subset_size is not None:
        candidates = {s for s in candidates if len(s) <= max_subset_size}
    return sorted(candidates, key=lambda s: (len(s), sorted(s)))


#: The one option scipy's own HiGHS wrappers set for a plain LP;
#: everything else, presolve included, stays at HiGHS's default.
_HIGHS_OPTIONS = _highs.HighsOptions()
_HIGHS_OPTIONS.log_to_console = False


def solve_lp(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> Optional[np.ndarray]:
    """Minimise ``c @ x`` subject to ``a_ub @ x <= b_ub`` and ``x >= 0``.

    The one LP entry point of the planners: scipy's bundled HiGHS
    binding, called directly.  The model is the one scipy's public
    wrappers hand HiGHS — the nonzeros of ``a_ub`` in column-major
    order, columns in ``[0, inf)``, rows in ``(-inf, b_ub]`` — so the
    returned ``x`` equals ``linprog(method="highs")``'s to the last
    bit, without the wrappers' cost.  Each call builds a fresh solver
    instance, so concurrent callers share no state.  Returns None when
    HiGHS reports no optimum.
    """
    a_ub = np.asarray(a_ub, dtype=np.float64)
    n_rows, n_cols = a_ub.shape
    cols, rows = np.nonzero(a_ub.T)  # CSC order, explicit zeros dropped
    lp = _highs.HighsLp()
    lp.num_col_ = n_cols
    lp.num_row_ = n_rows
    lp.col_cost_ = np.asarray(c, dtype=np.float64)
    lp.col_lower_ = np.zeros(n_cols)
    lp.col_upper_ = np.full(n_cols, np.inf)
    lp.row_lower_ = np.full(n_rows, -np.inf)
    lp.row_upper_ = np.asarray(b_ub, dtype=np.float64)
    matrix = lp.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_ = n_cols
    matrix.num_row_ = n_rows
    matrix.start_ = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n_cols))))
    matrix.index_ = rows
    matrix.value_ = a_ub.T[cols, rows]
    solver = _highs._Highs()
    solver.passOptions(_HIGHS_OPTIONS)
    solver.passModel(lp)
    solver.run()
    if solver.getModelStatus() != _highs.HighsModelStatus.kOptimal:
        return None
    return np.array(solver.getSolution().col_value)


def _solve_allocation_lp(
    receivers: Sequence,
    cells: Mapping,
    pair_budgets: Mapping,
    overhead_packets: float,
    z_cost_factor: float = 2.0,
    max_iterations: int = 8,
) -> dict:
    """Dinkelbach LP: choose fractional per-(subset, cell) y-row counts.

    Maximises ``L / (overhead_packets + M - L)`` — the efficiency metric
    with ``overhead_packets`` accounting for everything already spent
    (the x-transmissions).  ``pair_budgets[(T, P)]`` is the estimator's
    view of how many Eve-misses cell ``P`` can fund for a block decodable
    by ``T``.  Returns ``{(subset, pattern): rows}``.

    The solve itself is memoized on the LP's numeric input (see
    :func:`_memoized_allocation`) when its matrix has at most
    :data:`MEMO_MAX_ENTRIES` entries; only the mapping of variables
    back onto ``(subset, pattern)`` pairs happens here.
    """
    receivers = tuple(receivers)
    pairs = [tp for tp, budget in pair_budgets.items() if budget > 0]
    if not pairs or not receivers:
        return {}
    n_vars = len(pairs) + 1  # trailing variable is L
    l_idx = len(pairs)

    a_ub = []
    b_ub = []
    # Per-pair budget: f_(T,P) <= pair_budgets[(T,P)]
    for j, tp in enumerate(pairs):
        row = np.zeros(n_vars)
        row[j] = 1.0
        a_ub.append(row)
        b_ub.append(float(pair_budgets[tp]))
    # Cell capacity: sum_T f_(T,P) <= max_T budget(T,P) — the cell holds
    # at most that many certified Eve-misses under the most favourable
    # exclusion, and slices are disjoint.
    for P in cells:
        row = np.zeros(n_vars)
        cap = 0.0
        hit = False
        for j, (T, Pj) in enumerate(pairs):
            if Pj == P:
                row[j] = 1.0
                hit = True
                cap = max(cap, float(pair_budgets[(T, P)]))
        if hit:
            a_ub.append(row)
            b_ub.append(cap)
    # Coverage rows: L - M_i <= 0 for every terminal i
    for t in receivers:
        row = np.zeros(n_vars)
        row[l_idx] = 1.0
        for j, (T, _) in enumerate(pairs):
            if t in T:
                row[j] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)
    a_ub = np.array(a_ub)
    b_ub = np.array(b_ub)
    if a_ub.size <= MEMO_MAX_ENTRIES:
        solution = _memoized_allocation(
            a_ub.tobytes(),
            b_ub.tobytes(),
            a_ub.shape,
            overhead_packets,
            z_cost_factor,
            max_iterations,
        )
    else:
        solution = _dinkelbach_allocation(
            a_ub, b_ub, overhead_packets, z_cost_factor, max_iterations
        )
    return {pairs[j]: value for j, value in solution}


@functools.lru_cache(maxsize=2048)
def _memoized_allocation(
    a_bytes: bytes,
    b_bytes: bytes,
    shape: Tuple[int, int],
    overhead_packets: float,
    z_cost_factor: float,
    max_iterations: int,
) -> Tuple[Tuple[int, float], ...]:
    """:func:`_dinkelbach_allocation` memoized on its exact input.

    The key is the constraint bytes, their shape and the scalars, so
    equal inputs get the solution HiGHS returned the first time — the
    memo cannot change a plan.  Terminal names and pattern sets never
    enter the key: sessions whose reception histograms differ only in
    who received what share one entry.
    """
    a_ub = np.frombuffer(a_bytes).reshape(shape)
    b_ub = np.frombuffer(b_bytes)
    return _dinkelbach_allocation(
        a_ub, b_ub, overhead_packets, z_cost_factor, max_iterations
    )


def _dinkelbach_allocation(
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    overhead_packets: float,
    z_cost_factor: float,
    max_iterations: int,
) -> Tuple[Tuple[int, float], ...]:
    """The Dinkelbach loop of :func:`_solve_allocation_lp`.

    Returns ``((variable, rows), ...)`` for the pair variables above
    zero, in variable order; the trailing variable is L.
    """
    n_vars = a_ub.shape[1]
    l_idx = n_vars - 1
    theta = 0.0
    best: Tuple[Tuple[int, float], ...] = ()
    for _ in range(max_iterations):
        # maximise L - theta*(overhead + z_cost*(M - L)); a z-packet costs
        # more airtime than its payload (retries under jamming + ACKs),
        # which z_cost_factor folds into the fractional objective.
        c = np.full(n_vars, theta * z_cost_factor)
        c[l_idx] = -(1.0 + theta * z_cost_factor)
        f = solve_lp(c, a_ub, b_ub)
        if f is None:  # pragma: no cover - LP is always feasible (0 works)
            break
        l_val = f[l_idx]
        m_val = float(np.sum(f[:l_idx]))
        best = tuple((j, float(f[j])) for j in range(l_idx) if f[j] > 1e-9)
        denom = overhead_packets + z_cost_factor * (m_val - l_val)
        new_theta = 0.0 if denom <= 0 else l_val / denom
        if abs(new_theta - theta) < 1e-9:
            break
        theta = new_theta
    return best


def allocation_lp_cache_info():
    """Hit/miss statistics of the allocation-LP memo."""
    return _memoized_allocation.cache_info()


def clear_allocation_lp_cache() -> None:
    """Drop every memoized allocation LP (tests use this for isolation)."""
    _memoized_allocation.cache_clear()


def _scatter_order(ids: Sequence[int]) -> list:
    """Deterministic time-decorrelated ordering of packet ids.

    x-ids are transmission order, so consecutive ids share a noise
    pattern; a prefix of the sorted list would sample only the earliest
    slots and inherit their channel state wholesale.  Ordering by a
    Knuth-style multiplicative hash spreads any prefix across the whole
    round, so block supports stay representative of every interference
    pattern — the property that makes rate-based budgets fair.
    """
    return sorted(ids, key=lambda i: ((i * 2654435761) & 0xFFFFFFFF, i))


def _interleaved_pool(cells: Mapping, remaining: Mapping, subset) -> list:
    """Eligible unconsumed ids for ``subset``, interleaved across cells.

    Round-robin across the eligible pattern cells (each pre-scattered in
    time, see :func:`_scatter_order`) so any prefix of the result samples
    every cell proportionally.  Balanced composition keeps a block's
    support representative of the whole reception set.
    """
    eligible = [P for P in cells if subset <= P and remaining[P]]
    queues = [_scatter_order(remaining[P]) for P in sorted(eligible, key=sorted)]
    pool: list = []
    k = 0
    while any(queues):
        for q in queues:
            if k < len(q):
                pool.append(q[k])
        k += 1
        if all(k >= len(q) for q in queues):
            break
    return pool


def _grow_support(
    pool: list, target_rows: int, subset: frozenset, budget_fn: BudgetFn
) -> tuple:
    """Shortest pool prefix whose certified budget covers ``target_rows``.

    Returns (support_ids, achievable_rows).  When even the whole pool
    cannot fund the target, returns everything it can.
    """
    if target_rows <= 0 or not pool:
        return [], 0
    total = int(np.floor(budget_fn(pool, subset) + 1e-9))
    if total < target_rows:
        return (pool, total) if total > 0 else ([], 0)
    lo, hi = 1, len(pool)
    # Budgets are monotone in the prefix, so binary-search the cut point.
    while lo < hi:
        mid = (lo + hi) // 2
        if int(np.floor(budget_fn(pool[:mid], subset) + 1e-9)) >= target_rows:
            hi = mid
        else:
            lo = mid + 1
    prefix = pool[:lo]
    achieved = int(np.floor(budget_fn(prefix, subset) + 1e-9))
    return prefix, min(achieved, target_rows)


def _emit_blocks(
    subset: frozenset, support: list, rows: int, budget_fn: BudgetFn
) -> list:
    """Build Cauchy blocks for a support, chunking at the field limit."""
    blocks: list = []
    if rows <= 0 or not support:
        return blocks
    support = sorted(support)
    if rows + len(support) <= MAX_BLOCK_POINTS:
        blocks.append(
            CombinationBlock(
                subset=subset,
                support=tuple(support),
                matrix=cauchy_matrix(rows, len(support)),
                certified_budget=rows,
            )
        )
        return blocks
    # Oversize: split the support, prorating rows by certified budget.
    remaining = support
    rows_left = rows
    while remaining and rows_left > 0:
        take = min(len(remaining), MAX_BLOCK_POINTS - min(rows_left, 64))
        piece = remaining[:take]
        certified = int(np.floor(budget_fn(piece, subset) + 1e-9))
        piece_rows = min(certified, rows_left, len(piece), MAX_BLOCK_POINTS - take)
        if piece_rows > 0:
            blocks.append(
                CombinationBlock(
                    subset=subset,
                    support=tuple(piece),
                    matrix=cauchy_matrix(piece_rows, len(piece)),
                    certified_budget=piece_rows,
                )
            )
            rows_left -= piece_rows
        remaining = remaining[take:]
    return blocks


def plan_y_allocation(
    reports: Mapping,
    budget_fn: BudgetFn,
    overhead_packets: float,
    max_subset_size: Optional[int] = None,
    z_cost_factor: float = 2.0,
) -> YAllocation:
    """Plan the phase-1 y-packet construction.

    Args:
        reports: terminal id -> set of x-ids that terminal acknowledged.
        budget_fn: certified lower bound on Eve's misses among given ids.
        overhead_packets: packet-equivalents already transmitted (the N
            x-packets, typically), used by the efficiency objective.
        max_subset_size: cap on block decodable-set size (see
            :func:`_candidate_subsets`); None means unrestricted.
        z_cost_factor: airtime multiplier for z-packets relative to
            x-packets in the efficiency objective (reliable broadcasts
            retry under jamming and trigger ACKs).

    Returns:
        A :class:`YAllocation`; possibly empty (the paper's worst case)
        when the estimator cannot certify any Eve miss.
    """
    receivers = tuple(sorted(reports))
    cells = _pattern_cells(reports)
    if not cells:
        return YAllocation(blocks=[], receivers=receivers)
    subsets = _candidate_subsets(receivers, cells, max_subset_size)
    # The LP needs budgets at cell granularity, but estimators are only
    # meaningful on slot-diverse pools (a 3-packet cell from one noise
    # pattern has no statistics).  Compute each subset's certified rate
    # once, on its full eligible pool, and prorate cells linearly; the
    # realisation step re-verifies every actual support.
    pool_rates: dict = {}
    for T in subsets:
        pool = [i for P, ids in cells.items() if T <= P for i in ids]
        pool_rates[T] = budget_fn(pool, T) / len(pool) if pool else 0.0
    pair_budgets = {
        (T, P): pool_rates[T] * len(ids)
        for T in subsets
        for P, ids in cells.items()
        if T <= P
    }
    targets = _solve_allocation_lp(
        receivers,
        cells,
        pair_budgets,
        max(overhead_packets, 1.0),
        z_cost_factor=z_cost_factor,
    )

    # Aggregate the LP solution to per-subset row totals, then realise
    # them with an integral max-flow assignment of x-ids to subsets:
    # pools overlap heavily, and greedy consumption would starve the
    # last subsets, collapsing L = min_i M_i and flooding the air with
    # z-packets (each an information gift to Eve).  The flow respects
    # every pool's true extent and shares contested ids optimally.
    demand: dict = {}
    for (T, _P), f in targets.items():
        demand[T] = demand.get(T, 0.0) + f
    id_demand = {}
    for T, f in demand.items():
        rate = pool_rates.get(T, 0.0)
        if f <= 1e-9 or rate <= 1e-9:
            continue
        id_demand[T] = int(np.ceil(f / rate))
    assignment = _assign_ids_by_flow(cells, id_demand)
    blocks: list = []
    for T in sorted(id_demand, key=lambda s: (-len(s), sorted(s))):
        support = assignment.get(T, [])
        if not support:
            continue
        rows = int(np.floor(budget_fn(support, T) + 1e-9))
        rows = min(rows, int(np.floor(demand[T] + 1e-6)), len(support))
        blocks.extend(_emit_blocks(T, support, rows, budget_fn))
    blocks = _trim_excess_rows(blocks, receivers, budget_fn)
    return YAllocation(blocks=blocks, receivers=receivers)


def route_direct(
    demands: Sequence[int], capacities: Sequence[int], arcs: Sequence[Sequence[int]]
) -> Tuple[list, int]:
    """Dinic's first phase on plain lists, before any graph exists.

    Demand node ``j`` may draw from the supply nodes ``arcs[j]``
    (ascending).  While a direct path source -> ``j`` -> ``k`` -> sink
    has residual left, the sink sits at BFS level 3 and Dinic's first
    phase pushes exactly those paths: demand nodes in order, each
    through its arcs in order, every path as far as it goes.  This is
    that phase without the layering or the edge arrays.  (A
    demand-to-supply edge carries its row's demand, so it never limits
    a direct path.)

    Returns ``(pushes, routed)``: one ``(arc, j, k, units)`` per path
    that carried flow, ``arc`` counting every row's arcs row-major (the
    graph's link order), and the total.  When ``routed`` is the whole
    demand the pushes are a maximum flow (:func:`flow_matrix`), and no
    graph is needed; otherwise :meth:`TransportGraph.residual` loads
    them and :meth:`TransportGraph.augment` runs the later phases.
    """
    room = [int(c) for c in capacities]
    pushes = []
    routed = 0
    arc = 0
    for j, row_arcs in enumerate(arcs):
        left = start = int(demands[j])
        if left:
            i = arc
            for k in row_arcs:
                free = room[k]
                if free:
                    pushed = left if left < free else free
                    room[k] = free - pushed
                    pushes.append((i, j, k, pushed))
                    left -= pushed
                    if not left:
                        break
                i += 1
            routed += start - left
        arc += len(row_arcs)
    return pushes, routed


def flow_matrix(pushes: Sequence[tuple], n_demands: int, n_supplies: int) -> np.ndarray:
    """The ``(J, K)`` flow matrix of :func:`route_direct`'s pushes."""
    out = np.zeros((n_demands, n_supplies), dtype=np.int64)
    if pushes:
        _, rows, cols, units = zip(*pushes)
        out[rows, cols] = units
    return out


class TransportGraph:
    """The bipartite transportation network of one plan, built once.

    Demand node ``j`` may draw from the supply nodes listed in
    ``arcs[j]``, ascending.  The graph holds only that structure, as
    edge arrays; demands and capacities arrive per solve, so one plan
    builds its graph once however many flows it solves on it.

    Layout: source 0, demand nodes ``1..J``, supply nodes
    ``J+1..J+K``, sink ``J+K+1``.  Edges come in pairs (edge ``e ^ 1``
    is the reverse of ``e``), added in a fixed order — source to every
    demand node, every supply node to the sink, then demand to supply
    along the arcs, row-major — so node and arc order follow the input
    order alone.  A *residual* is the list of per-edge residual
    capacities; the flow on a forward edge is its reverse's residual.

    A solve (:meth:`solve`) starts from :func:`route_direct`'s flow
    (Dinic's first phase, run without the graph), loads it into a
    residual (:meth:`residual`), runs Dinic's later phases on it
    (:meth:`augment`) and reads the flow matrix off it (:meth:`flow`).
    When the demand does not route in full, the same residual yields a
    Hall certificate (:meth:`hall_cut`).
    """

    def __init__(self, arcs: Sequence[Sequence[int]], n_supplies: int) -> None:
        n_demands = len(arcs)
        self.n_demands = n_demands
        self.n_supplies = n_supplies
        sink = self.sink = n_demands + n_supplies + 1
        first_link = 2 * (n_demands + n_supplies)
        #: ``(j, k)`` per demand-to-supply edge; link ``i`` is edge
        #: ``first_link + 2 * i``.
        links = [(j, k) for j, row_arcs in enumerate(arcs) for k in row_arcs]
        edge_to = [0] * (first_link + 2 * len(links))
        edge_to[0 : 2 * n_demands : 2] = range(1, n_demands + 1)
        edge_to[2 * n_demands : first_link : 2] = [sink] * n_supplies
        edge_to[2 * n_demands + 1 : first_link : 2] = range(n_demands + 1, sink)
        adjacency = (
            [list(range(0, 2 * n_demands, 2))]
            + [[2 * j + 1] for j in range(n_demands)]
            + [[2 * (n_demands + k)] for k in range(n_supplies)]
            + [list(range(2 * n_demands + 1, first_link, 2))]
        )
        e = first_link
        for j, k in links:
            edge_to[e] = n_demands + 1 + k
            edge_to[e + 1] = j + 1
            adjacency[j + 1].append(e)
            adjacency[n_demands + 1 + k].append(e + 1)
            e += 2
        self.links = links
        self.edge_to = edge_to
        self.adjacency = adjacency

    def residual(
        self,
        demands: Sequence[int],
        capacities: Sequence[int],
        pushes: Sequence[tuple] = (),
    ) -> list:
        """The residual of :func:`route_direct`'s ``pushes`` (none: the
        zero flow).

        At zero flow every forward edge is at full capacity: source
        edges carry the demands, sink edges the capacities, and each
        demand-to-supply edge its row's demand.  Each pushed unit moves
        from a forward edge's residual to its reverse's along its path
        source -> ``j`` -> ``k`` -> sink.
        """
        demands = [int(d) for d in demands]
        n_demands = self.n_demands
        first_link = 2 * (n_demands + self.n_supplies)
        cap = [0] * len(self.edge_to)
        cap[0 : 2 * n_demands : 2] = demands
        cap[2 * n_demands : first_link : 2] = [int(c) for c in capacities]
        cap[first_link::2] = [demands[j] for j, _ in self.links]
        for arc, j, k, pushed in pushes:
            link = first_link + 2 * arc
            to_sink = 2 * (n_demands + k)
            cap[2 * j] -= pushed
            cap[2 * j + 1] += pushed
            cap[link] -= pushed
            cap[link + 1] += pushed
            cap[to_sink] -= pushed
            cap[to_sink + 1] += pushed
        return cap

    def augment(self, cap: list) -> int:
        """Dinic's phases after the first, to a maximum flow, in place.

        ``cap`` is a residual with no direct path source -> ``j`` ->
        ``k`` -> sink left, as :func:`route_direct`'s flow leaves it
        (on any other residual this is still Dinic, to the same maximum
        flow value).  Returns the flow added.  Each phase layers the
        residual graph by BFS distance from the source, then pushes one
        augmenting path at a time along the first usable arc of each
        node, arcs taken in adjacency order — the same paths, in the
        same order, on every run.  A path visits source, demand and
        supply nodes alternately (a supply node reaches another demand
        node only back through a reverse edge), so it holds at most
        ``2 * min(J, K) + 2`` nodes.
        """
        edge_to = self.edge_to
        adjacency = self.adjacency
        sink = self.sink
        n_nodes = sink + 1
        # Once every source edge is saturated no path can leave the
        # source, so stop there instead of proving it with another BFS.
        want = sum(cap[0 : 2 * self.n_demands : 2])
        total = 0
        while total < want:
            # BFS layering.  ``forward[u]`` keeps u's arcs that lead one
            # level deeper with residual left, in adjacency order: within
            # a phase such arcs only ever saturate, never reopen, so the
            # blocking flow scans these lists instead of all arcs.
            level = [-1] * n_nodes
            level[0] = 0
            forward: list = [()] * n_nodes
            queue = [0]
            for u in queue:
                deeper = level[u] + 1
                if deeper > level[sink] >= 0:
                    break  # every node that can lie on a path is layered
                arcs = []
                for e in adjacency[u]:
                    if cap[e] > 0:
                        v = edge_to[e]
                        if level[v] < 0:
                            level[v] = deeper
                            queue.append(v)
                            arcs.append(e)
                        elif level[v] == deeper:
                            arcs.append(e)
                forward[u] = arcs
            if level[sink] < 0:
                break
            next_arc = [0] * n_nodes
            path: list = []  # edges from the source to ``u``
            u = 0
            while True:
                if u == sink:
                    pushed = min([cap[e] for e in path])
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    total += pushed
                    # Resume at the tail of the first saturated edge:
                    # the arcs before it are still usable and current.
                    cut = 0
                    while cap[path[cut]]:
                        cut += 1
                    u = edge_to[path[cut] ^ 1]
                    del path[cut:]
                    continue
                arcs = forward[u]
                i = next_arc[u]
                n_arcs = len(arcs)
                while i < n_arcs and not cap[arcs[i]]:
                    i += 1
                next_arc[u] = i
                if i < n_arcs:
                    path.append(arcs[i])
                    u = edge_to[arcs[i]]
                elif path:  # dead end: retreat and skip the arc here
                    u = edge_to[path.pop() ^ 1]
                    next_arc[u] += 1
                else:
                    break
        return total

    def flow(self, cap: list) -> np.ndarray:
        """The ``(J, K)`` demand-to-supply flow matrix of residual ``cap``."""
        out = np.zeros((self.n_demands, self.n_supplies), dtype=np.int64)
        e = 2 * (self.n_demands + self.n_supplies) + 1
        for j, k in self.links:
            if cap[e]:
                out[j, k] = cap[e]
            e += 2
        return out

    def solve(
        self,
        demands: Sequence[int],
        capacities: Sequence[int],
        pushes: Sequence[tuple] = (),
    ) -> np.ndarray:
        """A maximum flow from :func:`route_direct`'s ``pushes``, as a
        flow matrix."""
        cap = self.residual(demands, capacities, pushes)
        self.augment(cap)
        return self.flow(cap)

    def hall_cut(self, cap: list) -> Tuple[list, int]:
        """Hall certificate read from the minimum cut of a maximum flow.

        ``cap`` is the residual of a maximum flow that left some demand
        unrouted.  Returns ``(rows, room)``: ``rows`` are the demand
        nodes reachable from the source in ``cap`` (ascending), ``room``
        the summed capacity of the supply nodes reachable from them.

        Every supply node the rows may draw from is reachable, and no
        other is (the sink is not, the flow being maximum): an edge from
        a reached row saturates only when the row's whole demand flows
        down it, and then the row was reached through that very supply.
        So ``room`` is the capacity of the rows' neighbourhood, which
        max-flow/min-cut says their demand exceeds.  By Hall's condition
        no demand vector whose ``rows`` want more than ``room`` routes in
        full on this graph, whatever the other rows want.
        """
        edge_to = self.edge_to
        adjacency = self.adjacency
        n_demands = self.n_demands
        seen = [False] * (self.sink + 1)
        seen[0] = True
        queue = [0]
        for u in queue:
            for e in adjacency[u]:
                if cap[e]:
                    v = edge_to[e]
                    if not seen[v]:
                        seen[v] = True
                        queue.append(v)
        rows = sorted(v - 1 for v in queue if 0 < v <= n_demands)
        # Node ``v`` of a supply is ``n_demands + 1 + k``; its sink edge
        # is ``2 * (v - 1)`` and holds the capacity as residual + flow.
        room = sum(cap[2 * v - 2] + cap[2 * v - 1] for v in queue if v > n_demands)
        return rows, room


def solve_transport_counts(
    demands: Sequence[int],
    capacities: Sequence[int],
    allowed: Sequence[Sequence[bool]],
) -> np.ndarray:
    """Integral transportation max-flow on counts (no ids involved).

    Bipartite flow: demand node ``j`` wants up to ``demands[j]`` units,
    supply node ``k`` holds ``capacities[k]`` units, and an edge exists
    where ``allowed[j][k]`` is true.  Returns the ``(J, K)`` integer
    flow matrix of a maximum flow.

    Every call starts from the zero flow.  :func:`route_direct` runs
    Dinic's first phase on the lists; only when it leaves demand
    unrouted is a :class:`TransportGraph` built for the later phases.

    This is the shared max-flow core of the protocol's support
    assignment: :func:`_assign_ids_by_flow` routes concrete x-ids
    through it for the per-packet session, and the batched engine's
    per-round realised planner
    (:func:`repro.theory.allocation.realised_support_flow`) runs the
    same :func:`route_direct` and :class:`TransportGraph` on
    reception-pattern histograms, at most one graph per plan —
    thousands of plans per campaign, which is why this is a
    dependency-free Dinic on lists and edge arrays rather than a graph
    library call (per-call overhead dominates at these sizes).

    Determinism matters as much as speed: node and arc order are fixed
    by the input order alone (no hashing of arbitrary keys), so the same
    inputs always yield the same — not merely equally optimal — flow
    matrix, keeping campaigns reproducible across processes.
    """
    arcs = [[k for k, ok in enumerate(row) if ok] for row in allowed]
    pushes, routed = route_direct(demands, capacities, arcs)
    if routed < sum(int(d) for d in demands):
        return TransportGraph(arcs, len(capacities)).solve(demands, capacities, pushes)
    return flow_matrix(pushes, len(arcs), len(capacities))


def _assign_ids_by_flow(cells: Mapping, id_demand: Mapping) -> dict:
    """Assign x-ids to subsets via integral max-flow.

    Bipartite transportation (see :func:`solve_transport_counts`):
    subset ``T`` demands ``id_demand[T]`` ids; cell ``P`` supplies
    ``|C_P|`` ids to any ``T <= P``.  The returned supports are
    disjoint (each id funds one block) and time-scattered within each
    cell (see :func:`_scatter_order`).
    """
    if not id_demand:
        return {}
    subsets = sorted(id_demand, key=lambda s: (len(s), sorted(s)))
    cell_list = list(cells)
    flow = solve_transport_counts(
        demands=[int(id_demand[T]) for T in subsets],
        capacities=[len(cells[P]) for P in cell_list],
        allowed=[[T <= P for P in cell_list] for T in subsets],
    )
    scattered = {P: _scatter_order(ids) for P, ids in cells.items()}
    cursor = {P: 0 for P in cells}
    assignment: dict = {}
    for j, T in enumerate(subsets):
        take: list = []
        for k, P in enumerate(cell_list):
            amount = int(flow[j, k])
            if amount <= 0:
                continue
            start = cursor[P]
            take.extend(scattered[P][start : start + amount])
            cursor[P] = start + amount
        if take:
            assignment[T] = take
    return assignment


def _trim_excess_rows(blocks: list, receivers: tuple, budget_fn: BudgetFn) -> list:
    """Drop y-rows that cannot raise the group secret.

    ``L = min_i M_i`` caps the secret; rows beyond what keeps every
    member at ``L`` only enlarge ``M`` — and every extra z-packet hands
    Eve a free linear equation while costing airtime.  Greedily shrink
    blocks whose members all sit strictly above the minimum.
    """
    if not blocks or not receivers:
        return blocks
    m_i = {t: sum(b.rows for b in blocks if t in b.subset) for t in receivers}
    floor_val = min(m_i.values())
    trimmed: list = []
    # Visit small subsets first: their rows serve the fewest terminals,
    # so they are the cheapest to shed.
    for b in sorted(blocks, key=lambda blk: (len(blk.subset), sorted(blk.subset))):
        removable = 0
        while removable < b.rows and all(
            m_i[t] - removable > floor_val for t in b.subset
        ):
            removable += 1
        keep = b.rows - removable
        for t in b.subset:
            m_i[t] -= removable
        if keep == 0:
            continue
        if keep == b.rows:
            trimmed.append(b)
        else:
            # Followers rebuild every block as cauchy_matrix(rows,
            # |support|) from its descriptor, so a trimmed block must be
            # exactly that matrix (its column points start at ``keep``).
            trimmed.append(
                CombinationBlock(
                    subset=b.subset,
                    support=b.support,
                    matrix=cauchy_matrix(keep, len(b.support)),
                    certified_budget=b.certified_budget,
                )
            )
    # Keep deterministic global order: large subsets first, then members.
    trimmed.sort(key=lambda blk: (-len(blk.subset), sorted(blk.subset)))
    return trimmed


# ---------------------------------------------------------------------------
# Phase 2: z and s matrices
# ---------------------------------------------------------------------------


def build_phase2_matrices(
    allocation: YAllocation, secrecy_slack: int = 0
) -> GroupCodingPlan:
    """Derive the z (public) and s (secret) combination maps.

    Splits the global y-row list into chunks of at most
    :data:`MAX_PHASE2_ROWS`; each chunk gets the top ``m_c - l_cap`` rows
    of an ``m_c x m_c`` Cauchy matrix as its z-map and the *last*
    ``l_c = max(0, l_cap - secrecy_slack)`` rows as its s-map, where
    ``l_cap`` is the minimum per-terminal count of decodable y-rows
    inside the chunk.

    ``secrecy_slack`` withholds dimensions from **both** maps: the rows
    between the z-block and the s-block are never published and never
    become secret.  Each withheld dimension absorbs one dimension of
    y-entropy deficit (an estimator that over-promised Eve's erasures)
    before the deficit can touch the secret — the concrete form of the
    paper's "terminals can be more or less conservative" knob, costing
    ``secrecy_slack`` packets of secret per chunk.
    """
    m_total = allocation.total_rows
    receivers = allocation.receivers
    if secrecy_slack < 0:
        raise ValueError("secrecy_slack must be non-negative")
    if m_total == 0 or not receivers:
        return GroupCodingPlan(chunks=[])

    # Chunk along block boundaries to keep per-terminal accounting exact.
    chunk_row_lists: list = []
    current: list = []
    offset = 0
    for b in allocation.blocks:
        if current and len(current) + b.rows > MAX_PHASE2_ROWS:
            chunk_row_lists.append(current)
            current = []
        current.extend(range(offset, offset + b.rows))
        offset += b.rows
    if current:
        chunk_row_lists.append(current)

    decodable = {t: set(allocation.rows_for_terminal(t)) for t in receivers}
    chunks: list = []
    for rows in chunk_row_lists:
        size = len(rows)
        l_cap = min(len(decodable[t].intersection(rows)) for t in receivers)
        l_c = max(0, l_cap - secrecy_slack)
        n_public = size - l_cap
        square = cauchy_matrix(size, size)
        z_matrix = (
            square.take_rows(range(n_public)) if n_public else GFMatrix.zeros(0, size)
        )
        s_matrix = (
            square.take_rows(range(size - l_c, size)) if l_c else GFMatrix.zeros(0, size)
        )
        chunks.append(
            Phase2Chunk(y_rows=tuple(rows), z_matrix=z_matrix, s_matrix=s_matrix)
        )
    return GroupCodingPlan(chunks=chunks)
