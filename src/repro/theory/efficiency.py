"""Maximum efficiency of group secret agreement (the paper's Figure 1).

Setting: symmetric i.i.d. erasures — Alice transmits N x-packets, each
reaching every terminal and Eve independently with probability ``1-p``.
Efficiency is secret packets divided by transmitted packets, in the
idealised accounting of the figure (x-packets and z-contents count;
identity/feedback control traffic is negligible against 800-bit
payloads).

**Unicast algorithm** (dashed lines): Alice builds a pair-wise secret
with each terminal from the same N x-packets (rate ``p(1-p)`` per
packet), then one-time-pads the ``L``-packet group secret to each of the
``n-1`` terminals separately::

    eff_unicast(n, p) = p(1-p) / (1 + (n-1) p(1-p))  -->  0  as n grows.

**Group algorithm** (solid lines): y-packets decodable by a terminal
subset ``T`` must be supported on packets all of ``T`` received, whose
expected fraction is ``(1-p)^{|T|}``; Eve misses ``p`` of any of them.
Writing ``a_t`` for the number of y-packets allocated to *each* size-t
subset, the secrecy budget inside the intersection of any ``s``
reception sets bounds every allocation that fits inside it::

    sum_t C(n-1-s, t-s) a_t <= p (1-p)^s N          (s = 1..n-1)
    sum_t C(n-1,   t)   a_t <= p (1-p^{n-1}) N      (s = 0: union bound)

Each terminal decodes ``M_i = sum_t C(n-2, t-1) a_t`` y-packets, the
group secret has ``L = min_i M_i`` packets, and phase 2 broadcasts
``M - L`` z-contents, so efficiency is ``L / (N + M - L)`` — a linear
fractional program solved by Dinkelbach iteration over an LP.

Closed forms: ``n = 2`` gives ``p(1-p)`` (no redistribution needed);
as ``n → ∞`` the optimal allocation concentrates at level
``t ≈ (1-p)(n-1)`` and efficiency tends to ``p(1-p) / (1 + p²)`` —
bounded away from zero, the paper's headline contrast with unicast.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.solvers import solve_lp

__all__ = [
    "unicast_efficiency",
    "group_efficiency_lp",
    "group_efficiency_infinite",
    "group_efficiency",
    "AllocationProfile",
    "group_allocation_profile",
    "adopt_allocation_profile",
    "efficiency_cache_info",
    "clear_efficiency_cache",
]


def _validate(n: int, p: float) -> None:
    if n < 2:
        raise ValueError("need at least two terminals")
    if not 0.0 <= p <= 1.0:
        raise ValueError("erasure probability must be in [0, 1]")


def unicast_efficiency(n: int, p: float) -> float:
    """Efficiency of the unicast strawman (dashed curves in Figure 1)."""
    _validate(n, p)
    rate = p * (1.0 - p)
    return rate / (1.0 + (n - 1) * rate)


def group_efficiency_infinite(p: float) -> float:
    """n -> infinity limit of the group algorithm: ``p(1-p)/(1+p^2)``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("erasure probability must be in [0, 1]")
    return p * (1.0 - p) / (1.0 + p * p)


@dataclass(frozen=True)
class AllocationProfile:
    """The symmetric LP's optimal allocation, normalised per x-packet.

    ``level_rows[t - 1]`` is the number of y-rows allocated to *each*
    terminal subset of size ``t`` (t = 1..n-1), per transmitted
    x-packet.  The batched simulation engine scales these by N and
    clamps them against realised reception pools, reusing one LP solve
    across every round of a scenario (see :mod:`repro.sim`).

    Attributes:
        n: group size (terminals including the leader).
        p: the erasure probability the LP was solved for.
        z_cost_factor: airtime weight of one z-packet in the objective
            denominator (1.0 reproduces the Figure-1 accounting).
        level_rows: per-subset y-rows at each level, per x-packet.
        l_per_packet: L / N at the optimum.
        m_per_packet: M / N at the optimum.
        efficiency: the optimal value ``L / (N + z_cost (M - L))``.
    """

    n: int
    p: float
    z_cost_factor: float
    level_rows: tuple
    l_per_packet: float
    m_per_packet: float
    efficiency: float


_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _LevelLPMemo:
    """LRU memo of :func:`_solve_group_lp`, keyed on its argument tuple.

    Bounded, counted and thread-safe like a ``functools.lru_cache``
    (``cache_info``, ``cache_clear``), it can also :meth:`adopt` a
    profile solved elsewhere: the campaign runner's table helper solves
    a placement's planning LPs in a forked twin of this process and
    hands back each profile with the arguments it was solved for.  An
    adopted entry sits under exactly those arguments, so only a call
    asking for them reads it.  Adopting counts as neither a hit nor a
    miss.
    """

    def __init__(self, solve: Callable[..., AllocationProfile], maxsize: int):
        functools.update_wrapper(self, solve)  # __wrapped__: the bare solve
        self._maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def __call__(self, *key) -> AllocationProfile:
        with self._lock:
            profile = self._entries.get(key)
            if profile is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return profile
            self._misses += 1
        profile = self.__wrapped__(*key)
        self.adopt(key, profile)
        return profile

    def adopt(self, key: tuple, profile: AllocationProfile) -> None:
        """Store ``profile`` as the solve of ``key``, evicting the
        least recently used entry past the bound."""
        with self._lock:
            self._entries[key] = profile
            self._entries.move_to_end(key)
            if len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(
                self._hits, self._misses, self._maxsize, len(self._entries)
            )

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0


@functools.partial(_LevelLPMemo, maxsize=4096)
def _solve_group_lp(
    n: int,
    p: float,
    z_cost_factor: float,
    max_iterations: int,
    tol: float,
    max_level: Optional[int],
    support_feasible: bool,
    support_rate: Optional[float],
) -> AllocationProfile:
    """Dinkelbach iteration over the level-variable LP.

    Campaigns evaluate the same ``(n, p)`` grid cells thousands of
    times (allocation planning, figure regeneration, batched scenario
    sweeps), so the solve is memoized on its full argument tuple (one
    :class:`_LevelLPMemo`, which every entry point goes through).

    ``max_level`` restricts the allocation to subsets of at most that
    size: estimators with structural blind spots (leave-one-out needs a
    witness outside the subset, k-collusion needs k) cannot certify
    high-level blocks, and planning rows there would waste the budget.

    ``support_feasible`` adds the aggregate disjoint-support
    constraints (see :func:`group_allocation_profile`): the Figure-1
    bound leaves them out, a planner that must *realise* its targets
    needs them.  ``support_rate`` is the certified Eve-miss rate one
    support packet funds under the planned estimator (default ``p``,
    the oracle's rate); weaker estimators certify fewer rows per
    packet, so their allocations need proportionally more support.
    """
    r = n - 1  # receivers
    level_cap = r if max_level is None else min(max_level, r)
    levels = list(range(1, level_cap + 1))
    n_vars = len(levels) + 1
    l_idx = len(levels)

    a_ub = []
    b_ub = []
    # s = 0: all y-packets live inside the union of reception sets.
    row = np.zeros(n_vars)
    for j, t in enumerate(levels):
        row[j] = math.comb(r, t)
    a_ub.append(row)
    b_ub.append(p * (1.0 - p**r))
    # s = 1..r: allocations inside the intersection of s reception sets.
    for s in range(1, r + 1):
        row = np.zeros(n_vars)
        for j, t in enumerate(levels):
            if t >= s:
                row[j] = math.comb(r - s, t - s)
        a_ub.append(row)
        b_ub.append(p * (1.0 - p) ** s)
    if support_feasible:
        # Aggregate support capacity, s = 1..r: every block decodable
        # by >= s receivers draws its (disjoint) support from packets
        # whose reception pattern has size >= s, and each certified row
        # consumes 1/support_rate support packets (the s = 0 union row
        # above is this family's s = 1 member at the oracle's rate p).
        # Without these rows the symmetric optimum can demand more
        # level-t support than the realised pattern histogram holds
        # (Hall's condition for the transportation flow), which is
        # exactly the fractional-LP optimism the realised planner
        # exists to remove.
        rate = p if support_rate is None else support_rate
        for s in range(1, r + 1):
            row = np.zeros(n_vars)
            hit = False
            for j, t in enumerate(levels):
                if t >= s:
                    row[j] = math.comb(r, t)
                    hit = True
            if not hit:
                continue
            # Left to right in an explicit loop: from Python 3.12,
            # sum() compensates float rounding and moves these bits.
            mass = 0.0
            for k in range(s, r + 1):
                mass += math.comb(r, k) * (1.0 - p) ** k * p ** (r - k)
            a_ub.append(row)
            b_ub.append(rate * mass)
    # Coverage: L <= M_i (symmetric, one row suffices).
    row = np.zeros(n_vars)
    row[l_idx] = 1.0
    for j, t in enumerate(levels):
        row[j] = -math.comb(r - 1, t - 1)
    a_ub.append(row)
    b_ub.append(0.0)
    a_ub = np.array(a_ub)
    b_ub = np.array(b_ub)

    def m_total(a_values: np.ndarray) -> float:
        total = 0.0  # an explicit loop, like ``mass`` above
        for j, t in enumerate(levels):
            total += math.comb(r, t) * a_values[j]
        return float(total)

    zc = z_cost_factor
    theta = 0.0
    best_eff = 0.0
    best_x = np.zeros(n_vars)
    for _ in range(max_iterations):
        # maximise L - theta (1 + z_cost (M - L))
        c = np.zeros(n_vars)
        for j, t in enumerate(levels):
            c[j] = theta * zc * math.comb(r, t)
        c[l_idx] = -(1.0 + theta * zc)
        x = solve_lp(c, a_ub, b_ub)
        if x is None:  # pragma: no cover — always feasible (all-zero)
            break
        l_val = float(x[l_idx])
        m_val = m_total(x[:l_idx])
        denom = 1.0 + zc * (m_val - l_val)
        eff = 0.0 if denom <= 0 else l_val / denom
        if eff > best_eff:
            best_eff = eff
            best_x = x
        if abs(eff - theta) < tol:
            break
        theta = eff
    # Pad the level vector to r entries so consumers can index by subset
    # size regardless of the cap.
    level_rows = [float(v) for v in best_x[:l_idx]] + [0.0] * (r - level_cap)
    return AllocationProfile(
        n=n,
        p=p,
        z_cost_factor=zc,
        level_rows=tuple(level_rows),
        l_per_packet=float(best_x[l_idx]),
        m_per_packet=m_total(best_x[:l_idx]),
        efficiency=best_eff,
    )


def _profile_key(
    n: int,
    p: float,
    z_cost_factor: float,
    max_level: Optional[int],
    support_feasible: bool,
    support_rate: Optional[float],
) -> Optional[tuple]:
    """The memo key :func:`group_allocation_profile` normalises its
    arguments to, after validating them; None when no LP is solved
    (the all-zero profile is exact)."""
    _validate(n, p)
    if not z_cost_factor > 0:
        raise ValueError("z_cost_factor must be positive")
    if support_rate is not None and not 0.0 <= support_rate <= 1.0:
        raise ValueError("support_rate must be in [0, 1]")
    degenerate = (
        p in (0.0, 1.0)
        or (max_level is not None and max_level < 1)
        or (support_feasible and support_rate is not None and support_rate <= 0.0)
    )
    if degenerate:
        return None
    if max_level is not None and max_level >= n - 1:
        max_level = None  # unrestricted: share the cache entry
    if not support_feasible or (support_rate is not None and support_rate >= p):
        support_rate = None  # oracle-rate planning: share the cache entry
    return (
        n, float(p), float(z_cost_factor), 25, 1e-10, max_level,
        bool(support_feasible),
        None if support_rate is None else float(support_rate),
    )


def group_allocation_profile(
    n: int,
    p: float,
    z_cost_factor: float = 1.0,
    max_level: Optional[int] = None,
    support_feasible: bool = False,
    support_rate: Optional[float] = None,
) -> AllocationProfile:
    """Optimal symmetric allocation for ``(n, p)`` (memoized LP solve).

    ``max_level`` caps the decodable-subset size the plan may use (see
    :func:`_solve_group_lp`); ``None`` leaves it unrestricted.

    ``support_feasible`` additionally requires the allocation to be
    *realisable with disjoint supports* on a typical reception
    histogram: for every s, blocks decodable by >= s receivers must fit
    (at ``1/support_rate`` support packets per row — ``support_rate``
    defaults to ``p``, the oracle's certified Eve-miss rate) inside the
    expected mass of reception patterns of size >= s.  The Figure-1
    bound omits these rows — Eve's secrecy budget does not need them —
    but a planner whose targets feed an integral support assignment
    does (:mod:`repro.sim.engine` plans with them; the unconstrained
    profile would demand more high-level support than realised rounds
    hold and starve the max-flow).
    """
    key = _profile_key(
        n, p, z_cost_factor, max_level, support_feasible, support_rate
    )
    if key is None:
        return AllocationProfile(
            n=n,
            p=p,
            z_cost_factor=z_cost_factor,
            level_rows=tuple(0.0 for _ in range(n - 1)),
            l_per_packet=0.0,
            m_per_packet=0.0,
            efficiency=0.0,
        )
    return _solve_group_lp(*key)


def adopt_allocation_profile(
    profile: AllocationProfile,
    n: int,
    p: float,
    z_cost_factor: float = 1.0,
    max_level: Optional[int] = None,
    support_feasible: bool = False,
    support_rate: Optional[float] = None,
) -> None:
    """Memoize ``profile`` as the answer to these arguments.

    ``profile`` must be what :func:`group_allocation_profile` returned
    for exactly these arguments in another process (a forked twin of
    this one, so the solve is bit-identical).  It is stored under the
    key they normalise to, so a later :func:`group_allocation_profile`
    call with them returns it without solving, and no other call can
    read it.  Arguments that need no LP store nothing.
    """
    key = _profile_key(
        n, p, z_cost_factor, max_level, support_feasible, support_rate
    )
    if key is not None:
        _solve_group_lp.adopt(key, profile)


def group_efficiency_lp(
    n: int, p: float, max_iterations: int = 25, tol: float = 1e-10
) -> float:
    """Maximum efficiency of the group algorithm for finite ``n``.

    Solves the linear fractional program described in the module
    docstring via Dinkelbach iteration (each step one LP in the ``n-1``
    level variables plus ``L``).  Solves are memoized on ``(n, p,
    max_iterations, tol)``; see :func:`efficiency_cache_info`.
    """
    _validate(n, p)
    if p in (0.0, 1.0):
        return 0.0
    # The full key, so the default settings share the entry of an
    # unrestricted group_allocation_profile(n, p).
    return _solve_group_lp(
        n, float(p), 1.0, max_iterations, tol, None, False, None
    ).efficiency


def efficiency_cache_info() -> _CacheInfo:
    """Hit/miss statistics of the memoized efficiency LP solver."""
    return _solve_group_lp.cache_info()


def clear_efficiency_cache() -> None:
    """Drop every memoized LP solve (tests use this for isolation)."""
    _solve_group_lp.cache_clear()


def group_efficiency(n, p: float) -> float:
    """Group-algorithm efficiency; ``n`` may be an int or ``math.inf``."""
    if n == math.inf:
        return group_efficiency_infinite(p)
    n = int(n)
    _validate(n, p)
    if n == 2:
        # Single receiver: its pair-wise secret is the group secret.
        return p * (1.0 - p)
    return group_efficiency_lp(n, p)
