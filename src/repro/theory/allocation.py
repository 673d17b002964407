"""Per-round realised support assignment for the batched engine.

The scenario-level allocation LP (:mod:`repro.theory.efficiency`) is a
*fractional bound*: it plans y-row targets against expected pool sizes.
What a protocol round can actually deliver is an *integral* assignment
of the realised reception outcome — the distinction between achievable
rates and fractional planning bounds that Zimand's "no prior
information" construction makes precise, and the one the per-packet
session pays on every round through its max-flow support assignment
(:func:`repro.coding.privacy._assign_ids_by_flow`).

This module gives the batched engine the same honesty at histogram
granularity.  A round's channel outcome is summarised by its
reception-pattern histogram (``pattern bitmask -> packet count``); the
planner's id demands per terminal subset come from the memoized
scenario LP.  :func:`realised_support_flow` solves the integral
transportation max-flow between the two — subset ``T`` may only draw
support packets from pattern cells ``P >= T`` — reusing the exact flow
core the session uses: Dinic's first phase on plain lists
(:func:`repro.solvers.route_direct`), and only when that leaves
demand unrouted a :class:`repro.solvers.TransportGraph`, built
once per plan and solved on several times.  When the round
cannot meet its full demand, the demand is scaled down to the largest
routable grid point ``k / SCALE_STEPS``, found by jumping between the
Hall certificates that each failed solve's minimum cut provides
(:meth:`~repro.solvers.TransportGraph.hall_cut`); the plan is
the cold solve at that point.  A certificate holds in every round of a
cell, so a :class:`HallMemory` passed in by the caller keeps them: each
later round starts its search at the largest point they all allow, and
an infeasible one usually routes on its first solve.  The search lands
on the same point with or without the memory, so the plan is the same.

A plan is sparse: each subset's nonzero ``(cell index, units)`` pairs,
read straight off :func:`~repro.solvers.route_direct`'s pushes or the
graph's links (:meth:`~repro.solvers.TransportGraph.pairs`).  Its
dense ``flow`` table is a read-only view built on first use, for
callers that want the matrix; the batched engine never asks for it.

Each call is one solve; nothing is cached here.  The memos are the
accounting kernel's (:func:`repro.sim.engine._account_cell`): a dict
of plans per cell, since within a cell many rounds realise the same
``(histogram, demands)`` key (small ``N`` especially, which is also
where integrality bites hardest) and the cell solves each key once,
and the cell's :class:`HallMemory`.  Both live only as long as their
cell, so no plan or certificate outlives the cell that asked for it
and memory stays bounded by one cell's rounds.  There is no process-wide
cache: keys seldom repeat across cells (on the Figure-2 campaign only
between its two estimator variants), and such a cache held a dense
flow array per plan for the life of the process.  The counters behind
:func:`realised_flow_cache_info` report the per-cell memo: its hits,
and the solves made here.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.solvers import TransportGraph, flow_matrix, push_pairs, route_direct

__all__ = [
    "HallMemory",
    "RealisedPlan",
    "realised_support_flow",
    "realised_flow_cache_info",
    "clear_realised_flow_cache",
    "count_realised_flow_hit",
]

#: Scales of an infeasible round live on the grid ``k / SCALE_STEPS``.
SCALE_STEPS = 64

#: Plan-memo counts since the last :func:`clear_realised_flow_cache`:
#: ``[hits, solves]``.
_counts = [0, 0]

FlowMemoInfo = namedtuple("FlowMemoInfo", ["hits", "misses"])


@dataclass(frozen=True, eq=False)
class RealisedPlan:
    """One integral support assignment on a realised pattern histogram.

    Attributes:
        subsets: terminal-subset bitmasks with positive id demand, in
            key order (ascending mask).
        cells: reception-pattern bitmasks with at least one packet, in
            key order (ascending mask); the empty pattern is excluded
            (packets nobody received cannot support any block).
        pairs: per subset, the ``(cell index, units)`` pairs of the
            cells it draws support packets from under a maximum flow,
            ascending cell index, nonzero units only.  Supports are
            disjoint by construction (each packet funds one subset).
    """

    subsets: tuple
    cells: tuple
    pairs: tuple
    #: Uniform demand fraction the histogram could fully satisfy (1.0
    #: when every subset got its whole demand).  Row targets scale by
    #: this, so scarce rounds keep every block *demand*-bound — the
    #: certified-rate ceiling stays strictly above the granted rows,
    #: preserving the session's rounding buffer against Eve.
    scale: float = 1.0

    @cached_property
    def flow(self) -> np.ndarray:
        """Read-only int64 array ``(len(subsets), len(cells))`` of
        :attr:`pairs`, built on first use."""
        out = flow_matrix(self.pairs, len(self.cells))
        out.setflags(write=False)
        return out

    @property
    def assigned(self) -> np.ndarray:
        """Support packets each subset actually obtained, ``(len(subsets),)``."""
        return np.array(
            [sum(units for _, units in row) for row in self.pairs], dtype=np.int64
        )


class HallMemory:
    """The Hall certificates that one cell's failed solves proved.

    A failed solve's minimum cut (:meth:`~repro.solvers.TransportGraph.hall_cut`)
    names rows whose demand exceeds the cells they may draw from.  Its
    certificate is the minimal subset masks of those rows; call ``U``
    the masks that contain one of them.  In any round, a subset in
    ``U`` may draw only from cells in ``U`` (a pattern that contains
    the subset contains its generator), so a grid point ``k`` whose
    floored demands on the round's subsets in ``U`` exceed the
    capacity of the round's cells in ``U`` cannot route, whatever the
    other subsets want.  The test reads the containment structure
    alone, so a certificate learned in one round of a cell holds in
    every other.

    A certificate keeps its generator masks, never its up-closure
    (``2^r`` masks at up to 16 receivers).  The memory tests each mask
    that its rounds bring, a subset or a cell, against every
    certificate once, and keeps the answers packed in one integer per
    mask: bit ``width * i`` is set when the mask lies in certificate
    ``i``'s ``U``.  A round's demand and capacity inside every ``U``
    then take one multiply-add per subset and per cell, certificate
    ``i``'s in the ``i``-th ``width``-bit field.

    One memory serves the rounds of one cell
    (:func:`repro.sim.engine._account_cell`) and dies with it.
    """

    __slots__ = ("certificates", "_width", "_packed")

    def __init__(self) -> None:
        #: Each certificate's generator masks, in the order the failed
        #: solves found them.
        self.certificates: List[tuple] = []
        #: Bits per packed field: enough for any round's summed demand
        #: or capacity so far.
        self._width = 32
        #: mask -> its packed membership in every certificate.
        self._packed: Dict[int, int] = {}

    def add(self, masks: Iterable[int]) -> None:
        """Remember a failed solve's cut, given its rows' subset masks."""
        generators: list = []
        for m in sorted(set(masks), key=lambda m: (bin(m).count("1"), m)):
            if not any(m & g == g for g in generators):
                generators.append(m)
        bit = 1 << (self._width * len(self.certificates))
        self.certificates.append(tuple(generators))
        packed = self._packed
        for m in packed:
            for g in generators:
                if m & g == g:
                    packed[m] |= bit
                    break

    def _members(self, masks: tuple) -> list:
        """The packed membership of each of ``masks``."""
        packed = self._packed
        out = [packed.get(m) for m in masks]
        if None in out:
            width = self._width
            for j, m in enumerate(masks):
                if out[j] is None:
                    bits = 0
                    bit = 1
                    for generators in self.certificates:
                        for g in generators:
                            if m & g == g:
                                bits |= bit
                                break
                        bit <<= width
                    out[j] = packed[m] = bits
        return out

    def bound(
        self,
        subsets: tuple,
        demands: list,
        cells: tuple,
        capacities: list,
        step: int,
    ) -> int:
        """The largest grid point ``<= step`` that every certificate
        allows on one round."""
        if not self.certificates:
            return step
        need = max(sum(demands), sum(capacities)).bit_length()
        if need > self._width:
            self._width = need
            self._packed.clear()
        width = self._width
        field = (1 << width) - 1
        in_subsets = self._members(subsets)
        wanted = sum(map(mul, demands, in_subsets))
        room = sum(map(mul, capacities, self._members(cells)))
        bit = 1
        for _ in self.certificates:
            # floor(k d / 64) <= k d / 64: the floors fit if the sum does.
            if step * (wanted & field) > SCALE_STEPS * (room & field):
                step = _largest_step(
                    [d for d, b in zip(demands, in_subsets) if b & bit],
                    room & field,
                    step,
                )
            wanted >>= width
            room >>= width
            bit <<= width
        return step


def _largest_step(wanted: list, room: int, step: int) -> int:
    """The largest grid point ``<= step`` whose floored ``wanted``
    demands fit in ``room``; ``wanted`` sums to more than
    ``room * SCALE_STEPS / step``."""
    total = sum(wanted)
    # floor(k d / 64) lies in [(k d - 63) / 64, k d / 64]: the floors
    # fit at lo, and no longer fit from hi on.
    lo = room * SCALE_STEPS // total
    hi = (SCALE_STEPS * room + (SCALE_STEPS - 1) * len(wanted)) // total + 1
    hi = min(hi, step + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sum([mid * d // SCALE_STEPS for d in wanted]) <= room:
            lo = mid
        else:
            hi = mid
    return lo


def realised_support_flow(
    cell_counts: tuple,
    subset_demands: tuple,
    top_up: bool = False,
    memory: Optional[HallMemory] = None,
) -> RealisedPlan:
    """Integral support assignment for one observed round.

    Args:
        cell_counts: ``((pattern_mask, packet_count), ...)`` — the
            round's reception-pattern histogram, nonzero non-empty
            patterns only, ascending mask order.
        subset_demands: ``((subset_mask, id_demand), ...)`` — how many
            support packets each active terminal subset wants, ascending
            mask order.  A subset may draw only from pattern cells that
            contain it (``subset & pattern == subset``).
        top_up: after the balanced scale-down of an infeasible round,
            grant leftover capacity opportunistically.  Right when
            certification is support-exact (the oracle counts Eve's
            actual misses, so a partially-filled block can never
            over-promise); wrong for rate-certified estimators, whose
            partially-filled blocks would sit at their certified
            ceiling with no rounding buffer.
        memory: a :class:`HallMemory` shared by the rounds of one cell.
            Every round bounds its grid step with every certificate in
            it before its first solve, and each failed solve adds its
            cut.  ``None`` (the default) keeps no memory.  The plan is
            the same either way.

    Returns:
        A new :class:`RealisedPlan`.  Identical keys give equal plans
        (same ``subsets``, ``cells``, ``pairs`` and ``scale``) but not
        the same object: every call solves, and counts as one miss in
        :func:`realised_flow_cache_info`.
    """
    _counts[1] += 1
    cells = tuple(p for p, _ in cell_counts)
    subsets = tuple(s for s, _ in subset_demands)
    demands = [int(d) for _, d in subset_demands]
    capacities = [int(c) for _, c in cell_counts]
    # Subset s may draw from the cells that contain it.
    arcs = [[k for k, p in enumerate(cells) if s & p == s] for s in subsets]
    # A round whose full demand does not route is infeasible: a maximum
    # flow meets the total but may starve individual subsets entirely
    # (max-flow optimises the sum, not the spread), and a starved subset
    # drags the secret cap L = min_i M_i down for every terminal it
    # served.  Scale the demand vector down uniformly to the largest
    # grid point k / SCALE_STEPS whose floored demands the histogram can
    # fully satisfy, which spreads the shortfall evenly like the
    # fractional planner would.  No opportunistic top-up:
    # partially-filled blocks would sit exactly at their certified-rate
    # ceiling with no rounding buffer, precisely the blocks whose
    # secrecy deficits the session never produces.
    #
    # Each failed solve's minimum cut is a Hall certificate
    # (TransportGraph.hall_cut) that holds in every round of the cell
    # (HallMemory).  Start from the largest point that the remembered
    # certificates allow (the full demand when none rules it out), and
    # solve cold there; a failed solve's cut is the next certificate.
    # Routability is monotone in the step, so this stops on the largest
    # routable grid point whatever certificates it used, and the plan
    # is the cold solve at its demands.
    if memory is None:
        memory = HallMemory()
    step = memory.bound(subsets, demands, cells, capacities, SCALE_STEPS)
    graph = None
    while True:
        met = [step * d // SCALE_STEPS for d in demands]
        want = sum(met)
        # Dinic's first phase needs no graph; a solve it routes in full
        # builds none.  Otherwise the plan builds its graph once, and
        # the later phases run from the first phase's flow.
        pushes, routed = route_direct(met, capacities, arcs)
        if routed == want:
            pairs = push_pairs(pushes, len(subsets))
            break
        if graph is None:
            graph = TransportGraph(arcs, len(cells))
        cap = graph.residual(met, capacities, pushes)
        if routed + graph.augment(cap) == want:
            pairs = graph.pairs(cap)
            break
        rows, room = graph.hall_cut(cap)
        memory.add(subsets[j] for j in rows)
        step = _largest_step([demands[j] for j in rows], room, step)
    scale = 1.0
    if step < SCALE_STEPS:
        if top_up:
            # Grant the leftover capacity on top of the balanced plan;
            # demand caps stay unscaled, exact budgets bind instead.
            left = list(demands)
            room = list(capacities)
            for j, row in enumerate(pairs):
                for k, units in row:
                    left[j] -= units
                    room[k] -= units
            extra, routed = route_direct(left, room, arcs)
            if routed == sum(left):
                extra = push_pairs(extra, len(subsets))
            else:
                if graph is None:
                    graph = TransportGraph(arcs, len(cells))
                cap = graph.residual(left, room, extra)
                graph.augment(cap)
                extra = graph.pairs(cap)
            for j, more in enumerate(extra):
                if more:
                    units = dict(pairs[j])
                    for k, add in more:
                        units[k] = units.get(k, 0) + add
                    pairs[j] = sorted(units.items())
        else:
            scale = step / SCALE_STEPS
    return RealisedPlan(
        subsets=subsets,
        cells=cells,
        pairs=tuple(map(tuple, pairs)),
        scale=scale,
    )


def count_realised_flow_hit() -> None:
    """Count one plan-memo hit: a round whose key its cell had solved."""
    _counts[0] += 1


def realised_flow_cache_info() -> FlowMemoInfo:
    """``(hits, misses)`` of the per-cell plan memo: misses are solves."""
    return FlowMemoInfo(*_counts)


def clear_realised_flow_cache() -> None:
    """Zero the plan-memo counters (there is no process-wide cache)."""
    _counts[0] = _counts[1] = 0
