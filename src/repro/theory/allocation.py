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
the cold solve at that point.

Each call is one solve; nothing is cached here.  The memo is the
accounting kernel's per-cell dict (:func:`repro.sim.engine._account_cell`):
within a cell many rounds realise the same ``(histogram, demands)`` key
(small ``N`` especially, which is also where integrality bites
hardest), and the cell solves each key once.  The memo lives only as
long as its cell, so no plan outlives the cell that asked for it and
memory stays bounded by one cell's rounds.  There is no process-wide
cache: keys seldom repeat across cells (on the Figure-2 campaign only
between its two estimator variants), and such a cache held a dense
flow array per plan for the life of the process.  The counters behind
:func:`realised_flow_cache_info` report the per-cell memo: its hits,
and the solves made here.  A :class:`RealisedPlan`'s flow table
is read-only (the array is marked unwriteable).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from repro.solvers import TransportGraph, flow_matrix, route_direct

__all__ = [
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
        flow: read-only int64 array ``(len(subsets), len(cells))`` —
            how many support packets each subset draws from each cell
            under a maximum flow.  Supports are disjoint by
            construction (each packet funds one subset).
    """

    subsets: tuple
    cells: tuple
    flow: np.ndarray
    #: Uniform demand fraction the histogram could fully satisfy (1.0
    #: when every subset got its whole demand).  Row targets scale by
    #: this, so scarce rounds keep every block *demand*-bound — the
    #: certified-rate ceiling stays strictly above the granted rows,
    #: preserving the session's rounding buffer against Eve.
    scale: float = 1.0

    @property
    def assigned(self) -> np.ndarray:
        """Support packets each subset actually obtained, ``(len(subsets),)``."""
        return self.flow.sum(axis=1)


def realised_support_flow(
    cell_counts: tuple, subset_demands: tuple, top_up: bool = False
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

    Returns:
        A new :class:`RealisedPlan`.  Identical keys give equal plans
        (same ``subsets``, ``cells``, ``flow`` bytes and ``scale``) but
        not the same object: every call solves, and counts as one
        miss in :func:`realised_flow_cache_info`.
    """
    _counts[1] += 1
    cells = tuple(p for p, _ in cell_counts)
    subsets = tuple(s for s, _ in subset_demands)
    demands = [int(d) for _, d in subset_demands]
    capacities = [int(c) for _, c in cell_counts]
    # Subset s may draw from the cells that contain it.
    arcs = [[k for k, p in enumerate(cells) if s & p == s] for s in subsets]
    graph = None
    step = SCALE_STEPS
    met = demands
    while True:
        # Dinic's first phase needs no graph; a round it routes in full
        # is planned without one.  Otherwise the graph is built once and
        # the later phases run from the first phase's flow.
        pushes, routed = route_direct(met, capacities, arcs)
        want = sum(met)
        if routed == want:
            flow = flow_matrix(pushes, len(subsets), len(cells))
            break
        if graph is None:
            graph = TransportGraph(arcs, len(cells))
        cap = graph.residual(met, capacities, pushes)
        if routed + graph.augment(cap) == want:
            flow = graph.flow(cap)
            break
        # Infeasible round: a maximum flow meets the total but may
        # starve individual subsets entirely (max-flow optimises the
        # sum, not the spread), and a starved subset drags the secret
        # cap L = min_i M_i down for every terminal it served.  Scale
        # the demand vector down uniformly to the largest grid point
        # k / SCALE_STEPS whose floored demands the histogram can fully
        # satisfy, which spreads the shortfall evenly like the
        # fractional planner would.  No opportunistic top-up:
        # partially-filled blocks would sit exactly at their
        # certified-rate ceiling with no rounding buffer, precisely the
        # blocks whose secrecy deficits the session never produces.
        #
        # Each failed solve's minimum cut is a Hall certificate
        # (TransportGraph.hall_cut): no grid point whose floored demand
        # on the cut's rows exceeds their cells' capacity can route.
        # Jump to the largest point the certificate allows and solve
        # cold there; a failed solve's cut is the next certificate.
        # Routability is monotone in the step, so this stops on the
        # largest routable grid point, and the plan is the cold solve at
        # its demands.
        rows, room = graph.hall_cut(cap)
        lo, hi = 0, step  # the certificate holds at lo, fails at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            wanted = sum(math.floor(mid / SCALE_STEPS * demands[j]) for j in rows)
            if wanted <= room:
                lo = mid
            else:
                hi = mid
        step = lo
        met = [math.floor(step / SCALE_STEPS * d) for d in demands]
    scale = 1.0
    if step < SCALE_STEPS:
        if top_up:
            # Grant the leftover capacity on top of the balanced plan;
            # demand caps stay unscaled, exact budgets bind instead.
            left = [d - f for d, f in zip(demands, flow.sum(axis=1).tolist())]
            room = [c - f for c, f in zip(capacities, flow.sum(axis=0).tolist())]
            extra, _ = route_direct(left, room, arcs)
            flow = flow + graph.solve(left, room, extra)
        else:
            scale = step / SCALE_STEPS
    flow.setflags(write=False)
    return RealisedPlan(subsets=subsets, cells=cells, flow=flow, scale=scale)


def count_realised_flow_hit() -> None:
    """Count one plan-memo hit: a round whose key its cell had solved."""
    _counts[0] += 1


def realised_flow_cache_info() -> FlowMemoInfo:
    """``(hits, misses)`` of the per-cell plan memo: misses are solves."""
    return FlowMemoInfo(*_counts)


def clear_realised_flow_cache() -> None:
    """Zero the plan-memo counters (there is no process-wide cache)."""
    _counts[0] = _counts[1] = 0
