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
core the session uses (:class:`repro.coding.privacy.TransportGraph`,
built once per plan and solved on several times).

Solves are memoized on the observed ``(histogram, demands)`` key:
within a scenario many rounds realise the same histogram (small ``N``
especially, which is also where integrality bites hardest), so the
cache amortises like the allocation-LP cache does.  The cached
:class:`RealisedPlan` is immutable and shared — callers must treat the
flow table as read-only (the array is marked unwriteable).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.coding.privacy import TransportGraph, solve_transport_counts

__all__ = [
    "RealisedPlan",
    "realised_support_flow",
    "realised_flow_cache_info",
    "clear_realised_flow_cache",
]


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


@functools.lru_cache(maxsize=1 << 16)
def realised_support_flow(
    cell_counts: tuple, subset_demands: tuple, top_up: bool = False
) -> RealisedPlan:
    """Memoized integral support assignment for one observed round.

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
        The cached :class:`RealisedPlan`.  Identical keys return the
        *identical object* (``is``-equal), which is what lets thousands
        of rounds share one max-flow solve.
    """
    cells = tuple(p for p, _ in cell_counts)
    subsets = tuple(s for s, _ in subset_demands)
    demands = [int(d) for _, d in subset_demands]
    capacities = [int(c) for _, c in cell_counts]
    allowed = [[(s & p) == s for p in cells] for s in subsets]
    graph = TransportGraph(allowed, len(cells))
    flow = solve_transport_counts(demands, capacities, allowed, graph=graph)
    scale = 1.0
    if flow.sum() < sum(demands):
        # Infeasible round: a maximum flow meets the total but may
        # starve individual subsets entirely (max-flow optimises the
        # sum, not the spread), and a starved subset drags the secret
        # cap L = min_i M_i down for every terminal it served.  Scale
        # the demand vector down uniformly to the largest fraction the
        # histogram can fully satisfy (binary search — demand
        # satisfaction is monotone in the scale), which spreads the
        # shortfall evenly like the fractional planner would.  No
        # opportunistic top-up: partially-filled blocks would sit
        # exactly at their certified-rate ceiling with no rounding
        # buffer, precisely the blocks whose secrecy deficits the
        # session never produces.
        #
        # Each step only asks whether the scaled demand routes, so it
        # warm-starts from the last feasible step's residual and routes
        # just the extra demand.  The returned matrix comes from one cold
        # solve at the chosen scale, which is what fixes *which* maximum
        # flow the plan holds.
        lo = 0.0
        hi = 1.0
        met = [0] * len(demands)
        residual = graph.residual(met, capacities)
        for _ in range(6):
            mid = (lo + hi) / 2.0
            scaled = [math.floor(mid * d) for d in demands]
            raised = graph.raise_demands(residual, met, scaled)
            if raised is not None:
                lo, met, residual = mid, scaled, raised
            else:
                hi = mid
        best = solve_transport_counts(met, capacities, allowed, graph=graph)
        if top_up:
            residual_demands = [
                d - int(best[j].sum()) for j, d in enumerate(demands)
            ]
            residual_caps = [
                c - int(best[:, k].sum()) for k, c in enumerate(capacities)
            ]
            extra = solve_transport_counts(
                residual_demands, residual_caps, allowed, graph=graph
            )
            flow = best + extra
            scale = 1.0  # demand caps stay unscaled; exact budgets bind instead
        else:
            flow = best
            scale = lo
    flow.setflags(write=False)
    return RealisedPlan(subsets=subsets, cells=cells, flow=flow, scale=scale)


def realised_flow_cache_info():
    """Hit/miss statistics of the realised-flow memo (tests use this)."""
    return realised_support_flow.cache_info()


def clear_realised_flow_cache() -> None:
    """Drop every memoized realised flow (tests use this for isolation)."""
    realised_support_flow.cache_clear()
