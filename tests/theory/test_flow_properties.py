"""Property tests for the realised max-flow, against scipy as an oracle.

:func:`repro.solvers.solve_transport_counts` must return a
*maximum* flow (its value equals the max-flow/min-cut value scipy's
``maximum_flow`` finds on the same network), a *feasible* one (demands,
capacities and the ``allowed`` mask respected) and the *same* one on
every call.  :meth:`repro.solvers.TransportGraph.hall_cut` must
read a Hall certificate off every maximum flow that leaves demand
unrouted: rows that want more than the summed capacity of the cells
they may draw from.  :func:`repro.theory.allocation.realised_support_flow`'s
scale search, which jumps between such certificates, must land exactly
on the largest grid point ``k/64`` whose floored demands can be fully
routed, for every group size the campaigns plan (2-7 receivers).  scipy
is used here only; the package's own solver stays dependency-free.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from repro.solvers import TransportGraph, solve_transport_counts
from repro.theory import clear_realised_flow_cache
from repro.theory.allocation import SCALE_STEPS, realised_support_flow

pytestmark = pytest.mark.flow


def oracle_max_flow(demands, capacities, allowed) -> int:
    """Max-flow value of the transportation network, via scipy."""
    n_demands, n_supplies = len(demands), len(capacities)
    sink = n_demands + n_supplies + 1
    rows, cols, caps = [], [], []

    def edge(u, v, cap):
        if cap > 0:
            rows.append(u)
            cols.append(v)
            caps.append(cap)

    for j, d in enumerate(demands):
        edge(0, 1 + j, d)
        for k in range(n_supplies):
            if allowed[j][k]:
                edge(1 + j, 1 + n_demands + k, d)
    for k, c in enumerate(capacities):
        edge(1 + n_demands + k, sink, c)
    if not caps:
        return 0
    graph = csr_matrix(
        (np.array(caps, dtype=np.int32), (rows, cols)), shape=(sink + 1, sink + 1)
    )
    return int(maximum_flow(graph, 0, sink).flow_value)


def lattice_network(cell_counts, subset_demands):
    """The realised planner's network: subset ``s`` may draw from
    pattern ``p`` exactly when ``s & p == s``."""
    demands = [d for _, d in subset_demands]
    capacities = [c for _, c in cell_counts]
    allowed = [[s & p == s for p, _ in cell_counts] for s, _ in subset_demands]
    return demands, capacities, allowed


@st.composite
def masked_networks(draw):
    """Arbitrary bipartite networks with a random ``allowed`` mask."""
    n_demands = draw(st.integers(0, 7))
    n_supplies = draw(st.integers(0, 7))
    demands = draw(
        st.lists(st.integers(0, 30), min_size=n_demands, max_size=n_demands)
    )
    capacities = draw(
        st.lists(st.integers(0, 30), min_size=n_supplies, max_size=n_supplies)
    )
    allowed = draw(
        st.lists(
            st.lists(st.booleans(), min_size=n_supplies, max_size=n_supplies),
            min_size=n_demands,
            max_size=n_demands,
        )
    )
    return demands, capacities, allowed


@st.composite
def lattice_rounds(draw, max_cells=10, max_subsets=10, receivers=(2, 5)):
    """``(cell_counts, subset_demands)`` keys on the subset lattice of
    ``receivers`` (an inclusive range, 2-5 by default): most subsets sit
    below some pattern, a few below none."""
    n = draw(st.integers(*receivers))
    full = (1 << n) - 1
    patterns = sorted(
        draw(st.lists(st.integers(1, full), min_size=1, max_size=max_cells, unique=True))
    )
    counts = draw(
        st.lists(st.integers(0, 25), min_size=len(patterns), max_size=len(patterns))
    )
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(patterns), st.integers(0, full)),
            min_size=1,
            max_size=max_subsets,
        )
    )
    below = {(p & m) or p for p, m in picks}
    anywhere = draw(st.sets(st.integers(1, full), max_size=2))
    subsets = sorted(below | anywhere)
    demands = draw(
        st.lists(st.integers(0, 40), min_size=len(subsets), max_size=len(subsets))
    )
    return tuple(zip(patterns, counts)), tuple(zip(subsets, demands))


def assert_feasible(flow, demands, capacities, allowed):
    assert flow.dtype == np.int64
    assert flow.shape == (len(demands), len(capacities))
    assert np.all(flow >= 0)
    assert np.all(flow.sum(axis=1) <= np.asarray(demands, dtype=np.int64))
    assert np.all(flow.sum(axis=0) <= np.asarray(capacities, dtype=np.int64))
    if flow.size:
        assert np.all(flow[~np.asarray(allowed, dtype=bool)] == 0)


class TestSolveTransportCounts:
    @settings(max_examples=200, deadline=None)
    @given(masked_networks())
    def test_maximum_feasible_and_deterministic_on_random_masks(self, network):
        flow = solve_transport_counts(*network)
        assert_feasible(flow, *network)
        assert int(flow.sum()) == oracle_max_flow(*network)
        assert np.array_equal(solve_transport_counts(*network), flow)

    @settings(max_examples=200, deadline=None)
    @given(lattice_rounds(max_cells=16, max_subsets=16))
    def test_maximum_feasible_and_deterministic_on_lattices(self, key):
        network = lattice_network(*key)
        flow = solve_transport_counts(*network)
        assert_feasible(flow, *network)
        assert int(flow.sum()) == oracle_max_flow(*network)
        assert np.array_equal(solve_transport_counts(*network), flow)


class TestHallCut:
    @settings(max_examples=200, deadline=None)
    @given(lattice_rounds(max_cells=16, max_subsets=16, receivers=(2, 7)))
    def test_cut_rows_want_more_than_their_cells_hold(self, key):
        demands, capacities, allowed = lattice_network(*key)
        arcs = [[k for k, ok in enumerate(row) if ok] for row in allowed]
        graph = TransportGraph(arcs, len(capacities))
        cap = graph.residual(demands, capacities)
        routed = graph.augment(cap)
        assume(routed < sum(demands))
        rows, room = graph.hall_cut(cap)
        assert rows == sorted(set(rows))
        assert sum(demands[j] for j in rows) > room
        # The cut is a minimum one: the flow saturates every other row
        # and every cell the rows reach.
        assert routed == sum(d for j, d in enumerate(demands) if j not in rows) + room
        # ``room`` is the capacity of the rows' neighbourhood, by masks.
        subsets = [s for s, _ in key[1]]
        neighbourhood = [
            c for p, c in key[0] if any(subsets[j] & p == subsets[j] for j in rows)
        ]
        assert room == sum(neighbourhood)


def assert_scale_is_the_largest_routable_grid_point(key):
    clear_realised_flow_cache()
    plan = realised_support_flow(*key)
    demands, capacities, allowed = lattice_network(*key)
    if oracle_max_flow(demands, capacities, allowed) == sum(demands):
        assert plan.scale == 1.0
        assert plan.assigned.tolist() == demands
        return
    routable = []
    for k in range(SCALE_STEPS):
        scaled = [int(np.floor(k / SCALE_STEPS * d)) for d in demands]
        if oracle_max_flow(scaled, capacities, allowed) == sum(scaled):
            routable.append(k)
    assert plan.scale == max(routable) / SCALE_STEPS
    # The balanced scale-down grants every subset exactly its share.
    assert plan.assigned.tolist() == [int(np.floor(plan.scale * d)) for d in demands]


class TestScaleSearch:
    @settings(
        max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(lattice_rounds())
    def test_scale_is_the_largest_routable_grid_point(self, key):
        assert_scale_is_the_largest_routable_grid_point(key)

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(lattice_rounds(max_cells=20, max_subsets=20, receivers=(6, 7)))
    def test_scale_is_the_largest_routable_grid_point_at_six_and_seven(self, key):
        assert_scale_is_the_largest_routable_grid_point(key)

    @settings(max_examples=80, deadline=None)
    @given(lattice_rounds())
    def test_top_up_stays_feasible_and_keeps_the_scaled_shares(self, key):
        clear_realised_flow_cache()
        plain = realised_support_flow(*key)
        topped = realised_support_flow(*key, top_up=True)
        network = lattice_network(*key)
        assert_feasible(topped.flow, *network)
        assert topped.scale == 1.0
        assert np.all(topped.assigned >= plain.assigned)
        assert int(topped.flow.sum()) >= int(plain.flow.sum())
