"""Dinic's first phase runs before any transport graph exists.

:func:`repro.solvers.route_direct` pushes every direct path
source -> subset -> cell -> sink on plain lists.  A round whose demand
it routes in full is planned without a
:class:`~repro.solvers.TransportGraph`; otherwise the graph is
built once, loaded with the pushes, and only the later BFS phases run.
The plans themselves are pinned by ``test_flow_golden.py``; this module
pins when a graph is built and what the first phase leaves behind.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

import repro.solvers as solvers
import repro.theory.allocation as allocation
from repro.solvers import flow_matrix, push_pairs, route_direct, solve_transport_counts
from repro.theory import clear_realised_flow_cache
from repro.theory.allocation import realised_support_flow
from tests.theory.test_flow_properties import lattice_network, lattice_rounds

pytestmark = pytest.mark.flow

#: r = 3.  Cells 0b011 and 0b101 hold one packet each; subset 0b001 may
#: draw from both, 0b011 from 0b011 only.  The first phase hands 0b011's
#: packet to 0b001 (its first arc), starving 0b011: a BFS phase must
#: reroute 0b001 through 0b101.
REROUTED = (((0b011, 1), (0b101, 1)), ((0b001, 1), (0b011, 1)))

#: Same cells, but 0b001 wants nothing: the first phase routes it all.
DIRECT = (((0b011, 1), (0b101, 1)), ((0b011, 1),))


@pytest.fixture
def graphs_built(monkeypatch) -> list:
    """Record every TransportGraph the planner or the solver builds."""
    built: list = []

    class Counting(solvers.TransportGraph):
        def __init__(self, arcs, n_supplies):
            built.append(len(arcs))
            super().__init__(arcs, n_supplies)

    monkeypatch.setattr(allocation, "TransportGraph", Counting)
    monkeypatch.setattr(solvers, "TransportGraph", Counting)
    clear_realised_flow_cache()
    yield built
    clear_realised_flow_cache()


def test_a_round_the_direct_phase_routes_builds_no_graph(graphs_built):
    plan = realised_support_flow(*DIRECT)
    assert plan.flow.tolist() == [[1, 0]]
    assert plan.scale == 1.0
    demands, capacities, allowed = lattice_network(*DIRECT)
    assert solve_transport_counts(demands, capacities, allowed).tolist() == [[1, 0]]
    assert graphs_built == []


def test_a_round_that_needs_a_bfs_phase_builds_one_graph(graphs_built):
    plan = realised_support_flow(*REROUTED)
    assert plan.flow.tolist() == [[0, 1], [1, 0]]
    assert plan.scale == 1.0
    assert graphs_built == [2]
    demands, capacities, allowed = lattice_network(*REROUTED)
    assert solve_transport_counts(demands, capacities, allowed).tolist() == [
        [0, 1],
        [1, 0],
    ]
    assert graphs_built == [2, 2]


def test_an_infeasible_round_builds_its_graph_once(graphs_built):
    # 0b011 wants 3 of the one packet it may use: every grid step down
    # to the routable one is solved on the same graph.
    key = (((0b011, 1), (0b101, 4)), ((0b001, 4), (0b011, 3)))
    plan = realised_support_flow(*key)
    assert plan.scale < 1.0
    assert graphs_built == [2]


@settings(max_examples=200, deadline=None)
@given(lattice_rounds(max_cells=16, max_subsets=16, receivers=(2, 7)))
def test_first_phase_is_feasible_and_leaves_no_direct_path(key):
    demands, capacities, allowed = lattice_network(*key)
    arcs = [[k for k, ok in enumerate(row) if ok] for row in allowed]
    pushes, routed = route_direct(demands, capacities, arcs)
    flow = flow_matrix(push_pairs(pushes, len(demands)), len(capacities))
    assert int(flow.sum()) == routed
    assert np.all(flow.sum(axis=1) <= demands)
    assert np.all(flow.sum(axis=0) <= capacities)
    assert np.all(flow[~np.array(allowed, dtype=bool).reshape(flow.shape)] == 0)
    # Each push names its link: the arc's position, row-major.
    first_arc = np.cumsum([0] + [len(a) for a in arcs])
    for arc, j, k, _ in pushes:
        assert arcs[j][arc - first_arc[j]] == k
    # No direct path is left: a row short of its demand finds every
    # cell it may draw from full.
    left = capacities - flow.sum(axis=0)
    for j, row_arcs in enumerate(arcs):
        if flow[j].sum() < demands[j]:
            assert all(left[k] == 0 for k in row_arcs)
