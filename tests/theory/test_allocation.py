"""Realised per-round planning: the integral support flow.

The batched engine's honesty contract rests on the transportation flow
being a correct, deterministic integral assignment (subset ``T`` draws
only from pattern cells containing it, supports disjoint, capacities
respected).  :func:`realised_support_flow` caches nothing: each call is
one solve, and identical keys give equal plans.  The plan memo is the
accounting kernel's per-cell dict; ``tests/sim/test_plan_memo.py`` pins
it.
"""

import numpy as np
import pytest

from repro.solvers import solve_transport_counts
from repro.theory import (
    clear_realised_flow_cache,
    realised_flow_cache_info,
    realised_support_flow,
)

# A 3-receiver round histogram: pattern bitmask -> packet count.
CELLS = ((0b001, 4), (0b011, 3), (0b101, 2), (0b111, 5))
DEMANDS = ((0b001, 6), (0b011, 4), (0b111, 3))


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_realised_flow_cache()
    yield
    clear_realised_flow_cache()


class TestSolveTransportCounts:
    def test_simple_max_flow_value(self):
        flow = solve_transport_counts(
            demands=[3, 2],
            capacities=[2, 2],
            allowed=[[True, True], [False, True]],
        )
        # Only demand 0 reaches supply 0, so a maximum flow (value 4)
        # must saturate both supplies and route 2 units through (0, 0);
        # how supply 1 splits between the demands is the solver's pick.
        assert flow.sum() == 4
        assert flow[0, 0] == 2
        assert flow[:, 1].sum() == 2

    def test_respects_capacities_and_edges(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            j, k = rng.integers(1, 5, size=2)
            demands = rng.integers(0, 6, size=j)
            capacities = rng.integers(0, 6, size=k)
            allowed = rng.random((j, k)) < 0.6
            flow = solve_transport_counts(
                list(demands), list(capacities), allowed.tolist()
            )
            assert np.all(flow >= 0)
            assert np.all(flow.sum(axis=1) <= demands)
            assert np.all(flow.sum(axis=0) <= capacities)
            assert np.all(flow[~allowed] == 0)

    def test_deterministic_flow_matrix(self):
        # Not merely equally optimal: the same matrix, every time.
        args = ([2, 2, 2], [3, 3], [[True, True]] * 3)
        first = solve_transport_counts(*args)
        for _ in range(5):
            assert np.array_equal(solve_transport_counts(*args), first)

    def test_empty_inputs(self):
        assert solve_transport_counts([], [1], []).shape == (0, 1)
        assert solve_transport_counts([1], [], [[]]).shape == (1, 0)


class TestRealisedSupportFlow:
    def test_supports_disjoint_and_lattice_respecting(self):
        plan = realised_support_flow(CELLS, DEMANDS)
        counts = dict(CELLS)
        for k, cell in enumerate(plan.cells):
            assert plan.flow[:, k].sum() <= counts[cell]
        for j, subset in enumerate(plan.subsets):
            for k, cell in enumerate(plan.cells):
                if plan.flow[j, k]:
                    # Only patterns containing the subset may fund it.
                    assert subset & cell == subset

    def test_feasible_round_meets_demand_at_full_scale(self):
        plan = realised_support_flow(CELLS, DEMANDS)
        wanted = dict(DEMANDS)
        assert plan.scale == 1.0
        for j, subset in enumerate(plan.subsets):
            assert plan.assigned[j] == wanted[subset]

    @pytest.mark.flow
    def test_every_call_solves_an_equal_plan(self):
        """No process-wide cache: a repeated key is solved again, into
        an equal plan that is not the same object, and the counters
        count both calls as solves."""
        first = realised_support_flow(CELLS, DEMANDS)
        again = realised_support_flow(CELLS, DEMANDS)
        assert again is not first
        assert (again.subsets, again.cells, again.scale) == (
            first.subsets,
            first.cells,
            first.scale,
        )
        assert again.flow.tobytes() == first.flow.tobytes()
        assert realised_flow_cache_info() == (0, 2)
        clear_realised_flow_cache()
        assert realised_flow_cache_info() == (0, 0)

    @pytest.mark.flow
    def test_cached_flow_is_read_only(self):
        plan = realised_support_flow(CELLS, DEMANDS)
        with pytest.raises(ValueError):
            plan.flow[0, 0] = 99

    def test_infeasible_round_scales_down_without_starving(self):
        # Total demand 12 against 4 packets: the plain max flow would
        # meet the total by starving someone; the balanced scale-down
        # must leave every subset with its scaled share.
        plan = realised_support_flow(
            ((0b111, 4),), ((0b001, 4), (0b010, 4), (0b100, 4))
        )
        assert plan.scale < 1.0
        assert plan.flow.sum() <= 4
        scaled = [int(np.floor(plan.scale * 4)) for _ in plan.subsets]
        for j in range(len(plan.subsets)):
            assert plan.assigned[j] == scaled[j]

    def test_top_up_grants_leftover_capacity(self):
        key = (((0b111, 4),), ((0b001, 4), (0b010, 4), (0b100, 4)))
        plain = realised_support_flow(*key, top_up=False)
        topped = realised_support_flow(*key, top_up=True)
        # Oracle-certified rounds may consume the remainder; the scale
        # stays 1.0 because exact budgets bind instead of demand caps.
        assert topped.flow.sum() == 4
        assert topped.flow.sum() > plain.flow.sum()
        assert topped.scale == 1.0
