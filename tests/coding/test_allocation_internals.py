"""White-box tests for the allocation machinery: pattern cells, flow
assignment, trimming, and the allocation LP."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.privacy import (
    _assign_ids_by_flow,
    _candidate_subsets,
    _pattern_cells,
    plan_y_allocation,
    trim_excess_rows,
)


class TestPatternCells:
    def test_partition_by_reception(self):
        reports = {1: {0, 1, 2}, 2: {1, 2, 3}}
        cells = _pattern_cells(reports)
        assert cells[frozenset({1})] == [0]
        assert cells[frozenset({1, 2})] == [1, 2]
        assert cells[frozenset({2})] == [3]

    def test_unreceived_packets_dropped(self):
        cells = _pattern_cells({1: {5}})
        assert sum(len(v) for v in cells.values()) == 1

    def test_empty(self):
        assert _pattern_cells({1: set(), 2: set()}) == {}


class TestCandidateSubsets:
    def test_all_subsets_of_patterns(self):
        cells = {frozenset({1, 2}): [0]}
        subsets = _candidate_subsets((1, 2), cells)
        assert frozenset({1}) in subsets
        assert frozenset({2}) in subsets
        assert frozenset({1, 2}) in subsets

    def test_size_cap(self):
        cells = {frozenset({1, 2, 3}): [0]}
        subsets = _candidate_subsets((1, 2, 3), cells, max_subset_size=1)
        assert all(len(s) == 1 for s in subsets)

    def test_large_receiver_fallback(self):
        receivers = tuple(range(12))
        cells = {frozenset(range(12)): [0], frozenset(range(6)): [1]}
        subsets = _candidate_subsets(receivers, cells)
        # Heuristic keeps the patterns, the full set, and one-removed sets.
        assert frozenset(range(12)) in subsets
        assert frozenset(range(6)) in subsets
        assert len(subsets) < 200


class TestFlowAssignment:
    def test_respects_demands_when_feasible(self):
        cells = {
            frozenset({1}): [0, 1, 2],
            frozenset({2}): [3, 4, 5],
            frozenset({1, 2}): [6, 7],
        }
        demand = {frozenset({1}): 3, frozenset({2}): 3, frozenset({1, 2}): 2}
        assignment = _assign_ids_by_flow(cells, demand)
        for T, want in demand.items():
            assert len(assignment[T]) == want
        # Disjointness across subsets.
        used = [i for ids in assignment.values() for i in ids]
        assert len(used) == len(set(used))

    def test_contention_resolved_without_starvation(self):
        """Two singletons competing for one shared cell must split it
        rather than letting the first take everything."""
        cells = {frozenset({1, 2}): list(range(10))}
        demand = {frozenset({1}): 5, frozenset({2}): 5}
        assignment = _assign_ids_by_flow(cells, demand)
        assert len(assignment[frozenset({1})]) == 5
        assert len(assignment[frozenset({2})]) == 5

    def test_infeasible_demands_partially_served(self):
        cells = {frozenset({1}): [0, 1]}
        demand = {frozenset({1}): 10}
        assignment = _assign_ids_by_flow(cells, demand)
        assert len(assignment[frozenset({1})]) == 2

    def test_subset_only_draws_from_eligible_cells(self):
        cells = {frozenset({1}): [0], frozenset({2}): [1]}
        demand = {frozenset({1}): 1, frozenset({2}): 1}
        assignment = _assign_ids_by_flow(cells, demand)
        assert assignment[frozenset({1})] == [0]
        assert assignment[frozenset({2})] == [1]

    def test_empty_demand(self):
        assert _assign_ids_by_flow({frozenset({1}): [0]}, {}) == {}

    def test_assignment_independent_of_hash_seed(self):
        """Regression: the flow graph once keyed nodes on frozensets of
        terminal-name *strings*; the solver's set-based worklists then
        iterated in PYTHONHASHSEED order and picked a different optimal
        flow per process, making campaigns irreproducible (the old
        flaky estimator-ablation benchmark).  Plans must now be
        bit-identical across interpreter hash seeds."""
        import os
        import subprocess
        import sys

        script = (
            "import numpy as np\n"
            "from repro.coding.privacy import plan_y_allocation\n"
            "rng = np.random.default_rng(4)\n"
            "n = 60\n"
            "reports = {f'T{t}': {i for i in range(n) if rng.random() > 0.4}\n"
            "           for t in range(1, 5)}\n"
            "alloc = plan_y_allocation(reports, lambda ids, e=frozenset():"
            " 0.3 * len(ids), n)\n"
            "print([(sorted(b.subset), list(b.support), b.rows)"
            " for b in alloc.blocks])\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "271828"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": ":".join(sys.path),
                },
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


def _old_trim(rows, members, n_receivers):
    """The session's trim before the closed form: shed one row at a
    time while every member stays strictly above the minimum."""
    m_i = [
        sum(v for v, mem in zip(rows, members) if t in mem) for t in range(n_receivers)
    ]
    floor_val = min(m_i)
    kept = []
    for value, mem in zip(rows, members):
        removable = 0
        while removable < value and all(m_i[t] - removable > floor_val for t in mem):
            removable += 1
        for t in mem:
            m_i[t] -= removable
        kept.append(value - removable)
    return kept


def trimmed(rows, members, n_receivers):
    """Trim a copy of ``rows``, every entry visited in list order."""
    kept = list(rows)
    trim_excess_rows(kept, range(len(kept)), members, n_receivers)
    return kept


class TestTrimming:
    def test_trims_rows_above_group_minimum(self):
        assert trimmed([10, 3], [[0], [1]], 2) == [3, 3]  # excess served nobody

    def test_shared_blocks_not_overtrimmed(self):
        # Small subsets first: the singleton is visited before the pair.
        kept = trimmed([2, 4], [[0], [0, 1]], 2)
        assert kept == [0, 4]  # the shared block is the minimum holder

    def test_balanced_input_untouched(self):
        assert trimmed([3, 3], [[0], [1]], 2) == [3, 3]

    def test_empty_inputs(self):
        assert trimmed([], [], 1) == []

    def test_receiver_without_rows_sheds_everything(self):
        # L = 0 when a receiver decodes nothing: no row can raise it.
        assert trimmed([2, 1], [[0], [0, 2]], 3) == [0, 0]

    def test_visit_order_decides_who_sheds(self):
        # Either singleton can give up the surplus row of terminal 0.
        assert trimmed([1, 1, 1], [[0], [0], [1]], 2) == [0, 1, 1]

    def test_keys_outside_order_are_left_alone(self):
        # Rows indexed by subset bitmask, as the batched engine keeps
        # them: only the listed keys count and shed.
        rows = [9.0, 5.0, 2.0, 0.0]
        members = [(), (0,), (1,), (0, 1)]
        trim_excess_rows(rows, [1, 2], members, 2)
        assert rows == [9.0, 2.0, 2.0, 0.0]
        assert all(type(v) is float for v in rows)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda r: st.lists(
                st.tuples(
                    st.integers(0, 6),
                    st.sets(st.integers(0, r - 1), min_size=1),
                ),
                max_size=8,
            ).map(lambda entries: (r, entries))
        )
    )
    def test_closed_form_equals_the_per_row_loop(self, case):
        r, entries = case
        entries = sorted(entries, key=lambda e: (len(e[1]), sorted(e[1])))
        rows = [v for v, _ in entries]
        members = [sorted(mem) for _, mem in entries]
        want = _old_trim(rows, members, r)
        assert trimmed(rows, members, r) == want
        floats = trimmed([float(v) for v in rows], members, r)
        assert floats == [float(v) for v in want]

    def test_planned_blocks_have_nothing_left_to_trim(self):
        """After the trim every block has a member at L, so trimming a
        plan again, in any order, sheds nothing."""
        for seed in range(20):
            reports = {
                name: {i for i in range(40) if (i * (seed + 3) + t) % 5 > 1}
                for t, name in enumerate(("a", "b", "c"))
            }
            alloc = plan_y_allocation(
                reports, lambda ids, e=frozenset(): 0.3 * len(ids), 40
            )
            index = {t: i for i, t in enumerate(alloc.receivers)}
            rows = [b.rows for b in alloc.blocks][::-1]
            members = [[index[t] for t in b.subset] for b in alloc.blocks][::-1]
            assert trimmed(rows, members, len(index)) == rows


class TestZCostFactor:
    def test_higher_z_cost_never_increases_z_share(self, rng):
        reports = {
            t: {i for i in range(80) if rng.random() > 0.4} for t in (1, 2, 3, 4)
        }

        def budget(ids, exclude=frozenset()):
            return 0.35 * len(ids)

        cheap = plan_y_allocation(reports, budget, 80, z_cost_factor=1.0)
        dear = plan_y_allocation(reports, budget, 80, z_cost_factor=6.0)

        def z_share(alloc):
            if alloc.total_rows == 0:
                return 0.0
            return (alloc.total_rows - alloc.min_m_i()) / alloc.total_rows

        assert z_share(dear) <= z_share(cheap) + 0.15
