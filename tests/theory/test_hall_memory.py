"""The realised planner's per-cell Hall memory and its sparse plans.

Every failed solve of :func:`repro.theory.allocation.realised_support_flow`
proves a Hall certificate, which holds in every round of a cell; a
:class:`repro.theory.allocation.HallMemory` shared by the cell's rounds
bounds each later round's scale search with them.  The memory may only
skip failed solves, never change a plan:

* plans with a shared memory are the plans without one, over the
  golden lattice keys (in generator and in shuffled order, digests
  equal to ``golden/realised_flow.json``), over hypothesis cells whose
  rounds repeat a structure, and over the keys real batched cells
  realise, their rounds shuffled;
* the memory's bound is the brute-force largest grid point that every
  remembered certificate allows;
* a repeated infeasible round structure pays one ``hall_cut``.

A plan hands out each subset's nonzero ``(cell index, units)`` pairs;
its dense ``flow`` is built from them on demand.  The pairs must be the
nonzero entries of ``flow`` in row-major order, top-up (oracle) plans
included, and ``flow`` stays read-only.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_module
from repro.sim import (
    GilbertElliottLossSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    Scenario,
    run_batch,
)
from repro.solvers import TransportGraph
from repro.theory import clear_realised_flow_cache
from repro.theory.allocation import SCALE_STEPS, HallMemory, realised_support_flow
from tests.theory.test_flow_golden import (
    GOLDEN,
    large_lattice_keys,
    lattice_keys,
    plan_digest,
)
from tests.theory.test_flow_properties import lattice_rounds

pytestmark = pytest.mark.flow


@pytest.fixture(autouse=True)
def fresh_counters():
    clear_realised_flow_cache()
    yield
    clear_realised_flow_cache()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def hall_cuts(monkeypatch) -> list:
    """One entry per :meth:`TransportGraph.hall_cut` call."""
    cuts: list = []
    original = TransportGraph.hall_cut

    def spy(self, cap):
        cuts.append(1)
        return original(self, cap)

    monkeypatch.setattr(TransportGraph, "hall_cut", spy)
    return cuts


def assert_same_plan(plan, expected):
    assert plan.subsets == expected.subsets
    assert plan.cells == expected.cells
    assert plan.pairs == expected.pairs
    assert plan.flow.tobytes() == expected.flow.tobytes()
    assert plan.scale == expected.scale


def bound_args(key):
    cells, subsets = key
    return (
        tuple(m for m, _ in subsets),
        [d for _, d in subsets],
        tuple(p for p, _ in cells),
        [c for _, c in cells],
        SCALE_STEPS,
    )


def certified_step(memory, key):
    """The largest grid point every remembered certificate allows on
    ``key``, by brute force over the grid."""
    cells, subsets = key
    step = SCALE_STEPS
    for generators in memory.certificates:

        def inside(mask):
            return any(mask & g == g for g in generators)

        wanted = [d for m, d in subsets if inside(m)]
        room = sum(c for p, c in cells if inside(p))
        fits = [
            k
            for k in range(SCALE_STEPS + 1)
            if sum(k * d // SCALE_STEPS for d in wanted) <= room
        ]
        step = min(step, max(fits))
    return step


@st.composite
def cell_rounds(draw, max_rounds=8):
    """The keys of one cell's rounds: one receiver count (2-7), each
    round either a fresh key or new counts and demands on the previous
    round's patterns and subsets, so that certificates recur."""
    n = draw(st.integers(2, 7))
    keys = [draw(lattice_rounds(max_cells=16, max_subsets=16, receivers=(n, n)))]
    for _ in range(draw(st.integers(0, max_rounds - 1))):
        if draw(st.booleans()):
            keys.append(
                draw(lattice_rounds(max_cells=16, max_subsets=16, receivers=(n, n)))
            )
            continue
        cells, subsets = keys[-1]
        counts = draw(
            st.lists(st.integers(0, 25), min_size=len(cells), max_size=len(cells))
        )
        demands = draw(
            st.lists(st.integers(0, 40), min_size=len(subsets), max_size=len(subsets))
        )
        keys.append(
            (
                tuple((p, c) for (p, _), c in zip(cells, counts)),
                tuple((m, d) for (m, _), d in zip(subsets, demands)),
            )
        )
    return keys


class TestSharedMemory:
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(cell_rounds(), st.booleans())
    def test_a_shared_memory_changes_no_plan(self, keys, top_up):
        memory = HallMemory()
        for key in keys:
            assert memory.bound(*bound_args(key)) == certified_step(memory, key)
            plan = realised_support_flow(*key, top_up, memory)
            assert_same_plan(plan, realised_support_flow(*key, top_up=top_up))

    @pytest.mark.parametrize("order", ["generator", "shuffled"])
    @pytest.mark.parametrize(
        "keys, section",
        [(lattice_keys, "plans"), (large_lattice_keys, "large_plans")],
        ids=["lattice_keys", "large_lattice_keys"],
    )
    def test_golden_plans_with_one_memory(self, golden, keys, section, order):
        """A certificate reads mask containment alone, so one memory may
        serve every golden key at once; each plan keeps its golden
        digest in either visiting order."""
        calls = [(key, top_up) for key in keys() for top_up in (False, True)]
        visit = list(range(len(calls)))
        if order == "shuffled":
            np.random.default_rng(37).shuffle(visit)
        memory = HallMemory()
        got = {}
        for i in visit:
            key, top_up = calls[i]
            got[i] = plan_digest(realised_support_flow(*key, top_up, memory))
        assert [got[i] for i in range(len(calls))] == golden[section]
        assert memory.certificates

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(
                n_terminals=5,
                loss=IIDLossSpec(0.5),
                estimator=LeaveOneOutEstimatorSpec(rate_margin=0.05),
                n_x_packets=90,
                rounds=60,
            ),
            Scenario(
                n_terminals=6,
                loss=GilbertElliottLossSpec(p_g2b=0.1, p_b2g=0.3),
                estimator=OracleEstimatorSpec(),
                n_x_packets=90,
                rounds=60,
            ),
        ],
        ids=["loo-n5", "oracle-n6"],
    )
    def test_engine_cells_in_shuffled_round_order(self, monkeypatch, scenario):
        """The keys a batched cell realises, replayed in a seeded
        shuffled order on a fresh memory, give the memory-less plans."""
        by_cell = defaultdict(list)
        original = engine_module.realised_support_flow

        def recording(cells, active, top_up=False, memory=None):
            by_cell[memory].append((cells, active, top_up))
            return original(cells, active, top_up, memory)

        monkeypatch.setattr(engine_module, "realised_support_flow", recording)
        run_batch(scenario, seed=41)
        (keys,) = by_cell.values()
        # Infeasible rounds, where certificates are learned and used.
        assert sum(realised_support_flow(c, a).scale < 1.0 for c, a, _ in keys) > 5
        rng = np.random.default_rng(43)
        memory = HallMemory()
        for i in rng.permutation(len(keys)):
            cells, active, top_up = keys[i]
            plan = realised_support_flow(cells, active, top_up, memory)
            assert_same_plan(plan, realised_support_flow(cells, active, top_up))


class TestCertificates:
    def test_a_repeated_structure_costs_one_hall_cut(self, hall_cuts):
        """Subset 0b111 may draw only from pattern 0b111, which holds
        less than it wants, while the singletons have room of their
        own: every round's one Hall certificate is ``{0b111}``."""
        rng = np.random.default_rng(36)
        keys = []
        for _ in range(12):
            full = int(rng.integers(4, 16))
            own = [int(c) for c in rng.integers(10, 30, size=3)]
            cells = ((0b001, own[0]), (0b010, own[1]), (0b100, own[2]), (0b111, full))
            wants = [int(rng.integers(0, c + 1)) for c in own]
            subsets = (
                (0b001, wants[0]),
                (0b010, wants[1]),
                (0b100, wants[2]),
                (0b111, full + int(rng.integers(1, 40))),
            )
            keys.append((cells, subsets))
        memory = HallMemory()
        plans = [realised_support_flow(*key, memory=memory) for key in keys]
        assert len(hall_cuts) == 1
        assert memory.certificates == [(0b111,)]
        del hall_cuts[:]
        for key, plan in zip(keys, plans):
            assert plan.scale < 1.0
            assert_same_plan(plan, realised_support_flow(*key))
        assert len(hall_cuts) == len(keys)

    def test_counts_past_the_packed_field_width(self):
        """A round whose sums outgrow the packed fields widens them."""
        small = (((0b01, 3), (0b11, 2)), ((0b01, 1), (0b11, 9)))
        large = (
            ((0b01, 5 << 40), (0b11, 3 << 40)),
            ((0b01, 1 << 40), (0b11, 7 << 40)),
        )
        memory = HallMemory()
        for key in (small, large, small, large):
            assert memory.bound(*bound_args(key)) == certified_step(memory, key)
            plan = realised_support_flow(*key, memory=memory)
            assert_same_plan(plan, realised_support_flow(*key))
            assert plan.scale < 1.0


class TestSparsePlans:
    @pytest.mark.parametrize("top_up", [False, True])
    def test_pairs_are_the_nonzero_flow_entries_row_major(self, top_up):
        keys = lattice_keys() + large_lattice_keys()
        topped = 0
        for key in keys:
            plan = realised_support_flow(*key, top_up=top_up)
            flow = plan.flow
            assert flow.dtype == np.int64
            assert flow.shape == (len(plan.subsets), len(plan.cells))
            entries = [
                (j, k, units) for j, row in enumerate(plan.pairs) for k, units in row
            ]
            rows, cols = np.nonzero(flow)
            nonzero = zip(rows.tolist(), cols.tolist(), flow[rows, cols].tolist())
            assert entries == list(nonzero)
            assert plan.assigned.tolist() == flow.sum(axis=1).tolist()
            topped += top_up and realised_support_flow(*key).scale < 1.0
        assert topped >= 100 if top_up else topped == 0

    def test_flow_is_read_only(self):
        """Routed direct, through the graph, and topped up."""
        keys = [
            (((0b01, 4), (0b11, 5)), ((0b01, 3), (0b11, 2))),
            (((0b01, 2), (0b11, 2)), ((0b01, 2), (0b11, 2))),
            (((0b111, 4),), ((0b001, 4), (0b010, 4), (0b100, 4))),
        ]
        for key in keys:
            for top_up in (False, True):
                plan = realised_support_flow(*key, top_up=top_up)
                assert plan.flow is plan.flow
                assert not plan.flow.flags.writeable
                with pytest.raises(ValueError):
                    plan.flow[0, 0] = 99
