"""The realised-plan memo: one dict per accounted cell, and nothing else.

:func:`repro.sim.engine._account_cell` solves each observed
``(histogram, demands)`` key of a cell once, through
:func:`repro.theory.allocation.realised_support_flow`, and keeps the
plan's nonzero flow pairs in a dict that dies with the cell.  There is
no process-wide cache: a plan never outlives the cell that asked for
it, so memory stays bounded by one cell's rounds on every path (the
per-cell engine, the stacked kernel and the testbed bridge).
``realised_flow_cache_info`` reports that memo: hits are rounds whose
key their cell had already solved, misses are solves.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.sim.engine as engine_module
from repro import SessionConfig, Testbed, TestbedConfig
from repro.analysis import CampaignConfig, run_placement_experiment_batched
from repro.sim import (
    BatchedRoundEngine,
    FixedFractionEstimatorSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    Scenario,
    run_batch,
    run_stacked_batch,
)
from repro.sim.reception import ReceptionBatch, sample_receptions
from repro.testbed import Placement
from repro.theory import clear_realised_flow_cache, realised_flow_cache_info

pytestmark = pytest.mark.flow


@pytest.fixture(autouse=True)
def fresh_counters():
    clear_realised_flow_cache()
    yield
    clear_realised_flow_cache()


def cell(estimator=None, n_terminals=4, rounds=40, n_x_packets=60) -> Scenario:
    return Scenario(
        n_terminals=n_terminals,
        loss=IIDLossSpec(0.4),
        estimator=estimator or FixedFractionEstimatorSpec(fraction=0.25),
        n_x_packets=n_x_packets,
        rounds=rounds,
    )


def repeated_round(scenario: Scenario, rounds: int) -> ReceptionBatch:
    """One sampled round, repeated: every round realises the same key."""
    one = sample_receptions(scenario, 1, np.random.default_rng(5))
    return ReceptionBatch(
        terminals=np.repeat(one.terminals, rounds, axis=0),
        eve=np.repeat(one.eve, rounds, axis=0),
    )


def test_a_repeated_key_is_solved_once_per_cell():
    scenario = cell()
    batch = repeated_round(scenario, 30)
    BatchedRoundEngine(scenario, seed=1).account(batch)
    assert realised_flow_cache_info() == (29, 1)
    # A second cell starts from an empty memo: it solves the key again.
    BatchedRoundEngine(scenario, seed=2).account(batch)
    assert realised_flow_cache_info() == (58, 2)


def test_a_cell_solves_each_distinct_key_once(monkeypatch):
    keys = []
    original = engine_module.realised_support_flow

    def spy(cells, active, top_up=False):
        keys.append((cells, active, top_up))
        return original(cells, active, top_up)

    monkeypatch.setattr(engine_module, "realised_support_flow", spy)
    # Few receivers and packets: rounds often repeat a histogram.
    run_batch(cell(n_terminals=3, rounds=200, n_x_packets=20), seed=3)
    hits, misses = realised_flow_cache_info()
    assert misses == len(keys) == len(set(keys))
    assert hits > 0


def _testbed_experiment():
    run_placement_experiment_batched(
        Testbed(TestbedConfig(interferer_power_dbm=10.0)),
        Placement(eve_cell=4, terminal_cells=(0, 2, 6, 8)),
        LeaveOneOutEstimatorSpec(rate_margin=0.05),
        CampaignConfig(
            session=SessionConfig(n_x_packets=60, payload_bytes=40),
            seed=2012,
            group_sizes=(4,),
        ),
        rounds_per_leader=8,
    )


RUNS = {
    "run_batch": lambda: run_batch(cell(), seed=4),
    "run_stacked_batch": lambda: run_stacked_batch(
        [cell(), cell(OracleEstimatorSpec()), cell(rounds=25)],
        [np.random.default_rng(seed) for seed in (6, 7, 8)],
    ),
    "testbed_experiment": _testbed_experiment,
}


@pytest.mark.parametrize("path", sorted(RUNS))
def test_no_plan_outlives_its_cell(path, monkeypatch):
    plans = []
    original = engine_module.realised_support_flow

    def recording(*args, **kwargs):
        plan = original(*args, **kwargs)
        plans.append(weakref.ref(plan))
        return plan

    monkeypatch.setattr(engine_module, "realised_support_flow", recording)
    RUNS[path]()
    gc.collect()
    assert plans, "the run solved no plan"
    alive = [ref for ref in plans if ref() is not None]
    assert not alive, f"{len(alive)} of {len(plans)} plans outlived their cell"
