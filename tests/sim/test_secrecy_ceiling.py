"""The per-round secrecy ceiling on every batched path.

A round's group secret is a function of each terminal's view (the
x-packets it captured plus the public z-rows), and Eve sees the
x-packets she captured plus the same z-rows.  So however the budget is
planned, the secret cannot hold more dimensions hidden from Eve than
any one receiver captured and Eve missed (Safaka et al., *Exchanging
Secrets without Using Cryptography*)::

    hidden_dims[b] <= min_i |R_i[b] & ~E[b]|

with ``R_i[b]`` receiver ``i``'s and ``E[b]`` Eve's (all antennas')
reception mask on round ``b``.  The leader captured everything it sent,
so the minimum runs over the fellow terminals.  This module checks the
ceiling round by round over every :class:`~repro.sim.spec.EstimatorSpec`
kind on the per-cell engine (:meth:`BatchedRoundEngine.account` and
:func:`run_batch`), on :func:`run_stacked_batch`, and on the testbed
bridge with a two-antenna Eve.  A crossing is a secrecy-accounting bug,
never a reason to loosen the bound.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import repro
from repro.sim import (
    AdversarySpec,
    BatchedRoundEngine,
    IIDLossSpec,
    Scenario,
    run_batch,
    run_stacked_batch,
)
from repro.sim.reception import sample_receptions
from repro.testbed import Placement, placement_schedule_specs
from tests.sim.test_accounting_golden import ESTIMATORS, _losses

pytestmark = pytest.mark.accounting

ROUNDS = 60
ESTIMATOR_IDS = [label for label, _ in ESTIMATORS]
ESTIMATOR_SPECS = [spec for _, spec in ESTIMATORS]


def secrecy_ceiling(batch) -> np.ndarray:
    """``min_i |R_i[b] & ~E[b]|`` per round of a reception batch."""
    private = batch.terminals & ~batch.eve[:, None, :]
    return private.sum(axis=2).min(axis=1)


def assert_under_the_ceiling(result, batch) -> None:
    # The twin generator drew the tensor the engine accounted.
    assert np.array_equal(
        result.terminal_receptions, batch.terminals.sum(axis=2)
    )
    assert np.array_equal(result.eve_missed, batch.eve_missed_counts())
    ceiling = secrecy_ceiling(batch)
    crossed = np.flatnonzero(result.hidden_dims > ceiling)
    assert crossed.size == 0, (
        f"rounds {crossed.tolist()}: hidden_dims "
        f"{result.hidden_dims[crossed].tolist()} over the ceiling "
        f"{ceiling[crossed].tolist()}"
    )


def scenario(n, loss, antennas, estimator) -> Scenario:
    return Scenario(
        n_terminals=n,
        loss=loss,
        adversary=AdversarySpec(antennas=antennas),
        estimator=estimator,
        n_x_packets=90,
        rounds=ROUNDS,
        z_cost_factor=2.5,
        secrecy_slack=1,
    )


CELLS = [
    (n, antennas, loss_label)
    for n in (3, 5)
    for antennas in (1, 2)
    for loss_label in ("iid0.3", "ge0.1/0.3", "schedule3")
]


def _loss(n, antennas, loss_label):
    return dict(_losses(n, antennas))[loss_label]


def test_the_ceiling_binds():
    """An over-promising budget (a fixed quarter of the packets) is
    clamped onto the ceiling on some rounds: the accounting sits exactly
    at the bound there, so a one-dimension overshoot would show."""
    label, estimator = ESTIMATORS[1]
    assert label == "fixed"
    cell = scenario(3, IIDLossSpec(0.3), 1, estimator)
    rng = np.random.default_rng(6)
    twin = copy.deepcopy(rng)
    result = run_batch(cell, rng=rng)
    ceiling = secrecy_ceiling(sample_receptions(cell, ROUNDS, twin))
    assert np.any((result.hidden_dims == ceiling) & (ceiling > 0))


@pytest.mark.parametrize("n,antennas,loss_label", CELLS)
@pytest.mark.parametrize("estimator", ESTIMATOR_SPECS, ids=ESTIMATOR_IDS)
def test_per_cell_engine(n, antennas, loss_label, estimator):
    cell = scenario(n, _loss(n, antennas, loss_label), antennas, estimator)
    # account(): the caller samples the batch and hands it over.
    engine = BatchedRoundEngine(cell, seed=5)
    batch = sample_receptions(cell, ROUNDS, engine.rng)
    assert_under_the_ceiling(engine.account(batch), batch)
    # run_batch(): the engine samples; a twin generator replays it.
    rng = np.random.default_rng(6)
    twin = copy.deepcopy(rng)
    result = run_batch(cell, rng=rng)
    assert_under_the_ceiling(result, sample_receptions(cell, ROUNDS, twin))


@pytest.mark.parametrize("n,antennas,loss_label", CELLS)
def test_stacked_batch(n, antennas, loss_label):
    # One stack over every estimator kind: they share the signature.
    loss = _loss(n, antennas, loss_label)
    cells = [scenario(n, loss, antennas, e) for _, e in ESTIMATORS]
    rngs = [np.random.default_rng(100 + i) for i in range(len(cells))]
    twins = copy.deepcopy(rngs)
    results = run_stacked_batch(cells, rngs)
    for cell, result, twin in zip(cells, results, twins):
        assert_under_the_ceiling(result, sample_receptions(cell, ROUNDS, twin))


@pytest.mark.parametrize(
    "placement",
    [
        Placement(eve_cell=4, terminal_cells=(0, 2, 6)),
        Placement(eve_cell=1, terminal_cells=(0, 3, 5, 7, 8)),
    ],
    ids=["n=3", "n=5"],
)
@pytest.mark.parametrize("estimator", ESTIMATOR_SPECS, ids=ESTIMATOR_IDS)
def test_testbed_bridge_with_a_second_eve_antenna(placement, estimator):
    testbed = repro.Testbed(repro.TestbedConfig(interferer_power_dbm=10.0))
    candidates = testbed.eve_candidate_cells(placement)
    extra_cell = next(c for c in candidates if c != placement.eve_cell)
    specs = placement_schedule_specs(
        testbed,
        placement,
        np.random.default_rng(11),
        eve_extra_cells=(extra_cell,),
    )
    for leader, loss in enumerate(specs):
        cell = scenario(placement.n_terminals, loss, 2, estimator)
        rng = np.random.default_rng(20 + leader)
        twin = copy.deepcopy(rng)
        result = run_batch(cell, rng=rng)
        assert_under_the_ceiling(result, sample_receptions(cell, ROUNDS, twin))
