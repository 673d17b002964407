"""Ablation: estimator choice (docs/paper-map.md, §3 and §4).

Compares, on the same placements:

* oracle (ground truth — the construction's ceiling),
* interference-aware (schedule-based, sound),
* leave-one-out (the paper's empirical idea, rate form),
* naive count-based leave-one-out (circular on subset pools — kept to
  demonstrate *why* the rate form matters).

Claims verified: oracle is perfectly secret; the naive estimator leaks
more than the rate-based one; the sound estimator beats both empirical
variants on reliability.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro import SessionConfig
from repro.core import (
    LeaveOneOutEstimator,
    NaiveLeaveOneOutEstimator,
    OracleEstimator,
    run_experiment,
)
from repro.testbed import Placement, sample_placements
from repro.testbed.estimator import InterferenceAwareEstimator

SESSION = SessionConfig(n_x_packets=180, payload_bytes=50, secrecy_slack=1)


@pytest.fixture(scope="module")
def ablation(testbed, min_jam_loss):
    placements = sample_placements(6, 6, np.random.default_rng(5))
    rows = {}
    estimators = {
        "oracle": lambda pl: OracleEstimator(),
        "interference": lambda pl: InterferenceAwareEstimator(
            testbed.interference, testbed.config.geometry, min_jam_loss,
            candidate_cells=testbed.eve_candidate_cells(pl),
        ),
        "leave-one-out": lambda pl: LeaveOneOutEstimator(rate_margin=0.05),
        "naive-loo": lambda pl: NaiveLeaveOneOutEstimator(),
    }
    for label, factory in estimators.items():
        rels, effs = [], []
        for pl in placements:
            rng = np.random.default_rng(
                abs(hash((pl.eve_cell, pl.terminal_cells))) % 2**32
            )
            medium, names = testbed.build_medium(pl, rng)
            result = run_experiment(
                medium, names, factory(pl), rng, config=SESSION
            )
            rels.append(result.reliability)
            effs.append(result.efficiency)
        rows[label] = (float(np.mean(rels)), float(np.min(rels)),
                       float(np.mean(effs)))
    return rows


def test_ablation_table(ablation, benchmark):
    benchmark(lambda: dict(ablation))
    lines = [f"{'estimator':>15s} {'rel mean':>9s} {'rel min':>8s} {'eff mean':>9s}"]
    for label, (rel_mean, rel_min, eff_mean) in ablation.items():
        lines.append(f"{label:>15s} {rel_mean:>9.3f} {rel_min:>8.3f} {eff_mean:>9.4f}")
    emit("Ablation: estimator choice (n = 6)", "\n".join(lines))


def test_oracle_is_perfect(ablation):
    assert ablation["oracle"][0] == 1.0
    assert ablation["oracle"][1] == 1.0


def test_rate_form_beats_naive_counting(ablation):
    """The naive per-pool count is circular and must leak more."""
    assert ablation["leave-one-out"][0] >= ablation["naive-loo"][0]


def test_sound_estimator_most_reliable_realisable(ablation):
    assert ablation["interference"][0] >= ablation["leave-one-out"][0] - 1e-9
    assert ablation["interference"][0] >= 0.95


def test_benchmark_estimator_query(benchmark, testbed, min_jam_loss):
    """Timed kernel: one interference-aware budget query."""
    from repro.core.estimator import RoundContext

    est = InterferenceAwareEstimator(
        testbed.interference, testbed.config.geometry, min_jam_loss
    )
    est.begin_round(
        RoundContext(
            leader="T0", reports={}, n_packets=270,
            x_slots={i: i for i in range(270)},
        )
    )
    ids = list(range(270))
    budget = benchmark(est.budget, ids)
    assert budget > 0
