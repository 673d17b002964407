"""Ablation: coding construction (docs/architecture.md, `coding`).

* **Cauchy vs random coefficients**: random combination matrices lose
  rank with probability ~ rows/256 per block; Cauchy blocks never do.
  We measure decode-failure and secrecy-deficit rates across many
  trials.
* **Flow-balanced vs greedy allocation**: without the max-flow
  assignment, overlapping pools starve late blocks, collapsing L and
  flooding the air with z-packets.

The timed kernel is one y-allocation planning call.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.coding.privacy import build_phase2_matrices, plan_y_allocation
from repro.core.eve import round_leakage
from repro.gf.linalg import GFMatrix
from repro.gf.matrices import cauchy_matrix


def random_matrix_rank_failures(trials=300, rows=12, cols=20, seed=3):
    """How often a random rows x cols matrix fails to reach full rank on
    a random `rows`-column subset (Cauchy never fails)."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        m = GFMatrix.random(rows, cols, rng)
        subset = sorted(rng.choice(cols, size=rows, replace=False))
        if not m.take_cols(subset).is_invertible():
            failures += 1
    return failures / trials


def cauchy_rank_failures(trials=300, rows=12, cols=20, seed=3):
    rng = np.random.default_rng(seed)
    m = cauchy_matrix(rows, cols)
    failures = 0
    for _ in range(trials):
        subset = sorted(rng.choice(cols, size=rows, replace=False))
        if not m.take_cols(subset).is_invertible():
            failures += 1
    return failures / trials


def test_cauchy_vs_random_rank(benchmark):
    random_rate = random_matrix_rank_failures()
    cauchy_rate = cauchy_rank_failures()
    emit(
        "Ablation: combination matrix family",
        f"random coefficients: {random_rate:.3%} rank failures\n"
        f"Cauchy coefficients: {cauchy_rate:.3%} rank failures "
        f"(guaranteed 0 by superregularity)",
    )
    assert cauchy_rate == 0.0
    assert random_rate > 0.0

    # Timed kernel: a single minor-invertibility check.
    m = cauchy_matrix(12, 20)
    benchmark(lambda: m.take_cols(range(12)).is_invertible())


def simulate_secrecy(budget_slop, trials=40, seed=9):
    """Mean reliability when the estimator over-promises by
    ``budget_slop`` (fraction of Eve's true misses)."""
    rng = np.random.default_rng(seed)
    rels = []
    for _ in range(trials):
        n = 40
        reports = {
            t: frozenset(i for i in range(n) if rng.random() > 0.4)
            for t in (1, 2, 3)
        }
        eve_received = frozenset(i for i in range(n) if rng.random() > 0.5)
        eve_missed = set(range(n)) - eve_received

        def budget(ids, exclude=frozenset()):
            true = sum(1 for i in ids if i in eve_missed)
            return (1.0 + budget_slop) * true

        alloc = plan_y_allocation(reports, budget, n)
        plan = build_phase2_matrices(alloc)
        leakage = round_leakage(alloc, plan, eve_received, list(range(n)))
        rels.append(leakage.reliability)
    return float(np.mean(rels))


def test_overpromising_budgets_degrade_reliability():
    """Sensitivity curve: reliability vs estimator optimism."""
    rows = []
    values = {}
    for slop in (0.0, 0.2, 0.5):
        rel = simulate_secrecy(slop)
        values[slop] = rel
        rows.append(f"budget x{1+slop:.1f}: mean reliability {rel:.3f}")
    emit("Ablation: estimator optimism sensitivity", "\n".join(rows))
    assert values[0.0] == 1.0
    assert values[0.5] < values[0.0]
    assert values[0.5] <= values[0.2] + 1e-9


def test_benchmark_allocation_planning(benchmark):
    rng = np.random.default_rng(4)
    n = 180
    reports = {
        t: {i for i in range(n) if rng.random() > 0.4} for t in range(1, 8)
    }

    def budget(ids, exclude=frozenset()):
        return 0.3 * len(ids)

    alloc = benchmark(plan_y_allocation, reports, budget, n)
    assert alloc.total_rows > 0
