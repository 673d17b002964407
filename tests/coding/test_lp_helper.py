"""The planners' one LP entry point against ``linprog`` as the oracle.

Both Dinkelbach loops (the allocation LP of
:func:`repro.coding.privacy.plan_y_allocation` and the level LP of
:func:`repro.theory.efficiency.group_allocation_profile`) solve through
:func:`repro.coding.privacy.solve_lp`, which calls HiGHS by way of
``scipy.optimize.milp``.  ``linprog(method="highs")`` reaches the same
solver through another wrapper; on every LP the loops pose, both must
return the same ``x`` to the last bit, or plans would move.

The LPs are captured from the loops themselves, every Dinkelbach step
included: allocation LPs from random pattern-cell sizes and budgets,
level LPs from random ``(n, p, level cap)`` cells.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import repro.coding.privacy as privacy
import repro.theory.efficiency as efficiency
from repro.coding.privacy import solve_lp

pytestmark = pytest.mark.lp

INSTANCE_SEED = 2024
INSTANCES = 200


def _capture(monkeypatch, module) -> list:
    """Record every ``(c, a_ub, b_ub)`` the module hands to ``solve_lp``."""
    seen = []

    def recording(c, a_ub, b_ub):
        seen.append((c.copy(), np.array(a_ub), np.array(b_ub)))
        return solve_lp(c, a_ub, b_ub)

    monkeypatch.setattr(module, "solve_lp", recording)
    return seen


def _subsets(names) -> list:
    return [
        frozenset(combo)
        for k in range(1, len(names) + 1)
        for combo in itertools.combinations(names, k)
    ]


def allocation_lps(monkeypatch) -> list:
    """Allocation LPs from random pattern cells, 1-4 receivers."""
    seen = _capture(monkeypatch, privacy)
    rng = np.random.default_rng(INSTANCE_SEED)
    for _ in range(INSTANCES):
        receivers = tuple(f"T{t}" for t in range(int(rng.integers(1, 5))))
        patterns = _subsets(receivers)
        chosen = rng.choice(len(patterns), size=int(rng.integers(1, len(patterns) + 1)), replace=False)
        cells = {patterns[k]: list(range(int(rng.integers(1, 40)))) for k in sorted(chosen)}
        rates = {T: float(rng.uniform(0.0, 0.6)) for T in _subsets(receivers)}
        pair_budgets = {
            (T, P): rates[T] * len(ids)
            for T in _subsets(receivers)
            for P, ids in cells.items()
            if T <= P
        }
        privacy.clear_allocation_lp_cache()
        privacy._solve_allocation_lp(
            receivers,
            cells,
            pair_budgets,
            float(rng.choice([24.0, 48.0, 96.0, 160.0])),
            z_cost_factor=float(rng.choice([1.0, 2.0, 2.5])),
        )
    privacy.clear_allocation_lp_cache()
    return seen


def level_lps(monkeypatch) -> list:
    """Level LPs from random ``(n, p, level cap)``, both constraint sets."""
    seen = _capture(monkeypatch, efficiency)
    rng = np.random.default_rng(INSTANCE_SEED + 1)
    for _ in range(INSTANCES):
        n = int(rng.integers(3, 11))
        cap = int(rng.integers(1, n))
        efficiency._solve_group_lp.__wrapped__(
            n,
            float(rng.uniform(0.05, 0.95)),
            float(rng.choice([1.0, 2.0])),
            25,
            1e-10,
            None if cap == n - 1 else cap,
            bool(rng.random() < 0.5),
            None,
        )
    return seen


def _linprog_x(c, a_ub, b_ub) -> np.ndarray:
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    assert res.success
    return res.x


@pytest.mark.parametrize("family", [allocation_lps, level_lps], ids=["allocation", "level"])
def test_solve_lp_matches_linprog_bit_for_bit(monkeypatch, family):
    lps = family(monkeypatch)
    monkeypatch.undo()
    assert len(lps) > INSTANCES
    differing = [
        k
        for k, (c, a_ub, b_ub) in enumerate(lps)
        if solve_lp(c, a_ub, b_ub).tobytes() != _linprog_x(c, a_ub, b_ub).tobytes()
    ]
    assert not differing, f"{len(differing)} of {len(lps)} LPs differ, first: {differing[0]}"


def test_solve_lp_reports_infeasible_as_none():
    # x >= 0 and x <= -1 cannot both hold.
    assert solve_lp(np.ones(1), np.array([[1.0]]), np.array([-1.0])) is None
