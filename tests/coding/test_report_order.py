"""A plan does not depend on the order of the ``reports`` mapping.

:func:`repro.coding.privacy.plan_y_allocation` groups x-ids into
reception-pattern cells, and the cell order feeds the allocation LP and
the flow's arc order.  The cells are built over the terminals in sorted
order, so any insertion order of the same reports gives the same blocks:
the live leader passes its reports in arrival order, the per-packet
session in terminal order.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.privacy import plan_y_allocation
from tests.coding.test_allocation_golden import (
    GOLDEN,
    _budget_fn,
    allocation_digest,
    report_cases,
)


def _blocks(allocation) -> list:
    return [(sorted(b.subset), b.support, b.rows) for b in allocation.blocks]


@settings(max_examples=60, deadline=None)
@given(
    n_receivers=st.integers(2, 4),
    n_packets=st.sampled_from((16, 40)),
    seed=st.integers(0, 2**32 - 1),
    oracle=st.booleans(),
    data=st.data(),
)
def test_plan_is_equal_under_a_permuted_mapping(
    n_receivers, n_packets, seed, oracle, data
):
    rng = np.random.default_rng(seed)
    loss = rng.uniform(0.1, 0.6)
    reports = {
        f"T{t}": {int(i) for i in np.flatnonzero(rng.random(n_packets) >= loss)}
        for t in range(n_receivers)
    }
    eve_missed = frozenset(int(i) for i in np.flatnonzero(rng.random(n_packets) < 0.4))
    budget = _budget_fn(eve_missed if oracle else None, 0.3)
    order = data.draw(st.permutations(sorted(reports)))
    permuted = {t: reports[t] for t in order}
    want = plan_y_allocation(reports, budget, n_packets)
    got = plan_y_allocation(permuted, budget, n_packets)
    assert got.receivers == want.receivers
    assert _blocks(got) == _blocks(want)


@pytest.mark.lp
def test_golden_plans_hold_under_reversed_and_shuffled_reports():
    """Every golden report case, with its mapping reversed and shuffled,
    still plans the recorded digest."""
    want = json.loads(GOLDEN.read_text())["plans"]
    rng = np.random.default_rng(26)
    changed = []
    for index, case in enumerate(report_cases()):
        reports, eve_missed, fraction, n_packets, max_subset, z_cost = case
        names = list(reports)
        for order in (names[::-1], [names[k] for k in rng.permutation(len(names))]):
            allocation = plan_y_allocation(
                {t: reports[t] for t in order},
                _budget_fn(eve_missed, fraction),
                overhead_packets=n_packets,
                max_subset_size=max_subset,
                z_cost_factor=z_cost,
            )
            if allocation_digest(allocation) != want[index]:
                changed.append(index)
                break
    assert not changed, f"{len(changed)} plan(s) moved with the report order"
