"""Golden fixtures: phase-1 allocation plans and symmetric LP profiles.

Every live session and every packet-level round plans its y-packets
with :func:`repro.coding.privacy.plan_y_allocation`, and the batched
engines plan with :func:`repro.theory.efficiency.group_allocation_profile`.
Both sit on a Dinkelbach loop over an LP, so a solver change that
returns a different (even equally optimal) vertex changes which x-ids
feed which block, and with it every wire byte and key downstream.

This module pins, for about 400 seeded report sets, the sha256 of each
plan's blocks ``(subset, support, rows)``, and for a grid of ``(n, p)``
cells the exact float fields of the symmetric profile.  The fixture in
``golden/allocation_plans.json`` must never be regenerated to make a
planning change pass; run this file as a script (``PYTHONPATH=src
python tests/coding/test_allocation_golden.py``) only to print what the
current code produces.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.coding.privacy import plan_y_allocation
from repro.theory import clear_efficiency_cache, group_allocation_profile

pytestmark = pytest.mark.lp

GOLDEN = Path(__file__).with_name("golden") / "allocation_plans.json"

#: Seed and size of the report-set generator the fixture was built from.
REPORT_SEED = 2012
REPORT_COUNT = 400

#: The plan parameters the report sets cycle through.
RECEIVER_COUNTS = (1, 2, 3, 4, 5)
PACKET_COUNTS = (24, 48, 96, 160)
ESTIMATORS = ("fraction", "oracle")
MAX_SUBSET_SIZES = (None, 2)
Z_COST_FACTORS = (1.0, 2.0)

#: The symmetric-profile grid.
PROFILE_NS = tuple(range(3, 11))
PROFILE_PS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
PROFILE_MAX_LEVELS = (None, 2)


def report_cases(seed: int = REPORT_SEED, count: int = REPORT_COUNT) -> list:
    """Seeded ``(reports, eve_missed, fraction, N, max_subset, z_cost)``.

    The parameter product is walked in order, so every combination
    occurs at least twice; loss rates, Eve's misses and the fraction
    are drawn per case.
    """
    grid = list(
        itertools.product(
            RECEIVER_COUNTS, PACKET_COUNTS, ESTIMATORS, MAX_SUBSET_SIZES, Z_COST_FACTORS
        )
    )
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        n_receivers, n_packets, estimator, max_subset, z_cost = grid[k % len(grid)]
        loss = float(rng.uniform(0.1, 0.6))
        reports = {
            f"T{t}": frozenset(
                int(i) for i in np.flatnonzero(rng.random(n_packets) >= loss)
            )
            for t in range(1, n_receivers + 1)
        }
        eve_missed = frozenset(
            int(i) for i in np.flatnonzero(rng.random(n_packets) < rng.uniform(0.2, 0.7))
        )
        fraction = float(rng.choice([0.1, 0.25, 0.4]))
        cases.append(
            (
                reports,
                eve_missed if estimator == "oracle" else None,
                fraction,
                n_packets,
                max_subset,
                z_cost,
            )
        )
    return cases


def _budget_fn(eve_missed, fraction):
    if eve_missed is None:
        return lambda ids, exclude=frozenset(): fraction * len(ids)
    return lambda ids, exclude=frozenset(): float(sum(1 for i in ids if i in eve_missed))


def allocation_digest(allocation) -> str:
    """sha256 over every block's ``(subset, support, rows)``, in order."""
    h = hashlib.sha256()
    h.update(repr(allocation.receivers).encode())
    for block in allocation.blocks:
        h.update(repr((tuple(sorted(block.subset)), block.support, block.rows)).encode())
    return h.hexdigest()


def plan_digests() -> list:
    """One digest per report case, in generator order."""
    return [
        allocation_digest(
            plan_y_allocation(
                reports,
                _budget_fn(eve_missed, fraction),
                overhead_packets=n_packets,
                max_subset_size=max_subset,
                z_cost_factor=z_cost,
            )
        )
        for reports, eve_missed, fraction, n_packets, max_subset, z_cost in report_cases()
    ]


def profile_fields() -> list:
    """``[n, p, support_feasible, max_level, fields]`` per grid cell,
    every float as its exact ``float.hex()``."""
    clear_efficiency_cache()
    out = []
    try:
        for n, p, feasible, max_level in itertools.product(
            PROFILE_NS, PROFILE_PS, (False, True), PROFILE_MAX_LEVELS
        ):
            prof = group_allocation_profile(
                n, p, support_feasible=feasible, max_level=max_level
            )
            fields = [v.hex() for v in prof.level_rows] + [
                prof.l_per_packet.hex(),
                prof.m_per_packet.hex(),
                prof.efficiency.hex(),
            ]
            out.append([n, p, feasible, max_level, fields])
    finally:
        clear_efficiency_cache()
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_generator_covers_the_edge_cases():
    """Empty plans, single-block plans and multi-block plans all occur,
    and every receiver count meets both estimators."""
    sizes = []
    seen = set()
    for reports, eve_missed, fraction, n_packets, max_subset, z_cost in report_cases():
        alloc = plan_y_allocation(
            reports,
            _budget_fn(eve_missed, fraction),
            overhead_packets=n_packets,
            max_subset_size=max_subset,
            z_cost_factor=z_cost,
        )
        sizes.append(len(alloc.blocks))
        seen.add((len(reports), eve_missed is None))
    assert len(seen) == 2 * len(RECEIVER_COUNTS)
    assert sizes.count(0) >= 5
    assert sizes.count(1) >= 50
    assert sum(s >= 3 for s in sizes) >= 100


def test_allocation_plans_unchanged(golden):
    got = plan_digests()
    want = golden["plans"]
    assert len(got) == len(want)
    changed = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not changed, f"{len(changed)} plan(s) changed, first case: {changed[0]}"


def test_group_profiles_unchanged(golden):
    got = profile_fields()
    want = golden["profiles"]
    assert len(got) == len(want)
    changed = [g[:4] for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} profile(s) changed, first: {changed[0]}"


if __name__ == "__main__":  # print what the current code produces
    doc = {
        "report_seed": REPORT_SEED,
        "report_count": REPORT_COUNT,
        "plans": plan_digests(),
        "profiles": profile_fields(),
    }
    json.dump(doc, sys.stdout, indent=1)
    print()
