"""Golden fixtures: realised max-flow plans and campaign shard bytes.

Stored shards are content-keyed on the realised plans, so a solver
change that returns a different (even equally optimal) flow matrix, or
lands the scale search on a different grid point, silently forks every
recorded campaign.  This module pins the exact output of
:func:`repro.theory.allocation.realised_support_flow` on a seeded set of
lattice-structured keys, plus the stored shard bytes of one tiny
batched testbed campaign and one tiny stacked scenario grid.

The digests in ``golden/realised_flow.json`` were recorded before the
build-once transport graph replaced the per-step graph rebuild.  They
must never be regenerated to make a solver change pass; run this file
as a script (``PYTHONPATH=src python tests/theory/test_flow_golden.py``)
only to print what the current code produces.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import CampaignConfig, run_campaign
from repro.sim import (
    CampaignRunner,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    ScenarioGrid,
)
from repro.store import open_store
from repro.theory import clear_efficiency_cache, clear_realised_flow_cache
from repro.theory.allocation import realised_support_flow

pytestmark = pytest.mark.flow

GOLDEN = Path(__file__).with_name("golden") / "realised_flow.json"

#: Seed and size of the lattice-key generator the fixture was built from.
KEY_SEED = 2012
KEY_COUNT = 300


def _submasks(mask: int) -> list:
    """Every nonempty submask of ``mask``, ascending."""
    out = []
    sub = mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return sorted(out)


def lattice_keys(seed: int = KEY_SEED, count: int = KEY_COUNT) -> list:
    """Seeded ``(cell_counts, subset_demands)`` keys shaped like the
    batched engine's: n = 3-6 receivers, pattern cells on the subset
    lattice, subsets drawn below the patterns (plus the odd subset no
    cell contains), demand loads from comfortably feasible to several
    times the round's packets, and zero demands and capacities mixed in.
    """
    rng = np.random.default_rng(seed)
    keys = []
    for _ in range(count):
        n = int(rng.integers(3, 7))
        full = (1 << n) - 1
        n_cells = int(rng.integers(1, min(full, 24) + 1))
        patterns = sorted(
            int(p) for p in rng.choice(np.arange(1, full + 1), n_cells, replace=False)
        )
        counts = [int(c) for c in rng.integers(0, 40, size=n_cells)]
        for k in range(n_cells):
            if rng.random() < 0.1:
                counts[k] = 0
        below = sorted({s for p in patterns for s in _submasks(p)})
        n_subsets = int(rng.integers(1, min(len(below), 20) + 1))
        subsets = {int(s) for s in rng.choice(below, n_subsets, replace=False)}
        if rng.random() < 0.2:
            subsets.add(int(rng.integers(1, full + 1)))
        subsets = sorted(subsets)
        load = float(rng.choice([0.3, 0.8, 1.2, 2.0, 5.0]))
        mean = load * max(sum(counts), 1) / len(subsets)
        demands = [int(d) for d in rng.integers(0, int(2 * mean) + 2, size=len(subsets))]
        for j in range(len(subsets)):
            if rng.random() < 0.1:
                demands[j] = 0
        keys.append(
            (tuple(zip(patterns, counts)), tuple(zip(subsets, demands)))
        )
    return keys


def plan_digest(plan) -> str:
    """sha256 over a plan's subsets, cells, flow bytes, dtype and scale."""
    h = hashlib.sha256()
    head = (plan.subsets, plan.cells, str(plan.flow.dtype), plan.flow.shape)
    h.update(repr(head).encode())
    h.update(float(plan.scale).hex().encode())
    h.update(plan.flow.tobytes())
    return h.hexdigest()


def plan_digests() -> list:
    """One digest per (key, top_up), keys in generator order."""
    clear_realised_flow_cache()
    try:
        return [
            plan_digest(realised_support_flow(cells, demands, top_up=top_up))
            for cells, demands in lattice_keys()
            for top_up in (False, True)
        ]
    finally:
        clear_realised_flow_cache()


def _shard_digest(root: Path) -> str:
    """sha256 over every shard file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(root.glob("*.jsonl")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def campaign_shard_digest(root: Path) -> str:
    """Shard bytes of a tiny batched testbed campaign (n = 3 and 4)."""
    clear_realised_flow_cache()
    clear_efficiency_cache()
    run_campaign(
        repro.Testbed(repro.TestbedConfig(interferer_power_dbm=10.0)),
        config=CampaignConfig(
            session=repro.SessionConfig(
                n_x_packets=120, payload_bytes=40, secrecy_slack=1, z_cost_factor=2.5
            ),
            seed=2012,
            max_placements_per_n=2,
            group_sizes=(3, 4),
        ),
        engine="batched",
        estimator_spec=LeaveOneOutEstimatorSpec(rate_margin=0.05),
        store=open_store(f"file:{root}"),
        resume=False,
        rounds_per_leader=4,
    )
    return _shard_digest(root)


def grid_shard_digest(root: Path) -> str:
    """Shard bytes of a tiny stacked grid (oracle exercises ``top_up``)."""
    clear_realised_flow_cache()
    clear_efficiency_cache()
    grid = ScenarioGrid(
        group_sizes=(3, 5),
        loss_models=(IIDLossSpec(0.3), IIDLossSpec(0.5)),
        estimators=(OracleEstimatorSpec(), LeaveOneOutEstimatorSpec(0.05)),
        rounds=12,
        n_x_packets=60,
        secrecy_slack=1,
    )
    CampaignRunner(seed=11, store=open_store(f"file:{root}"), resume=False).run(grid)
    return _shard_digest(root)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_generator_covers_the_edge_cases():
    """The fixture is only as strong as its keys: feasible and
    infeasible rounds, zero demands and zero capacities all occur."""
    keys = lattice_keys()
    feasible = infeasible = 0
    clear_realised_flow_cache()
    try:
        for cells, demands in keys:
            plan = realised_support_flow(cells, demands)
            if plan.scale == 1.0:
                feasible += 1
            else:
                infeasible += 1
    finally:
        clear_realised_flow_cache()
    assert feasible >= 30 and infeasible >= 100
    assert sum(any(c == 0 for _, c in cells) for cells, _ in keys) >= 50
    assert sum(any(d == 0 for _, d in demands) for _, demands in keys) >= 50


def test_realised_plans_unchanged(golden):
    got = plan_digests()
    want = golden["plans"]
    assert len(got) == len(want)
    changed = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not changed, f"{len(changed)} plan(s) changed, first (key, top_up): {divmod(changed[0], 2)}"


def test_testbed_campaign_shards_unchanged(golden, tmp_path):
    assert campaign_shard_digest(tmp_path / "store") == golden["testbed_campaign"]


def test_stacked_grid_shards_unchanged(golden, tmp_path):
    assert grid_shard_digest(tmp_path / "store") == golden["stacked_grid"]


if __name__ == "__main__":  # print what the current code produces
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {
            "key_seed": KEY_SEED,
            "key_count": KEY_COUNT,
            "plans": plan_digests(),
            "testbed_campaign": campaign_shard_digest(Path(tmp) / "testbed"),
            "stacked_grid": grid_shard_digest(Path(tmp) / "grid"),
        }
    json.dump(doc, sys.stdout, indent=1)
    print()
