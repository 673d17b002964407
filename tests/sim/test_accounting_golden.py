"""Golden fixtures: batched accounting results and analytic PER tables.

Stored shards are content-keyed on what the batched engine computes, so
an accounting change that moves one float of one round forks every
recorded campaign.  This module pins:

* the bytes of every array field of :class:`repro.sim.BatchResult` from
  :func:`repro.sim.run_batch`, over six estimator policies (oracle,
  fixed fraction, leave-one-out, 1- and 2-collusion, combined) x IID,
  Gilbert-Elliott and schedule-driven loss x one or two Eve antennas x
  n in {3, 5}, plus a ``max_subset_size`` cap and a ``run(rounds=...)``
  override;
* the stored shard bytes of one tiny batched testbed campaign with the
  combined estimator and an extra Eve antenna;
* ``float.hex`` of :func:`repro.testbed.pertable.schedule_loss_table`
  on seeded placements, n = 3-8, under four radio/interference
  configurations (each one a different quadrature node set).

The digests in ``golden/accounting.json`` were recorded before the
per-cell engine's array loop was folded into the scalar kernel and
before the PER quadrature ran in place.  They must never be
regenerated to make a change pass; run this file as a script
(``PYTHONPATH=src python tests/sim/test_accounting_golden.py``) only
to print what the current code produces.
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
from repro.net.radio import RadioConfig
from repro.sim import (
    AdversarySpec,
    BatchedRoundEngine,
    CollusionEstimatorSpec,
    CombinedEstimatorSpec,
    FixedFractionEstimatorSpec,
    GilbertElliottLossSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    Scenario,
    ScheduleLossSpec,
    run_batch,
)
from repro.store import open_store
from repro.testbed.pertable import schedule_loss_table
from repro.testbed.placements import sample_placements
from repro.theory import clear_efficiency_cache, clear_realised_flow_cache

pytestmark = pytest.mark.accounting

GOLDEN = Path(__file__).with_name("golden") / "accounting.json"

#: BatchResult's array fields, in declaration order.
ARRAY_FIELDS = (
    "secret_packets",
    "public_packets",
    "total_rows",
    "efficiency",
    "reliability",
    "eve_missed",
    "terminal_receptions",
    "delivery_rates",
    "hidden_dims",
    "eve_equations",
)

ESTIMATORS = (
    ("oracle", OracleEstimatorSpec()),
    ("fixed", FixedFractionEstimatorSpec(fraction=0.25)),
    ("loo", LeaveOneOutEstimatorSpec(rate_margin=0.05)),
    ("collusion1", CollusionEstimatorSpec(k=1, rate_margin=0.02)),
    ("collusion2", CollusionEstimatorSpec(k=2)),
    (
        "combined",
        CombinedEstimatorSpec(
            children=(
                FixedFractionEstimatorSpec(fraction=0.3),
                LeaveOneOutEstimatorSpec(rate_margin=0.02),
            )
        ),
    ),
)


def _schedule_spec(n_links: int, seed: int) -> ScheduleLossSpec:
    """A seeded 3-pattern schedule: one jammed-heavy, two lighter."""
    rng = np.random.default_rng(seed)
    table = np.vstack(
        [
            rng.uniform(0.5, 0.9, n_links),
            rng.uniform(0.1, 0.4, n_links),
            rng.uniform(0.0, 0.2, n_links),
        ]
    )
    return ScheduleLossSpec(
        pattern_probabilities=tuple(
            tuple(float(v) for v in row) for row in table
        ),
        slots_per_pattern=7,
    )


def _losses(n: int, antennas: int) -> tuple:
    links = n - 1 + antennas
    return (
        ("iid0.3", IIDLossSpec(0.3)),
        ("ge0.1/0.3", GilbertElliottLossSpec(p_g2b=0.1, p_b2g=0.3)),
        ("schedule3", _schedule_spec(links, seed=100 * n + antennas)),
    )


def accounting_cells() -> list:
    """``(label, scenario)`` for every pinned ``run_batch`` cell."""
    cells = []
    for n in (3, 5):
        for antennas in (1, 2):
            for loss_label, loss in _losses(n, antennas):
                for est_label, estimator in ESTIMATORS:
                    cells.append(
                        (
                            f"n={n} ant={antennas} {loss_label} {est_label}",
                            Scenario(
                                n_terminals=n,
                                loss=loss,
                                adversary=AdversarySpec(antennas=antennas),
                                estimator=estimator,
                                n_x_packets=90,
                                rounds=6,
                                z_cost_factor=2.5,
                                secrecy_slack=1,
                            ),
                        )
                    )
    cells.append(
        (
            "n=5 ant=1 iid0.3 loo max_subset_size=2",
            Scenario(
                n_terminals=5,
                loss=IIDLossSpec(0.3),
                estimator=LeaveOneOutEstimatorSpec(rate_margin=0.05),
                n_x_packets=90,
                rounds=6,
                secrecy_slack=1,
                max_subset_size=2,
            ),
        )
    )
    return cells


def result_digests(result) -> dict:
    """sha256 over each array field's dtype, shape and bytes."""
    out = {}
    for name in ARRAY_FIELDS:
        arr = np.ascontiguousarray(getattr(result, name))
        h = hashlib.sha256()
        h.update(repr((str(arr.dtype), arr.shape)).encode())
        h.update(arr.tobytes())
        out[name] = h.hexdigest()
    return out


def engine_digests() -> dict:
    """Field digests per labelled cell (seed = the cell's index), plus
    one ``run(rounds=7)`` override of the schedule/combined cell."""
    clear_realised_flow_cache()
    clear_efficiency_cache()
    cells = accounting_cells()
    out = {
        label: result_digests(run_batch(scenario, seed=index))
        for index, (label, scenario) in enumerate(cells)
    }
    label, scenario = next(
        (label, s) for label, s in cells if label == "n=5 ant=2 schedule3 combined"
    )
    out[f"{label} run(rounds=7)"] = result_digests(
        BatchedRoundEngine(scenario, seed=2012).run(rounds=7)
    )
    return out


def _shard_digest(root: Path) -> str:
    """sha256 over every shard file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(root.glob("*.jsonl")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def campaign_shard_digest(root: Path) -> str:
    """Shard bytes of a tiny batched testbed campaign: combined
    estimator, an extra Eve antenna in cell 4, n = 3 and 5."""
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
            group_sizes=(3, 5),
            eve_extra_cells=(4,),
        ),
        engine="batched",
        estimator_spec=ESTIMATORS[-1][1],
        store=open_store(f"file:{root}"),
        resume=False,
        rounds_per_leader=4,
    )
    return _shard_digest(root)


#: (label, testbed config) — each a different quadrature configuration.
PER_TABLE_CONFIGS = (
    ("default", repro.TestbedConfig(interferer_power_dbm=10.0)),
    (
        "interference off",
        repro.TestbedConfig(interferer_power_dbm=10.0, interference_enabled=False),
    ),
    (
        "fading off",
        repro.TestbedConfig(
            interferer_power_dbm=10.0, radio=RadioConfig(rayleigh_fading=False)
        ),
    ),
    (
        "shadowing 0",
        repro.TestbedConfig(
            interferer_power_dbm=10.0, radio=RadioConfig(shadowing_sigma_db=0.0)
        ),
    ),
)


def per_tables() -> dict:
    """``float.hex`` of every entry of seeded schedule loss tables:
    one sampled placement per n = 3-8 per configuration, with the
    placement's jittered geometry drawn from a seeded generator."""
    out = {}
    for label, config in PER_TABLE_CONFIGS:
        testbed = repro.Testbed(config)
        rng = np.random.default_rng(2012)
        for n in range(3, 9):
            (placement,) = sample_placements(n, 1, rng)
            terminals, eve = testbed.node_positions(placement, rng)
            table = schedule_loss_table(
                testbed, terminals, list(terminals) + [eve], payload_bytes=100
            )
            out[f"{label} n={n}"] = {
                "shape": list(table.shape),
                "hex": " ".join(float(v).hex() for v in table.ravel()),
            }
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_cells_cover_the_policies():
    """Every estimator kind secures some rounds somewhere, so the
    digests pin real accounting rather than all-zero batches."""
    clear_realised_flow_cache()
    secured = set()
    for index, (label, scenario) in enumerate(accounting_cells()):
        if run_batch(scenario, seed=index).secret_packets.sum() > 0:
            secured.add(label.split()[-1])
    assert {label for label, _ in ESTIMATORS} <= secured


def test_batch_results_unchanged(golden):
    got = engine_digests()
    want = golden["engine"]
    assert sorted(got) == sorted(want)
    changed = [
        f"{label}: {name}"
        for label in want
        for name in ARRAY_FIELDS
        if got[label][name] != want[label][name]
    ]
    assert not changed, f"{len(changed)} field(s) changed, first: {changed[0]}"


def test_testbed_campaign_shards_unchanged(golden, tmp_path):
    assert campaign_shard_digest(tmp_path / "store") == golden["testbed_campaign"]


def test_schedule_loss_tables_unchanged(golden):
    got = per_tables()
    want = golden["per_tables"]
    assert sorted(got) == sorted(want)
    changed = [label for label in want if got[label] != want[label]]
    assert not changed, f"table(s) changed: {changed}"


if __name__ == "__main__":  # print what the current code produces
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {
            "engine": engine_digests(),
            "testbed_campaign": campaign_shard_digest(Path(tmp) / "testbed"),
            "per_tables": per_tables(),
        }
    json.dump(doc, sys.stdout, indent=1)
    print()
