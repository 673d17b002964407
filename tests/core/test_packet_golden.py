"""Golden fixture: what the per-packet engine computes and stores.

The per-packet :class:`repro.core.session.ProtocolSession` is the
ground truth the batched engine and the live service are checked
against, so a change that moves one of its plans, secrets or ledger
bits forks every recorded packet-engine campaign.  This module pins:

* the sha256 of each key's stored record lines of a small
  ``run_campaign(engine="packet")`` testbed campaign, for both
  Figure-2 estimator variants of ``scripts/run_reference_campaign.py``
  (the combined interference-guarantee + leave-one-out estimator, and
  leave-one-out alone), with one extra Eve antenna in cell 4 (the
  digests are kept sorted: a factory's store key names the module it
  was imported from, which is the test's, not the engine's, business);
* per round of a rotated :func:`repro.core.run_experiment` on an IID
  medium, ``(secret_dims, hidden_dims, eve_missed)`` and the sha256 of
  the round's secret bytes, plus the ledger's ``total_bits``, for the
  oracle, fixed-fraction and leave-one-out estimators.

The digests in ``golden/packet_engine.json`` must never be regenerated
to make a change pass; run this file as a script
(``PYTHONPATH=src python tests/core/test_packet_golden.py``) only to
print what the current code produces.
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
from repro.core import (
    CombinedEstimator,
    FixedFractionEstimator,
    LeaveOneOutEstimator,
    OracleEstimator,
    run_experiment,
)
from repro.net.medium import BroadcastMedium, IIDLossModel
from repro.net.node import Eavesdropper, Terminal
from repro.store import open_store
from repro.testbed.estimator import InterferenceAwareEstimator

GOLDEN = Path(__file__).with_name("golden") / "packet_engine.json"

#: A fixed interference-guarantee floor: the combined factory's
#: calibrated ``min_jam_loss`` is replaced by a constant so the fixture
#: does not pay for a Monte-Carlo calibration.
MIN_JAM_LOSS = 0.3


class CombinedFactory:
    """The reference campaign's combined estimator, per placement."""

    def __init__(self, min_jam_loss):
        self.min_jam_loss = min_jam_loss

    def __call__(self, testbed, placement):
        ia = InterferenceAwareEstimator(
            testbed.interference,
            testbed.config.geometry,
            self.min_jam_loss,
            candidate_cells=testbed.eve_candidate_cells(placement),
        )
        return CombinedEstimator([ia, LeaveOneOutEstimator(rate_margin=0.02)])


def loo_factory(testbed, placement):
    return LeaveOneOutEstimator(rate_margin=0.05)


VARIANTS = (
    ("combined", CombinedFactory(MIN_JAM_LOSS)),
    ("loo", loo_factory),
)

#: The batched accounting golden's testbed campaign settings, with
#: n = 3-5 and three placements per n (six survive the extra antenna).
CAMPAIGN_CONFIG = CampaignConfig(
    session=repro.SessionConfig(
        n_x_packets=120, payload_bytes=40, secrecy_slack=1, z_cost_factor=2.5
    ),
    seed=2012,
    max_placements_per_n=3,
    group_sizes=(3, 4, 5),
    eve_extra_cells=(4,),
)

ESTIMATORS = (
    ("oracle", OracleEstimator),
    ("fraction", lambda: FixedFractionEstimator(0.3)),
    ("loo", lambda: LeaveOneOutEstimator(rate_margin=0.05)),
)


def campaign_lines(root: Path, factory) -> list:
    """sha256 over each stored key's record lines, each ``\\n``-terminated,
    sorted."""
    store = open_store(f"file:{root}")
    run_campaign(
        repro.Testbed(repro.TestbedConfig(interferer_power_dbm=10.0)),
        estimator_factory=factory,
        config=CAMPAIGN_CONFIG,
        engine="packet",
        store=store,
        resume=False,
    )
    return sorted(
        hashlib.sha256(
            "".join(
                line + "\n" for line in store.backend.read_records(key)
            ).encode("utf-8")
        ).hexdigest()
        for key in store.keys()
    )


def experiment_rounds(estimator) -> dict:
    """Per-round accounting and secrets of one rotated IID experiment."""
    rng = np.random.default_rng(2012)
    names = ["T0", "T1", "T2", "T3"]
    nodes = [Terminal(name=n) for n in names] + [Eavesdropper(name="eve")]
    medium = BroadcastMedium(nodes, IIDLossModel(0.4), rng)
    result = run_experiment(
        medium,
        names,
        estimator,
        rng,
        config=repro.SessionConfig(n_x_packets=60, payload_bytes=16),
    )
    return {
        "rounds": [
            [
                r.leakage.secret_dims,
                r.leakage.hidden_dims,
                r.leakage.eve_missed,
                hashlib.sha256(r.secret.tobytes()).hexdigest(),
            ]
            for r in result.rounds
        ],
        "total_bits": medium.ledger.total_bits,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label,factory", VARIANTS, ids=[v[0] for v in VARIANTS])
def test_packet_campaign_stored_lines(golden, tmp_path, label, factory):
    assert campaign_lines(tmp_path, factory) == golden["campaign"][label]


@pytest.mark.parametrize(
    "label,make", ESTIMATORS, ids=[e[0] for e in ESTIMATORS]
)
def test_rotated_experiment_rounds(golden, label, make):
    assert experiment_rounds(make()) == golden["experiment"][label]


def test_fixture_pins_real_work(golden):
    """Every campaign variant stores six records and every experiment
    agrees a secret, so the digests pin non-trivial runs."""
    for label, _ in VARIANTS:
        assert len(golden["campaign"][label]) == 6
    for label, _ in ESTIMATORS:
        assert any(r[0] > 0 for r in golden["experiment"][label]["rounds"])


if __name__ == "__main__":
    import tempfile

    doc: dict = {"campaign": {}, "experiment": {}}
    for label, factory in VARIANTS:
        with tempfile.TemporaryDirectory() as root:
            doc["campaign"][label] = campaign_lines(Path(root), factory)
    for label, make in ESTIMATORS:
        doc["experiment"][label] = experiment_rounds(make())
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
