"""Cross-cell stacking: a stacked group equals its cells run alone.

The contract of :mod:`repro.sim.stack`: grouping cells that share a
stack signature into one kernel pass is a pure throughput
optimisation.  The stacked pass and :class:`BatchedRoundEngine` run
the engine's single accounting kernel, so every array of every cell's
:class:`BatchResult` must be *bit-identical* to running each cell
through its own engine: per-cell generators stay content-keyed, and
the stacked tensor only changes where each cell's draws are stored.
:class:`CampaignRunner` always stacks; its results are checked here
against per-cell engines, and its stored shards are pinned on every
backend by ``tests/store/test_store_golden.py``.
"""

import json

import numpy as np
import pytest

from repro.sim import (
    AdversarySpec,
    BatchedRoundEngine,
    CampaignRunner,
    CollusionEstimatorSpec,
    CombinedEstimatorSpec,
    FixedFractionEstimatorSpec,
    GilbertElliottLossSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    Scenario,
    ScenarioGrid,
    group_cells,
    run_stacked_batch,
    sample_receptions_stacked,
    stack_signature,
)
from repro.sim.campaign import ScenarioOutcome
from repro.store import CampaignStore
from repro.store.records import scenario_outcome_to_json

RESULT_FIELDS = (
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

#: Every estimator family, both adversaries, bursty and IID losses —
#: the axes that exercise the oracle/certified/budget branches of the
#: accounting the scalar kernels mirror.
ESTIMATORS = (
    OracleEstimatorSpec(),
    LeaveOneOutEstimatorSpec(rate_margin=0.05),
    FixedFractionEstimatorSpec(fraction=0.6),
    CollusionEstimatorSpec(k=2),
    CombinedEstimatorSpec(
        children=(
            FixedFractionEstimatorSpec(fraction=0.5),
            LeaveOneOutEstimatorSpec(rate_margin=0.05),
        )
    ),
)


def _rng_for(scenario, seed=11):
    return np.random.default_rng(
        np.random.SeedSequence(
            entropy=seed,
            spawn_key=CampaignRunner(seed=seed).cell_seed_sequence(
                scenario
            ).spawn_key,
        )
    )


def _cells_one_signature(loss=IIDLossSpec(0.4), adversary=AdversarySpec()):
    return [
        Scenario(
            n_terminals=4,
            loss=loss,
            adversary=adversary,
            estimator=estimator,
            rounds=25,
            n_x_packets=40,
            secrecy_slack=slack,
        )
        for estimator in ESTIMATORS
        for slack in (0, 1)
    ]


def assert_results_identical(stacked, reference):
    assert len(stacked) == len(reference)
    for got, want in zip(stacked, reference):
        assert got.scenario == want.scenario
        for name in RESULT_FIELDS:
            assert np.array_equal(
                getattr(got, name), getattr(want, name)
            ), name


class TestStackSignature:
    def test_estimator_and_slack_do_not_split_groups(self):
        cells = _cells_one_signature()
        assert len({stack_signature(c) for c in cells}) == 1
        assert group_cells(cells) == [list(range(len(cells)))]

    def test_loss_adversary_shape_split_groups(self):
        base = Scenario(n_terminals=4, loss=IIDLossSpec(0.4), rounds=10,
                        n_x_packets=40)
        different = [
            Scenario(n_terminals=5, loss=IIDLossSpec(0.4), rounds=10,
                     n_x_packets=40),
            Scenario(n_terminals=4, loss=IIDLossSpec(0.5), rounds=10,
                     n_x_packets=40),
            Scenario(n_terminals=4, loss=IIDLossSpec(0.4), rounds=10,
                     n_x_packets=40, adversary=AdversarySpec(antennas=2)),
            Scenario(n_terminals=4, loss=IIDLossSpec(0.4), rounds=10,
                     n_x_packets=60),
        ]
        for other in different:
            assert stack_signature(base) != stack_signature(other)

    def test_groups_preserve_first_occurrence_order(self):
        a = Scenario(n_terminals=3, loss=IIDLossSpec(0.3), rounds=5,
                     n_x_packets=30)
        b = Scenario(n_terminals=4, loss=IIDLossSpec(0.3), rounds=5,
                     n_x_packets=30)
        groups = group_cells([a, b, a, b, a])
        assert groups == [[0, 2, 4], [1, 3]]


class TestStackedKernelBitIdentity:
    @pytest.mark.parametrize(
        "loss",
        [IIDLossSpec(0.4), GilbertElliottLossSpec(0.1, 0.4, 0.8)],
        ids=["iid", "gilbert-elliott"],
    )
    @pytest.mark.parametrize(
        "adversary",
        [AdversarySpec(), AdversarySpec(antennas=2)],
        ids=["eve1", "eve2"],
    )
    def test_stacked_equals_per_cell_engines(self, loss, adversary):
        """One stacked pass over the full estimator x slack matrix is
        array-for-array identical to per-cell engines, for bursty and
        IID channels and both adversary strengths."""
        cells = _cells_one_signature(loss=loss, adversary=adversary)
        stacked = run_stacked_batch(
            cells, [_rng_for(c) for c in cells]
        )
        reference = [
            BatchedRoundEngine(c, rng=_rng_for(c)).run() for c in cells
        ]
        assert_results_identical(stacked, reference)

    def test_single_cell_group_matches_engine(self):
        cell = _cells_one_signature()[0]
        (stacked,) = run_stacked_batch([cell], [_rng_for(cell)])
        reference = BatchedRoundEngine(cell, rng=_rng_for(cell)).run()
        assert_results_identical([stacked], [reference])

    def test_heterogeneous_rounds_in_one_group(self):
        """Cells of different lengths stack into one ragged tensor."""
        cells = [
            Scenario(n_terminals=4, loss=IIDLossSpec(0.4), rounds=rounds,
                     n_x_packets=40)
            for rounds in (5, 40, 17)
        ]
        stacked = run_stacked_batch(cells, [_rng_for(c) for c in cells])
        reference = [
            BatchedRoundEngine(c, rng=_rng_for(c)).run() for c in cells
        ]
        assert_results_identical(stacked, reference)

    def test_mixed_signature_group_rejected(self):
        cells = [
            Scenario(n_terminals=4, loss=IIDLossSpec(0.4), rounds=5,
                     n_x_packets=40),
            Scenario(n_terminals=4, loss=IIDLossSpec(0.5), rounds=5,
                     n_x_packets=40),
        ]
        with pytest.raises(ValueError, match="group_cells"):
            run_stacked_batch(cells, [_rng_for(c) for c in cells])

    def test_rng_count_mismatch_rejected(self):
        cells = _cells_one_signature()[:2]
        with pytest.raises(ValueError, match="one generator per scenario"):
            run_stacked_batch(cells, [_rng_for(cells[0])])


class TestStackedReception:
    def test_segments_tile_the_tensor_in_cell_order(self):
        cells = [
            Scenario(n_terminals=4, loss=IIDLossSpec(0.4), rounds=rounds,
                     n_x_packets=40)
            for rounds in (3, 7, 2)
        ]
        batch, segments = sample_receptions_stacked(
            cells, [_rng_for(c) for c in cells]
        )
        assert segments == [(0, 3), (3, 10), (10, 12)]
        assert batch.terminals.shape == (12, 3, 40)

    def test_blocks_are_the_per_cell_draws(self):
        """Shared storage, not shared randomness: each cell's block is
        the exact tensor its own generator yields unstacked."""
        from repro.sim.reception import sample_receptions

        cells = _cells_one_signature()[:3]
        batch, segments = sample_receptions_stacked(
            cells, [_rng_for(c) for c in cells]
        )
        for cell, (start, stop) in zip(cells, segments):
            alone = sample_receptions(cell, cell.rounds, _rng_for(cell))
            assert np.array_equal(batch.terminals[start:stop], alone.terminals)
            assert np.array_equal(batch.eve[start:stop], alone.eve)


GRID = ScenarioGrid(
    group_sizes=(3, 4),
    loss_models=(IIDLossSpec(0.3), IIDLossSpec(0.5)),
    estimators=(OracleEstimatorSpec(), LeaveOneOutEstimatorSpec(0.05)),
    rounds=30,
    n_x_packets=50,
)


def assert_outcomes_identical(a, b):
    assert len(a.outcomes) == len(b.outcomes)
    for oa, ob in zip(a.outcomes, b.outcomes):
        assert oa.scenario == ob.scenario
        for name in RESULT_FIELDS:
            assert np.array_equal(
                getattr(oa.result, name), getattr(ob.result, name)
            ), name


def per_cell_engine_outcomes(seed, cells):
    """Each cell through its own engine, seeded as a campaign seeds it."""
    return [
        ScenarioOutcome(
            scenario=cell,
            result=BatchedRoundEngine(cell, rng=_rng_for(cell, seed)).run(),
        )
        for cell in cells
    ]


class TestCampaignCellBatching:
    def test_campaign_equals_per_cell_engines(self):
        campaign = CampaignRunner(seed=9).run(GRID)
        reference = per_cell_engine_outcomes(9, GRID.scenarios())
        assert_results_identical(
            [o.result for o in campaign.outcomes],
            [o.result for o in reference],
        )

    def test_per_cell_engine_shards_match_store_golden(self, tmp_path):
        """Per-cell engine records, appended one by one, leave the raw
        shard bytes the golden pins for the stacked campaign."""
        from tests.store.test_store_golden import (
            GOLDEN,
            SEED,
            file_digests,
            golden_cells,
        )

        runner = CampaignRunner(seed=SEED)
        store = CampaignStore(tmp_path)
        for outcome in per_cell_engine_outcomes(SEED, golden_cells()):
            store.append(
                runner.cell_key(outcome.scenario),
                scenario_outcome_to_json(outcome),
            )
        golden = json.loads(GOLDEN.read_text())
        assert file_digests(tmp_path) == golden["file_bytes"]

    def test_sharded_batched_equals_serial(self):
        serial = CampaignRunner(seed=9, max_workers=1).run(GRID)
        sharded = CampaignRunner(seed=9, max_workers=4).run(GRID)
        assert_outcomes_identical(serial, sharded)

    def test_process_pool_batched_equals_serial(self):
        cells = GRID.scenarios()[:4]
        serial = CampaignRunner(seed=4).run(cells)
        pooled = CampaignRunner(seed=4, max_workers=2).run(cells)
        assert_outcomes_identical(serial, pooled)

    def test_group_persistence_is_batched(self, tmp_path):
        """The stacked path persists whole groups through append_batch,
        not per-record appends."""
        calls = {"append": 0, "batch": 0}

        class CountingStore(CampaignStore):
            def append(self, key, record):
                calls["append"] += 1
                super().append(key, record)

            def append_batch(self, items):
                calls["batch"] += 1
                super().append_batch(items)

        CampaignRunner(seed=9, store=CountingStore(tmp_path)).run(GRID)
        assert calls["append"] == 0
        # One flush per stacked group: the grid has 2 (n, loss) pairs
        # x 2 group sizes = 4 signatures.
        assert calls["batch"] == 4
