"""Checkpoint/resume: kill a campaign mid-grid, resume, compare.

The acceptance contract of the store layer: a campaign killed partway
through and restarted against the same store must end **bit-identical**
to an uninterrupted run — for the sim-grid runner and for both testbed
campaign engines (per-packet oracle and batched).  "Killed" here means
a real mid-run abort: a worker dying mid-grid, or the process stopping
between (and even during) shard appends.
"""

import dataclasses
import math

import pytest

from repro import SessionConfig, Testbed, TestbedConfig
from repro.analysis import CampaignConfig, ReliabilityAccumulator, run_campaign
from repro.analysis.experiments import experiment_store_key
from repro.core import LeaveOneOutEstimator
from repro.sim import (
    CampaignRunner,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    Scenario,
    ScenarioGrid,
)
from repro.sim.campaign import ShardWorkerError
from repro.store import CampaignStore, open_store
from repro.store.backend_mem import MemoryStoreBackend
from repro.store.aggregate import stream_aggregates
from repro.store.records import experiment_record_to_json, scenario_outcome_to_json
from tests.sim.test_stack import assert_outcomes_identical

GRID = ScenarioGrid(
    group_sizes=(3, 4),
    loss_models=(IIDLossSpec(0.3), IIDLossSpec(0.5)),
    estimators=(OracleEstimatorSpec(), LeaveOneOutEstimatorSpec(0.05)),
    rounds=30,
    n_x_packets=50,
)

#: The engine rejects n_receivers > 16 at construction, so this cell is
#: a deterministic mid-grid worker death.
POISON = Scenario(n_terminals=19, loss=IIDLossSpec(0.5), rounds=5, n_x_packets=20)


class DyingStore(CampaignStore):
    """A store whose process 'dies' after ``budget`` persisted results.

    Raising ``KeyboardInterrupt`` from ``append`` models a hard stop
    between checkpoint writes — the tightest place a kill can land
    short of a torn line (covered separately by truncating a shard).
    """

    def __init__(self, root, budget: int) -> None:
        super().__init__(root)
        self.budget = budget

    def append(self, key, record):
        if self.budget <= 0:
            raise KeyboardInterrupt("killed mid-campaign")
        self.budget -= 1
        super().append(key, record)

    def append_batch(self, items):
        # The batched checkpoint path dies between records too: a
        # torn batch is covered separately by truncating a shard.
        for key, record in items:
            self.append(key, record)



class TestSimCampaignResume:
    def test_worker_death_mid_sharded_grid_then_resume(self, tmp_path):
        """A poison cell kills the sharded grid partway; resuming the
        clean grid from the store must match the uninterrupted run
        array for array."""
        cells = GRID.scenarios()
        reference = CampaignRunner(seed=9, max_workers=2).run(cells)
        store = CampaignStore(tmp_path)
        poisoned = cells[:5] + [POISON] + cells[5:]
        with pytest.raises(ShardWorkerError, match="n <= 17"):
            CampaignRunner(seed=9, max_workers=2, store=store).run(poisoned)
        resumed = CampaignRunner(seed=9, max_workers=2, store=store).run(cells)
        assert_outcomes_identical(reference, resumed)

    def test_kill_between_checkpoints_then_resume(self, tmp_path):
        """Serial kill after 5 persisted cells: the resume must load
        those 5 (no recomputation) and compute only the remainder."""
        cells = GRID.scenarios()
        reference = CampaignRunner(seed=9).run(cells)
        dying = DyingStore(tmp_path, budget=5)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(seed=9, store=dying).run(cells)
        store = CampaignStore(tmp_path)
        assert len(store) == 5
        computed = []
        resumed = CampaignRunner(seed=9, store=store).run(
            cells, progress=computed.append
        )
        # Progress fires only for cells actually run: exactly the rest.
        assert len(computed) == len(cells) - 5
        assert_outcomes_identical(reference, resumed)
        # The loaded shards kept their single record — nothing was
        # recomputed and superseded behind the resume's back.
        assert all(len(store.records(key)) == 1 for key in store.keys())

    def test_resume_mid_grid_on_mem(self):
        """A grid stopped after 3 cells resumes from a ``mem:`` store as
        it does from ``file:``."""
        cells = GRID.scenarios()
        reference = CampaignRunner(seed=9).run(cells)
        try:
            store = open_store("mem:resume-mid-grid")
            CampaignRunner(seed=9, store=store).run(cells[:3])
            computed = []
            resumed = CampaignRunner(seed=9, store=store).run(
                cells, progress=computed.append
            )
            assert len(computed) == len(cells) - 3
            assert_outcomes_identical(reference, resumed)
            assert all(len(store.records(key)) == 1 for key in store.keys())
        finally:
            MemoryStoreBackend.discard("resume-mid-grid")

    def test_torn_final_line_recomputes_that_cell(self, tmp_path):
        """Kill *during* the checkpoint write: the torn shard reads as
        incomplete, the resume recomputes just that cell, and the final
        result is still bit-identical."""
        cells = GRID.scenarios()
        reference = CampaignRunner(seed=9).run(cells)
        store = CampaignStore(tmp_path)
        CampaignRunner(seed=9, store=store).run(cells)
        victim = store.keys()[0]
        path = store.shard_path(victim)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        resumed = CampaignRunner(seed=9, store=store).run(cells)
        assert_outcomes_identical(reference, resumed)

    def test_grid_growth_reuses_finished_cells(self, tmp_path):
        """Content-keyed shards outlive the grid that wrote them: a
        grown grid resumes its old cells and computes only new ones."""
        small = ScenarioGrid(
            group_sizes=(3,),
            loss_models=(IIDLossSpec(0.5),),
            estimators=(OracleEstimatorSpec(),),
            rounds=20,
            n_x_packets=40,
        )
        grown = ScenarioGrid(
            group_sizes=(3, 4),
            loss_models=(IIDLossSpec(0.5),),
            estimators=(OracleEstimatorSpec(),),
            rounds=20,
            n_x_packets=40,
        )
        store = CampaignStore(tmp_path)
        CampaignRunner(seed=3, store=store).run(small)
        assert len(store) == 1
        computed = []
        result = CampaignRunner(seed=3, store=store).run(
            grown, progress=computed.append
        )
        assert [s.n_terminals for s in computed] == [4]  # only the new cell
        reference = CampaignRunner(seed=3).run(grown)
        assert_outcomes_identical(reference, result)

    def test_resume_false_supersedes(self, tmp_path):
        store = CampaignStore(tmp_path)
        cells = GRID.scenarios()[:2]
        CampaignRunner(seed=9, store=store).run(cells)
        CampaignRunner(seed=9, store=store, resume=False).run(cells)
        # Every shard now holds two records; the reader dedupes.
        assert all(len(store.records(key)) == 2 for key in store.keys())
        assert len(list(store.stream())) == len(cells)


TESTBED = Testbed(TestbedConfig(interferer_power_dbm=10.0))
CONFIG = CampaignConfig(
    session=SessionConfig(n_x_packets=60, payload_bytes=40, secrecy_slack=1),
    seed=2012,
    max_placements_per_n=4,
    group_sizes=(4,),
)


def loo_factory(testbed, placement):
    return LeaveOneOutEstimator(rate_margin=0.05)


def engine_kwargs(engine):
    if engine == "packet":
        return dict(engine="packet", estimator_factory=loo_factory)
    return dict(
        engine="batched",
        estimator_spec=LeaveOneOutEstimatorSpec(rate_margin=0.05),
        rounds_per_leader=4,
    )


class TestTestbedCampaignResume:
    """The satellite contract: kill a sharded campaign mid-grid, resume
    it, and the final aggregates are bit-identical to an uninterrupted
    serial run — on both engines."""

    @pytest.mark.parametrize("engine", ["packet", "batched"])
    def test_kill_sharded_then_resume_matches_serial(self, tmp_path, engine):
        kwargs = engine_kwargs(engine)
        reference = run_campaign(TESTBED, config=CONFIG, **kwargs)  # serial

        dying = DyingStore(tmp_path, budget=2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                TESTBED, config=CONFIG, max_workers=2, store=dying, **kwargs
            )
        store = CampaignStore(tmp_path)
        assert len(store) == 2  # checkpointed exactly up to the kill

        resumed = run_campaign(
            TESTBED, config=CONFIG, max_workers=2, store=store, **kwargs
        )
        assert resumed.records == reference.records

        # Aggregates streamed from the store are bit-identical to the
        # accumulator fed from the uninterrupted in-memory records.
        groups = stream_aggregates(store)
        expected = ReliabilityAccumulator()
        expected.extend(r.reliability for r in reference.records)
        got = groups[4].reliability
        assert got.summary(4) == expected.summary(4)
        assert got.n_excluded == expected.n_excluded

    @pytest.mark.parametrize("engine", ["packet", "batched"])
    def test_full_store_resume_runs_nothing(self, tmp_path, engine):
        kwargs = engine_kwargs(engine)
        store = CampaignStore(tmp_path)
        first = run_campaign(TESTBED, config=CONFIG, store=store, **kwargs)
        fired = []
        second = run_campaign(
            TESTBED,
            config=CONFIG,
            store=store,
            progress=lambda n, pl: fired.append(pl),
            **kwargs,
        )
        assert fired == []  # everything came from the store
        assert second.records == first.records

    def test_engines_do_not_share_shards(self, tmp_path):
        """Engine and estimator identity are in the fingerprint: a
        batched sweep must never 'resume' from packet-oracle records."""
        store = CampaignStore(tmp_path)
        run_campaign(TESTBED, config=CONFIG, store=store, **engine_kwargs("packet"))
        n_packet = len(store)
        run_campaign(TESTBED, config=CONFIG, store=store, **engine_kwargs("batched"))
        assert len(store) == 2 * n_packet


class TestZeroSecretNaNThroughStore:
    """Satellite bugfix: stored zero-secret experiments round-trip NaN
    reliability through JSONL without poisoning merged aggregates."""

    def test_nan_records_roundtrip_and_stay_excluded(self, tmp_path):
        dead = Testbed(TestbedConfig(base_loss=1.0))
        kwargs = dict(
            engine="batched",
            estimator_spec=LeaveOneOutEstimatorSpec(rate_margin=0.05),
            rounds_per_leader=2,
        )
        store = CampaignStore(tmp_path)
        first = run_campaign(dead, config=CONFIG, store=store, **kwargs)
        assert all(math.isnan(r.reliability) for r in first.records)

        resumed = run_campaign(dead, config=CONFIG, store=store, **kwargs)
        assert all(math.isnan(r.reliability) for r in resumed.records)
        assert resumed.reliabilities(4) == []  # in-memory exclusion rule

        groups = stream_aggregates(store)
        agg = groups[4].reliability
        assert agg.n_experiments == 0  # nothing entered the population
        assert agg.n_excluded == len(first.records)
        # 100%-NaN population: a measured outcome, not an error — the
        # summary is a NaN row carrying the exclusion count.
        row = agg.summary(4)
        assert row.n_experiments == 0
        assert math.isnan(row.minimum) and math.isnan(row.mean)

        # Merging the all-NaN group into a live population must leave
        # the live statistics untouched.
        live = ReliabilityAccumulator()
        live.extend([0.9, 1.0, 1.0])
        before = live.summary(4)
        live.merge(agg)
        assert live.summary(4) == before
        assert live.n_excluded == len(first.records)


class TestPreMeasuredSecrecyRefused:
    """A stored line written before records carried their measured
    secrecy is refused through every public read path, with the
    decoder's ValueError naming the missing field."""

    CELL = GRID.scenarios()[0]

    def legacy_store(self, tmp_path, key, payload, dropped):
        store = open_store(f"file:{tmp_path}")
        store.append(key, {k: v for k, v in payload.items() if k not in dropped})
        return store

    def test_experiment_line_refused_on_resume_and_aggregation(self, tmp_path):
        kwargs = engine_kwargs("batched")
        config = dataclasses.replace(CONFIG, max_placements_per_n=1)
        record = run_campaign(TESTBED, config=config, **kwargs).records[0]
        key = experiment_store_key(
            TESTBED, config, "batched", kwargs["estimator_spec"],
            record.placement, kwargs["rounds_per_leader"],
        )
        store = self.legacy_store(
            tmp_path, key, experiment_record_to_json(record),
            ("min_entropy_bits", "leaked_bits"),
        )
        with pytest.raises(ValueError, match="'min_entropy_bits'.*predates"):
            run_campaign(TESTBED, config=config, store=store, resume=True, **kwargs)
        with pytest.raises(ValueError, match="'min_entropy_bits'.*predates"):
            stream_aggregates(store)

    def test_sim_cell_line_refused_on_resume_and_aggregation(self, tmp_path):
        runner = CampaignRunner(seed=9)
        outcome = runner.run([self.CELL]).outcomes[0]
        store = self.legacy_store(
            tmp_path, runner.cell_key(self.CELL), scenario_outcome_to_json(outcome),
            ("hidden_dims", "eve_equations"),
        )
        with pytest.raises(ValueError, match="'hidden_dims'.*predates"):
            CampaignRunner(seed=9, store=store, resume=True).run([self.CELL])
        with pytest.raises(ValueError, match="'hidden_dims'.*predates"):
            stream_aggregates(store)


class TestProcessPoolRunner:
    def test_process_pool_campaign_runner_matches_serial(self):
        cells = GRID.scenarios()[:3]
        serial = CampaignRunner(seed=4).run(cells)
        pooled = CampaignRunner(seed=4, max_workers=2).run(cells)
        assert_outcomes_identical(serial, pooled)
