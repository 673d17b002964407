"""The batched testbed-campaign path: bridging, sharding, aggregation.

scripts/run_reference_campaign.py defaults to this path, so it needs
coverage independent of the synthetic-scenario sim suite: the
slot-aware testbed-to-ScheduleLossSpec bridge (link ordering!), the
per-placement batched experiment, run_campaign's engine dispatch, the
SeedSequence experiment-seed derivation, and placement sharding.
"""

import dataclasses
import math
import multiprocessing
import re

import numpy as np
import pytest

from repro import SessionConfig, Testbed, TestbedConfig
from repro.analysis import (
    CampaignConfig,
    run_campaign,
    run_placement_experiment_batched,
)
from repro.analysis.experiments import (
    _experiment_seed_sequence,
    campaign_work_items,
    placement_label,
)
from repro.core import LeaveOneOutEstimator, OracleEstimator
from repro.sim import LeaveOneOutEstimatorSpec, OracleEstimatorSpec
from repro.sim.campaign import ShardWorkerError
from repro.store import queue
from repro.testbed import Placement
from repro.testbed.pertable import placement_schedule_specs
from tests.sim.test_campaign import _recording_pools


@pytest.fixture(scope="module")
def testbed():
    return Testbed(TestbedConfig(interferer_power_dbm=10.0))


PLACEMENT = Placement(eve_cell=4, terminal_cells=(0, 2, 6, 8))
CONFIG = CampaignConfig(
    session=SessionConfig(n_x_packets=60, payload_bytes=40, secrecy_slack=1),
    seed=2012,
    max_placements_per_n=2,
    group_sizes=(4,),
)


def loo_factory(testbed, placement):
    return LeaveOneOutEstimator(rate_margin=0.05)


LAMBDA_FACTORY = lambda testbed, placement: OracleEstimator()  # noqa: E731


class TestExperimentSeedDerivation:
    def test_streams_pinned_across_processes(self):
        """SeedSequence(spawn_key=...) mixing is specified by numpy and
        independent of PYTHONHASHSEED: these draws must never change, or
        recorded campaigns stop being re-runnable."""
        seq = _experiment_seed_sequence(2012, PLACEMENT, PLACEMENT.n_terminals)
        draws = np.random.default_rng(seq).integers(0, 2**32, size=4)
        assert list(draws) == [1085817342, 4188240205, 1199366734, 3710999097]
        other = _experiment_seed_sequence(
            2012, Placement(eve_cell=1, terminal_cells=(0, 2, 6)), 3
        )
        draws = np.random.default_rng(other).integers(0, 2**32, size=4)
        assert list(draws) == [2468382795, 3250054976, 4225573721, 3821026753]

    def test_distinct_placements_get_distinct_streams(self):
        # The old abs(hash(...)) derivation could collide sign pairs;
        # spawn keys keep every coordinate in the mix.
        combos = [
            (eve, cells)
            for eve in (1, 3, 5)
            for cells in ((0, 2, 6), (0, 2, 7), (2, 6, 8))
            if eve not in cells
        ]
        seen = {
            tuple(
                _experiment_seed_sequence(
                    7, Placement(eve_cell=eve, terminal_cells=cells), 3
                ).generate_state(2)
            )
            for eve, cells in combos
        }
        assert len(seen) == len(combos)


class TestBatchedPlacementExperiment:
    def test_record_fields_sane(self, testbed):
        record = run_placement_experiment_batched(
            testbed,
            PLACEMENT,
            LeaveOneOutEstimatorSpec(rate_margin=0.05),
            CONFIG,
            rounds_per_leader=4,
        )
        assert record.n_terminals == 4
        assert record.placement == PLACEMENT
        assert 0.0 <= record.reliability <= 1.0
        assert 0.0 <= record.efficiency < 1.0
        assert record.transmitted_bits > 0
        assert record.secret_bits >= 0

    def test_deterministic_per_campaign_seed(self, testbed):
        kwargs = dict(rounds_per_leader=4)
        a = run_placement_experiment_batched(
            testbed, PLACEMENT, OracleEstimatorSpec(), CONFIG, **kwargs
        )
        b = run_placement_experiment_batched(
            testbed, PLACEMENT, OracleEstimatorSpec(), CONFIG, **kwargs
        )
        assert a.efficiency == b.efficiency
        assert a.reliability == b.reliability

    def test_zero_secret_reports_nan_not_perfect(self):
        """Regression: an experiment with no secret used to report
        reliability 1.0, flattering the campaign aggregates.  An
        all-jammed deployment (every link fully lossy) must yield NaN
        and be excluded from the Figure-2 population."""
        dead = Testbed(TestbedConfig(base_loss=1.0))
        record = run_placement_experiment_batched(
            dead,
            PLACEMENT,
            LeaveOneOutEstimatorSpec(rate_margin=0.05),
            CONFIG,
            rounds_per_leader=2,
        )
        assert record.secret_bits == 0
        assert math.isnan(record.reliability)
        result = run_campaign(
            dead,
            config=CONFIG,
            engine="batched",
            estimator_spec=LeaveOneOutEstimatorSpec(rate_margin=0.05),
            rounds_per_leader=2,
        )
        assert all(math.isnan(r.reliability) for r in result.records)
        assert result.reliabilities(4) == []


class TestEngineDispatch:
    def test_batched_campaign_runs(self, testbed):
        result = run_campaign(
            testbed,
            config=CONFIG,
            engine="batched",
            estimator_spec=LeaveOneOutEstimatorSpec(rate_margin=0.05),
            rounds_per_leader=4,
        )
        assert len(result.records) == 2
        assert result.group_sizes() == [4]
        for r in result.records:
            assert 0.0 <= r.reliability <= 1.0

    def test_unknown_engine_rejected(self, testbed):
        with pytest.raises(ValueError, match="unknown engine"):
            run_campaign(testbed, engine="warp", config=CONFIG)

    def test_missing_and_mismatched_arguments_rejected(self, testbed):
        with pytest.raises(ValueError, match="needs an estimator_spec"):
            run_campaign(testbed, engine="batched", config=CONFIG)
        with pytest.raises(ValueError, match="needs an estimator_factory"):
            run_campaign(testbed, engine="packet", config=CONFIG)
        with pytest.raises(ValueError, match="batched engine"):
            run_campaign(
                testbed,
                estimator_factory=lambda tb, pl: OracleEstimator(),
                engine="batched",
                estimator_spec=OracleEstimatorSpec(),
                config=CONFIG,
            )
        with pytest.raises(ValueError, match="packet engine"):
            run_campaign(
                testbed,
                estimator_factory=lambda tb, pl: OracleEstimator(),
                engine="packet",
                estimator_spec=OracleEstimatorSpec(),
                config=CONFIG,
            )


class TestShardedCampaigns:
    """Placements are independent: sharding must be bit-identical."""

    def test_packet_engine_sharded_equals_serial(self, testbed):
        serial = run_campaign(
            testbed, estimator_factory=loo_factory, config=CONFIG
        )
        sharded = run_campaign(
            testbed,
            estimator_factory=loo_factory,
            config=CONFIG,
            max_workers=2,
        )
        assert serial.records == sharded.records

    def test_batched_engine_sharded_equals_serial(self, testbed):
        kwargs = dict(
            config=CONFIG,
            engine="batched",
            estimator_spec=LeaveOneOutEstimatorSpec(rate_margin=0.05),
            rounds_per_leader=4,
        )
        serial = run_campaign(testbed, **kwargs)
        sharded = run_campaign(testbed, max_workers=3, **kwargs)
        assert serial.records == sharded.records

    def test_sharded_progress_and_store_stay_in_the_caller(
        self, testbed, tmp_path
    ):
        # The reference script's --workers path: the testbed, factory
        # and config travel to the pool; the progress closure and every
        # store append run here, and store the serial run's bytes.
        def shards(root):
            return {p.name: p.read_bytes() for p in root.glob("*.jsonl")}

        run_campaign(
            testbed, estimator_factory=loo_factory, config=CONFIG,
            store=f"file:{tmp_path / 'serial'}",
        )
        seen = []
        run_campaign(
            testbed,
            estimator_factory=loo_factory,
            config=CONFIG,
            max_workers=2,
            store=f"file:{tmp_path / 'sharded'}",
            progress=lambda n, placement: seen.append(placement),
        )
        assert len(seen) == 2
        assert shards(tmp_path / "sharded") == shards(tmp_path / "serial")
        assert len(shards(tmp_path / "serial")) == 2

    def test_a_manifest_drain_starts_one_pool_before_draining(
        self, testbed, monkeypatch, tmp_path
    ):
        # Four placements drained two a claim: one pool serves both
        # batches, and its workers run before the heartbeat thread.
        kwargs = dict(
            config=dataclasses.replace(CONFIG, max_placements_per_n=4),
            engine="batched",
            estimator_spec=LeaveOneOutEstimatorSpec(rate_margin=0.05),
            rounds_per_leader=4,
        )
        serial = run_campaign(testbed, **kwargs)
        sizes = _recording_pools(monkeypatch)
        children: list = []
        drain = queue.drain_manifest

        def recording_drain(*args, **drain_kwargs):
            children.append(len(multiprocessing.active_children()))
            return drain(*args, **drain_kwargs)

        monkeypatch.setattr(queue, "drain_manifest", recording_drain)
        drained = run_campaign(
            testbed, max_workers=2, store=tmp_path, manifest="sweep",
            **kwargs,
        )
        assert len(serial.records) == 4
        assert drained.records == serial.records
        assert sizes == [2]
        fork = multiprocessing.get_start_method() == "fork"
        assert children == [2 if fork else 1]

    def test_unpicklable_factory_names_the_first_placement(self, testbed):
        # A lambda factory cannot reach a worker process.
        first = placement_label(campaign_work_items(CONFIG)[0][1])
        with pytest.raises(
            ShardWorkerError,
            match=re.escape(f"worker failed on {first}: PicklingError"),
        ):
            run_campaign(
                testbed,
                estimator_factory=LAMBDA_FACTORY,
                config=CONFIG,
                max_workers=2,
            )


class TestMultiAntennaEveBridge:
    """The §6 threat model through the analytic bridge: extra Eve
    antenna cells must reach the ScheduleLossSpec columns, the union
    accounting, and the per-packet medium identically."""

    EVE_CELLS = (3, 5)

    def multi_config(self, **overrides):
        kwargs = dict(
            session=SessionConfig(
                n_x_packets=90, payload_bytes=24, secrecy_slack=1
            ),
            seed=2012,
            max_placements_per_n=3,
            group_sizes=(4,),
            eve_extra_cells=self.EVE_CELLS,
        )
        kwargs.update(overrides)
        return CampaignConfig(**kwargs)

    def test_blocked_placements_are_skipped(self, testbed):
        # Placements whose terminals sit in an antenna cell are dropped
        # from the sweep (both engines see the same filtered work list).
        config = self.multi_config(max_placements_per_n=None)
        result = run_campaign(
            testbed,
            config=config,
            engine="batched",
            estimator_spec=OracleEstimatorSpec(),
            rounds_per_leader=1,
        )
        assert result.records  # the sweep is not empty...
        for record in result.records:  # ...and never uses a blocked cell
            assert set(self.EVE_CELLS).isdisjoint(record.placement.terminal_cells)

    def test_antenna_cells_overlapping_terminals_rejected(self, testbed):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="cannot share terminal cells"):
            placement_schedule_specs(
                testbed, PLACEMENT, rng, eve_extra_cells=(PLACEMENT.terminal_cells[0],)
            )

    def test_batched_agrees_with_packet_oracle(self, testbed):
        """Acceptance: an eve_extra_cells >= 2 testbed campaign on the
        batched engine tracks the per-packet oracle within Monte-Carlo
        tolerance, and honest realised planning keeps it from sitting
        meaningfully above the oracle."""
        config = self.multi_config()
        packet = run_campaign(
            testbed, estimator_factory=loo_factory, config=config
        )
        batched = run_campaign(
            testbed,
            config=config,
            engine="batched",
            estimator_spec=LeaveOneOutEstimatorSpec(rate_margin=0.05),
            rounds_per_leader=8,
        )
        packet_rel = float(np.mean(packet.reliabilities(4)))
        batched_rel = float(np.mean(batched.reliabilities(4)))
        assert batched_rel == pytest.approx(packet_rel, abs=0.15)
        assert batched_rel <= packet_rel + 0.05

    def test_extra_antennas_shrink_the_secret(self, testbed):
        # Same placements, oracle estimator: giving Eve two more
        # vantage cells must cost secret bits on the batched bridge.
        kwargs = dict(
            engine="batched",
            estimator_spec=OracleEstimatorSpec(),
            rounds_per_leader=6,
        )
        single = run_campaign(
            testbed, config=self.multi_config(eve_extra_cells=()), **kwargs
        )
        multi = run_campaign(testbed, config=self.multi_config(), **kwargs)
        # Compare only placements present in both sweeps (the multi
        # sweep drops those whose terminals use an antenna cell).
        multi_by_placement = {r.placement: r for r in multi.records}
        pairs = [
            (r, multi_by_placement[r.placement])
            for r in single.records
            if r.placement in multi_by_placement
        ]
        assert pairs
        assert sum(m.secret_bits for _, m in pairs) < sum(
            s.secret_bits for s, _ in pairs
        )


class TestCrossValidation:
    def test_batched_reliability_within_oracle_tolerance(self, testbed):
        """Acceptance: the slot-aware batched bridge must track the
        per-packet oracle on the same placements — the campaign-scale
        comparison lives in benchmarks/test_sim_campaign.py."""
        config = CampaignConfig(
            session=SessionConfig(
                n_x_packets=90, payload_bytes=24, secrecy_slack=1
            ),
            seed=2012,
            max_placements_per_n=3,
            group_sizes=(4,),
        )
        packet = run_campaign(
            testbed, estimator_factory=loo_factory, config=config
        )
        batched = run_campaign(
            testbed,
            config=config,
            engine="batched",
            estimator_spec=LeaveOneOutEstimatorSpec(rate_margin=0.05),
            rounds_per_leader=8,
        )
        packet_rel = float(np.mean(packet.reliabilities(4)))
        batched_rel = float(np.mean(batched.reliabilities(4)))
        assert batched_rel == pytest.approx(packet_rel, abs=0.15)
        # Efficiency is not directly comparable: the packet engine's is
        # ledger-exact (headers + control traffic), the batched engine's
        # idealised x+z, so the latter strictly brackets from above.
        packet_eff = float(np.mean(packet.efficiencies(4)))
        batched_eff = float(np.mean(batched.efficiencies(4)))
        assert 0.0 < packet_eff < batched_eff < 1.0
