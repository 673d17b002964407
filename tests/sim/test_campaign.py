"""Campaign runner: grid expansion, determinism, sharding, memoization."""

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.sim import (
    AdversarySpec,
    CampaignRunner,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    Scenario,
    ScenarioGrid,
)
from repro.sim import campaign
from repro.sim.campaign import ShardPool, ShardWorkerError
from repro.store import CampaignStore, open_store, queue
from repro.theory import clear_efficiency_cache, efficiency_cache_info

GRID = ScenarioGrid(
    group_sizes=(3, 4),
    loss_models=(IIDLossSpec(0.3), IIDLossSpec(0.5)),
    estimators=(OracleEstimatorSpec(), LeaveOneOutEstimatorSpec(0.05)),
    rounds=60,
    n_x_packets=60,
)


class TestScenarioGrid:
    def test_cartesian_expansion(self):
        cells = GRID.scenarios()
        assert len(cells) == GRID.size() == 2 * 2 * 2
        assert {c.n_terminals for c in cells} == {3, 4}
        # Every cell inherits the shared sizing.
        assert all(c.rounds == 60 and c.n_x_packets == 60 for c in cells)

    def test_axis_order_is_stable(self):
        first = GRID.scenarios()
        second = GRID.scenarios()
        assert first == second

    def test_validation(self):
        with pytest.raises(TypeError):
            ScenarioGrid(loss_models=(0.5,))
        with pytest.raises(TypeError):
            ScenarioGrid(estimators=("oracle",))
        with pytest.raises(TypeError):
            ScenarioGrid(adversaries=(1,))


class TestCampaignRunner:
    def test_runs_every_cell(self):
        result = CampaignRunner(seed=1).run(GRID)
        assert len(result.outcomes) == GRID.size()
        assert result.total_rounds == GRID.size() * 60
        assert result.group_sizes() == [3, 4]
        assert len(result.reliabilities(3)) == 4 * 60

    def test_seed_determinism(self):
        a = CampaignRunner(seed=5).run(GRID)
        b = CampaignRunner(seed=5).run(GRID)
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert np.array_equal(
                oa.result.secret_packets, ob.result.secret_packets
            )
        c = CampaignRunner(seed=6).run(GRID)
        assert any(
            not np.array_equal(
                oa.result.secret_packets, oc.result.secret_packets
            )
            for oa, oc in zip(a.outcomes, c.outcomes)
        )

    def test_sharded_equals_serial(self):
        serial = CampaignRunner(seed=7, max_workers=1).run(GRID)
        sharded = CampaignRunner(seed=7, max_workers=4).run(GRID)
        for a, b in zip(serial.outcomes, sharded.outcomes):
            assert a.scenario == b.scenario
            assert np.array_equal(a.result.efficiency, b.result.efficiency)
            assert np.array_equal(a.result.reliability, b.result.reliability)

    def test_sharded_progress_and_store_stay_in_the_caller(self, tmp_path):
        """Only the stacked groups travel to the pool: a closure as the
        progress callback works, and the stored lines are the serial
        run's."""

        def lines(store):
            return {
                key: store.shard_path(key).read_bytes() for key in store.keys()
            }

        serial = open_store(f"file:{tmp_path / 'serial'}")
        CampaignRunner(seed=7, store=serial).run(GRID)
        sharded = open_store(f"file:{tmp_path / 'sharded'}")
        seen = []
        CampaignRunner(seed=7, max_workers=2, store=sharded).run(
            GRID, progress=lambda scenario: seen.append(scenario)
        )
        assert seen == GRID.scenarios()
        assert lines(sharded) == lines(serial)

    @pytest.mark.parametrize("max_workers", [None, 1])
    def test_a_serial_drain_flushes_once_per_stacked_group(
        self, monkeypatch, tmp_path, max_workers
    ):
        """A serial manifest drain claims a whole stack group at a time:
        GRID's four groups of two cells make four flushes, drained or
        not, and the stored lines are the plain run's."""
        flushes: list = []
        append_batch = CampaignStore.append_batch

        def counting(store, items):
            flushes.append(store.root.name)
            return append_batch(store, items)

        monkeypatch.setattr(CampaignStore, "append_batch", counting)

        def lines(store):
            return {
                key: store.shard_path(key).read_bytes() for key in store.keys()
            }

        plain = open_store(f"file:{tmp_path / 'plain'}")
        CampaignRunner(seed=7, max_workers=max_workers, store=plain).run(GRID)
        drained = open_store(f"file:{tmp_path / 'drained'}")
        CampaignRunner(seed=7, max_workers=max_workers, store=drained).run(
            GRID, manifest="sweep"
        )
        assert flushes.count("plain") == 4
        assert flushes.count("drained") == 4
        assert lines(drained) == lines(plain)

    def test_accepts_explicit_scenario_list(self):
        cells = [
            Scenario(n_terminals=3, loss=IIDLossSpec(0.4), rounds=30,
                     n_x_packets=50),
            Scenario(n_terminals=5, loss=IIDLossSpec(0.4), rounds=30,
                     n_x_packets=50,
                     adversary=AdversarySpec(antennas=2)),
        ]
        result = CampaignRunner(seed=3).run(cells)
        assert [o.n_terminals for o in result.outcomes] == [3, 5]

    def test_empty_grid(self):
        assert CampaignRunner().run([]).outcomes == []

    def test_progress_callback(self):
        seen = []
        CampaignRunner(seed=2).run(GRID, progress=seen.append)
        assert len(seen) == GRID.size()

    def test_reliability_summary_view(self):
        result = CampaignRunner(seed=8).run(GRID)
        summary = result.outcomes[0].reliability_summary()
        assert summary.n_experiments == 60
        assert 0.0 <= summary.minimum <= summary.median <= 1.0


class TestAllocationMemoization:
    def test_lp_solved_once_per_distinct_cell(self):
        clear_efficiency_cache()
        grid = ScenarioGrid(
            group_sizes=(4,),
            loss_models=(IIDLossSpec(0.45),),
            estimators=(OracleEstimatorSpec(), LeaveOneOutEstimatorSpec(0.05)),
            rounds=40,
            n_x_packets=50,
        )
        CampaignRunner(seed=1).run(grid)
        info = efficiency_cache_info()
        # Two distinct LP keys: the estimators differ in certifiable
        # level cap (oracle plans all levels, leave-one-out stops at
        # r - 1), but each solves exactly once.
        assert info.misses == 2
        CampaignRunner(seed=2).run(grid)
        after = efficiency_cache_info()
        assert after.misses == 2
        assert after.hits >= info.hits + 2


#: Pickle finds no ``<lambda>`` attribute on the module: a PicklingError.
_LAMBDA = lambda x: x * 2  # noqa: E731


def _double_or_explode(item):
    """Module-level worker (process pools must pickle it)."""
    if item == 3:
        raise ValueError("boom")
    return item * 2


def _double(item):
    """Module-level worker (process pools must pickle it)."""
    return item * 2


def _worker_pid(item):
    return os.getpid()


class TestShardMapErrors:
    """Worker failures must name the failing item, not surface as a
    bare (possibly pickled) traceback from deep inside the pool."""

    def test_serial_path_raises_raw(self):
        # max_workers=None behaves exactly like a list comprehension.
        with pytest.raises(ValueError, match="boom"), ShardPool() as shards:
            shards.map(_double_or_explode, [1, 3])

    def test_pool_default_label_is_repr(self):
        with pytest.raises(ShardWorkerError, match=r"failed on 3:"):
            with ShardPool(2) as shards:
                shards.map(_double_or_explode, [1, 3])

    def test_process_pool_error_names_item(self):
        # The regression this guards: a process worker's death used to
        # surface as an opaque pickle traceback with no scenario key.
        with pytest.raises(
            ShardWorkerError, match=r"cell-3.*ValueError: boom"
        ) as excinfo, ShardPool(2) as shards:
            shards.map(
                _double_or_explode,
                [1, 2, 3, 4],
                label=lambda item: f"cell-{item}",
            )
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_unpicklable_fn_names_the_first_item(self):
        # Every item fails to pickle with the lambda, in work order:
        # the first item's failure is the first one reported.
        with pytest.raises(
            ShardWorkerError, match=r"worker failed on cell-1: PicklingError"
        ) as excinfo, ShardPool(2) as shards:
            shards.map(
                _LAMBDA,
                [1, 2, 3, 4],
                label=lambda item: f"cell-{item}",
            )
        assert isinstance(excinfo.value.__cause__, pickle.PicklingError)

    def test_unpicklable_item_is_named(self):
        with pytest.raises(
            ShardWorkerError, match=r"failed on <function <lambda>"
        ) as excinfo, ShardPool(2) as shards:
            shards.map(_double, [1, _LAMBDA, 3])
        assert isinstance(excinfo.value.__cause__, pickle.PicklingError)

    def test_successful_map_preserves_order(self):
        items = list(range(8))
        with ShardPool(3) as shards:
            assert shards.map(_double, items) == [x * 2 for x in items]

    def test_pool_has_at_most_one_process_per_item(self, monkeypatch):
        sizes = _recording_pools(monkeypatch)
        with ShardPool(8) as shards:
            assert shards.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert sizes == [3]

    def test_workers_are_processes_and_hooks_run_in_the_caller(self):
        hooked = []
        with ShardPool(2) as shards:
            pids = shards.map(
                _worker_pid,
                [1, 2, 3],
                on_result=lambda item, pid: hooked.append(os.getpid()),
            )
        assert os.getpid() not in pids
        assert hooked == [os.getpid()] * 3


def _recording_pools(monkeypatch) -> list:
    """Record the size of every process pool the campaign module starts."""
    sizes: list = []

    class Recording(campaign.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(campaign, "ProcessPoolExecutor", Recording)
    return sizes


class TestShardPool:
    """A sweep maps batch after batch on one pool: a manifest drain
    claims ``max_workers`` items at a time, and a pool per batch would
    start new workers, with empty memos, for every batch."""

    def test_one_pool_serves_every_map(self, monkeypatch):
        sizes = _recording_pools(monkeypatch)
        with ShardPool(2) as shards:
            first = shards.map(_worker_pid, [1, 2, 3])
            second = shards.map(_worker_pid, [4, 5])
            assert shards.map(_double, [6, 7]) == [12, 14]
        assert sizes == [2]
        assert len(set(first) | set(second)) <= 2
        assert os.getpid() not in first + second
        assert multiprocessing.active_children() == []

    def test_start_sizes_the_pool_for_the_sweep(self, monkeypatch):
        sizes = _recording_pools(monkeypatch)
        with ShardPool(8) as shards:
            shards.start(3)
            shards.start(5)  # already running
            assert shards.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
        assert sizes == [3]

    @pytest.mark.parametrize(
        "max_workers, n_items", [(None, 4), (1, 4), (2, 1)]
    )
    def test_serial_pools_start_no_process(
        self, monkeypatch, max_workers, n_items
    ):
        sizes = _recording_pools(monkeypatch)
        with ShardPool(max_workers) as shards:
            shards.start(n_items)
            assert shards.map(_worker_pid, [1]) == [os.getpid()]
        assert sizes == []

    def test_a_manifest_drain_starts_one_pool_before_draining(
        self, monkeypatch, tmp_path
    ):
        # Six cells, none stacking with another: every claimed batch of
        # two is a two-item map.
        cells = [
            Scenario(n_terminals=n, loss=IIDLossSpec(p), rounds=30,
                     n_x_packets=50)
            for p in (0.3, 0.5)
            for n in (3, 4, 5)
        ]
        serial = CampaignRunner(seed=7).run(cells)
        sizes = _recording_pools(monkeypatch)
        children: list = []
        drain = queue.drain_manifest

        def recording_drain(*args, **kwargs):
            children.append(len(multiprocessing.active_children()))
            return drain(*args, **kwargs)

        monkeypatch.setattr(queue, "drain_manifest", recording_drain)
        runner = CampaignRunner(seed=7, max_workers=2, store=tmp_path)
        drained = runner.run(cells, manifest="sweep")
        assert sizes == [2]
        # fork launches every worker at the first submit, the other
        # start methods one per submit while none is idle.
        fork = multiprocessing.get_start_method() == "fork"
        assert children == [2 if fork else 1]
        for a, b in zip(serial.outcomes, drained.outcomes):
            assert a.scenario == b.scenario
            assert np.array_equal(a.result.efficiency, b.result.efficiency)
            assert np.array_equal(a.result.reliability, b.result.reliability)


    def test_a_drain_whose_claims_all_stack_starts_no_pool(
        self, monkeypatch, tmp_path
    ):
        # GRID's two estimators are its last axis: each claim of two
        # cells is one stacked group, a one-item map.
        sizes = _recording_pools(monkeypatch)
        runner = CampaignRunner(seed=7, max_workers=2, store=tmp_path)
        assert len(runner.run(GRID, manifest="sweep").outcomes) == 8
        assert sizes == []


def _exploding_hook(item, result):
    if item == 3:
        raise OSError("disk full")


class TestOnResultHookErrors:
    """Satellite regression: a raising checkpoint hook must re-raise
    tagged with the failing item's label — like worker failures — on
    the serial path and the process pool.  (Before the fix, the hook's
    exception surfaced bare, with no clue which item's persist died.)"""

    @pytest.mark.parametrize(
        "max_workers", [None, 2], ids=["serial", "process"]
    )
    def test_hook_failure_names_item_on_every_path(self, max_workers):
        with pytest.raises(
            ShardWorkerError, match=r"on_result hook failed on cell-3.*disk full"
        ) as excinfo, ShardPool(max_workers) as shards:
            shards.map(
                _double,
                [1, 2, 3, 4],
                label=lambda item: f"cell-{item}",
                on_result=_exploding_hook,
            )
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_hook_failure_default_label_is_repr(self):
        with pytest.raises(ShardWorkerError, match=r"hook failed on 3:"):
            with ShardPool() as shards:
                shards.map(_double, [3], on_result=_exploding_hook)

    def test_keyboard_interrupt_in_hook_propagates_raw(self):
        """A kill landing inside the hook is a kill, not a checkpoint
        failure — the resume tests' DyingStore contract depends on it."""

        def kill_hook(item, result):
            raise KeyboardInterrupt("killed mid-checkpoint")

        for max_workers in (None, 2):
            with pytest.raises(KeyboardInterrupt):
                with ShardPool(max_workers) as shards:
                    shards.map(_double, [1, 2, 3], on_result=kill_hook)
