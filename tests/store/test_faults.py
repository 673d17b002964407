"""Fault injection for the multi-host sweep layer.

Every test here hurts the sweep on purpose — SIGKILL a worker process
while it holds a lease, tear a shard mid-record, race two claimants at
the same key — and then asserts the **recovery contract**: a resumed or
concurrent drain of the manifest ends *bit-identical* to an
uninterrupted serial run.  Identical means identical: numpy arrays
compare with ``array_equal``, records with ``==``, aggregates by their
exact multisets — never "approximately".

The acceptance scenario from the roadmap rides at the bottom: two
worker processes concurrently draining the same testbed manifest, one
SIGKILLed mid-sweep and replaced, on both the batched and per-packet
engines.
"""

import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro import SessionConfig, Testbed, TestbedConfig
from repro.analysis import (
    CampaignConfig,
    ReliabilityAccumulator,
    campaign_sweep_manifest,
    run_campaign,
)
from repro.core import LeaveOneOutEstimator
from repro.sim import (
    CampaignRunner,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    ScenarioGrid,
)
from repro.store import CampaignStore, SweepManifest, WorkQueue
from repro.store.aggregate import stream_aggregates
from tests.sim.test_stack import assert_outcomes_identical

pytestmark = pytest.mark.queue

#: SIGKILL tests run real OS processes; fork keeps the targets simple
#: (no pickling) and is the production default on the Linux CI runners.
MP = multiprocessing.get_context("fork")

GRID = ScenarioGrid(
    group_sizes=(3, 4),
    loss_models=(IIDLossSpec(0.3), IIDLossSpec(0.5)),
    estimators=(OracleEstimatorSpec(),),
    rounds=20,
    n_x_packets=40,
)

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



# -- worker process targets (module level: they outlive fork cleanly) ------


def _claim_and_hang(store_dir, manifest_name, ready_path):
    """The victim: claim one lease, announce it, then hang until
    SIGKILLed — the tightest mid-lease death a worker can die."""
    store = CampaignStore(store_dir)
    queue = WorkQueue(store, manifest_name, owner="victim", lease_timeout=3600)
    claimed = queue.claim_pending(limit=1)
    Path(ready_path).write_text("\n".join(claimed))
    time.sleep(600)  # pragma: no cover - killed long before this returns


def _drain_sim_worker(store_dir, manifest_name, seed):
    CampaignRunner(seed=seed, store=CampaignStore(store_dir)).run_worker(
        manifest_name, lease_timeout=0.5, poll_interval=0.02
    )


def _drain_testbed_worker(store_dir, manifest_name, engine):
    run_campaign(
        TESTBED,
        config=CONFIG,
        store=CampaignStore(store_dir),
        manifest=manifest_name,
        lease_timeout=0.5,
        poll_interval=0.02,
        **engine_kwargs(engine),
    )


def _spawn(target, *args):
    proc = MP.Process(target=target, args=args)
    proc.start()
    return proc


def _await_file(path, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if Path(path).exists() and Path(path).read_text():
            return Path(path).read_text().splitlines()
        time.sleep(0.02)
    raise AssertionError(f"worker never signalled readiness via {path}")


class TestDoubleClaim:
    """Exactly one of two racing claimants may ever hold a lease."""

    def _race(self, queue_a, queue_b, key):
        barrier = threading.Barrier(2)
        wins = []

        def attempt(queue):
            barrier.wait()
            if queue.claim(key):
                wins.append(queue.owner)

        threads = [
            threading.Thread(target=attempt, args=(q,))
            for q in (queue_a, queue_b)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return wins

    def test_fresh_key_single_winner(self, tmp_path):
        store = CampaignStore(tmp_path)
        manifest = CampaignRunner(seed=5, store=store).write_manifest(
            GRID, "race"
        )
        key = manifest.keys()[0]
        for attempt in range(10):  # the race is real: run it repeatedly
            wins = self._race(
                WorkQueue(store, manifest, owner=f"a{attempt}"),
                WorkQueue(store, manifest, owner=f"b{attempt}"),
                key,
            )
            assert len(wins) == 1, wins
            info = WorkQueue(store, manifest).lease_info(key)
            assert info.owner == wins[0]
            self._release_as(store, manifest, key, wins[0])

    def _release_as(self, store, manifest, key, owner):
        assert WorkQueue(store, manifest, owner=owner).release(key)

    def test_expired_lease_single_reclaimer(self, tmp_path):
        store = CampaignStore(tmp_path)
        manifest = CampaignRunner(seed=5, store=store).write_manifest(
            GRID, "race"
        )
        key = manifest.keys()[0]
        for attempt in range(10):
            dead = WorkQueue(
                store, manifest, owner="dead", lease_timeout=0.1
            )
            assert dead.claim(key)
            past = time.time() - 60.0
            os.utime(dead._lease_path(key), (past, past))
            wins = self._race(
                WorkQueue(store, manifest, owner=f"a{attempt}", lease_timeout=0.1),
                WorkQueue(store, manifest, owner=f"b{attempt}", lease_timeout=0.1),
                key,
            )
            assert len(wins) == 1, wins
            self._release_as(store, manifest, key, wins[0])


class TestTornShard:
    def test_truncated_record_is_recomputed_bit_identically(self, tmp_path):
        """Tear a shard mid-record (the disk-full / crash-mid-write
        signature): a resumed drain treats the cell as never finished,
        recomputes exactly it, and matches the serial run."""
        reference = CampaignRunner(seed=9).run(GRID)
        store = CampaignStore(tmp_path)
        runner = CampaignRunner(seed=9, store=store)
        runner.run(GRID, manifest="sweep")
        victim = store.keys()[1]
        path = store.shard_path(victim)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        recomputed = []
        resumed = CampaignRunner(seed=9, store=store).run_worker(
            "sweep", progress=lambda scenario: recomputed.append(scenario)
        )
        assert len(recomputed) == 1
        assert runner.cell_key(recomputed[0]) == victim
        assert_outcomes_identical(reference, resumed)

    def test_truncation_to_empty_file(self, tmp_path):
        reference = CampaignRunner(seed=9).run(GRID)
        store = CampaignStore(tmp_path)
        CampaignRunner(seed=9, store=store).run(GRID, manifest="sweep")
        path = store.shard_path(store.keys()[0])
        path.write_bytes(b"")
        resumed = CampaignRunner(seed=9, store=store).run_worker("sweep")
        assert_outcomes_identical(reference, resumed)


class TestSigkillSimWorker:
    def test_killed_mid_lease_then_drained(self, tmp_path):
        """SIGKILL a worker process while it holds a lease: the lease
        expires, a replacement worker reclaims the cell, and the final
        sweep is bit-identical to serial."""
        reference = CampaignRunner(seed=9).run(GRID)
        store = CampaignStore(tmp_path)
        manifest = CampaignRunner(seed=9, store=store).write_manifest(
            GRID, "sweep"
        )

        ready = tmp_path / "victim-claimed"
        victim = _spawn(_claim_and_hang, str(tmp_path), "sweep", str(ready))
        hung_keys = _await_file(ready)
        assert len(hung_keys) == 1
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        assert victim.exitcode == -signal.SIGKILL

        # The orphaned lease is still on disk, owned by the dead worker.
        queue = WorkQueue(store, manifest, lease_timeout=0.5)
        assert queue.lease_info(hung_keys[0]).owner == "victim"

        replacement = _spawn(_drain_sim_worker, str(tmp_path), "sweep", 9)
        replacement.join(timeout=120)
        assert replacement.exitcode == 0

        resumed = CampaignRunner(seed=9, store=store).run_worker("sweep")
        assert_outcomes_identical(reference, resumed)
        assert queue.status().done == len(manifest)


class TestConcurrentTestbedDrain:
    """The roadmap acceptance scenario: two concurrent worker
    processes, one SIGKILLed mid-sweep and restarted, bit-identical
    aggregates vs a serial ``run_campaign`` — on both engines."""

    @pytest.mark.parametrize("engine", ["packet", "batched"])
    def test_two_workers_one_killed_matches_serial(self, tmp_path, engine):
        kwargs = engine_kwargs(engine)
        reference = run_campaign(TESTBED, config=CONFIG, **kwargs)  # serial

        store = CampaignStore(tmp_path)
        manifest = campaign_sweep_manifest(
            TESTBED, "sweep", config=CONFIG, **kwargs
        ).save(store)

        # Worker 1 claims a lease and is SIGKILLed mid-sweep.
        ready = tmp_path / "victim-claimed"
        victim = _spawn(_claim_and_hang, str(tmp_path), "sweep", str(ready))
        hung_keys = _await_file(ready)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()

        # Its replacement and worker 2 drain the manifest concurrently;
        # one of them reclaims the dead worker's lease after expiry.
        workers = [
            _spawn(_drain_testbed_worker, str(tmp_path), "sweep", engine)
            for _ in range(2)
        ]
        for proc in workers:
            proc.join(timeout=600)
            assert proc.exitcode == 0

        # Assemble from the store via a no-op drain call: every record
        # must equal the serial run's, field for field.
        resumed = run_campaign(
            TESTBED, config=CONFIG, store=store, manifest="sweep", **kwargs
        )
        assert resumed.records == reference.records
        assert hung_keys[0] in manifest.keys()

        # And the streamed, manifest-scoped aggregates are bit-identical
        # to the accumulator fed from the serial in-memory records.
        groups = stream_aggregates(store, manifest=manifest)
        expected = ReliabilityAccumulator()
        expected.extend(r.reliability for r in reference.records)
        got = groups[4].reliability
        assert got.values.counts == expected.values.counts
        assert got.n_excluded == expected.n_excluded
        if expected:
            assert got.summary(4) == expected.summary(4)


class TestHookFailureLabelling:
    """Satellite regression: a raising ``on_result`` checkpoint hook
    must name the failing item, exactly like worker failures do (see
    ``tests/sim/test_campaign.py`` for the per-pool matrix)."""

    def test_queue_persist_failure_names_the_scenario(self, tmp_path):
        from repro.sim.campaign import ShardWorkerError

        class ExplodingStore(CampaignStore):
            def append(self, key, record):
                raise OSError("disk full")

            def append_batch(self, items):
                for key, record in items:
                    self.append(key, record)

        store = ExplodingStore(tmp_path)
        CampaignRunner(seed=9, store=CampaignStore(tmp_path)).write_manifest(
            GRID, "sweep"
        )
        runner = CampaignRunner(seed=9, store=store)
        with pytest.raises(ShardWorkerError, match=r"on_result hook failed on .*n=3"):
            runner.run_worker("sweep")
        # The failed item's lease was released on the way out: nothing
        # is left claimed, everything is still pending.
        status = WorkQueue(CampaignStore(tmp_path), "sweep").status()
        assert status.claimed == 0
        assert status.pending == status.total
