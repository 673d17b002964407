"""Sweep manifests and the work queue: the single-process contracts.

The multi-process fault injection lives in ``test_faults.py``; this
file pins the building blocks — atomic versioned manifest documents,
lease claim/heartbeat/release semantics, status bucketing, and the
manifest-scoped runner/aggregation entry points.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from repro.analysis.experiments import (
    CampaignConfig,
    campaign_sweep_manifest,
    run_campaign,
)
from repro.core.session import SessionConfig
from repro.sim import (
    CampaignRunner,
    IIDLossSpec,
    OracleEstimatorSpec,
    ScenarioGrid,
)
from repro.store import (
    CampaignStore,
    ManifestEntry,
    SweepManifest,
    WorkQueue,
    list_manifests,
)
from repro.store.aggregate import stream_aggregates
from repro.testbed.deployment import Testbed, TestbedConfig

GRID = ScenarioGrid(
    group_sizes=(3, 4),
    loss_models=(IIDLossSpec(0.4),),
    estimators=(OracleEstimatorSpec(),),
    rounds=10,
    n_x_packets=30,
)


#: A two-experiment batched testbed campaign, and one of other work.
TESTBED = Testbed(TestbedConfig(interferer_power_dbm=10.0))
TESTBED_CONFIG = CampaignConfig(
    session=SessionConfig(n_x_packets=30, payload_bytes=20),
    max_placements_per_n=2,
    group_sizes=(3,),
)
TESTBED_OTHER = dataclasses.replace(TESTBED_CONFIG, seed=2013)
TESTBED_KWARGS = dict(
    engine="batched", estimator_spec=OracleEstimatorSpec(), rounds_per_leader=1
)

OTHER_GRID = ScenarioGrid(
    group_sizes=(5,),
    loss_models=(IIDLossSpec(0.4),),
    estimators=(OracleEstimatorSpec(),),
    rounds=10,
    n_x_packets=30,
)


def define_sim_sweep(store, other=False):
    CampaignRunner(seed=5, store=store).write_manifest(
        OTHER_GRID if other else GRID, "sweep"
    )


def define_testbed_sweep(store, other=False):
    run_campaign(
        TESTBED,
        config=TESTBED_OTHER if other else TESTBED_CONFIG,
        store=store,
        manifest="sweep",
        **TESTBED_KWARGS,
    )


def toy_manifest(name="toy", n=3):
    entries = tuple(
        ManifestEntry(key=f"{i:02d}" * 5, spec={"i": i}, label=f"item-{i}")
        for i in range(n)
    )
    return SweepManifest(name=name, entries=entries, kind="sim-grid")


class TestSweepManifest:
    def test_roundtrip_and_listing(self, tmp_path):
        store = CampaignStore(tmp_path)
        saved = toy_manifest().save(store)
        assert saved.version == 1
        loaded = SweepManifest.load(store, "toy")
        assert loaded == saved
        assert loaded.keys() == [e.key for e in saved.entries]
        assert list_manifests(store) == ["toy"]
        # Manifest documents and lease dirs never pollute the shard scan.
        assert store.keys() == []
        assert len(store) == 0

    def test_save_is_idempotent_by_content(self, tmp_path):
        store = CampaignStore(tmp_path)
        first = toy_manifest().save(store)
        again = toy_manifest().save(store)
        assert again.version == first.version == 1

    def test_changed_content_bumps_version(self, tmp_path):
        store = CampaignStore(tmp_path)
        toy_manifest(n=2).save(store)
        revised = toy_manifest(n=3).save(store)
        assert revised.version == 2
        assert SweepManifest.load(store, "toy").version == 2

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = CampaignStore(tmp_path)
        toy_manifest().save(store)
        toy_manifest(n=5).save(store)
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_malformed_names_and_duplicate_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="malformed manifest name"):
            SweepManifest(name="../escape", entries=())
        entry = ManifestEntry(key="ab" * 5, spec=None)
        with pytest.raises(ValueError, match="duplicate shard keys"):
            SweepManifest(name="dup", entries=(entry, entry))
        store = CampaignStore(tmp_path)
        with pytest.raises(FileNotFoundError, match="no manifest"):
            SweepManifest.load(store, "absent")
        assert SweepManifest.load(store, "absent", missing_ok=True) is None

    def test_wrong_format_tag_fails_loudly(self, tmp_path):
        store = CampaignStore(tmp_path)
        (tmp_path / "bogus.manifest.json").write_text(
            json.dumps({"format": "something-else/9", "name": "bogus"})
        )
        with pytest.raises(ValueError, match="not a sweep manifest"):
            SweepManifest.load(store, "bogus")


class TestWorkQueue:
    def test_claim_release_cycle(self, tmp_path):
        store = CampaignStore(tmp_path)
        manifest = toy_manifest().save(store)
        a = WorkQueue(store, manifest, owner="a")
        b = WorkQueue(store, manifest, owner="b")
        key = manifest.keys()[0]
        assert a.claim(key)
        assert not b.claim(key)  # O_EXCL: the loser sees a live lease
        assert a.lease_info(key).owner == "a"
        assert not b.release(key)  # only the owner may release
        assert a.release(key)
        assert b.claim(key)  # released keys are claimable again

    def test_claim_refuses_done_keys(self, tmp_path):
        store = CampaignStore(tmp_path)
        manifest = toy_manifest().save(store)
        key = manifest.keys()[0]
        store.append(key, {"kind": "experiment", "n_terminals": 3,
                           "placement": None, "efficiency": 0.1,
                           "reliability": 1.0, "secret_bits": 8,
                           "transmitted_bits": 80})
        queue = WorkQueue(store, manifest)
        assert queue.is_done(key)
        assert not queue.claim(key)

    def test_expired_lease_is_reclaimable(self, tmp_path):
        store = CampaignStore(tmp_path)
        manifest = toy_manifest().save(store)
        key = manifest.keys()[0]
        dead = WorkQueue(store, manifest, owner="dead", lease_timeout=0.2)
        assert dead.claim(key)
        past = time.time() - 10.0
        os.utime(dead._lease_path(key), (past, past))
        live = WorkQueue(store, manifest, owner="live", lease_timeout=0.2)
        assert live.claim(key)
        assert live.lease_info(key).owner == "live"

    def test_heartbeat_defers_expiry(self, tmp_path):
        store = CampaignStore(tmp_path)
        manifest = toy_manifest().save(store)
        key = manifest.keys()[0]
        worker = WorkQueue(store, manifest, owner="w", lease_timeout=5.0)
        assert worker.claim(key)
        past = time.time() - 60.0
        os.utime(worker._lease_path(key), (past, past))
        assert worker.lease_info(key).expired
        assert worker.heartbeat(key)
        assert not worker.lease_info(key).expired
        # A non-owner's heartbeat is refused and changes nothing.
        other = WorkQueue(store, manifest, owner="o", lease_timeout=5.0)
        assert not other.heartbeat(key)

    def test_status_buckets(self, tmp_path):
        store = CampaignStore(tmp_path)
        manifest = toy_manifest(n=4).save(store)
        keys = manifest.keys()
        store.append(keys[0], {"kind": "sim-cell"})  # done
        queue = WorkQueue(store, manifest, owner="w", lease_timeout=1.0)
        assert queue.claim(keys[1])  # claimed (live)
        assert queue.claim(keys[2])
        past = time.time() - 10.0
        os.utime(queue._lease_path(keys[2]), (past, past))  # stale
        status = queue.status()
        assert (status.total, status.done) == (4, 1)
        assert (status.claimed, status.stale, status.pending) == (1, 1, 1)
        assert status.remaining == 3
        assert queue.pending() == keys[1:]

    def test_unknown_key_rejected(self, tmp_path):
        store = CampaignStore(tmp_path)
        queue = WorkQueue(store, toy_manifest().save(store))
        with pytest.raises(KeyError, match="not in manifest"):
            queue.claim("ff" * 5)


class TestManifestRunnerEntryPoints:
    @pytest.mark.parametrize(
        "define",
        [define_sim_sweep, define_testbed_sweep],
        ids=["sim", "testbed"],
    )
    def test_write_manifest_refuses_redefinition(self, tmp_path, define):
        store = CampaignStore(tmp_path)
        define(store)
        define(store)  # same content: fine
        with pytest.raises(ValueError, match="different sweep"):
            define(store, other=True)
        assert SweepManifest.load(store, "sweep").version == 1

    def test_run_campaign_compares_the_whole_manifest(self, tmp_path):
        """A saved manifest with the campaign's keys but other content
        (here its provenance) is a different sweep, not the same one."""
        store = CampaignStore(tmp_path)
        built = campaign_sweep_manifest(
            TESTBED, "sweep", config=TESTBED_CONFIG, **TESTBED_KWARGS
        )
        dataclasses.replace(built, meta={**built.meta, "seed": 1}).save(store)
        with pytest.raises(ValueError, match="different sweep"):
            define_testbed_sweep(store)
        assert store.keys() == []

    def test_run_campaign_refuses_a_foreign_manifest_object(self, tmp_path):
        store = CampaignStore(tmp_path)
        foreign = campaign_sweep_manifest(
            TESTBED, "sweep", config=TESTBED_OTHER, **TESTBED_KWARGS
        )
        with pytest.raises(
            ValueError, match="does not describe this campaign's work"
        ):
            run_campaign(
                TESTBED,
                config=TESTBED_CONFIG,
                store=store,
                manifest=foreign,
                **TESTBED_KWARGS,
            )
        assert list_manifests(store) == []
        # The matching object is accepted, saved and drained.
        own = campaign_sweep_manifest(
            TESTBED, "sweep", config=TESTBED_CONFIG, **TESTBED_KWARGS
        )
        result = run_campaign(
            TESTBED, config=TESTBED_CONFIG, store=store, manifest=own,
            **TESTBED_KWARGS,
        )
        assert len(result.records) == 2
        assert sorted(store.keys()) == sorted(own.keys())

    def test_run_worker_refuses_resume_false(self, tmp_path):
        store = CampaignStore(tmp_path)
        CampaignRunner(seed=5, store=store).write_manifest(GRID, "sweep")
        runner = CampaignRunner(seed=5, store=store, resume=False)
        with pytest.raises(ValueError, match="resume=False is incompatible"):
            runner.run_worker("sweep")
        assert store.keys() == []

    def test_run_worker_rejects_foreign_seed(self, tmp_path):
        store = CampaignStore(tmp_path)
        CampaignRunner(seed=5, store=store).write_manifest(GRID, "sweep")
        with pytest.raises(ValueError, match="different .* seed"):
            CampaignRunner(seed=6, store=store).run_worker("sweep")

    def test_run_worker_rejects_wrong_kind(self, tmp_path):
        store = CampaignStore(tmp_path)
        manifest = SweepManifest(
            name="tb", entries=(), kind="testbed-campaign"
        ).save(store)
        with pytest.raises(ValueError, match="testbed-campaign"):
            CampaignRunner(seed=5, store=store).run_worker(manifest)

    def test_manifest_scoped_aggregates(self, tmp_path):
        """Two sweeps in one store: a manifest scopes aggregation to its
        own shards without recomputing any fingerprint."""
        store = CampaignStore(tmp_path)
        CampaignRunner(seed=5, store=store).run(GRID, manifest="five")
        CampaignRunner(seed=6, store=store).run(GRID, manifest="six")
        scoped = stream_aggregates(store, manifest="five")
        everything = stream_aggregates(store)
        assert sorted(scoped) == [3, 4]
        assert (
            scoped[3].reliability.n_experiments
            < everything[3].reliability.n_experiments
        )
        with pytest.raises(ValueError, match="not both"):
            stream_aggregates(store, keys=["ab" * 5], manifest="five")

    def test_run_with_manifest_matches_plain_run(self, tmp_path):
        reference = CampaignRunner(seed=5).run(GRID)
        store = CampaignStore(tmp_path)
        result = CampaignRunner(seed=5, store=store).run(GRID, manifest="m")
        assert len(result.outcomes) == len(reference.outcomes)
        for a, b in zip(reference.outcomes, result.outcomes):
            assert a.scenario == b.scenario
            assert np.array_equal(a.result.reliability, b.result.reliability)
            assert np.array_equal(a.result.efficiency, b.result.efficiency)


class TestRepeatedWork:
    """A work list naming one shard key twice is refused, in plain and
    manifest mode alike, before anything runs or is written."""

    @pytest.mark.parametrize("manifest", [None, "sweep"])
    def test_sim_runner_refuses_a_repeated_cell(self, tmp_path, manifest):
        store = CampaignStore(tmp_path)
        cell = GRID.scenarios()[0]
        runner = CampaignRunner(seed=5, store=store)
        ran = []
        with pytest.raises(ValueError, match=runner.cell_key(cell)):
            runner.run([cell, cell], progress=ran.append, manifest=manifest)
        assert ran == []
        assert store.keys() == []
        assert list_manifests(store) == []

    @pytest.mark.parametrize("manifest", [None, "sweep"])
    def test_run_campaign_refuses_a_repeated_placement(
        self, tmp_path, manifest
    ):
        store = CampaignStore(tmp_path)
        twice = dataclasses.replace(
            TESTBED_CONFIG, group_sizes=(8, 8), max_placements_per_n=None
        )
        ran = []
        with pytest.raises(ValueError, match="repeats shard key"):
            run_campaign(
                TESTBED,
                config=twice,
                store=store,
                manifest=manifest,
                progress=lambda n, placement: ran.append(placement),
                **TESTBED_KWARGS,
            )
        assert ran == []
        assert store.keys() == []
        assert list_manifests(store) == []

    def test_without_a_store_a_repeated_placement_is_refused_too(self):
        twice = dataclasses.replace(
            TESTBED_CONFIG, group_sizes=(8, 8), max_placements_per_n=None
        )
        with pytest.raises(ValueError, match="repeats shard key"):
            run_campaign(TESTBED, config=twice, **TESTBED_KWARGS)
