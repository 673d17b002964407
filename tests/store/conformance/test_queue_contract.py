"""Conformance: the lease/claim contract of the work queue.

The clauses every lease backend must satisfy: single-winner claims
(fresh and reclaimed), owner-guarded heartbeat/release, expiry judged
only in the backend's own clock domain, breaks that can never kill a
refreshed lease, and a drain that leaves no lease residue behind.

Lease ageing goes through the backend's own
:meth:`~repro.store.backend.LeaseBackend.age_lease` backdate hook — the
portable replacement for the ``os.utime`` trick the filesystem-only
tests used — so the same test text drives mtimes and object-store
payloads.
"""

import threading
import time

import pytest

from conformance_harness import toy_manifest
from repro.store import WorkQueue
from repro.store.queue import drain_manifest


def make_queue(store, manifest, owner, lease_timeout=600.0):
    return WorkQueue(store, manifest, owner=owner, lease_timeout=lease_timeout)


def age(store, manifest, key, seconds):
    assert store.backend.leases.age_lease(manifest.name, key, seconds)


class TestClaimRelease:
    def test_claim_release_cycle(self, store):
        manifest = toy_manifest().save(store)
        a = make_queue(store, manifest, "a")
        b = make_queue(store, manifest, "b")
        key = manifest.keys()[0]
        assert a.claim(key)
        assert not b.claim(key)  # test-and-set: the loser sees a live lease
        assert a.lease_info(key).owner == "a"
        assert not b.release(key)  # only the owner may release
        assert a.release(key)
        assert b.claim(key)  # released keys are claimable again

    def test_claim_refuses_done_keys(self, store):
        manifest = toy_manifest().save(store)
        key = manifest.keys()[0]
        store.append(key, {"kind": "sim-cell"})
        queue = make_queue(store, manifest, "w")
        assert queue.is_done(key)
        assert not queue.claim(key)

    def test_unknown_key_rejected(self, store):
        queue = make_queue(store, toy_manifest().save(store), "w")
        with pytest.raises(KeyError, match="not in manifest"):
            queue.claim("ff" * 5)
        with pytest.raises(KeyError, match="not in manifest"):
            queue.heartbeat("ff" * 5)


class TestExpiry:
    def test_expired_lease_is_reclaimable(self, store):
        manifest = toy_manifest().save(store)
        key = manifest.keys()[0]
        dead = make_queue(store, manifest, "dead", lease_timeout=0.2)
        assert dead.claim(key)
        age(store, manifest, key, 60.0)
        live = make_queue(store, manifest, "live", lease_timeout=0.2)
        assert live.claim(key)
        assert live.lease_info(key).owner == "live"

    def test_heartbeat_defers_expiry(self, store):
        manifest = toy_manifest().save(store)
        key = manifest.keys()[0]
        worker = make_queue(store, manifest, "w", lease_timeout=5.0)
        assert worker.claim(key)
        age(store, manifest, key, 60.0)
        assert worker.lease_info(key).expired
        assert worker.heartbeat(key)
        assert not worker.lease_info(key).expired
        # A non-owner's heartbeat is refused and changes nothing.
        other = make_queue(store, manifest, "o", lease_timeout=5.0)
        assert not other.heartbeat(key)

    def test_break_cannot_kill_a_refreshed_lease(self, store):
        """The compare-and-swap clause: a breaker that *observed* an
        expired lease must fail if the owner heartbeats before the
        break lands — expiry is re-judged atomically at removal."""
        manifest = toy_manifest().save(store)
        key = manifest.keys()[0]
        worker = make_queue(store, manifest, "w", lease_timeout=1.0)
        assert worker.claim(key)
        age(store, manifest, key, 60.0)
        assert worker.lease_info(key).expired  # the stale observation
        assert worker.heartbeat(key)  # ...but the owner was only slow
        broke = store.backend.leases.break_expired(manifest.name, key, 1.0)
        assert not broke
        assert worker.lease_info(key).owner == "w"

    def test_fresh_lease_never_expired_by_worker_clock_skew(
        self, store, monkeypatch
    ):
        """Expiry lives in the backend's clock domain: a worker whose
        wall clock runs a year fast must not see (or break) a freshly
        heartbeated lease as expired."""
        manifest = toy_manifest().save(store)
        key = manifest.keys()[0]
        worker = make_queue(store, manifest, "w", lease_timeout=60.0)
        assert worker.claim(key)
        year = 365.0 * 86400.0
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + year)
        skewed = make_queue(store, manifest, "skewed", lease_timeout=60.0)
        info = skewed.lease_info(key)
        assert info is not None and not info.expired
        assert not skewed.claim(key)
        assert worker.lease_info(key).owner == "w"


class TestStatus:
    def test_status_buckets(self, store):
        manifest = toy_manifest(n=4).save(store)
        keys = manifest.keys()
        store.append(keys[0], {"kind": "sim-cell"})  # done
        queue = make_queue(store, manifest, "w", lease_timeout=1.0)
        assert queue.claim(keys[1])  # claimed (live)
        assert queue.claim(keys[2])
        age(store, manifest, keys[2], 60.0)  # stale
        status = queue.status()
        assert (status.total, status.done) == (4, 1)
        assert (status.claimed, status.stale, status.pending) == (1, 1, 1)
        assert status.remaining == 3
        assert queue.pending() == keys[1:]
        assert set(queue.leases()) == {keys[1], keys[2]}


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

    def test_fresh_key_single_winner(self, store):
        manifest = toy_manifest().save(store)
        key = manifest.keys()[0]
        for attempt in range(10):  # the race is real: run it repeatedly
            wins = self._race(
                make_queue(store, manifest, f"a{attempt}"),
                make_queue(store, manifest, f"b{attempt}"),
                key,
            )
            assert len(wins) == 1, wins
            info = make_queue(store, manifest, "observer").lease_info(key)
            assert info.owner == wins[0]
            assert make_queue(store, manifest, wins[0]).release(key)

    def test_expired_lease_single_reclaimer(self, store):
        manifest = toy_manifest().save(store)
        key = manifest.keys()[0]
        for attempt in range(10):
            dead = make_queue(store, manifest, "dead", lease_timeout=0.1)
            assert dead.claim(key)
            age(store, manifest, key, 60.0)
            wins = self._race(
                make_queue(store, manifest, f"a{attempt}", lease_timeout=0.1),
                make_queue(store, manifest, f"b{attempt}", lease_timeout=0.1),
                key,
            )
            assert len(wins) == 1, wins
            assert make_queue(store, manifest, wins[0]).release(key)


class TestDrainHygiene:
    def test_drain_leaves_no_lease_residue(self, store):
        """Satellite regression: after a fully drained manifest the
        lease area must be *empty* — no leases (released per batch),
        and on the filesystem backend no leftover clock probes,
        breaker locks, or namespace directories either."""
        manifest = toy_manifest(n=4).save(store)
        # An expiry break happens mid-drain too: pre-claim one key with
        # a long-dead owner so the drain exercises the breaker path.
        dead = make_queue(store, manifest, "dead", lease_timeout=0.1)
        assert dead.claim(manifest.keys()[2])
        age(store, manifest, manifest.keys()[2], 60.0)

        queue = make_queue(store, manifest, "w", lease_timeout=0.1)
        drain_manifest(
            queue,
            lambda keys: [
                store.append(k, {"kind": "sim-cell", "k": k}) for k in keys
            ],
            batch_size=2,
            poll_interval=0.01,
        )
        assert queue.status().done == len(manifest)
        for key in manifest.keys():
            assert queue.lease_info(key) is None
        if store.backend.scheme == "file":
            leases_root = store.root / "leases"
            residue = (
                [p for p in leases_root.rglob("*")]
                if leases_root.exists()
                else []
            )
            assert residue == [], residue
