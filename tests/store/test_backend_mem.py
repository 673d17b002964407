"""The ``mem:`` object store's own primitives and its fault hooks.

The conformance suite (``tests/store/conformance``) checks what the
sweep layer sees through :class:`~repro.store.CampaignStore` and
:class:`~repro.store.WorkQueue`; this file pins the S3-style layer
underneath — etags, ``If-None-Match`` / ``If-Match`` preconditions,
the store's clock, and the ``latency`` / ``before_op`` hooks — plus
the retry and compare-and-swap behaviour the backend builds on them
when a concurrent writer lands mid-operation.
"""

import time

import pytest

from repro.store import CampaignStore
from repro.store.backend_mem import (
    MemoryObjectStore,
    MemoryStoreBackend,
    PreconditionFailed,
)

KEY = "ab" * 10
NS = "sweep"


@pytest.fixture
def objects():
    return MemoryObjectStore()


@pytest.fixture
def backend():
    return MemoryStoreBackend("unit")


class TestObjectStore:
    def test_put_get_and_fresh_etags(self, objects):
        assert objects.get("a") is None
        first = objects.put("a", "one")
        second = objects.put("a", "two")
        assert first != second
        assert objects.get("a") == (second, "two")

    def test_if_none_match_refuses_an_existing_object(self, objects):
        etag = objects.put("a", "one", if_none_match=True)
        with pytest.raises(PreconditionFailed, match="object exists"):
            objects.put("a", "two", if_none_match=True)
        assert objects.get("a") == (etag, "one")

    def test_if_match_refuses_a_stale_or_absent_object(self, objects):
        stale = objects.put("a", "one")
        current = objects.put("a", "two")
        with pytest.raises(PreconditionFailed, match="etag mismatch"):
            objects.put("a", "three", if_match=stale)
        with pytest.raises(PreconditionFailed, match="etag mismatch"):
            objects.put("absent", "x", if_match=current)
        assert objects.get("a") == (current, "two")
        assert objects.get("absent") is None
        assert objects.put("a", "three", if_match=current) != current

    def test_delete_is_conditional_on_the_etag(self, objects):
        assert objects.delete("absent") is False
        stale = objects.put("a", "one")
        current = objects.put("a", "two")
        with pytest.raises(PreconditionFailed):
            objects.delete("a", if_match=stale)
        assert objects.get("a") == (current, "two")
        assert objects.delete("a", if_match=current) is True
        assert objects.get("a") is None

    def test_list_prefix_is_sorted_and_filtered(self, objects):
        for path in ("records/b", "docs/x", "records/a", "recordsZ"):
            objects.put(path, "")
        assert objects.list_prefix("records/") == ["records/a", "records/b"]
        assert objects.list_prefix("nothing/") == []

    def test_clock_only_moves_forward(self, objects):
        before = objects.now()
        objects.advance(3600.0)
        assert objects.now() - before >= 3600.0
        with pytest.raises(ValueError, match="never runs backwards"):
            objects.advance(-1.0)

    def test_latency_delays_every_operation(self, objects):
        objects.latency = 0.02
        start = time.monotonic()
        objects.put("a", "one")
        objects.get("a")
        objects.list_prefix("")
        objects.delete("a")
        assert time.monotonic() - start >= 4 * 0.02

    def test_before_op_sees_each_operation_and_can_abort_it(self, objects):
        seen = []
        objects.before_op = lambda op, path: seen.append((op, path))
        objects.put("a", "one")
        objects.get("a")
        objects.list_prefix("a")
        objects.delete("a")
        assert seen == [
            ("put", "a"), ("get", "a"), ("list", "a"), ("delete", "a")
        ]

        def outage(op, path):
            raise ConnectionError(f"{op} {path} dropped")

        objects.before_op = outage
        with pytest.raises(ConnectionError, match="put b dropped"):
            objects.put("b", "lost")
        objects.before_op = None
        assert objects.get("b") is None


class TestRegistry:
    def test_named_is_one_object_graph_per_name(self):
        try:
            assert MemoryStoreBackend.named("reg-a") is MemoryStoreBackend.named(
                "reg-a"
            )
            assert MemoryStoreBackend.named("reg-a").uri == "mem:reg-a"
            MemoryStoreBackend.discard("reg-a")
            with pytest.raises(FileNotFoundError, match="reg-a"):
                MemoryStoreBackend.named("reg-a", create=False)
        finally:
            MemoryStoreBackend.discard("reg-a")

    @pytest.mark.parametrize("name", ["../up", "a/b", ".hidden", "x" * 102])
    def test_malformed_names_are_rejected(self, name):
        with pytest.raises(ValueError):
            MemoryStoreBackend.named(name)


class TestRecordsUnderContention:
    def test_append_retries_past_a_concurrent_writer(self, backend):
        """A peer's append landing between this writer's read and its
        conditional put costs a retry, never a line."""
        backend.append_record(KEY, '{"n":0}')
        injected = []

        def peer_writes_first(op, path):
            if op == "put" and not injected:
                injected.append(path)
                backend.objects.before_op = None
                backend.append_record(KEY, '{"n":"peer"}')
                backend.objects.before_op = peer_writes_first

        backend.objects.before_op = peer_writes_first
        backend.append_record(KEY, '{"n":1}')
        backend.objects.before_op = None
        assert injected == [f"records/{KEY}"]
        assert backend.read_records(KEY) == ['{"n":0}', '{"n":"peer"}', '{"n":1}']

    def test_append_seals_a_torn_trailer(self, backend):
        """A torn trailer is closed off as its own line before the next
        append, so the new record never fuses onto the partial one (the
        record layer then skips the unparseable line)."""
        backend.objects.put(f"records/{KEY}", '{"n":0}\n{"n":')
        assert backend.read_records(KEY) == ['{"n":0}']
        backend.append_record(KEY, '{"n":1}')
        assert backend.read_records(KEY) == ['{"n":0}', '{"n":', '{"n":1}']

    def test_append_batch_is_one_put_per_shard(self, backend):
        other = "cd" * 10
        puts = []
        backend.objects.before_op = (
            lambda op, path: puts.append(path) if op == "put" else None
        )
        backend.append_batch(
            [(KEY, '{"n":0}'), (other, '{"n":1}'), (KEY, '{"n":2}')]
        )
        assert sorted(puts) == [f"records/{KEY}", f"records/{other}"]
        assert backend.read_records(KEY) == ['{"n":0}', '{"n":2}']
        assert backend.record_keys() == sorted([KEY, other])

    def test_a_failed_put_leaves_the_shard_as_it_was(self, backend):
        store = CampaignStore(backend)
        store.append(KEY, {"kind": "sim-cell", "v": 1})

        def outage(op, path):
            if op == "put":
                raise ConnectionError("put dropped")

        backend.objects.before_op = outage
        with pytest.raises(ConnectionError):
            store.append(KEY, {"kind": "sim-cell", "v": 2})
        backend.objects.before_op = None
        assert store.load(KEY) == {"kind": "sim-cell", "v": 1}


class TestLeasesUnderContention:
    def test_break_loses_to_a_heartbeat_landing_mid_break(self, backend):
        """The break judges a stale etag; a heartbeat between its read
        and its delete re-versions the lease, so the delete fails and
        the live owner keeps the key."""
        leases = backend.leases
        assert leases.acquire(NS, KEY, "owner")
        assert leases.age_lease(NS, KEY, 120.0)

        def heartbeat_first(op, path):
            if op == "delete":
                backend.objects.before_op = None
                assert leases.heartbeat(NS, KEY, "owner")

        backend.objects.before_op = heartbeat_first
        assert leases.break_expired(NS, KEY, 60.0) is False
        assert leases.get(NS, KEY).owner == "owner"

    def test_release_loses_to_a_break_and_reclaim(self, backend):
        leases = backend.leases
        assert leases.acquire(NS, KEY, "old")
        assert leases.age_lease(NS, KEY, 120.0)

        def reclaimed_first(op, path):
            if op == "delete":
                backend.objects.before_op = None
                assert leases.break_expired(NS, KEY, 60.0)
                assert leases.acquire(NS, KEY, "new")

        backend.objects.before_op = reclaimed_first
        assert leases.release(NS, KEY, "old") is False
        assert leases.get(NS, KEY).owner == "new"

    def test_heartbeat_stamps_the_store_clock(self, backend):
        leases = backend.leases
        assert leases.acquire(NS, KEY, "w")
        backend.objects.advance(500.0)
        assert leases.heartbeat(NS, KEY, "w")
        view = leases.get(NS, KEY)
        assert backend.objects.now() - view.heartbeat < 1.0
        assert not leases.heartbeat(NS, KEY, "someone-else")

    def test_unreadable_lease_is_held_not_free(self, backend):
        """Garbage in a lease object (an injected fault) reads as held
        by an unknown owner as of now: never claimable, never broken
        as expired."""
        leases = backend.leases
        backend.objects.put(f"leases/{NS}/{KEY}", "{not json")
        view = leases.get(NS, KEY)
        assert view.owner is None
        assert not leases.acquire(NS, KEY, "w")
        assert not leases.break_expired(NS, KEY, 60.0)
        assert not leases.age_lease(NS, KEY, 120.0)
        assert backend.objects.get(f"leases/{NS}/{KEY}")[1] == "{not json"
