"""Backend selection by URI, the registry, and cross-backend copying.

The conformance suite (``tests/store/conformance``) pins the semantics
every backend shares; this file pins the plumbing around them — scheme
dispatch, ``create=False`` read-only opens, the ``mem:`` registry's
identity guarantee, and byte-identical :func:`repro.store.copy_store`
replication between backends.
"""

import shutil

import pytest

from repro.store import (
    CampaignStore,
    SweepManifest,
    copy_store,
    list_manifests,
    open_backend,
    open_store,
)
from repro.store.backend_fs import FilesystemStoreBackend
from repro.store.backend_mem import MemoryStoreBackend

KEY = "ab" * 10


class TestOpenStore:
    def test_bare_path_means_filesystem(self, tmp_path):
        store = open_store(tmp_path / "s")
        assert isinstance(store.backend, FilesystemStoreBackend)
        assert store.root == tmp_path / "s"
        assert store.uri == f"file:{tmp_path / 's'}"

    def test_file_scheme(self, tmp_path):
        store = open_store(f"file:{tmp_path}/s")
        assert isinstance(store.backend, FilesystemStoreBackend)
        assert store.root == tmp_path / "s"

    def test_mem_scheme_is_a_registry(self):
        try:
            a = open_store("mem:uri-test")
            b = open_store("mem:uri-test")
            assert a.backend is b.backend
            a.append(KEY, {"kind": "sim-cell", "v": 1})
            assert b.load(KEY) == {"kind": "sim-cell", "v": 1}
            with pytest.raises(TypeError, match="no filesystem root"):
                a.root
            with pytest.raises(TypeError, match="no shard files"):
                a.shard_path(KEY)
        finally:
            MemoryStoreBackend.discard("uri-test")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown store scheme") as info:
            open_store("s3:bucket/prefix")
        assert "(known: file:, mem:)" in str(info.value)

    @pytest.mark.parametrize("create", [True, False])
    def test_sqlite_scheme_is_refused_with_the_migration(self, tmp_path, create):
        """The sqlite backend is gone: its URI names the commit whose
        ``copy_store`` still opens such a database, and creates
        nothing."""
        with pytest.raises(ValueError) as info:
            open_store(f"sqlite:{tmp_path}/s.db", create=create)
        message = str(info.value)
        assert "copy_store" in message
        assert "85ca4c6" in message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "form", ["SQLite:{d}/s.db", "sqlite://{d}/s.db", "sqlite:s.db", "sqlite:"]
    )
    def test_every_sqlite_uri_form_is_refused(self, tmp_path, monkeypatch, form):
        """Scheme case, the empty-authority form, a relative path and
        an empty path all reach the same refusal."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="85ca4c6"):
            open_store(form.format(d=tmp_path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("query", ["codec=binary", "codec=msgpack",
                                       "codek=binary", ""])
    def test_sqlite_uri_with_query_is_refused_as_sqlite(self, tmp_path, query):
        """The refusal comes before the query check: the message is the
        migration, not a query error."""
        with pytest.raises(ValueError, match="copy_store") as info:
            open_store(f"sqlite:{tmp_path}/s.db?{query}")
        assert "take no query" not in str(info.value)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("query", ["codec=binary", "codec=msgpack",
                                       "codek=binary", ""])
    @pytest.mark.parametrize("scheme", ["file", "mem"])
    def test_scheme_uri_query_rejected(self, tmp_path, scheme, query):
        """A ``?`` after a scheme is an error, never part of the path
        or store name, and nothing is created on the way."""
        with pytest.raises(ValueError, match="take no query"):
            open_store(f"{scheme}:{tmp_path}/d?{query}")
        assert list(tmp_path.iterdir()) == []

    def test_bare_path_question_mark_is_a_path(self, tmp_path):
        store = open_store(f"{tmp_path}/d?codec=binary")
        assert store.root == tmp_path / "d?codec=binary"
        assert store.root.is_dir()

    def test_campaign_store_passthrough(self, tmp_path):
        backend = open_backend(tmp_path / "s")
        assert open_backend(backend) is backend
        store = CampaignStore(backend)
        assert store.backend is backend

    def test_create_false_requires_existing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_store(f"{tmp_path}/absent", create=False)
        with pytest.raises(FileNotFoundError):
            open_store("mem:never-created", create=False)
        # ...and nothing was created as a side effect.
        assert not (tmp_path / "absent").exists()


class TestLegacyBinaryShards:
    def test_store_with_rbin_shards_is_refused(self, tmp_path):
        """A directory of binary-framed ``.rbin`` shards must not open
        as a partly empty JSONL store."""
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / f"{KEY}.jsonl").write_text("{}\n")
        (tmp_path / "s" / f"{'cd' * 10}.rbin").write_bytes(b"RB\0\0")
        for opener in (
            lambda: open_store(f"file:{tmp_path}/s"),
            lambda: open_store(tmp_path / "s", create=False),
            lambda: CampaignStore(tmp_path / "s"),
        ):
            with pytest.raises(ValueError) as info:
                opener()
            assert f"{'cd' * 10}.rbin" in str(info.value)
            assert "copy_store" in str(info.value)


class TestShardDirRecreation:
    def test_append_recreates_a_deleted_store_directory(self, tmp_path):
        """Satellite regression: a shard directory pruned between
        manifest write and worker claim must be recreated by the next
        append, not crash the worker."""
        store = CampaignStore(tmp_path / "s")
        store.append(KEY, {"kind": "sim-cell", "v": 1})
        shutil.rmtree(tmp_path / "s")
        store.append(KEY, {"kind": "sim-cell", "v": 2})
        assert store.load(KEY) == {"kind": "sim-cell", "v": 2}


class TestCopyStore:
    def _populate(self, store):
        store.append(KEY, {"kind": "sim-cell", "v": 1})
        store.append(KEY, {"kind": "sim-cell", "v": 2})
        store.append("cd" * 10, {"kind": "sim-cell", "v": 3})
        SweepManifest(name="toy", entries=()).save(store)

    def test_copy_preserves_raw_lines_and_manifests(self, tmp_path):
        """The mem->durable export path: line-for-line identical shards
        (full history, not just effective records) plus manifests."""
        try:
            src = open_store("mem:copy-src")
            self._populate(src)
            dst = open_store(f"file:{tmp_path}/dst")
            copied = copy_store(src, dst)
            assert copied == 2
            for key in src.keys():
                assert dst.backend.read_records(key) == (
                    src.backend.read_records(key)
                )
            assert dst.load(KEY) == {"kind": "sim-cell", "v": 2}
            assert list_manifests(dst) == ["toy"]
        finally:
            MemoryStoreBackend.discard("copy-src")

    def test_copy_to_filesystem_round_trips(self, tmp_path):
        src = open_store(f"{tmp_path}/src")
        self._populate(src)
        dst = open_store(f"{tmp_path}/dst")
        copy_store(src, dst)
        assert dst.keys() == src.keys()
        for key in src.keys():
            assert (
                dst.shard_path(key).read_bytes()
                == src.shard_path(key).read_bytes()
            )
