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
from repro.store.backend_sqlite import SqliteStoreBackend

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

    def test_sqlite_scheme(self, tmp_path):
        store = open_store(f"sqlite:{tmp_path}/s.db")
        assert isinstance(store.backend, SqliteStoreBackend)
        assert (tmp_path / "s.db").is_file()
        with pytest.raises(TypeError, match="no filesystem root"):
            store.root
        with pytest.raises(TypeError, match="no shard files"):
            store.shard_path(KEY)

    def test_mem_scheme_is_a_registry(self):
        try:
            a = open_store("mem:uri-test")
            b = open_store("mem:uri-test")
            assert a.backend is b.backend
            a.append(KEY, {"kind": "sim-cell", "v": 1})
            assert b.load(KEY) == {"kind": "sim-cell", "v": 1}
        finally:
            MemoryStoreBackend.discard("uri-test")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown store scheme"):
            open_store("s3:bucket/prefix")

    @pytest.mark.parametrize("query", ["codec=binary", "codec=msgpack",
                                       "codek=binary", ""])
    @pytest.mark.parametrize("scheme", ["file", "sqlite", "mem"])
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
            open_store(f"sqlite:{tmp_path}/absent.db", create=False)
        with pytest.raises(FileNotFoundError):
            open_store("mem:never-created", create=False)
        # ...and nothing was created as a side effect.
        assert not (tmp_path / "absent").exists()
        assert not (tmp_path / "absent.db").exists()


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

    def test_sqlite_blob_rows_still_read(self, tmp_path):
        """Older versions could store record lines as UTF-8 BLOBs;
        reads decode them per row, next to TEXT rows."""
        store = open_store(f"sqlite:{tmp_path}/s.db")
        store.append(KEY, {"kind": "sim-cell", "v": 1})
        store.backend._conn().execute(
            "INSERT INTO records (key, line) VALUES (?, ?)",
            (KEY, b'{"kind":"sim-cell","v":2}'),
        )
        assert store.records(KEY) == [
            {"kind": "sim-cell", "v": 1},
            {"kind": "sim-cell", "v": 2},
        ]


    def test_sqlite_blob_rows_copy_out_as_jsonl(self, tmp_path):
        """The migration path for such a database: ``copy_store`` to
        ``file:`` leaves the shard a text store writes."""
        legacy = open_store(f"sqlite:{tmp_path}/legacy.db")
        legacy.backend._conn().execute(
            "INSERT INTO records (key, line) VALUES (?, ?)",
            (KEY, b'{"kind":"sim-cell","v":1}'),
        )
        text = open_store(f"file:{tmp_path}/text")
        text.append(KEY, {"kind": "sim-cell", "v": 1})
        copied = open_store(f"file:{tmp_path}/copied")
        assert copy_store(legacy, copied) == 1
        assert (
            copied.shard_path(KEY).read_bytes()
            == text.shard_path(KEY).read_bytes()
        )


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
            dst = open_store(f"sqlite:{tmp_path}/dst.db")
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

    def test_file_through_sqlite_restores_shard_bytes(self, tmp_path):
        """file: -> sqlite: -> file: gives back the original shards
        byte for byte: no backend re-encodes a stored line."""
        src = open_store(f"{tmp_path}/src")
        self._populate(src)
        via = open_store(f"sqlite:{tmp_path}/via.db")
        dst = open_store(f"{tmp_path}/dst")
        assert copy_store(src, via) == 2
        assert copy_store(via, dst) == 2
        assert dst.keys() == src.keys()
        for key in src.keys():
            assert (
                dst.shard_path(key).read_bytes()
                == src.shard_path(key).read_bytes()
            )
