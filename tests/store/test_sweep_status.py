"""Regression tests for the ``sweep-status`` subcommand.

``sweep-status`` is a read-only reporting command: it must not create
the store directory as a side effect, must treat an empty or missing
store as a clean zero summary (exit 0), and must keep reporting the
healthy manifests when one file is torn or foreign.
"""

import importlib.util
import os

import pytest

from repro.store import CampaignStore, ManifestEntry, SweepManifest

@pytest.fixture(scope="module")
def campaign_script():
    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    path = os.path.join(repo_root, "scripts", "run_reference_campaign.py")
    spec = importlib.util.spec_from_file_location("run_reference_campaign", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSweepStatus:
    def test_missing_store_dir_is_clean_zero_summary(
        self, campaign_script, tmp_path, capsys
    ):
        target = tmp_path / "never-created"
        rc = campaign_script.sweep_status(["--store", str(target)])
        assert rc == 0
        assert "0 manifests" in capsys.readouterr().out
        # Read-only command: the directory must NOT appear as a side
        # effect of asking about it.
        assert not target.exists()

    def test_empty_store_dir_is_clean_zero_summary(
        self, campaign_script, tmp_path, capsys
    ):
        target = tmp_path / "empty"
        target.mkdir()
        rc = campaign_script.sweep_status(["--store", str(target)])
        assert rc == 0
        assert "0 manifests" in capsys.readouterr().out
        assert list(target.iterdir()) == []

    def test_reports_existing_manifest_counts(
        self, campaign_script, tmp_path, capsys
    ):
        store = CampaignStore(tmp_path / "store")
        manifest = SweepManifest(
            name="demo-sweep",
            entries=tuple(
                ManifestEntry(key=f"{i:02d}" * 5, spec={"i": i}, label=f"item-{i}")
                for i in range(3)
            ),
        )
        manifest.save(store)
        rc = campaign_script.sweep_status(["--store", str(store.root)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "demo-sweep" in out
        assert "0/3 done" in out
        assert "3 pending" in out

    def test_unreadable_manifest_does_not_break_the_report(
        self, campaign_script, tmp_path, capsys
    ):
        store = CampaignStore(tmp_path / "store")
        manifest = SweepManifest(
            name="healthy",
            entries=(ManifestEntry(key="ab" * 5, spec={"i": 0}),),
        )
        manifest.save(store)
        # A torn write / foreign file alongside the healthy manifest.
        (store.root / "broken.manifest.json").write_text("{not json", encoding="utf-8")
        rc = campaign_script.sweep_status(["--store", str(store.root)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "broken: unreadable manifest" in out
        assert "healthy" in out and "0/1 done" in out

    def test_prefix_filter_with_no_match_is_clean(
        self, campaign_script, tmp_path, capsys
    ):
        store = CampaignStore(tmp_path / "store")
        SweepManifest(
            name="alpha", entries=(ManifestEntry(key="cd" * 5, spec=None),)
        ).save(store)
        rc = campaign_script.sweep_status(
            ["--store", str(store.root), "--manifest", "zeta"]
        )
        assert rc == 0
        assert "0 manifests" in capsys.readouterr().out


class TestSweepStatusUri:
    """The subcommand speaks store URIs, not just directory paths."""

    def test_mem_uri_reports_counts(self, campaign_script, capsys):
        from repro.store import open_store
        from repro.store.backend_mem import MemoryStoreBackend

        try:
            store = open_store("mem:sweep-status")
            SweepManifest(
                name="demo",
                entries=tuple(
                    ManifestEntry(key=f"{i:02d}" * 5, spec={"i": i})
                    for i in range(2)
                ),
            ).save(store)
            rc = campaign_script.sweep_status(["--store", "mem:sweep-status"])
        finally:
            MemoryStoreBackend.discard("sweep-status")
        assert rc == 0
        out = capsys.readouterr().out
        assert "demo" in out and "0/2 done" in out

    def test_missing_mem_uri_is_clean_zero_summary(
        self, campaign_script, capsys
    ):
        from repro.store import open_store

        rc = campaign_script.sweep_status(["--store", "mem:never-created"])
        assert rc == 0
        assert "0 manifests" in capsys.readouterr().out
        with pytest.raises(FileNotFoundError):
            open_store("mem:never-created", create=False)
