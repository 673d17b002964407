"""Golden fixture: the stored lines of a small campaign on every backend.

A sim campaign's shards are content-keyed on the cell spec and seed,
so a change to how a record is drawn, encoded or laid out at rest
forks every recorded store.  This module pins, for one small grid run
through :class:`repro.sim.CampaignRunner`:

* the sha256 of every key's stored record lines (each ``\\n``-terminated,
  in append order) on the ``file:`` and ``mem:`` backends;
* the sha256 of every raw ``.jsonl`` shard file on ``file:``;
* the same two for one campaign interrupted after its first 3 cells
  and then resumed on the same ``file:`` store.

The same grid drained as a named sweep (``run(cells, manifest=...)``)
must store the very lines of the plain run on every backend, so the
manifest inputs are checked against the ``file`` and ``mem`` sections
rather than sections of their own.

The fixture's ``sqlite`` section holds the lines a ``sqlite:`` backend
stored before that backend was deleted.  It equals ``file`` key for
key and is no longer read; it stays so the fixture stays byte-identical.

The grid is 2 group sizes x 2 losses x 2 estimators; its last cell
faces a 2-antenna Eve, so it stacks alone.  The digests in
``golden/store_lines.json`` must never be regenerated to make a change
pass; run this file as a script
(``PYTHONPATH=src python tests/store/test_store_golden.py``) only to
print what the current code produces.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.sim import (
    AdversarySpec,
    CampaignRunner,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    ScenarioGrid,
)
from repro.store import open_store
from repro.store.backend_mem import MemoryStoreBackend

GOLDEN = Path(__file__).with_name("golden") / "store_lines.json"

SEED = 2012

GRID = ScenarioGrid(
    group_sizes=(3, 4),
    loss_models=(IIDLossSpec(0.3), IIDLossSpec(0.5)),
    estimators=(OracleEstimatorSpec(), LeaveOneOutEstimatorSpec(0.05)),
    rounds=12,
    n_x_packets=40,
)


def golden_cells() -> list:
    """The grid's 8 cells in axis order, the last one against a
    2-antenna Eve."""
    cells = GRID.scenarios()
    cells[-1] = dataclasses.replace(
        cells[-1], adversary=AdversarySpec(antennas=2)
    )
    return cells


def line_digests(store) -> dict:
    """sha256 over each key's stored lines, each ``\\n``-terminated."""
    return {
        key: hashlib.sha256(
            "".join(
                line + "\n" for line in store.backend.read_records(key)
            ).encode("utf-8")
        ).hexdigest()
        for key in store.keys()
    }


def file_digests(root: Path) -> dict:
    """sha256 of every raw ``.jsonl`` shard file, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.glob("*.jsonl"))
    }


def campaign_digests(uri: str, manifest=None, **runner_kwargs) -> dict:
    """Run the golden cells into the store at ``uri`` (as the named
    sweep ``manifest``, if given); its line digests."""
    store = open_store(uri)
    CampaignRunner(seed=SEED, store=store, **runner_kwargs).run(
        golden_cells(), manifest=manifest
    )
    return line_digests(store)


def resumed_digests(root: Path, **runner_kwargs) -> dict:
    """Run the first 3 cells, then resume the whole list on one store."""
    cells = golden_cells()
    store = open_store(f"file:{root}")
    CampaignRunner(seed=SEED, store=store, **runner_kwargs).run(cells[:3])
    computed = []
    CampaignRunner(seed=SEED, store=store, **runner_kwargs).run(
        cells, progress=computed.append
    )
    assert len(computed) == len(cells) - 3
    return {"lines": line_digests(store), "files": file_digests(root)}


def backend_digests(tmp: Path, mem_name: str, **kwargs) -> dict:
    """The ``file`` and ``mem`` sections, stores under ``tmp`` and
    ``mem:``."""
    try:
        mem = campaign_digests(f"mem:{mem_name}", **kwargs)
    finally:
        MemoryStoreBackend.discard(mem_name)
    return {
        "file": campaign_digests(f"file:{tmp}/file", **kwargs),
        "mem": mem,
    }


def all_digests(tmp: Path, mem_name: str, **runner_kwargs) -> dict:
    """Every pinned section, with stores under ``tmp`` and ``mem:``."""
    return {
        **backend_digests(tmp, mem_name, **runner_kwargs),
        "file_bytes": file_digests(tmp / "file"),
        "resumed": resumed_digests(tmp / "resumed", **runner_kwargs),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def got(tmp_path_factory) -> dict:
    return all_digests(tmp_path_factory.mktemp("golden"), "store-golden")


@pytest.fixture(scope="module")
def got_manifest(tmp_path_factory) -> dict:
    return backend_digests(
        tmp_path_factory.mktemp("golden-manifest"),
        "store-golden-manifest",
        manifest="golden",
    )


def test_one_shard_per_cell(golden):
    keys = {CampaignRunner(seed=SEED).cell_key(c) for c in golden_cells()}
    assert len(keys) == len(golden_cells())
    assert set(golden["file"]) == keys


@pytest.mark.parametrize("section", ["file", "file_bytes", "mem"])
def test_campaign_store_unchanged(golden, got, section):
    assert got[section] == golden[section]


@pytest.mark.parametrize("section", ["file", "mem"])
def test_manifest_campaign_stores_the_same_lines(golden, got_manifest, section):
    """A named-sweep drain stores the plain run's lines, key for key."""
    assert got_manifest[section] == golden[section]


def test_backends_store_the_same_lines(golden):
    assert golden["file"] == golden["mem"]


def test_resumed_campaign_unchanged(golden, got):
    assert got["resumed"] == golden["resumed"]
    assert got["resumed"]["lines"] == golden["file"]


if __name__ == "__main__":  # print what the current code produces
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = all_digests(Path(tmp), "store-golden-print")
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    print()
