"""Shared pieces of the backend conformance harness.

The fixtures live in ``conftest.py`` next door; this module holds the
importable parts — the per-backend :class:`BackendHarness` table, the
recovery sweep grid, and the bit-identity assertion (re-exported from
``tests/sim/test_stack.py``) — so test modules can import them without
touching ``conftest`` machinery.
"""

import os
from dataclasses import dataclass
from typing import Callable

from repro.sim import IIDLossSpec, OracleEstimatorSpec, ScenarioGrid
from repro.store import ManifestEntry, SweepManifest
from tests.sim.test_stack import assert_outcomes_identical  # noqa: F401

#: The sweep used by the recovery scenarios: four cells, small enough
#: to drain in seconds, large enough that a killed worker leaves real
#: work behind.
GRID = ScenarioGrid(
    group_sizes=(3, 4),
    loss_models=(IIDLossSpec(0.3), IIDLossSpec(0.5)),
    estimators=(OracleEstimatorSpec(),),
    rounds=8,
    n_x_packets=24,
)



def toy_manifest(name="toy", n=3):
    entries = tuple(
        ManifestEntry(key=f"{i:02d}" * 5, spec={"i": i}, label=f"item-{i}")
        for i in range(n)
    )
    return SweepManifest(name=name, entries=entries, kind="sim-grid")


# -- per-backend shard tearing ---------------------------------------------
#
# "Tear" = make the shard look exactly as it would after a crash killed
# the *last* record's write mid-flight, using the backend's own failure
# vocabulary: a truncated unterminated line, on the filesystem and in
# the object store alike.


def _tear_jsonl_lines(lines):
    assert lines, "cannot tear an empty shard"
    return b"".join(lines[:-1]) + lines[-1].rstrip(b"\n")[
        : max(1, len(lines[-1]) // 2)
    ]


def _tear_file(store, key):
    path = store.shard_path(key)
    path.write_bytes(_tear_jsonl_lines(path.read_bytes().splitlines(True)))


def _tear_mem(store, key):
    objects = store.backend.objects
    found = objects.get(f"records/{key}")
    assert found is not None, "cannot tear an empty shard"
    etag, payload = found
    torn = _tear_jsonl_lines(payload.encode("utf-8").splitlines(True))
    objects.put(f"records/{key}", torn.decode("utf-8"), if_match=etag)


@dataclass(frozen=True)
class BackendHarness:
    """Everything backend-specific a conformance test may need."""

    scheme: str
    #: Whether a forked process can reach the same store through the
    #: URI (the SIGKILL drills need real processes; ``mem:`` state
    #: dies with the process, so its workers are threads instead).
    supports_fork: bool
    make_uri: Callable  # tmp_path -> store URI
    tear_shard: Callable  # (store, key) -> crash-truncate the last record
    #: Seconds of injected service latency per object-store operation
    #: (``mem:`` only): every read-modify-write spans sleeps, so the
    #: claim races and append retry loops run with wide windows.
    latency: float = 0.0


HARNESSES = {
    "file": BackendHarness(
        scheme="file",
        supports_fork=True,
        make_uri=lambda tmp_path: f"file:{tmp_path}/store",
        tear_shard=_tear_file,
    ),
    "mem": BackendHarness(
        scheme="mem",
        supports_fork=False,
        # tmp_path basenames are unique per test, giving each test its
        # own registry entry (discarded again by the store fixture).
        make_uri=lambda tmp_path: f"mem:conf-{tmp_path.name}",
        tear_shard=_tear_mem,
    ),
    "mem-latency": BackendHarness(
        scheme="mem",
        supports_fork=False,
        make_uri=lambda tmp_path: f"mem:conf-lat-{tmp_path.name}",
        tear_shard=_tear_mem,
        latency=0.001,
    ),
}


def selected_backends():
    raw = os.environ.get("REPRO_CONFORMANCE_BACKENDS", "").strip()
    if not raw:
        return list(HARNESSES)
    names = [n.strip() for n in raw.split(",") if n.strip()]
    unknown = sorted(set(names) - set(HARNESSES))
    if unknown:
        raise ValueError(
            f"unknown backends in REPRO_CONFORMANCE_BACKENDS: {unknown}"
        )
    return names

