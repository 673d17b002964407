#!/usr/bin/env python3
"""Hot-path benchmark harness: the CI perf gate's measurement side.

Times the repo's campaign-scale hot paths — the batched campaign
engine, the analytic testbed PER-table bridge, the allocation LP, the
realised transportation flow, and the campaign store round-trip — and
emits a machine-readable ``BENCH_<label>.json``.  CI runs this on
every push, uploads the artifact, and fails the build when a hot path
regresses more than the threshold against the committed
``benchmarks/baseline.json``.

Modes:

* default — measure and write ``BENCH_<label>.json`` to ``--out-dir``.
* ``--check BASELINE`` — additionally compare against a baseline file
  and exit non-zero on any >``--threshold`` (default 25%) regression.
* ``--update-baseline`` — rewrite ``benchmarks/baseline.json`` from
  this run (commit the result when a deliberate change moves a hot
  path).

Comparisons use each benchmark's *best* wall time (minimum over
``--repeats`` runs — the least noise-sensitive location statistic) and
are normalised by the ``calibration`` benchmark, a fixed numpy
workload that measures the host's speed: a CI runner that is uniformly
2x slower than the baseline machine shifts every benchmark *and* the
calibration equally, so only relative regressions trip the gate.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import sys
import tempfile
import time

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.analysis.stats import StreamingMoments  # noqa: E402
from repro.core.eve import round_leakage  # noqa: E402
from repro.service import (  # noqa: E402
    ServiceConfig,
    build_reference_session,
    run_load,
    run_memory_group,
)
from repro.sim import (  # noqa: E402
    CampaignRunner,
    CollusionEstimatorSpec,
    CombinedEstimatorSpec,
    FixedFractionEstimatorSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    ScenarioGrid,
)
from repro.store.store import CampaignStore  # noqa: E402
from repro.testbed.deployment import Testbed, TestbedConfig  # noqa: E402
from repro.testbed.pertable import placement_schedule_specs  # noqa: E402
from repro.testbed.placements import Placement  # noqa: E402
from repro.theory.allocation import (  # noqa: E402
    clear_realised_flow_cache,
    realised_support_flow,
)
from repro.theory.efficiency import (  # noqa: E402
    clear_efficiency_cache,
    group_allocation_profile,
)

DEFAULT_BASELINE = os.path.join(REPO, "benchmarks", "baseline.json")


# -- the benchmarks -------------------------------------------------------


def bench_calibration() -> None:
    """Fixed numpy workload measuring raw host speed (the normaliser).

    Deliberately elementwise-only: BLAS-free so the factor does not
    scale with the runner's thread count, and allocation-light so it
    tracks the single-core arithmetic speed the gated benchmarks
    (campaign engine, LP, flow) are actually bound by.
    """
    rng = np.random.default_rng(0)
    a = rng.random(2_000_000)
    for _ in range(8):
        a = np.tanh(a) + np.sqrt(np.abs(a) + 0.5)
        a -= a.mean()
    float(np.sort(a)[::4].sum())


def bench_batched_campaign() -> None:
    """The tentpole hot path: a multi-cell batched campaign, serial."""
    grid = ScenarioGrid(
        group_sizes=(3, 4, 5),
        loss_models=(IIDLossSpec(0.3), IIDLossSpec(0.5)),
        estimators=(LeaveOneOutEstimatorSpec(rate_margin=0.05),),
        rounds=120,
        n_x_packets=100,
    )
    CampaignRunner(seed=7).run(grid)


#: Many cells per loss model: one stack signature (same n, loss,
#: adversary, N) spanning the estimator-policy axis, the shape the
#: cross-cell kernels amortise over.
_CROSS_CELL_GRID = ScenarioGrid(
    group_sizes=(4,),
    loss_models=(IIDLossSpec(0.4),),
    estimators=(
        OracleEstimatorSpec(),
        LeaveOneOutEstimatorSpec(rate_margin=0.05),
        LeaveOneOutEstimatorSpec(rate_margin=0.1),
        FixedFractionEstimatorSpec(fraction=0.5),
        FixedFractionEstimatorSpec(fraction=0.7),
        CollusionEstimatorSpec(k=2),
        CombinedEstimatorSpec(
            children=(
                FixedFractionEstimatorSpec(fraction=0.5),
                LeaveOneOutEstimatorSpec(rate_margin=0.05),
            )
        ),
    ),
    rounds=150,
    n_x_packets=100,
)


def bench_campaign_cross_cell() -> None:
    """Seven same-signature cells through one stacked kernel pass."""
    CampaignRunner(seed=7).run(_CROSS_CELL_GRID)


def bench_pertable_bridge() -> None:
    """Analytic per-(pattern, tx, rx) PER table for one placement."""
    testbed = Testbed(TestbedConfig(interferer_power_dbm=10.0))
    placement = Placement(eve_cell=4, terminal_cells=(0, 2, 6, 8))
    placement_schedule_specs(testbed, placement, np.random.default_rng(3))


def bench_allocation_lp() -> None:
    """Cold allocation-LP solves across the paper's group sizes."""
    clear_efficiency_cache()
    for n in (3, 5, 8):
        group_allocation_profile(
            n, 0.5, z_cost_factor=2.0, support_feasible=True, support_rate=0.45
        )


def bench_realised_flow() -> None:
    """Cold realised-assignment flows on representative histograms."""
    clear_realised_flow_cache()
    rng = np.random.default_rng(5)
    for _ in range(120):
        cells = tuple(
            (int(mask), int(rng.integers(1, 30))) for mask in (1, 2, 3, 5, 6, 7)
        )
        demands = tuple(
            (int(mask), int(rng.integers(0, 8))) for mask in (1, 3, 7)
        )
        realised_support_flow(cells, demands, top_up=True)


#: The store round-trip workload: 300 experiment records, one per
#: shard, persisted in 75-record batched flushes (the way a stacked
#: campaign group checkpoints) and streamed back deduped.
_STORE_RECORD = {
    "kind": "experiment",
    "n_terminals": 4,
    "placement": {"__spec__": "Placement", "eve_cell": 4,
                  "terminal_cells": [0, 2, 6, 8]},
    "efficiency": 0.0421,
    "reliability": 0.93,
    "secret_bits": 4000,
    "transmitted_bits": 95000,
}
_STORE_FLUSH = 75


def bench_store_roundtrip():
    """Append + dedupe-read 300 records in batched durable flushes.

    The 300-file teardown is as expensive as the round-trip itself and
    is not the store's work, so it is returned as an untimed cleanup.
    """
    root = tempfile.mkdtemp(prefix="bench-store-")
    store = CampaignStore(root)
    for start in range(0, 300, _STORE_FLUSH):
        store.append_batch(
            (f"{i:020x}", dict(_STORE_RECORD, secret_bits=i))
            for i in range(start, start + _STORE_FLUSH)
        )
    total = sum(1 for _ in store.stream())
    assert total == 300
    return lambda: shutil.rmtree(root, ignore_errors=True)


#: Small protocol sizing for the service benchmarks: the gate watches
#: the *service machinery* (framing, MACs, asyncio pumping, HKDF), so
#: the per-session coding work is kept modest and constant.
_SERVICE_BENCH_CONFIG = ServiceConfig(n_x_packets=24, payload_bytes=16)


def bench_service_handshake() -> None:
    """Five sequential full handshakes over in-memory transports."""

    async def sessions() -> None:
        for nonce in range(5):
            keys = await run_memory_group(
                _SERVICE_BENCH_CONFIG, "alice", ("bob",), nonce=nonce
            )
            assert keys["alice"].material == keys["bob"].material

    asyncio.run(sessions())


def bench_leakage_accounting() -> None:
    """The measured-secrecy hot loop: rank-oracle ``round_leakage``
    over one round's coefficients, repeated across reception sets.

    Both service engines (and the per-packet simulator) pay this per
    round, so the gate watches the accounting itself — isolated from
    the handshake machinery timed by ``service_handshake``.
    """
    config = ServiceConfig(n_x_packets=64, payload_bytes=16)
    session = build_reference_session(config, "alice", ("bob", "carol"))
    outcome = session.run_round("alice", 0)
    all_ids = list(range(config.n_x_packets))
    for stride in range(2, 202):
        report = round_leakage(
            outcome.allocation,
            outcome.plan,
            frozenset(all_ids[:: stride % 5 + 2]),
            all_ids,
        )
        assert 0 <= report.hidden_dims <= report.secret_dims


def bench_service_concurrent() -> None:
    """100 concurrent sessions through the load generator (one loop)."""
    report = asyncio.run(run_load(_SERVICE_BENCH_CONFIG, 100, concurrency=50))
    assert report.established == report.sessions, report.failure_types


BENCHMARKS = {
    "calibration": bench_calibration,
    "batched_campaign": bench_batched_campaign,
    "campaign_cross_cell": bench_campaign_cross_cell,
    "pertable_bridge": bench_pertable_bridge,
    "allocation_lp": bench_allocation_lp,
    "realised_flow": bench_realised_flow,
    "store_roundtrip": bench_store_roundtrip,
    "service_handshake": bench_service_handshake,
    "service_concurrent": bench_service_concurrent,
    "leakage_accounting": bench_leakage_accounting,
}

#: Per-benchmark slowdown allowances overriding ``--threshold``.  The
#: store round-trip is fsync-bound: CI ephemeral disks legitimately
#: vary several-fold in sync latency, which the CPU calibration factor
#: cannot cancel, so it gates only against order-of-magnitude blowups
#: (an accidental O(n^2) rescan, a lost batching).
THRESHOLD_OVERRIDES = {
    "store_roundtrip": 3.0,
}


# -- harness --------------------------------------------------------------


def run_benchmarks(repeats: int) -> dict:
    """Time every benchmark; a crashing one becomes an ``error`` row.

    One broken hot path must not hide the others' numbers (or their
    regressions), so the harness records the failure and keeps
    measuring; the caller turns error rows into a non-zero exit.

    A benchmark may return a callable: per-run teardown (deleting a
    scratch store, say) the clock must not charge to the hot path.  It
    runs after the timer stops.
    """
    results = {}
    for name, fn in BENCHMARKS.items():
        try:
            cleanup = fn()  # untimed warmup (imports, allocator, cache)
            if callable(cleanup):
                cleanup()
            moments = StreamingMoments()
            for _ in range(repeats):
                t0 = time.perf_counter()
                cleanup = fn()
                moments.update(time.perf_counter() - t0)
                if callable(cleanup):
                    cleanup()
        except Exception as exc:
            results[name] = {"error": f"{type(exc).__name__}: {exc}"}
            print(f"{name:28s} ERROR {type(exc).__name__}: {exc}", flush=True)
            continue
        results[name] = {
            "best_s": moments.minimum,
            "mean_s": moments.mean,
            "std_s": moments.std if moments.count > 1 else 0.0,
            "repeats": repeats,
        }
        print(
            f"{name:28s} best {moments.minimum * 1e3:8.1f} ms   "
            f"mean {moments.mean * 1e3:8.1f} ms",
            flush=True,
        )
    return results


def check_against_baseline(
    current: dict, baseline: dict, threshold: float
) -> int:
    """Compare best times, calibration-normalised; returns exit code."""
    cur_cal = current.get("calibration", {}).get("best_s")
    base_cal = baseline.get("calibration", {}).get("best_s")
    normalise = bool(cur_cal and base_cal)
    if not normalise:
        print("calibration benchmark missing: comparing raw wall times")
    failures = []
    for name, base in sorted(baseline.items()):
        if name == "calibration":
            continue
        if name not in current:
            failures.append(f"{name}: present in baseline but not measured")
            continue
        if "error" in current[name]:
            failures.append(f"{name}: crashed ({current[name]['error']})")
            print(f"{name:28s}    ERROR   {current[name]['error']}")
            continue
        ratio = current[name]["best_s"] / base["best_s"]
        if normalise:
            ratio /= cur_cal / base_cal
        allowed = THRESHOLD_OVERRIDES.get(name, threshold)
        verdict = "ok"
        if ratio > 1.0 + allowed:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {ratio:.2f}x the baseline "
                f"(threshold {1.0 + allowed:.2f}x)"
            )
        elif ratio < 1.0 - allowed:
            verdict = "faster (consider --update-baseline)"
        print(f"{name:28s} {ratio:6.2f}x baseline   {verdict}")
    for name in sorted(set(current) - set(baseline) - {"calibration"}):
        print(f"{name:28s} new benchmark (no baseline entry)")
    if failures:
        # The full list in one run: a gate that stops at the first
        # regressed row hides every row behind it.
        print(
            f"\nbenchmark regression gate FAILED ({len(failures)} "
            f"row{'s' if len(failures) != 1 else ''}):",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--label",
        default="local",
        help="artifact label: the output file is BENCH_<label>.json "
        "(CI passes the commit SHA)",
    )
    parser.add_argument(
        "--out-dir",
        default=REPO,
        help="directory for BENCH_<label>.json (default: repo root)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed runs per benchmark"
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="compare against this baseline JSON and fail on regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative slowdown that fails the gate (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"rewrite {os.path.relpath(DEFAULT_BASELINE, REPO)} from this run",
    )
    args = parser.parse_args()

    results = run_benchmarks(repeats=args.repeats)
    errors = sorted(name for name, row in results.items() if "error" in row)
    payload = {
        "label": args.label,
        "recorded_unix": time.time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": results,
    }
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(out_path, "w") as f:
        json.dump(payload, f, indent=1)
    print(f"\nwrote {out_path}")

    if args.update_baseline:
        if errors:
            print(
                f"refusing to update the baseline: benchmarks crashed "
                f"({', '.join(errors)})",
                file=sys.stderr,
            )
            return 1
        with open(DEFAULT_BASELINE, "w") as f:
            json.dump(results, f, indent=1)
        print(f"updated {DEFAULT_BASELINE}")

    if args.check is not None:
        with open(args.check) as f:
            baseline = json.load(f)
        # Baselines store either the bare results mapping or a full
        # BENCH_<label>.json payload; accept both.
        baseline = baseline.get("results", baseline)
        print()
        return check_against_baseline(results, baseline, args.threshold)
    if errors:
        print(
            f"\n{len(errors)} benchmark(s) crashed: {', '.join(errors)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
