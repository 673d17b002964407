#!/usr/bin/env python3
"""Reference campaign: Figure 2 + headline numbers (docs/paper-map.md).

Runs the testbed campaign with the deployment estimator (interference
guarantee combined with leave-one-out) and, separately, with the pure
empirical estimator, writing JSON snapshots to scripts/out/.

Engines (``--engine``):

* ``batched`` (default) — the :mod:`repro.sim` Monte-Carlo engine:
  analytic slot-aware per-pattern loss tables, then vectorised round
  batches.  Minutes of per-packet simulation become seconds.
* ``packet`` — the per-packet :class:`repro.core.session.ProtocolSession`
  ground truth (the original reference path; slow).
* ``both`` — run both and write both snapshots (cross-validation).

Sharding (``--workers N``): placements are independent experiments
with private SeedSequence-derived RNG streams, so running them on a
pool of N worker processes is bit-identical to the serial run at the
same seed.

Persistence (``--store URI``, ``--resume``): every completed
experiment is appended to a content-keyed record shard the moment it
finishes (see :mod:`repro.store`); with ``--resume`` a re-run loads
finished experiments instead of recomputing them, so an interrupted
campaign restarts from the last completed placement and ends
bit-identical to an uninterrupted run.  The store target is a URI
selecting the backend — ``file:DIR`` (a bare path means the same) or
``mem:NAME`` — and both backends give the same crash-safety contract (see ``tests/store/conformance``).  With a
store, the summary tables are computed by *streaming* the stored
records through the merge-able accumulators in
:mod:`repro.analysis.stats` — the experiment population is never
materialised.  ``--export-store URI`` copies the finished store
(shards byte-for-byte, plus manifests) to a second backend at exit —
the durability hand-off for a ``mem:`` drill.

Multi-host sweeps (``--manifest NAME``, ``--worker``,
``--workers-per-host N``): with a manifest, each campaign variant is
saved as a named :class:`repro.store.SweepManifest` next to the shards
(``NAME-<engine>-<variant>``) and drained through the crash-safe
:class:`repro.store.WorkQueue` — any number of script invocations
pointed at the same store (one host sharing a directory, or many
hosts sharing a filesystem) drain the sweep together,
SIGKILLed workers' leases expire and are reclaimed, and the final
aggregates are bit-identical to a serial run.  ``--workers-per-host
N`` forks N-1 extra drain processes locally; ``--worker`` joins a
sweep without writing JSON snapshots (for secondary hosts).
``sweep-status`` reports per-manifest done/claimed/stale/pending
counts:

.. code-block:: text

    python scripts/run_reference_campaign.py sweep-status --store URI
"""

import argparse
import json
import multiprocessing
import os
import sys
import time

import numpy as np

from repro import SessionConfig, Testbed, TestbedConfig
from repro.analysis import (
    CampaignConfig,
    experiment_store_key,
    run_campaign,
    summarize_reliability,
)
from repro.core import CombinedEstimator, LeaveOneOutEstimator
from repro.sim import (
    CombinedEstimatorSpec,
    FixedFractionEstimatorSpec,
    LeaveOneOutEstimatorSpec,
)
from repro.store import (
    SweepManifest,
    WorkQueue,
    copy_store,
    list_manifests,
    open_store,
)
from repro.store.aggregate import stream_aggregates
from repro.testbed.estimator import (
    InterferenceAwareEstimator,
    calibrate_min_jam_loss,
)

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

#: Batched-engine batch size per leader — passed to run_campaign AND to
#: experiment_store_key, which must agree or the streamed summaries
#: would silently miss every shard.
ROUNDS_PER_LEADER = 8


class CombinedFactory:
    """Per-placement combined estimator, as a picklable callable so the
    packet engine can shard across a process pool."""

    def __init__(self, min_jam_loss):
        self.min_jam_loss = min_jam_loss

    def __call__(self, testbed, placement):
        ia = InterferenceAwareEstimator(
            testbed.interference,
            testbed.config.geometry,
            self.min_jam_loss,
            candidate_cells=testbed.eve_candidate_cells(placement),
        )
        return CombinedEstimator([ia, LeaveOneOutEstimator(rate_margin=0.02)])


def loo_factory(testbed, placement):
    return LeaveOneOutEstimator(rate_margin=0.05)


def combined_spec(min_jam_loss):
    """Declarative twin of combined_factory: the interference guarantee
    is a fixed-fraction floor at the calibrated minimum jam loss."""
    return CombinedEstimatorSpec(
        children=(
            FixedFractionEstimatorSpec(fraction=min_jam_loss),
            LeaveOneOutEstimatorSpec(rate_margin=0.02),
        )
    )


def campaign_to_json(result):
    return [
        {
            "n": r.n_terminals,
            "eve_cell": r.placement.eve_cell,
            "cells": list(r.placement.terminal_cells),
            "efficiency": r.efficiency,
            "reliability": r.reliability,
            "secret_bits": r.secret_bits,
            "transmitted_bits": r.transmitted_bits,
        }
        for r in result.records
    ]


def engine_variants(engine, pmin):
    """The two estimator variants, as run_campaign keyword arguments."""
    if engine == "packet":
        return (
            ("combined", dict(estimator_factory=CombinedFactory(pmin))),
            ("loo", dict(estimator_factory=loo_factory)),
        )
    return (
        ("combined", dict(estimator_spec=combined_spec(pmin))),
        ("loo", dict(estimator_spec=LeaveOneOutEstimatorSpec(0.05))),
    )


def build_testbed():
    return Testbed(TestbedConfig(interferer_power_dbm=10.0))


def build_config(eve_cells):
    session = SessionConfig(
        n_x_packets=270, payload_bytes=100, secrecy_slack=1, z_cost_factor=2.5
    )
    return CampaignConfig(
        session=session,
        seed=2012,
        max_placements_per_n=18,
        group_sizes=(3, 4, 5, 6, 7, 8),
        eve_extra_cells=tuple(eve_cells),
    )


def manifest_name(base, engine, label):
    """One manifest per (engine, estimator variant) of the sweep."""
    return f"{base}-{engine}-{label}"


def _drain_worker(store_uri, base_name, engine, label, pmin, eve_cells):
    """One extra drain process of a manifest sweep (module-level so it
    forks/spawns cleanly).  Errors are fatal to this worker only: its
    leases expire and surviving workers reclaim the work."""
    testbed = build_testbed()
    config = build_config(eve_cells)
    kwargs = dict(engine_variants(engine, pmin))[label]
    run_campaign(
        testbed,
        config=config,
        engine=engine,
        store=open_store(store_uri),
        manifest=manifest_name(base_name, engine, label),
        rounds_per_leader=ROUNDS_PER_LEADER,
        **kwargs,
    )


def sweep_status(argv):
    """The ``sweep-status`` subcommand: per-manifest queue progress."""
    parser = argparse.ArgumentParser(
        prog="run_reference_campaign.py sweep-status",
        description="Report done/claimed/stale/pending counts for every "
        "sweep manifest in a store directory.",
    )
    parser.add_argument("--store", metavar="URI", required=True)
    parser.add_argument(
        "--manifest",
        metavar="PREFIX",
        default=None,
        help="only manifests whose name starts with PREFIX",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="judge claimed-vs-stale with the timeout the sweep's "
        "workers actually use (default: the library default)",
    )
    args = parser.parse_args(argv)
    # Status is read-only: never create store state as a side effect,
    # and an empty (or absent) store is a clean zero summary, not an
    # error — "nothing running yet" is a normal sweep state.
    try:
        store = open_store(args.store, create=False)
    except FileNotFoundError:
        print(f"{args.store}: 0 manifests (store does not exist)", flush=True)
        return 0
    names = [
        name
        for name in list_manifests(store)
        if args.manifest is None or name.startswith(args.manifest)
    ]
    if not names:
        print(f"{args.store}: 0 manifests", flush=True)
        return 0
    for name in names:
        queue_kwargs = (
            {} if args.lease_timeout is None
            else {"lease_timeout": args.lease_timeout}
        )
        try:
            sweep = SweepManifest.load(store, name)
            status = WorkQueue(store, sweep, **queue_kwargs).status()
        except Exception as exc:  # torn write, foreign file: report and go on
            print(f"{name}: unreadable manifest ({exc})", flush=True)
            continue
        print(
            f"{name} (v{sweep.version}, {sweep.kind}): "
            f"{status.done}/{status.total} done, "
            f"{status.claimed} claimed, {status.stale} stale, "
            f"{status.pending} pending",
            flush=True,
        )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--engine",
        choices=("batched", "packet", "both"),
        default="batched",
        help="simulation engine (default: batched; packet = ground truth)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard placements across N worker processes "
        "(bit-identical to serial)",
    )
    parser.add_argument(
        "--store",
        metavar="URI",
        default=None,
        help="persist each completed experiment to a content-keyed shard "
        "in the store at URI — file:DIR (a bare path means the same) "
        "or mem:NAME (crash-safe; summaries then stream from the store)",
    )
    parser.add_argument(
        "--export-store",
        metavar="URI",
        default=None,
        help="with --store: after the campaign, copy every shard "
        "byte-for-byte (plus manifests) to a second store — the "
        "durability hand-off when the working store is mem:NAME",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --store: load already-completed experiments from the "
        "store instead of recomputing them (bit-identical to an "
        "uninterrupted run)",
    )
    parser.add_argument(
        "--eve-cells",
        type=int,
        nargs="*",
        default=(),
        metavar="CELL",
        help="extra antenna cells for a multi-antenna Eve (grid cells "
        "0-8); placements whose terminals occupy one of them are "
        "skipped, and both engines model Eve as capturing a packet "
        "when any antenna does",
    )
    parser.add_argument(
        "--manifest",
        metavar="NAME",
        default=None,
        help="with --store: save each variant's work list as a sweep "
        "manifest (NAME-<engine>-<variant>) and drain it through the "
        "crash-safe work queue — concurrent invocations against the "
        "same store share the sweep",
    )
    parser.add_argument(
        "--worker",
        action="store_true",
        help="with --manifest: act as a drain worker only (no JSON "
        "snapshots written) — the mode for secondary hosts joining a "
        "sweep",
    )
    parser.add_argument(
        "--workers-per-host",
        type=int,
        default=1,
        metavar="N",
        help="with --manifest: fork N-1 extra drain processes on this "
        "host, each a full worker of the sweep (default 1)",
    )
    args = parser.parse_args()
    engines = ("batched", "packet") if args.engine == "both" else (args.engine,)
    if args.resume and args.store is None:
        parser.error("--resume requires --store DIR")
    if args.manifest is not None and args.store is None:
        parser.error("--manifest requires --store DIR")
    if args.worker and args.manifest is None:
        parser.error("--worker requires --manifest NAME")
    if args.workers_per_host < 1:
        parser.error("--workers-per-host must be >= 1")
    if args.workers_per_host > 1 and args.manifest is None:
        parser.error("--workers-per-host requires --manifest NAME")
    if args.export_store is not None and args.store is None:
        parser.error("--export-store requires --store URI")
    store = open_store(args.store) if args.store is not None else None
    if store is not None and store.backend.scheme == "mem":
        if args.workers_per_host > 1 or args.worker:
            # A mem: store lives in this process only; a forked drain
            # worker would fill a private copy and silently diverge.
            parser.error("mem: stores cannot be shared across processes")

    os.makedirs(OUT_DIR, exist_ok=True)
    testbed = build_testbed()
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    pmin = calibrate_min_jam_loss(testbed, rng, trials=250)
    print(f"min_jam_loss = {pmin:.3f} ({time.perf_counter()-t0:.0f}s)", flush=True)

    config = build_config(args.eve_cells)
    if args.eve_cells:
        print(f"multi-antenna Eve: extra cells {tuple(args.eve_cells)}", flush=True)

    for engine in engines:
        suffix = "" if engine == "packet" else f"_{engine}"
        if args.eve_cells:
            suffix += "_eve" + "-".join(str(c) for c in args.eve_cells)
        for label, kwargs in engine_variants(engine, pmin):
            t1 = time.perf_counter()
            sweep_name = (
                manifest_name(args.manifest, engine, label)
                if args.manifest is not None
                else None
            )
            extra_workers = []
            if sweep_name is not None and args.workers_per_host > 1:
                # Fork the extra drain processes; the parent is the
                # N-th worker, so the existing snapshot/summary path
                # below keeps working unchanged.
                for _ in range(args.workers_per_host - 1):
                    proc = multiprocessing.Process(
                        target=_drain_worker,
                        args=(
                            args.store,
                            args.manifest,
                            engine,
                            label,
                            pmin,
                            tuple(args.eve_cells),
                        ),
                    )
                    proc.start()
                    extra_workers.append(proc)
            try:
                result = run_campaign(
                    testbed,
                    config=config,
                    progress=lambda n, pl: None,
                    engine=engine,
                    max_workers=args.workers,
                    store=store,
                    # Manifest mode always resumes: completion is the
                    # store's shards, which is what lets concurrent
                    # workers share the sweep.
                    resume=True if sweep_name is not None else args.resume,
                    rounds_per_leader=ROUNDS_PER_LEADER,
                    manifest=sweep_name,
                    **kwargs,
                )
            finally:
                for proc in extra_workers:
                    proc.join()
            if not args.worker:
                path = os.path.join(OUT_DIR, f"campaign_{label}{suffix}.json")
                with open(path, "w") as f:
                    json.dump(
                        {
                            "min_jam_loss": pmin,
                            "engine": engine,
                            "records": campaign_to_json(result),
                        },
                        f,
                        indent=1,
                    )
                print(
                    f"{engine}/{label}: {len(result.records)} experiments in "
                    f"{time.perf_counter()-t1:.0f}s -> {path}",
                    flush=True,
                )
            else:
                print(
                    f"{engine}/{label}: sweep {sweep_name} drained in "
                    f"{time.perf_counter()-t1:.0f}s "
                    f"({len(result.records)} experiments complete)",
                    flush=True,
                )
            groups = None
            if sweep_name is not None:
                # The manifest already lists this variant's shard keys
                # — scope the streamed summaries without recomputing a
                # single fingerprint.
                groups = stream_aggregates(store, manifest=sweep_name)
            elif store is not None:
                # Streaming path: fold this variant's stored shards
                # through the merge-able accumulators — the experiment
                # population is never materialised, however large the
                # sweep.  Keys scope the shared store to this variant.
                identity = kwargs.get("estimator_spec") or kwargs.get(
                    "estimator_factory"
                )
                keys = [
                    experiment_store_key(
                        testbed, config, engine, identity, r.placement,
                        ROUNDS_PER_LEADER,
                    )
                    for r in result.records
                ]
                groups = stream_aggregates(store, keys)
                if result.records and not groups:
                    # Keys missed every shard: the key derivation above
                    # disagrees with run_campaign's.  Fall back to the
                    # in-memory summaries rather than printing nothing.
                    print(
                        "  WARNING: no stored shards matched this "
                        "variant's keys; summarising in memory",
                        flush=True,
                    )
                    groups = None
            if groups is not None:
                for n, agg in sorted(groups.items()):
                    if not agg.reliability:
                        print(f"  n={n}: no secret produced", flush=True)
                        continue
                    s = agg.reliability_summary()
                    print(
                        f"  n={n}: rel min={s.minimum:.2f} p95={s.p95:.2f} "
                        f"mean={s.mean:.2f} med={s.median:.2f} | "
                        f"eff min={agg.efficiency.minimum:.4f} "
                        f"mean={agg.efficiency.mean:.4f}",
                        flush=True,
                    )
                continue
            for n in result.group_sizes():
                rels = result.reliabilities(n)
                if not rels:
                    # Every experiment at this n produced zero secret
                    # (NaN reliability, excluded from aggregates).
                    print(f"  n={n}: no secret produced", flush=True)
                    continue
                s = summarize_reliability(n, rels)
                effs = result.efficiencies(n)
                print(
                    f"  n={n}: rel min={s.minimum:.2f} p95={s.p95:.2f} "
                    f"mean={s.mean:.2f} med={s.median:.2f} | "
                    f"eff min={min(effs):.4f} mean={np.mean(effs):.4f}",
                    flush=True,
                )
    if args.export_store is not None:
        target = open_store(args.export_store)
        copied = copy_store(store, target)
        print(f"exported {copied} shard(s) -> {target.uri}", flush=True)


if __name__ == "__main__":
    # Subcommand dispatch: ``sweep-status`` is a read-only progress
    # report; everything else is the campaign runner's flag interface.
    if len(sys.argv) > 1 and sys.argv[1] == "sweep-status":
        sys.exit(sweep_status(sys.argv[2:]))
    main()
