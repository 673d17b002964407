"""Campaign runner: the paper's §4 experiment design, end to end.

An *experiment* is one full protocol execution (leader rotation
included) for one placement of n terminals + Eve on the testbed grid.
A *campaign* runs one experiment per placement, per group size, and
feeds the reliability/efficiency populations to
:mod:`repro.analysis.stats` — exactly how Figure 2 and the headline
efficiency number were produced.

Two engines run the same campaign design:

* ``engine="packet"`` — the ground-truth oracle: every round goes
  through :class:`~repro.core.session.ProtocolSession`, packet by
  packet, retry by retry.
* ``engine="batched"`` — the :mod:`repro.sim` Monte-Carlo engine: each
  placement's per-pattern link losses are computed analytically
  (:mod:`repro.testbed.pertable` — no probe Monte-Carlo) and fed to a
  slot-aware :class:`~repro.sim.spec.ScheduleLossSpec`, then every
  leader's rounds are simulated as one vectorised batch.  Efficiency
  uses the idealised x+z accounting (control traffic excluded), so
  batched records trade the ledger's bit-exactness for two to three
  orders of magnitude of throughput — while keeping the rotating
  schedule's burstiness that the protocol's secrecy budget feeds on.

Determinism: every experiment derives its RNG stream from a
``SeedSequence`` keyed on (campaign seed, n, placement), so campaigns
are reproducible, individually re-runnable, and — because placements
are independent — shardable across workers with bit-identical results
(``max_workers``), with either engine.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.estimator import EveErasureEstimator
from repro.core.rotation import ExperimentResult, run_experiment
from repro.core.session import SessionConfig
from repro.sim.campaign import ShardWorkerError, _as_store, shard_map
from repro.sim.engine import BatchedRoundEngine
from repro.store.fingerprint import fingerprint
from repro.sim.spec import (
    AdversarySpec,
    EstimatorSpec,
    MatrixLossSpec,
    Scenario,
)
from repro.testbed.deployment import Testbed
from repro.testbed.pertable import (
    draw_positions,
    placement_schedule_specs,
    schedule_loss_table,
)
from repro.testbed.placements import (
    Placement,
    enumerate_placements,
    sample_placements,
)

__all__ = [
    "CampaignConfig",
    "ExperimentRecord",
    "CampaignResult",
    "run_placement_experiment",
    "run_placement_experiment_batched",
    "placement_loss_specs",
    "run_campaign",
    "experiment_store_key",
    "campaign_work_items",
    "campaign_sweep_manifest",
    "placement_label",
]

#: Builds a fresh estimator for a placement (estimators may use the
#: candidate-cell geometry, so they are placement-specific).
EstimatorFactory = Callable[[Testbed, Placement], EveErasureEstimator]


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign-wide parameters.

    Attributes:
        session: protocol configuration shared by all experiments.
        seed: master seed; per-experiment seeds derive from it.
        max_placements_per_n: cap on placements per group size (None
            runs the full 9*C(8,n) enumeration like the paper; smaller
            values sample uniformly for quick runs).
        group_sizes: the n values to sweep (paper: 3..8).
        eve_extra_cells: additional antenna cells for a multi-antenna
            Eve (the paper's §6 threat model); both engines model her
            as capturing a packet when *any* antenna does.  Placements
            whose terminals occupy one of these cells are skipped —
            every node keeps the one-cell-diagonal minimum distance —
            so sweeps stay comparable across engines.
    """

    session: SessionConfig = field(default_factory=SessionConfig)
    seed: int = 2012
    max_placements_per_n: Optional[int] = None
    group_sizes: tuple = (3, 4, 5, 6, 7, 8)
    eve_extra_cells: tuple = ()


@dataclass(frozen=True)
class ExperimentRecord:
    """One experiment's outcome, with enough detail for every figure.

    ``min_entropy_bits`` is the measured residual min-entropy of the
    experiment's secret pool given everything Eve observed, and
    ``leaked_bits`` its complement (``secret_bits - min_entropy_bits``)
    — the measured-secrecy contract.  Records stored before these
    fields existed reconstruct them from the reliability aggregate
    (``reliability * secret_bits``), which is the same quantity up to
    the rounding of the stored quotient.
    """

    n_terminals: int
    placement: Placement
    efficiency: float
    reliability: float
    secret_bits: int
    transmitted_bits: int
    min_entropy_bits: Optional[float] = None
    leaked_bits: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_entropy_bits is None:
            hidden = (
                0.0
                if self.secret_bits <= 0 or math.isnan(self.reliability)
                else self.reliability * self.secret_bits
            )
            object.__setattr__(self, "min_entropy_bits", hidden)
        if self.leaked_bits is None:
            object.__setattr__(
                self,
                "leaked_bits",
                max(float(self.secret_bits) - self.min_entropy_bits, 0.0),
            )

    @property
    def secret_kbps_at_1mbps(self) -> float:
        return self.efficiency * 1e3


@dataclass
class CampaignResult:
    """All experiments of a campaign, grouped by group size."""

    records: list = field(default_factory=list)

    def for_n(self, n: int) -> list:
        return [r for r in self.records if r.n_terminals == n]

    def reliabilities(self, n: int) -> list:
        """Reliability population for Figure 2, NaN records excluded.

        An experiment that produced no secret has no reliability (the
        record carries NaN, not a flattering 1.0); including it would
        bias the campaign mean, so the aggregate views drop it.
        """
        return [
            r.reliability
            for r in self.for_n(n)
            if not math.isnan(r.reliability)
        ]

    def efficiencies(self, n: int) -> list:
        return [r.efficiency for r in self.for_n(n)]

    def secrecy_summary(self, n: int):
        """Measured-secrecy aggregate for one group size (the secrecy
        curve beside Figure 2); zero-secret experiments count as
        excluded, like the NaN-reliability convention."""
        from repro.analysis.stats import SecrecyAccumulator

        acc = SecrecyAccumulator()
        for record in self.for_n(n):
            acc.add_record(record)
        return acc.summary(n)

    def group_sizes(self) -> list:
        return sorted({r.n_terminals for r in self.records})


def _experiment_seed_sequence(
    seed: int, placement: Placement, n: int
) -> np.random.SeedSequence:
    """Per-experiment RNG stream, keyed like the sharded batched runner.

    ``SeedSequence(entropy=seed, spawn_key=...)`` mixes the campaign
    seed with the placement coordinates through splitmix-style hashing:
    deterministic across processes (no ``PYTHONHASHSEED`` dependence)
    and collision-resistant where the old ``abs(hash(key)) % 2**63``
    derivation folded sign pairs into colliding streams.
    """
    spawn_key = (n, placement.eve_cell) + tuple(placement.terminal_cells)
    return np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)


def _experiment_rng(
    config: CampaignConfig, placement: Placement
) -> np.random.Generator:
    """A fresh generator on the experiment's private stream."""
    return np.random.default_rng(
        _experiment_seed_sequence(config.seed, placement, placement.n_terminals)
    )


def run_placement_experiment(
    testbed: Testbed,
    placement: Placement,
    estimator_factory: EstimatorFactory,
    config: CampaignConfig,
) -> ExperimentRecord:
    """Run one experiment (full rotation) on one placement."""
    rng = _experiment_rng(config, placement)
    medium, names = testbed.build_medium(
        placement, rng, eve_extra_cells=config.eve_extra_cells
    )
    estimator = estimator_factory(testbed, placement)
    result: ExperimentResult = run_experiment(
        medium, names, estimator, rng, config=config.session
    )
    # Campaign-record convention, shared with the batched engine: an
    # experiment that produced no secret has no reliability (NaN; the
    # session-level metric keeps its own 0-bit convention of 1.0).
    reliability = (
        float("nan") if result.secret_bits <= 0 else result.reliability
    )
    # Measured secrecy, taken from the per-round oracle reports rather
    # than back-computed from the reliability quotient: exact dims.
    hidden_dims = sum(r.leakage.hidden_dims for r in result.rounds)
    min_entropy_bits = float(hidden_dims * config.session.payload_bytes * 8)
    return ExperimentRecord(
        n_terminals=placement.n_terminals,
        placement=placement,
        efficiency=result.efficiency,
        reliability=reliability,
        secret_bits=result.secret_bits,
        transmitted_bits=result.metrics.transmitted_bits,
        min_entropy_bits=min_entropy_bits,
        leaked_bits=max(float(result.secret_bits) - min_entropy_bits, 0.0),
    )


def placement_loss_specs(
    testbed: Testbed,
    placement: Placement,
    rng: np.random.Generator,
    probe_trials: int = 120,
) -> list:
    """Legacy probe bridge: pattern-averaged IID specs (diagnostics only).

    Probes every directed link by Monte-Carlo and *averages loss across
    the rotating interference patterns* into per-leader
    :class:`~repro.sim.spec.MatrixLossSpec`s — erasing the slot-level
    burstiness the schedule engineers.  The campaign path now uses the
    analytic slot-aware bridge
    (:func:`repro.testbed.pertable.placement_schedule_specs`); this
    survives for cross-checking the marginals against it.
    """
    probe = testbed.link_loss_probe(placement, rng, trials=probe_trials)
    n_patterns = testbed.interference.n_patterns()
    names = [f"T{i}" for i in range(placement.n_terminals)]

    def mean_loss(src: str, dst: str) -> float:
        return float(
            np.mean([probe[(src, dst, k)] for k in range(n_patterns)])
        )

    specs = []
    for leader in names:
        receivers = [t for t in names if t != leader]
        probs = tuple(mean_loss(leader, dst) for dst in receivers) + (
            mean_loss(leader, "eve"),
        )
        specs.append(MatrixLossSpec(probabilities=probs))
    return specs


def run_placement_experiment_batched(
    testbed: Testbed,
    placement: Placement,
    estimator_spec: EstimatorSpec,
    config: CampaignConfig,
    rounds_per_leader: int = 8,
    prefetched: Optional[Callable[[], tuple]] = None,
) -> ExperimentRecord:
    """Batched counterpart of :func:`run_placement_experiment`.

    One experiment still rotates the leader across every terminal, but
    each leader's rounds run as a single vectorised batch on the
    analytic slot-aware loss schedule
    (:func:`repro.testbed.pertable.placement_schedule_specs`), so the
    rotating interference's per-pattern burstiness reaches the
    subset-lattice accounting.  Reliability aggregates like the ledger
    metric (secret-length-weighted) and is NaN when the experiment
    produced no secret at all — campaign aggregates exclude those
    records instead of counting them as perfectly reliable.  Efficiency
    uses the idealised x+z accounting.  ``prefetched`` is passed on to
    :func:`~repro.testbed.pertable.placement_schedule_specs` (a table
    :func:`run_campaign`'s helper process built for this placement).
    """
    rng = _experiment_rng(config, placement)
    session = config.session
    specs = placement_schedule_specs(
        testbed,
        placement,
        rng,
        payload_bytes=session.payload_bytes,
        eve_extra_cells=config.eve_extra_cells,
        prefetched=prefetched,
    )
    adversary = AdversarySpec(antennas=1 + len(config.eve_extra_cells))
    total_secret = 0.0
    total_hidden = 0.0
    total_secret_bits = 0
    total_transmitted = 0.0
    for loss_spec in specs:
        scenario = Scenario(
            n_terminals=placement.n_terminals,
            loss=loss_spec,
            adversary=adversary,
            estimator=estimator_spec,
            n_x_packets=session.n_x_packets,
            rounds=rounds_per_leader,
            payload_bytes=session.payload_bytes,
            z_cost_factor=session.z_cost_factor,
            secrecy_slack=session.secrecy_slack,
            max_subset_size=session.max_subset_size,
        )
        batch = BatchedRoundEngine(scenario, rng=rng).run()
        total_secret += float(batch.secret_packets.sum())
        total_hidden += float(batch.hidden_dims.sum())
        total_secret_bits += batch.secret_bits
        total_transmitted += float(
            (session.n_x_packets + batch.public_packets).sum()
        )
    reliability = (
        float("nan") if total_secret <= 0 else total_hidden / total_secret
    )
    transmitted_bits = int(total_transmitted * session.payload_bytes * 8)
    eff = 0.0 if transmitted_bits == 0 else total_secret_bits / transmitted_bits
    min_entropy_bits = total_hidden * session.payload_bytes * 8
    return ExperimentRecord(
        n_terminals=placement.n_terminals,
        placement=placement,
        efficiency=eff,
        reliability=reliability,
        secret_bits=total_secret_bits,
        transmitted_bits=transmitted_bits,
        min_entropy_bits=min_entropy_bits,
        leaked_bits=max(float(total_secret_bits) - min_entropy_bits, 0.0),
    )


def experiment_store_key(
    testbed: Testbed,
    config: CampaignConfig,
    engine: str,
    estimator,
    placement: Placement,
    rounds_per_leader: Optional[int] = None,
) -> str:
    """Content-hashed store shard key for one placement experiment.

    Everything that determines the experiment's outcome is in the hash:
    the testbed configuration, the session/campaign parameters, the
    engine, the estimator (a declarative spec, or a factory identified
    by its dotted qualname plus instance state — factories should be
    module-level callables so the identity is stable), the placement,
    and — batched engine only — the per-leader batch size.  Reruns of
    the same campaign dedupe onto the same shard; any change that could
    alter the result changes the key.
    """
    return fingerprint(
        {
            "kind": "testbed-experiment",
            "engine": engine,
            "seed": config.seed,
            "session": config.session,
            "testbed": testbed.config,
            "eve_extra_cells": tuple(config.eve_extra_cells),
            "estimator": estimator,
            "placement": placement,
            "rounds_per_leader": (
                rounds_per_leader if engine == "batched" else None
            ),
        }
    )


def placement_label(placement: Placement) -> str:
    """Human-readable name for one placement (error messages, status)."""
    return (
        f"placement(n={placement.n_terminals}, "
        f"eve={placement.eve_cell}, cells={placement.terminal_cells})"
    )


def campaign_work_items(config: CampaignConfig) -> list:
    """The campaign's work list: ``(n, placement)`` pairs, in sweep order.

    Deterministic for a given config (the sampler is seeded by
    ``config.seed``), which is what lets independent worker processes
    rebuild the identical list and agree with a saved manifest.
    """
    sample_rng = np.random.default_rng(config.seed)
    blocked = set(config.eve_extra_cells)
    work: list = []
    for n in config.group_sizes:
        if config.max_placements_per_n is None:
            placements: Sequence[Placement] = list(enumerate_placements(n))
        else:
            placements = sample_placements(
                n, config.max_placements_per_n, sample_rng
            )
        work.extend(
            (n, placement)
            for placement in placements
            if blocked.isdisjoint(placement.terminal_cells)
        )
    return work


def campaign_sweep_manifest(
    testbed: Testbed,
    name: str,
    config: Optional[CampaignConfig] = None,
    engine: str = "packet",
    estimator_factory: Optional[EstimatorFactory] = None,
    estimator_spec: Optional[EstimatorSpec] = None,
    rounds_per_leader: int = 8,
):
    """Describe a testbed campaign as a :class:`~repro.store.SweepManifest`.

    One entry per placement experiment, in campaign order: the
    experiment's content-hashed shard key
    (:func:`experiment_store_key` — engine, estimator identity and
    session sizing all inside the hash) plus the encoded placement.
    Built, not saved; ``manifest.save(store)`` persists it atomically
    next to the shards.
    """
    from repro.store.manifest import ManifestEntry, SweepManifest
    from repro.store.records import encode_spec

    if engine not in ("packet", "batched"):
        raise ValueError(f"unknown engine {engine!r}")
    config = config if config is not None else CampaignConfig()
    identity = estimator_spec if engine == "batched" else estimator_factory
    if identity is None:
        raise ValueError(
            "the packet engine needs an estimator_factory"
            if engine == "packet"
            else "the batched engine needs an estimator_spec"
        )
    entries = tuple(
        ManifestEntry(
            key=experiment_store_key(
                testbed, config, engine, identity, placement, rounds_per_leader
            ),
            spec=encode_spec(placement),
            label=placement_label(placement),
        )
        for _, placement in campaign_work_items(config)
    )
    return SweepManifest(
        name=name,
        entries=entries,
        kind="testbed-campaign",
        meta={
            "engine": engine,
            "seed": config.seed,
            "group_sizes": list(config.group_sizes),
            "rounds_per_leader": (
                rounds_per_leader if engine == "batched" else None
            ),
        },
    )


def _table_helper_selected(n_pending: int) -> bool:
    """Whether a serial batched campaign builds PER tables on a helper.

    Decided from observable facts only.  The caller must be the main
    thread of a process multiprocessing did not start, with no live
    multiprocessing children: any other caller is a worker of a
    sharded campaign (a thread or process pool, or a queue worker of
    ``--workers-per-host``), or the parent of such workers, whose peers
    already keep the CPUs busy.  At least two CPUs must be usable,
    ``fork`` must be the default start method (the helper inherits the
    loaded program instead of importing it again), and at least two
    experiments must be pending (the first table is always built
    in-line).
    """
    if (
        n_pending < 2
        or threading.current_thread() is not threading.main_thread()
        or multiprocessing.parent_process() is not None
        or multiprocessing.active_children()
    ):
        return False
    start_method = multiprocessing.get_start_method(allow_none=True)
    if (start_method or multiprocessing.get_all_start_methods()[0]) != "fork":
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _prefetch_table(
    testbed: Testbed, placement: Placement, config: CampaignConfig
) -> tuple:
    """The helper's job: ``(positions, table)`` for one placement.

    The jitter comes from a twin of the generator
    :func:`run_placement_experiment_batched` makes for the placement,
    through the same :func:`~repro.testbed.pertable.draw_positions`,
    so the experiment's own draw lands on exactly these positions.
    """
    positions = draw_positions(
        testbed, placement, _experiment_rng(config, placement),
        config.eve_extra_cells,
    )
    return positions, schedule_loss_table(
        testbed, *positions, payload_bytes=config.session.payload_bytes
    )


class _TablePrefetcher:
    """PER tables of a serial batched campaign's upcoming placements.

    ``placements`` is the order the experiments are expected to run in:
    the pending work list, or a manifest's pending keys in sweep order
    (the order the work queue hands them out).  One helper process,
    forked at the first :meth:`table_for` call, is handed every table
    after that placement's at once and builds them in order while the
    running experiments' rounds use this process's core.  :meth:`close`
    ends it.
    """

    def __init__(
        self, testbed: Testbed, config: CampaignConfig, placements: list
    ) -> None:
        self._job = functools.partial(_prefetch_table, testbed, config=config)
        self._placements = placements
        self._futures: dict = {}
        self._pool: Optional[ProcessPoolExecutor] = None

    def table_for(self, placement: Placement) -> Optional[Callable[[], tuple]]:
        """The ``prefetched`` source of ``placement``'s table.

        Returns None when the helper was not handed the table (the
        first placement, or one run out of order): build it in-line.
        Tables queued before it are cancelled: in a manifest sweep,
        peers ran those placements.  The source raises
        :class:`ShardWorkerError` naming ``placement`` if the helper
        died before building its table.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                1, mp_context=multiprocessing.get_context("fork")
            )
            start = self._placements.index(placement) + 1
            for ahead in self._placements[start:]:
                try:
                    self._futures[ahead] = self._pool.submit(self._job, ahead)
                except BrokenProcessPool:
                    break  # the tables already handed out raise in fetch
            return None
        if placement not in self._futures:
            return None
        for queued in list(self._futures):
            future = self._futures.pop(queued)
            if queued == placement:
                break
            future.cancel()
        label = placement_label(placement)

        def fetch() -> tuple:
            try:
                return future.result()
            except BrokenProcessPool as exc:
                raise _helper_failed(label, exc) from exc

        return fetch

    def close(self) -> None:
        """Cancel the queued tables and wait for the helper to exit."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)


def _start_table_helper(
    testbed: Testbed,
    config: CampaignConfig,
    engine: str,
    max_workers: Optional[int],
    upcoming: list,
) -> Optional[_TablePrefetcher]:
    """The PER-table helper of a serial batched campaign, if selected."""
    if engine != "batched" or (max_workers or 1) > 1:
        return None
    if not _table_helper_selected(len(upcoming)):
        return None
    return _TablePrefetcher(testbed, config, upcoming)


def _helper_failed(label: str, exc: BaseException) -> ShardWorkerError:
    return ShardWorkerError(
        f"PER-table helper failed on {label}: {type(exc).__name__}: {exc}"
    )


def run_campaign(
    testbed: Testbed,
    estimator_factory: Optional[EstimatorFactory] = None,
    config: Optional[CampaignConfig] = None,
    progress: Optional[Callable[[int, Placement], None]] = None,
    engine: str = "packet",
    estimator_spec: Optional[EstimatorSpec] = None,
    rounds_per_leader: int = 8,
    max_workers: Optional[int] = None,
    executor: str = "auto",
    store=None,
    resume: bool = True,
    manifest=None,
    lease_timeout: Optional[float] = None,
    poll_interval: float = 0.05,
) -> CampaignResult:
    """Run the full campaign across group sizes and placements.

    Placements are independent experiments with ``SeedSequence``-derived
    private RNG streams, so sharding them across workers is bit-identical
    to the serial run at a fixed seed — for the per-packet oracle too,
    whose 9·C(8,n)-experiment campaigns are the expensive ones.

    A serial batched campaign (``max_workers`` None or 1, manifest mode
    included) may build the PER tables of the upcoming placements on
    one helper process while the running placement's rounds use this
    one's core.  It does so only in the main thread of a process
    multiprocessing did not start and that has no live multiprocessing
    children, with at least two usable CPUs, ``fork`` as the default
    start method and at least two pending experiments
    (:func:`_table_helper_selected`).  The helper starts inside the
    first experiment and is shut down, its queued tables cancelled,
    before this call returns or raises.  Records and stored bytes are identical either way; a
    helper that dies raises
    :class:`~repro.sim.campaign.ShardWorkerError` naming the placement
    whose table it owed.

    Args:
        testbed: the deployment.
        estimator_factory: builds the per-placement estimator (packet
            engine; may be None when ``engine="batched"``).
        config: campaign parameters.
        progress: optional callback invoked before each experiment (at
            submission time when sharded).
        engine: ``"packet"`` (per-packet ground truth) or ``"batched"``
            (the :mod:`repro.sim` engine).
        estimator_spec: declarative estimator policy (batched engine).
        rounds_per_leader: batch size per leader (batched engine).
        max_workers: shard placements across this many workers; None or
            1 runs serially (identical records either way).
        executor: ``"thread"``, ``"process"``, or ``"auto"`` (default:
            process pool at or above
            :data:`~repro.sim.campaign.PROCESS_POOL_ITEM_THRESHOLD`
            pending experiments — everything shipped to the pool must
            then pickle, which the reference factories do).
        store: optional :class:`repro.store.CampaignStore` (or a
            directory path): every completed experiment is durably
            appended to its content-keyed shard as it finishes.
        resume: with a store, load already-completed experiments
            instead of re-running them (default); the assembled
            :class:`CampaignResult` is bit-identical to an
            uninterrupted run.  ``False`` re-runs everything and
            supersedes the stored records.
        manifest: a sweep name (or a :class:`~repro.store.SweepManifest`)
            to drain through the crash-safe work queue instead of the
            private resume path — requires a store.  The campaign's
            work list is saved as the named manifest (or validated
            against the existing one), and this call becomes one
            *worker* of the sweep: any number of concurrent callers on
            one host or a shared filesystem drain it together, dead
            workers' leases expire and are reclaimed, and every caller
            returns the complete result, bit-identical to a serial run.
            Completion is judged by the store's shards, so manifest
            mode rejects ``resume=False``.
        lease_timeout / poll_interval: work-queue tuning for manifest
            mode (see :class:`repro.store.WorkQueue`).
    """
    if engine not in ("packet", "batched"):
        raise ValueError(f"unknown engine {engine!r}")
    config = config if config is not None else CampaignConfig()
    store = _as_store(store)
    if engine == "packet":
        if estimator_factory is None:
            raise ValueError("the packet engine needs an estimator_factory")
        if estimator_spec is not None:
            raise ValueError(
                "estimator_spec belongs to the batched engine; the packet "
                "engine would silently ignore it"
            )
        run_one = functools.partial(
            run_placement_experiment,
            testbed,
            estimator_factory=estimator_factory,
            config=config,
        )
    else:
        if estimator_spec is None:
            raise ValueError("the batched engine needs an estimator_spec")
        if estimator_factory is not None:
            raise ValueError(
                "estimator_factory belongs to the packet engine; the batched "
                "engine would silently ignore it"
            )
        run_one = functools.partial(
            run_placement_experiment_batched,
            testbed,
            estimator_spec=estimator_spec,
            config=config,
            rounds_per_leader=rounds_per_leader,
        )
    work = campaign_work_items(config)

    estimator_identity = (
        estimator_spec if engine == "batched" else estimator_factory
    )

    def key_for(placement: Placement) -> str:
        return experiment_store_key(
            testbed, config, engine, estimator_identity, placement,
            rounds_per_leader,
        )

    prefetch: Optional[_TablePrefetcher] = None

    def run_item(placement: Placement) -> ExperimentRecord:
        if prefetch is None:
            return run_one(placement)
        return run_one(placement, prefetched=prefetch.table_for(placement))

    if manifest is not None:
        # Multi-host sweep mode: this call is one worker of a named
        # sweep.  Claim pending experiments through the lease queue,
        # run each claimed batch through shard_map (persisting via the
        # on_result hook the moment each worker finishes), release,
        # and poll until every manifest key has a complete record —
        # peers' records arrive through the store, dead peers' leases
        # come back through expiry.
        if store is None:
            raise ValueError("manifest mode needs a store")
        if not resume:
            raise ValueError(
                "manifest mode judges completion by the store's shards and "
                "cannot re-run finished work; resume=False is incompatible "
                "(re-run a changed campaign under a new manifest name, or "
                "delete the shards)"
            )
        from repro.store.manifest import SweepManifest
        from repro.store.queue import (
            DEFAULT_LEASE_TIMEOUT,
            WorkQueue,
            drain_manifest,
        )
        from repro.store.records import experiment_record_from_json

        built = campaign_sweep_manifest(
            testbed,
            manifest if isinstance(manifest, str) else manifest.name,
            config=config,
            engine=engine,
            estimator_factory=estimator_factory,
            estimator_spec=estimator_spec,
            rounds_per_leader=rounds_per_leader,
        )
        if isinstance(manifest, SweepManifest) and manifest.keys() != built.keys():
            raise ValueError(
                f"manifest {manifest.name!r} does not describe this "
                "campaign's work (different testbed/config/engine/"
                "estimator?)"
            )
        existing = SweepManifest.load(store, built.name, missing_ok=True)
        if existing is not None and existing.keys() != built.keys():
            raise ValueError(
                f"manifest {built.name!r} already describes a different "
                "sweep; use a new name"
            )
        sweep = existing if existing is not None else built.save(store)

        from repro.store.records import experiment_record_to_json

        # The manifest already carries every shard key in work order —
        # reuse it everywhere below instead of recomputing a single
        # content hash.
        work_keys = sweep.keys()
        by_key = dict(zip(work_keys, work))
        key_of = {placement: key for key, (_, placement) in by_key.items()}

        def persist_record(placement: Placement, record: ExperimentRecord) -> None:
            store.append(key_of[placement], experiment_record_to_json(record))

        def run_keys(keys) -> None:
            batch = [by_key[key] for key in keys]
            if progress is not None:
                for n, placement in batch:
                    progress(n, placement)
            shard_map(
                run_item,
                [placement for _, placement in batch],
                max_workers=max_workers,
                executor=executor,
                label=placement_label,
                on_result=lambda placement, record: persist_record(
                    placement, record
                ),
            )

        queue = WorkQueue(
            store,
            sweep,
            lease_timeout=(
                DEFAULT_LEASE_TIMEOUT if lease_timeout is None else lease_timeout
            ),
        )
        # A single worker's queue hands out the pending keys in sweep
        # order, so the helper builds their tables in that order.
        prefetch = _start_table_helper(
            testbed, config, engine, max_workers,
            [by_key[key][1] for key in queue.pending()],
        )
        try:
            drain_manifest(
                queue,
                run_keys,
                batch_size=max(1, max_workers or 1),
                poll_interval=poll_interval,
            )
        finally:
            if prefetch is not None:
                prefetch.close()
        return CampaignResult(
            records=[
                experiment_record_from_json(store.load(key))
                for key in work_keys
            ]
        )

    # Checkpoint/resume: load finished experiments from the store, run
    # only the rest, and persist each fresh record the moment its
    # worker completes.  Records are assembled in work order from both
    # sources, so a resumed campaign is bit-identical to an
    # uninterrupted one.
    records: list = [None] * len(work)
    pending: list = []
    if store is not None and resume:
        from repro.store.records import experiment_record_from_json

        for index, (_, placement) in enumerate(work):
            stored = store.load(key_for(placement))
            if stored is not None:
                records[index] = experiment_record_from_json(stored)
            else:
                pending.append(index)
    else:
        pending = list(range(len(work)))
    pending_work = [work[index] for index in pending]

    persist = None
    if store is not None:
        from repro.store.records import experiment_record_to_json

        def persist(placement: Placement, record: ExperimentRecord) -> None:
            store.append(
                key_for(placement), experiment_record_to_json(record)
            )

    if max_workers is None or max_workers <= 1:
        prefetch = _start_table_helper(
            testbed, config, engine, max_workers,
            [placement for _, placement in pending_work],
        )

        # Serial: fire progress just before each experiment, as before.
        def run_with_progress(item):
            n, placement = item
            if progress is not None:
                progress(n, placement)
            return run_item(placement)

        try:
            results = shard_map(
                run_with_progress,
                pending_work,
                max_workers=max_workers,
                executor=executor,
                label=lambda item: placement_label(item[1]),
                on_result=(
                    None
                    if persist is None
                    else lambda item, record: persist(item[1], record)
                ),
            )
        finally:
            if prefetch is not None:
                prefetch.close()
    else:
        if progress is not None:
            for n, placement in pending_work:
                progress(n, placement)
        results = shard_map(
            run_one,
            [placement for _, placement in pending_work],
            max_workers=max_workers,
            executor=executor,
            label=placement_label,
            on_result=persist,
        )
    for index, record in zip(pending, results):
        records[index] = record
    return CampaignResult(records=records)
