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
  (:mod:`repro.testbed.pertable`, from the same link model and jitter
  draw as the per-packet medium) and fed to a slot-aware
  :class:`~repro.sim.spec.ScheduleLossSpec`, then every
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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.estimator import EveErasureEstimator
from repro.core.rotation import ExperimentResult, run_experiment
from repro.core.session import SessionConfig
from repro.sim import campaign as sim_campaign
from repro.sim.campaign import ShardPool, ShardWorkerError, _as_store
from repro.sim.engine import BatchedRoundEngine, planning_profile
from repro.store.fingerprint import fingerprint
from repro.sim.spec import AdversarySpec, EstimatorSpec, Scenario
from repro.testbed.deployment import Testbed
from repro.testbed.pertable import (
    leader_schedule_specs,
    placement_schedule_specs,
    schedule_loss_table,
)
from repro.testbed.placements import (
    Placement,
    enumerate_placements,
    sample_placements,
)
from repro.theory.efficiency import adopt_allocation_profile

__all__ = [
    "CampaignConfig",
    "ExperimentRecord",
    "CampaignResult",
    "run_placement_experiment",
    "run_placement_experiment_batched",
    "run_campaign",
    "experiment_store_key",
    "campaign_work_items",
    "campaign_sweep_manifest",
    "placement_label",
]

#: Builds a fresh estimator for a placement (estimators may use the
#: candidate-cell geometry, so they are placement-specific).
EstimatorFactory = Callable[[Testbed, Placement], EveErasureEstimator]

#: The manifest kind of a testbed campaign sweep.
_TESTBED_KIND = "testbed-campaign"


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
    ``leaked_bits`` its complement — the measured-secrecy contract.
    Every record carries ``min_entropy_bits``; the store's decoder
    refuses a stored record that lacks it (it predates measured
    secrecy and must be re-run with ``resume=False``).
    """

    n_terminals: int
    placement: Placement
    efficiency: float
    reliability: float
    secret_bits: int
    transmitted_bits: int
    min_entropy_bits: float

    @property
    def leaked_bits(self) -> float:
        """Bits of the secret Eve's observations determine."""
        return max(float(self.secret_bits) - self.min_entropy_bits, 0.0)


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
    )


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
    total_secret = 0.0
    total_hidden = 0.0
    total_secret_bits = 0
    total_transmitted = 0.0
    for scenario in _leader_scenarios(
        placement, specs, estimator_spec, config, rounds_per_leader
    ):
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
    )


def _leader_scenarios(
    placement: Placement,
    specs: list,
    estimator_spec: EstimatorSpec,
    config: CampaignConfig,
    rounds_per_leader: int,
) -> list:
    """One :class:`~repro.sim.spec.Scenario` per leader's loss spec."""
    session = config.session
    adversary = AdversarySpec(antennas=1 + len(config.eve_extra_cells))
    return [
        Scenario(
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
        for loss_spec in specs
    ]


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
    from repro.store.queue import sweep_manifest

    _, work, meta = _campaign_sweep(
        testbed,
        config if config is not None else CampaignConfig(),
        engine,
        estimator_factory,
        estimator_spec,
        rounds_per_leader,
    )
    return sweep_manifest(name, work, _TESTBED_KIND, meta)


def _campaign_sweep(
    testbed: Testbed,
    config: CampaignConfig,
    engine: str,
    estimator_factory: Optional[EstimatorFactory],
    estimator_spec: Optional[EstimatorSpec],
    rounds_per_leader: int,
) -> tuple:
    """The campaign as :func:`repro.store.queue.run_sweep` takes it.

    Returns the per-placement experiment of ``engine`` (refusing a
    missing estimator, or one the engine would silently ignore), the
    work list (one ``(key, placement, spec, label)`` per experiment, in
    campaign order), and the provenance its manifest records.
    """
    from repro.store.records import encode_spec

    if engine == "packet":
        if estimator_factory is None:
            raise ValueError("the packet engine needs an estimator_factory")
        if estimator_spec is not None:
            raise ValueError(
                "estimator_spec belongs to the batched engine; the packet "
                "engine would silently ignore it"
            )
        identity = estimator_factory
        run_one = functools.partial(
            run_placement_experiment,
            testbed,
            estimator_factory=estimator_factory,
            config=config,
        )
    elif engine == "batched":
        if estimator_spec is None:
            raise ValueError("the batched engine needs an estimator_spec")
        if estimator_factory is not None:
            raise ValueError(
                "estimator_factory belongs to the packet engine; the batched "
                "engine would silently ignore it"
            )
        identity = estimator_spec
        run_one = functools.partial(
            run_placement_experiment_batched,
            testbed,
            estimator_spec=estimator_spec,
            config=config,
            rounds_per_leader=rounds_per_leader,
        )
    else:
        raise ValueError(f"unknown engine {engine!r}")
    work = [
        (
            experiment_store_key(
                testbed, config, engine, identity, placement,
                rounds_per_leader,
            ),
            placement,
            encode_spec(placement),
            placement_label(placement),
        )
        for _, placement in campaign_work_items(config)
    ]
    meta = {
        "engine": engine,
        "seed": config.seed,
        "group_sizes": list(config.group_sizes),
        "rounds_per_leader": rounds_per_leader if engine == "batched" else None,
    }
    return run_one, work, meta


def _prefetch_table(
    testbed: Testbed,
    placement: Placement,
    config: CampaignConfig,
    estimator_spec: Optional[EstimatorSpec] = None,
    rounds_per_leader: int = 8,
) -> tuple:
    """The helper's job: ``(positions, table, profiles)`` for a placement.

    The jitter comes from a twin of the generator
    :func:`run_placement_experiment_batched` makes for the placement,
    through the same
    :meth:`~repro.testbed.deployment.Testbed.draw_positions`, so the
    experiment's own draw lands on exactly these positions.
    With an ``estimator_spec``, ``profiles`` holds every leader's
    planning LP as :func:`~repro.sim.engine.planning_profile` returns
    it, ``(arguments, profile)``, on the scenarios the experiment will
    build from this table; without one it is empty.
    """
    positions = testbed.draw_positions(
        placement, _experiment_rng(config, placement), config.eve_extra_cells
    )
    terminals, antennas = positions
    table = schedule_loss_table(
        testbed, terminals, terminals + antennas, config.session.payload_bytes
    )
    if estimator_spec is None:
        return positions, table, ()
    scenarios = _leader_scenarios(
        placement,
        leader_schedule_specs(testbed, placement, table),
        estimator_spec,
        config,
        rounds_per_leader,
    )
    return positions, table, tuple(planning_profile(s) for s in scenarios)


class _TablePrefetcher:
    """PER tables and planning LPs of a serial batched campaign's
    upcoming placements.

    ``placements`` is the order the experiments are expected to run in:
    the pending work list, or a manifest's pending keys in sweep order
    (the order the work queue hands them out).  One helper process,
    forked at the first :meth:`table_for` call, is handed every
    placement after that one at once and runs :func:`_prefetch_table`
    on each in order while the running experiments' rounds use this
    process's core: it builds the PER table and, given the ``job``
    keywords ``estimator_spec`` and ``rounds_per_leader``, solves each
    leader's planning LP.  A fetched table's profiles are adopted into
    this process's level-LP memo under the arguments they were solved
    for, so the leaders' accounting finds them there.  :meth:`close`
    ends the helper.
    """

    def __init__(
        self,
        testbed: Testbed,
        config: CampaignConfig,
        placements: list,
        **job,
    ) -> None:
        self._job = functools.partial(
            _prefetch_table, testbed, config=config, **job
        )
        self._placements = placements
        self._futures: dict = {}
        self._pool: Optional[ProcessPoolExecutor] = None

    def table_for(self, placement: Placement) -> Optional[Callable[[], tuple]]:
        """The ``prefetched`` source of ``placement``'s table.

        Returns None when the helper was not handed the table (the
        first placement, or one run out of order): build it in-line.
        Tables queued before it are cancelled: in a manifest sweep,
        peers ran those placements.  The source returns
        ``(positions, table)`` after adopting the placement's planning
        profiles; it raises :class:`ShardWorkerError` naming
        ``placement`` if the helper died before building its table.
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
                positions, table, profiles = future.result()
            except BrokenProcessPool as exc:
                raise _helper_failed(label, exc) from exc
            for arguments, profile in profiles:
                adopt_allocation_profile(profile, **arguments)
            return positions, table

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
    estimator_spec: Optional[EstimatorSpec],
    rounds_per_leader: int,
) -> Optional[_TablePrefetcher]:
    """The PER-table helper of a serial batched campaign, if selected."""
    if engine != "batched" or (max_workers or 1) > 1:
        return None
    if not sim_campaign._second_process_selected(len(upcoming)):
        return None
    return _TablePrefetcher(
        testbed, config, upcoming,
        estimator_spec=estimator_spec, rounds_per_leader=rounds_per_leader,
    )


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

    The work list runs through the store's sweep driver,
    :func:`repro.store.queue.run_sweep` (resume scan, manifest
    define-and-drain, assembly in work order); this function brings
    the placements, a runner that persists each record with one
    ``store.append`` as it finishes, and the record decoder.  A
    campaign that lists one placement twice (a repeated group size) is
    refused before anything runs.

    A serial batched campaign (``max_workers`` None or 1, manifest mode
    included) may build the PER tables of the upcoming placements, and
    solve their leaders' planning LPs, on one helper process while the
    running placement's rounds use this one's core.  It does so only in
    the main thread of a process multiprocessing did not start and that
    has no live multiprocessing children, with at least two usable
    CPUs, ``fork`` as the start method (set, or available when none was
    set) and at least two pending experiments
    (:func:`repro.sim.campaign._second_process_selected`, the rule a
    serial :class:`~repro.sim.CampaignRunner`'s twin follows too).  The
    helper starts inside the
    first experiment and is shut down, its queued tables cancelled,
    before this call returns or raises.  Records and stored bytes are
    identical either way; a helper that dies raises
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
        max_workers: shard placements across a process pool of this
            many workers, one pool per call
            (:class:`~repro.sim.campaign.ShardPool`); None or 1 runs
            serially (identical records either way).  Sharded,
            everything shipped to the pool must pickle — the testbed,
            the config and the estimator (``estimator_spec``, or an
            ``estimator_factory`` defined at module level, as the
            reference factories are) — while ``progress`` and every
            store call stay in this process.
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
            resume scan — requires a store.  The campaign's work list
            is saved as the named manifest (refused when a saved one,
            or the object passed, has other content), and this call
            becomes one
            *worker* of the sweep: any number of concurrent callers on
            one host or a shared filesystem drain it together, dead
            workers' leases expire and are reclaimed, and every caller
            returns the complete result, bit-identical to a serial run.
            Completion is judged by the store's shards, so manifest
            mode rejects ``resume=False``.
        lease_timeout / poll_interval: work-queue tuning for manifest
            mode (see :class:`repro.store.WorkQueue`).
    """
    from repro.store.queue import run_sweep
    from repro.store.records import (
        experiment_record_from_json,
        experiment_record_to_json,
    )

    config = config if config is not None else CampaignConfig()
    run_one, work, meta = _campaign_sweep(
        testbed, config, engine, estimator_factory, estimator_spec,
        rounds_per_leader,
    )
    store = _as_store(store)
    shards = ShardPool(max_workers)
    prefetch: Optional[_TablePrefetcher] = None

    def start_workers(pending: list) -> None:
        nonlocal prefetch
        shards.start(len(pending))
        prefetch = _start_table_helper(
            testbed, config, engine, max_workers,
            [placement for _, placement, _, _ in pending],
            estimator_spec, rounds_per_leader,
        )

    def run_serial(placement: Placement) -> ExperimentRecord:
        # Serial: fire progress just before each experiment.
        if progress is not None:
            progress(placement.n_terminals, placement)
        if prefetch is None:
            return run_one(placement)
        return run_one(placement, prefetched=prefetch.table_for(placement))

    def run_pending(pending: list) -> list:
        placements = [placement for _, placement, _, _ in pending]
        persist = None
        if store is not None:
            key_of = {placement: key for key, placement, _, _ in pending}

            def persist(placement: Placement, record: ExperimentRecord) -> None:
                store.append(key_of[placement], experiment_record_to_json(record))

        if max_workers is None or max_workers <= 1:
            run = run_serial
        else:  # sharded: fire progress at submission
            if progress is not None:
                for placement in placements:
                    progress(placement.n_terminals, placement)
            run = run_one
        return shards.map(
            run,
            placements,
            label=placement_label,
            on_result=persist,
        )

    try:
        records = run_sweep(
            store,
            work,
            run_pending,
            experiment_record_from_json,
            kind=_TESTBED_KIND,
            meta=meta,
            resume=resume,
            manifest=manifest,
            batch_size=max(1, max_workers or 1),
            lease_timeout=lease_timeout,
            poll_interval=poll_interval,
            prepare=start_workers,
        )
    finally:
        shards.close()
        if prefetch is not None:
            prefetch.close()
    return CampaignResult(records=records)
