"""Campaign sweeps over declarative scenario matrices.

A :class:`ScenarioGrid` is the cartesian product of the axes the paper
sweeps — group size, loss model, adversary shape, estimator policy —
expanded into concrete :class:`~repro.sim.spec.Scenario` cells.  The
:class:`CampaignRunner` executes every cell on the batched engine,
optionally sharding groups of cells across one process pool per run
(:class:`ShardPool`); the planner's hot loops are pure Python, so only
separate processes run them in parallel, each with its own LP memo
(a cell's flow plans are memoised in the cell, in any process).  A
serial runner may still put a second CPU to work: it runs half of
each large enough stacked group on a forked twin
(:func:`_run_group_split`) when :func:`_second_process_selected`, the
rule the testbed campaign's PER-table helper follows too, allows it.

Determinism: each cell's generator derives from
``SeedSequence(entropy=campaign_seed, spawn_key=content-hash(cell))``
(:func:`repro.store.fingerprint.fingerprint_spawn_key`), so a cell's
results depend only on the campaign seed and the cell's own spec — not
on grid order or worker count.  That content keying is also what
makes the persistent store resumable: a shard written while sweeping
one grid stays valid when the grid later grows.

Checkpoint/resume: pass ``store=`` (a
:class:`repro.store.CampaignStore` or a directory path) and every
completed group of stacked cells is durably appended, one record per
cell to its content-keyed JSONL shard, the moment its worker finishes;
a re-run with ``resume=True`` (the default) loads finished cells
instead of recomputing them and ends bit-identical to an
uninterrupted run.  The store side of every run — resume scan,
manifest define-and-drain, assembly in cell order — is the store's
sweep driver, :func:`repro.store.queue.run_sweep`.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.sim.engine import BatchResult, planning_profile
from repro.sim.stack import group_cells, run_stacked_batch
from repro.sim.spec import (
    AdversarySpec,
    EstimatorSpec,
    IIDLossSpec,
    LossSpec,
    OracleEstimatorSpec,
    Scenario,
)
from repro.store.fingerprint import fingerprint, fingerprint_spawn_key

__all__ = [
    "shard_map",
    "ShardPool",
    "ShardWorkerError",
    "ScenarioGrid",
    "ScenarioOutcome",
    "SimCampaignResult",
    "CampaignRunner",
]

#: The manifest kind of a scenario-grid sweep.
_SIM_KIND = "sim-grid"


class ShardWorkerError(RuntimeError):
    """A sharded worker failed; the message names the failing item.

    Raised by :func:`shard_map`'s process-pool path so a campaign abort
    says *which* placement or scenario died — a pool worker's exception
    otherwise surfaces as a bare pickled traceback with no clue about
    the cell that produced it.  A ``fn`` or item that cannot be pickled
    fails the same way.  The original exception is chained as
    ``__cause__``.

    Checkpoint-hook failures get the same treatment on every path
    (serial included): an ``on_result`` callback that raises — a full
    disk mid-append, a store on a vanished mount — re-raises as a
    :class:`ShardWorkerError` naming the item whose checkpoint was
    being written.  ``BaseException`` kills (``KeyboardInterrupt``)
    still propagate raw.
    """


def _item_name(item, label) -> str:
    return label(item) if label is not None else repr(item)


def _checkpoint(on_result, item, result, label) -> None:
    """Invoke the ``on_result`` hook, labelling any failure's item.

    A raising checkpoint hook used to surface as a bare exception with
    no clue which item's persist failed; it now re-raises as
    :class:`ShardWorkerError` carrying the item's label, exactly like
    worker failures.  Only :class:`Exception` is wrapped — a
    ``KeyboardInterrupt`` landing inside a hook is a kill, not a
    checkpoint failure, and must propagate untouched.
    """
    try:
        on_result(item, result)
    except Exception as exc:
        raise ShardWorkerError(
            f"shard_map on_result hook failed on {_item_name(item, label)}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _failed(future) -> bool:
    return future.done() and isinstance(future.exception(), Exception)


def shard_map(
    fn: Callable,
    items: Sequence,
    max_workers: Optional[int] = None,
    label: Optional[Callable] = None,
    on_result: Optional[Callable] = None,
) -> list:
    """Order-preserving map, serial or sharded across a process pool.

    The shared sharding primitive of every campaign runner: work items
    must be independent (each owning its private RNG stream), so the
    result list is identical to ``[fn(x) for x in items]`` whatever the
    worker count — sharding changes wall-clock only.  This is one
    :meth:`ShardPool.map` on a pool of its own; a sweep that maps
    batch after batch keeps one :class:`ShardPool` instead.

    Args:
        fn: the per-item worker.  When sharded it must be picklable (a
            module-level function or :func:`functools.partial` over
            one), as must the items and results.
        items: the work list; results come back in the same order.
        max_workers: None or 1 (or a work list of at most one item)
            runs serially in the caller's thread (exceptions propagate
            raw, exactly like a list comprehension); more shards the
            items across a :class:`~concurrent.futures.ProcessPoolExecutor`
            of at most that many processes, on the platform's default
            start method.
        label: optional ``item -> str`` naming items in error messages;
            pooled-path worker failures raise :class:`ShardWorkerError`
            carrying that name (campaign runners pass the placement's
            scenario key), with the worker's exception as the cause.
            The item named is the earliest in work order among the
            failures seen when the first one is reported (for an
            unpicklable ``fn``, the first item).
        on_result: optional ``(item, result) -> None`` checkpoint hook,
            always invoked in the *caller's* process as each item
            completes — in completion order on the pooled path, item
            order serially.  Campaign runners persist results through
            it, so a kill mid-map loses only unfinished items.  A hook
            that raises an :class:`Exception` re-raises as
            :class:`ShardWorkerError` naming the item (on both paths
            alike); ``BaseException`` kills propagate raw.
    """
    with ShardPool(max_workers) as shards:
        return shards.map(fn, items, label=label, on_result=on_result)


class ShardPool:
    """The process pool of one sweep, shared by every map it runs.

    A manifest drain runs one map per claimed batch of ``max_workers``
    items.  A pool per map would start new workers for every batch,
    each with an empty LP memo and, on ``forkserver`` or
    ``spawn``, its own imports of numpy, scipy's HiGHS binding and
    :mod:`repro`: about 0.35 s to start two workers and run their
    first map, and 0.3-0.4 s to close them, on a 2-core x86-64 host
    with Python 3.11 (0.7-0.9 s each while :mod:`repro` imported all
    of ``scipy.optimize``).  Both runners therefore open one
    ``ShardPool`` per sweep, :meth:`start` it from
    :func:`repro.store.queue.run_sweep`'s ``prepare`` hook, and
    :meth:`map` each batch on it.

    :meth:`start` launches every worker before ``run_sweep`` drains a
    manifest, so no worker is forked while the drain's heartbeat
    thread runs (``fork`` launches all of them at the first submit).
    The workers never touch the store or the queue: ``on_result`` and
    every store call run in the caller's process.

    A serial pool starts no process, and its map runs in the caller;
    the serial :class:`CampaignRunner` maps :func:`_run_group_split`
    on it, which may fork one twin per large enough stacked group.

    Args:
        max_workers: None or 1 maps serially and starts no process;
            more shards maps across at most that many processes, on
            the platform's default start method.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _serial(self, n_items: int) -> bool:
        return (self.max_workers or 1) <= 1 or n_items <= 1

    def start(self, n_items: int) -> None:
        """Launch the workers for a sweep whose largest map has
        ``n_items`` items.

        Starts ``min(max_workers, n_items)`` processes, or none when
        the pool is serial, ``n_items`` is at most one, or it already
        runs.
        """
        if self._pool is not None or self._serial(n_items):
            return
        self._pool = ProcessPoolExecutor(
            max_workers=min(self.max_workers or 1, n_items)
        )
        # The first submit launches the workers (all of them on fork).
        self._pool.submit(int).result()

    def map(
        self,
        fn: Callable,
        items: Sequence,
        label: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> list:
        """:func:`shard_map` on this pool.

        At most one item, or a serial pool, runs in the caller's
        thread.  A larger map than :meth:`start` was sized for (or
        none) starts the pool here.  On a failure the map's queued
        items are cancelled; the pool stays open for :meth:`close`.
        """
        items = list(items)
        if self._serial(len(items)):
            results = []
            for item in items:
                result = fn(item)
                if on_result is not None:
                    _checkpoint(on_result, item, result, label)
                results.append(result)
            return results
        self.start(len(items))
        assert self._pool is not None
        futures = {
            self._pool.submit(fn, item): index
            for index, item in enumerate(items)
        }
        results: list = [None] * len(items)
        try:
            for future in as_completed(futures):
                if _failed(future):
                    failed = min(filter(_failed, futures), key=futures.get)
                    exc = failed.exception()
                    raise ShardWorkerError(
                        f"shard_map worker failed on "
                        f"{_item_name(items[futures[failed]], label)}: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                index = futures[future]
                results[index] = future.result()
                if on_result is not None:
                    _checkpoint(on_result, items[index], results[index], label)
        except BaseException:
            for pending in futures:
                pending.cancel()
            raise
        return results

    def close(self) -> None:
        """Wait for the running items and for the workers to exit."""
        if self._pool is not None:
            # Not cancel_futures=True: on Python 3.11 that shutdown can
            # wait forever for an item whose pickling failed.
            self._pool.shutdown(wait=True)
            self._pool = None


@dataclass(frozen=True)
class ScenarioGrid:
    """Declarative scenario matrix: one cell per axis combination.

    Attributes:
        group_sizes: the n values to sweep.
        loss_models: loss specs (one axis entry each).
        adversaries: Eve configurations.
        estimators: budget policies.
        rounds: Monte-Carlo rounds per cell.
        n_x_packets / payload_bytes / z_cost_factor / secrecy_slack:
            protocol sizing shared by every cell.
    """

    group_sizes: tuple = (3,)
    loss_models: tuple = (IIDLossSpec(0.5),)
    adversaries: tuple = field(default_factory=lambda: (AdversarySpec(),))
    estimators: tuple = field(default_factory=lambda: (OracleEstimatorSpec(),))
    rounds: int = 100
    n_x_packets: int = 90
    payload_bytes: int = 100
    z_cost_factor: float = 1.0
    secrecy_slack: int = 0
    max_subset_size: Optional[int] = None

    def __post_init__(self) -> None:
        for loss in self.loss_models:
            if not isinstance(loss, LossSpec):
                raise TypeError(f"{loss!r} is not a LossSpec")
        for adversary in self.adversaries:
            if not isinstance(adversary, AdversarySpec):
                raise TypeError(f"{adversary!r} is not an AdversarySpec")
        for estimator in self.estimators:
            if not isinstance(estimator, EstimatorSpec):
                raise TypeError(f"{estimator!r} is not an EstimatorSpec")

    def scenarios(self) -> List[Scenario]:
        """Expand the matrix into concrete cells, in axis order."""
        cells = []
        for n, loss, adversary, estimator in itertools.product(
            self.group_sizes, self.loss_models, self.adversaries, self.estimators
        ):
            cells.append(
                Scenario(
                    n_terminals=n,
                    loss=loss,
                    adversary=adversary,
                    estimator=estimator,
                    n_x_packets=self.n_x_packets,
                    rounds=self.rounds,
                    payload_bytes=self.payload_bytes,
                    z_cost_factor=self.z_cost_factor,
                    secrecy_slack=self.secrecy_slack,
                    max_subset_size=self.max_subset_size,
                )
            )
        return cells

    def size(self) -> int:
        return (
            len(self.group_sizes)
            * len(self.loss_models)
            * len(self.adversaries)
            * len(self.estimators)
        )


@dataclass
class ScenarioOutcome:
    """One cell's batch, with the summary views campaigns consume."""

    scenario: Scenario
    result: BatchResult

    @property
    def n_terminals(self) -> int:
        return self.scenario.n_terminals

    def reliability_summary(self):
        """The Figure-2 order statistics for this cell."""
        from repro.analysis.stats import summarize_reliability

        return summarize_reliability(
            self.scenario.n_terminals, self.result.reliabilities()
        )


@dataclass
class SimCampaignResult:
    """Every cell of a batched campaign."""

    outcomes: list = field(default_factory=list)

    def for_n(self, n: int) -> list:
        return [o for o in self.outcomes if o.n_terminals == n]

    def group_sizes(self) -> list:
        return sorted({o.n_terminals for o in self.outcomes})

    def reliabilities(self, n: int) -> list:
        values: list = []
        for outcome in self.for_n(n):
            values.extend(outcome.result.reliabilities())
        return values

    def efficiencies(self, n: int) -> list:
        values: list = []
        for outcome in self.for_n(n):
            values.extend(outcome.result.efficiencies())
        return values

    @property
    def total_rounds(self) -> int:
        return sum(o.result.rounds for o in self.outcomes)


def _run_scenario_group(group) -> List[ScenarioOutcome]:
    """Module-level group worker: one stacked pass over a tuple of
    same-signature cell items (process pools must pickle it).

    Each item is ``(scenario, campaign_seed, spawn_key)``: the cell's
    generator is rebuilt from raw entropy on the worker side, so the
    same item produces the same batch in any process, and every cell's
    result is bit-identical to a :class:`~repro.sim.engine.BatchedRoundEngine`
    run of that cell alone (``tests/sim/test_stack.py``).
    """
    scenarios = [item[0] for item in group]
    rngs = [
        np.random.default_rng(
            np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
        )
        for _, entropy, spawn_key in group
    ]
    results = run_stacked_batch(scenarios, rngs)
    return [
        ScenarioOutcome(scenario=scenario, result=result)
        for scenario, result in zip(scenarios, results)
    ]


def _group_label(group) -> str:
    """Name a stacked group in error messages by its first cell."""
    first = group[0][0].label()
    if len(group) == 1:
        return first
    return f"{first} (+{len(group) - 1} stacked)"


def _second_process_selected(n_items: int) -> bool:
    """Whether a serial sweep may fork one second process for its work.

    The one rule behind both second processes of a serial sweep: the
    PER-table helper of a batched testbed campaign
    (:func:`repro.analysis.experiments.run_campaign`) and the twin of
    a :class:`CampaignRunner` stacked group (:func:`_run_group_split`).
    It is decided from observable facts only.  The caller must be the
    main thread of a process multiprocessing did not start, with no
    live multiprocessing children: any other caller is a worker of a
    sharded sweep (a process-pool worker, or a queue worker of
    ``--workers-per-host``), or the parent of such workers, whose peers
    already keep the CPUs busy, or a thread the caller started itself,
    whose fork would copy locks that the process's other threads may
    hold.  At least two CPUs must be usable, the second process must be
    able to fork (it inherits the loaded program instead of importing
    it again): ``fork`` is the start method set for the process or,
    when none was set, ``fork`` is available (whatever the platform's
    default, which is ``forkserver`` on Linux from Python 3.14).  At
    least two items must be pending: experiments for the helper (the
    first table is always built in-line), cells of one group for the
    twin.
    """
    if (
        n_items < 2
        or threading.current_thread() is not threading.main_thread()
        or multiprocessing.parent_process() is not None
        or multiprocessing.active_children()
    ):
        return False
    start_method = multiprocessing.get_start_method(allow_none=True)
    if start_method is None and "fork" in multiprocessing.get_all_start_methods():
        start_method = "fork"
    if start_method != "fork":
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    return cpus >= 2


#: The least work, in terminal-rounds (each cell's ``rounds`` times its
#: ``n_terminals``, summed over the group), for which a stacked group
#: forks a twin.  A twin costs about 7-10 ms of wall clock and 10-20 ms
#: of CPU per group (the fork, copy-on-write faults, the pipe), and the
#: two halves slow each other down, so it only pays on a group whose
#: in-line pass takes about 30 ms or more.  Measured on a 2-vCPU VM
#: (Python 3.11), 10 alternating pairs per shape: 4 cells x 100 rounds
#: at n = 4 ran 61 -> 47 ms (9/10 pairs faster), at n = 3 (1200
#: terminal-rounds, 19 ms in-line) 19 -> 25 ms (5/10); n = 3 gained from
#: 4 x 150 rounds (1800, 36 -> 31 ms, 8/10); 2 cells x 16-100 rounds at
#: n = 3 were 1.3x-4x slower.
_TWIN_MIN_TERMINAL_ROUNDS = 1500


def _twin_main(half, sender) -> None:
    """The twin's whole life: one stacked pass, its outcomes (or the
    exception the pass raised) sent on the pipe."""
    try:
        reply = _run_scenario_group(half)
    except Exception as exc:
        reply = exc
    sender.send(reply)


def _run_group_split(group) -> List[ScenarioOutcome]:
    """One stacked group of a serial sweep, half of it on a forked twin.

    When the group holds at least :data:`_TWIN_MIN_TERMINAL_ROUNDS` of
    work and :func:`_second_process_selected` allows it for a group of
    two or more cells, the caller first solves every cell's planning LP
    (:func:`~repro.sim.engine.planning_profile`), so the twin inherits
    a warm LP memo and every distinct LP counts one miss in the
    caller's memo, as in an in-line run.  It then forks one twin that
    runs :func:`_run_scenario_group` on the second half of the group,
    runs the first half itself, and reads the twin's outcomes from a
    pipe.  Every cell owns its generator and the lattice pass works row
    by row, so the outcomes, in cell order, are bit-identical to one
    in-line pass.  Otherwise the whole group runs in-line.

    A twin that dies, or whose pass raises, raises
    :class:`ShardWorkerError` naming the group; the twin is joined (or
    ended, if the caller's half raised) before this returns or raises.
    """
    work = sum(scenario.rounds * scenario.n_terminals for scenario, _, _ in group)
    if work < _TWIN_MIN_TERMINAL_ROUNDS or not _second_process_selected(len(group)):
        return _run_scenario_group(group)
    for scenario, _, _ in group:
        planning_profile(scenario)
    half = len(group) // 2
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    twin = context.Process(
        target=_twin_main, args=(group[half:], sender), daemon=True
    )
    try:
        twin.start()
        sender.close()  # the twin holds the only write end: EOF if it dies
        outcomes = _run_scenario_group(group[:half])
        try:
            reply = receiver.recv()
        except (EOFError, OSError):  # the twin died, maybe mid-reply
            reply = None
        twin.join()
    finally:
        sender.close()
        receiver.close()
        if twin.is_alive():
            twin.terminate()
            twin.join()
    if reply is None:
        raise ShardWorkerError(
            f"twin process died on {_group_label(group)} "
            f"(exit code {twin.exitcode})"
        )
    if isinstance(reply, Exception):
        raise ShardWorkerError(
            f"twin process failed on {_group_label(group)}: "
            f"{type(reply).__name__}: {reply}"
        ) from reply
    return outcomes + reply


class CampaignRunner:
    """Runs a scenario grid on the batched engine.

    Args:
        seed: master seed; per-cell generators derive from it via
            content-keyed ``SeedSequence`` spawns, so a cell's draws
            depend only on (seed, cell spec) — never on grid order or
            sharding.
        max_workers: > 1 shards groups of stacked cells across a
            process pool, one per :meth:`run` or :meth:`run_worker`
            call (:class:`ShardPool`); None or 1 runs serially, and
            where :func:`_second_process_selected` allows a second
            process (main thread of a top-level process with no live
            children, two usable CPUs, ``fork``), the second half of
            each stacked group of two or more cells with at least
            :data:`_TWIN_MIN_TERMINAL_ROUNDS` of work runs on a forked
            twin (:func:`_run_group_split`).  Results are identical
            every way.  ``progress`` and every store call stay in the
            caller's process.
        store: optional :class:`repro.store.CampaignStore` (or a
            directory path) persisting every completed cell as it
            finishes.
        resume: with a store, load already-completed cells instead of
            recomputing them (default).  ``False`` recomputes every
            cell and supersedes the stored records.

    Cells sharing a :func:`~repro.sim.stack.stack_signature` run as one
    stacked kernel pass, and each group is persisted with one durable
    batched append.
    """

    def __init__(
        self,
        seed: int = 2012,
        max_workers: Optional[int] = None,
        store=None,
        resume: bool = True,
    ) -> None:
        self.seed = seed
        self.max_workers = max_workers
        self.store = _as_store(store)
        self.resume = resume

    def cell_key(self, scenario: Scenario) -> str:
        """The cell's store shard key: a content hash of (seed, spec)."""
        return fingerprint(
            {"kind": "sim-cell", "seed": self.seed, "scenario": scenario}
        )

    def cell_seed_sequence(self, scenario: Scenario) -> np.random.SeedSequence:
        """The cell's private RNG root, content-keyed like the shard."""
        return np.random.SeedSequence(
            entropy=self.seed, spawn_key=fingerprint_spawn_key(scenario)
        )

    # -- manifests, runs and the multi-host worker loop -----------------

    def _work(self, grid) -> list:
        """The grid's sweep work list: ``(key, cell, spec, label)`` per
        cell (see :data:`repro.store.queue.SweepItem`), in grid order."""
        from repro.store.records import encode_spec

        cells = grid.scenarios() if isinstance(grid, ScenarioGrid) else grid
        return [
            (self.cell_key(scenario), scenario, encode_spec(scenario),
             scenario.label())
            for scenario in cells
        ]

    def build_manifest(self, grid, name: str):
        """Describe ``grid`` as a :class:`~repro.store.SweepManifest`.

        One entry per cell, in grid order: the cell's content-hashed
        shard key, its encoded :class:`~repro.sim.spec.Scenario` (so a
        worker can rebuild the cell without the grid code), and its
        label.  The manifest is built, not saved — use
        :meth:`write_manifest` to persist it next to the shards.
        """
        from repro.store.queue import sweep_manifest

        return sweep_manifest(
            name, self._work(grid), _SIM_KIND, {"seed": self.seed}
        )

    def write_manifest(self, grid, name: str):
        """Build the grid's manifest and atomically save it to the store.

        Refuses to redefine an existing manifest of the same name with
        different work (:func:`repro.store.queue.define_manifest`).
        """
        if self.store is None:
            raise ValueError("write_manifest needs a store")
        from repro.store.queue import define_manifest

        return define_manifest(self.store, self.build_manifest(grid, name))

    def run_worker(
        self,
        manifest,
        progress: Optional[Callable[[Scenario], None]] = None,
        lease_timeout: Optional[float] = None,
        poll_interval: float = 0.05,
        owner: Optional[str] = None,
    ) -> SimCampaignResult:
        """Drain a manifest as one worker of a (possibly multi-host) sweep.

        The cells are decoded from the manifest entries, so a worker
        needs nothing but the store, the manifest name and the campaign
        seed, and drained through :func:`repro.store.queue.run_sweep`,
        up to ``max_workers`` cells a claim (serially, as many as the
        largest stack group holds).  Every concurrent caller
        returns the complete :class:`SimCampaignResult`, in manifest
        order and bit-identical to a serial :meth:`run` of the same
        grid.  Completion is judged by the shards, so a runner built
        with ``resume=False`` is refused.

        Args:
            manifest: a :class:`~repro.store.SweepManifest` or the name
                of one saved in the store.
            progress: invoked with each Scenario this worker claims.
            lease_timeout / poll_interval / owner: work-queue tuning
                (see :class:`repro.store.WorkQueue`).
        """
        if self.store is None:
            raise ValueError("run_worker needs a store")
        from repro.store.queue import load_manifest
        from repro.store.records import decode_spec

        sweep = load_manifest(self.store, manifest, _SIM_KIND)
        work = []
        for entry in sweep:
            scenario = decode_spec(entry.spec)
            if self.cell_key(scenario) != entry.key:
                raise ValueError(
                    f"manifest {sweep.name!r} was built with a different "
                    f"campaign seed or fingerprint scheme (entry "
                    f"{entry.label or entry.key} does not re-key)"
                )
            work.append((entry.key, scenario, entry.spec, entry.label))
        return self._sweep(
            work,
            progress,
            manifest=sweep,
            lease_timeout=lease_timeout,
            poll_interval=poll_interval,
            owner=owner,
        )

    def run(
        self,
        grid,
        progress: Optional[Callable[[Scenario], None]] = None,
        manifest: Optional[str] = None,
    ) -> SimCampaignResult:
        """Execute every cell of ``grid`` (a ScenarioGrid or an iterable
        of Scenarios); returns outcomes in cell order.

        The cells run through :func:`repro.store.queue.run_sweep`.
        With a store, cells already persisted are loaded (when
        ``resume``) and the rest are computed and appended as they
        complete, so an interrupted-then-resumed campaign is
        bit-identical to an uninterrupted one.  A cell listed twice is
        refused.  With ``manifest=`` (a name; requires a store), the
        grid is saved as that :class:`~repro.store.SweepManifest` and
        drained through the work queue, which any number of concurrent
        callers may drain together; each returns the serial result.
        """
        return self._sweep(self._work(grid), progress, manifest=manifest)

    def _sweep(self, work: list, progress, **drain) -> SimCampaignResult:
        """Run a work list through the store's sweep driver."""
        from repro.store.queue import run_sweep
        from repro.store.records import scenario_outcome_from_json

        if (self.max_workers or 1) > 1:
            batch_size = self.max_workers
        else:
            # A serial drain claims a whole stack group at a time, so
            # each claim runs as one stacked pass with one flush, as in
            # a plain run, instead of one pass and flush per cell.
            batch_size = max(
                map(len, group_cells([item[1] for item in work])), default=1
            )

        def start(pending: list) -> None:
            # Size the pool for the largest map: every pending stacked
            # group at once, or in a manifest drain one claim's groups
            # (a claim of cells that all stack is a one-item map).
            cells = [item[1] for item in pending]
            manifest = drain.get("manifest") is not None
            step = batch_size if manifest else len(cells)
            shards.start(max(
                (len(group_cells(cells[i:i + step]))
                 for i in range(0, len(cells), max(step, 1))),
                default=0,
            ))

        with ShardPool(self.max_workers) as shards:
            outcomes = run_sweep(
                self.store,
                work,
                lambda pending: self._run_cells(pending, progress, shards),
                scenario_outcome_from_json,
                kind=_SIM_KIND,
                meta={"seed": self.seed},
                resume=self.resume,
                batch_size=batch_size,
                prepare=start,
                **drain,
            )
        return SimCampaignResult(outcomes=outcomes)

    def _run_cells(
        self, work: list, progress, shards: ShardPool
    ) -> List[ScenarioOutcome]:
        """Run work items' cells in stacked groups; outcomes in item order.

        ``progress`` sees every cell before any runs.  Cells are grouped
        by :func:`~repro.sim.stack.group_cells`, and each group runs
        through the sweep's :class:`ShardPool`: sharded, as one
        :func:`_run_scenario_group` pass on a pool worker; serially,
        through :func:`_run_group_split`, in one pass or split with a
        forked twin.  With a store each finished group is persisted,
        in the caller, under its cells' keys with one durable
        ``append_batch``.
        """
        cells = [scenario for _, scenario, _, _ in work]
        if progress is not None:
            for scenario in cells:
                progress(scenario)
        # One seeding recipe: cell_seed_sequence is the authority, and
        # the worker rebuilds the identical sequence from its raw
        # (entropy, spawn_key) parts — the picklable form process pools
        # need.
        items = []
        for scenario in cells:
            seq = self.cell_seed_sequence(scenario)
            items.append((scenario, seq.entropy, seq.spawn_key))

        on_group = None
        if self.store is not None:
            from repro.store.records import scenario_outcome_to_json

            key_of = {scenario: key for key, scenario, _, _ in work}

            def on_group(group, group_outcomes) -> None:
                self.store.append_batch(
                    (key_of[outcome.scenario], scenario_outcome_to_json(outcome))
                    for outcome in group_outcomes
                )

        group_indices = group_cells(cells)
        sharded = (self.max_workers or 1) > 1
        group_results = shards.map(
            _run_scenario_group if sharded else _run_group_split,
            [tuple(items[i] for i in idxs) for idxs in group_indices],
            label=_group_label,
            on_result=on_group,
        )
        by_index = {
            i: outcome
            for idxs, group_outcomes in zip(group_indices, group_results)
            for i, outcome in zip(idxs, group_outcomes)
        }
        return [by_index[i] for i in range(len(items))]


def _as_store(store):
    """Accept a CampaignStore, a store URI/path/backend, or None.

    URI strings select a backend by scheme (``file:`` or ``mem:`` —
    see :func:`repro.store.backend.open_store`); a bare
    path keeps its historical meaning, a filesystem store directory.
    """
    if store is None:
        return None
    from repro.store.backend import open_store
    from repro.store.store import CampaignStore

    if isinstance(store, CampaignStore):
        return store
    return open_store(store)
