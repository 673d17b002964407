"""The PER-table helper process of a serial batched campaign.

``run_campaign``'s serial batched path (a single-worker manifest drain
included) may build the upcoming placements' PER tables, and solve
their leaders' planning LPs, on one forked helper process while the
running experiment's rounds use the caller's core.  This module pins
that the helper changes wall-clock only:

* equivalence: both Figure-2 estimator variants with an extra Eve
  antenna give the same records and the same stored shard lines on
  ``file:`` and ``mem:`` stores with the helper selected
  and deselected, an interrupted-then-resumed campaign equals an
  uninterrupted one, and so does a manifest drain of a partly finished
  campaign; tables the caller passes over are cancelled;
* the planning LPs: the helper's profiles are ``float.hex``-equal to
  the in-line ``group_allocation_profile`` calls, under exactly their
  arguments; a profile adopted under other arguments is never read;
  one-CPU, sharded (process pools) and manifest-drain campaigns,
  which solve in-line, store the golden testbed shards;
* lifecycle: no helper process and no thread outlives the call, on
  success, when an experiment raises, and when the helper dies; a dead
  helper surfaces as a ``ShardWorkerError`` naming the placement, with
  exactly the earlier experiments stored; invalid extra-antenna cells
  raise the in-line path's ``ValueError`` at the same experiment;
* the selection rule: no helper in a caller's own threads, pool
  processes, a process with live multiprocessing children, sharded
  (manifest or not) campaigns, the packet engine, with one usable CPU or with one
  pending experiment; an explicit start method other than ``fork``
  deselects it, and with none set it is selected whenever ``fork`` is
  available, whatever the default (``forkserver`` on Linux from
  Python 3.14).

Every test forces the side of the selection it needs, so the module
also passes pinned to one CPU (``taskset -c 0``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import multiprocessing.context
import os
import re
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro import SessionConfig, Testbed, TestbedConfig
from repro.analysis import CampaignConfig, experiments, run_campaign
from repro.analysis.experiments import (
    campaign_work_items,
    experiment_store_key,
    placement_label,
)
from repro.core import OracleEstimator
from repro.sim import (
    CombinedEstimatorSpec,
    FixedFractionEstimatorSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
)
from repro.sim import engine
from repro.sim.campaign import ShardWorkerError
from repro.store import open_store
from repro.store.records import experiment_record_to_json
from repro.testbed import Placement
from repro.testbed.pertable import placement_schedule_specs
from repro.theory import (
    clear_efficiency_cache,
    efficiency_cache_info,
    group_allocation_profile,
)
from repro.theory.efficiency import adopt_allocation_profile
from tests.sim.test_accounting_golden import GOLDEN, campaign_shard_digest

pytestmark = pytest.mark.accounting

TESTBED = Testbed(TestbedConfig(interferer_power_dbm=10.0))
CONFIG = CampaignConfig(
    session=SessionConfig(
        n_x_packets=120, payload_bytes=40, secrecy_slack=1, z_cost_factor=2.5
    ),
    seed=2012,
    max_placements_per_n=3,
    group_sizes=(3, 4, 5),
    eve_extra_cells=(4,),
)
#: The two estimator variants of the Figure-2 benchmark campaign.
VARIANTS = (
    CombinedEstimatorSpec(
        children=(
            FixedFractionEstimatorSpec(fraction=0.25),
            LeaveOneOutEstimatorSpec(rate_margin=0.02),
        )
    ),
    LeaveOneOutEstimatorSpec(rate_margin=0.05),
)
ROUNDS = 2
SPEC = VARIANTS[0]
WORK = [placement for _, placement in campaign_work_items(CONFIG)]
#: The selection rule and the helper's job, before any test replaces them.
HOST_RULE = experiments._table_helper_selected
BUILD_TABLE = experiments._prefetch_table


def select_helper(monkeypatch, selected: bool) -> None:
    monkeypatch.setattr(
        experiments, "_table_helper_selected", lambda n_pending: selected
    )


def store_uri(scheme: str, tmp_path, name: str) -> str:
    if scheme == "mem":
        return f"mem:{tmp_path.name}-{name}"
    return f"{scheme}:{tmp_path / name}"


def shard_lines(store) -> dict:
    """Every shard's raw record lines, by key."""
    return {key: store.backend.read_records(key) for key in store.keys()}


def key_for(placement, spec=SPEC) -> str:
    return experiment_store_key(TESTBED, CONFIG, "batched", spec, placement, ROUNDS)


def run(store=None, spec=SPEC, **kwargs):
    return run_campaign(
        TESTBED,
        config=CONFIG,
        engine="batched",
        estimator_spec=spec,
        store=store,
        rounds_per_leader=ROUNDS,
        **kwargs,
    )


def encoded(result) -> list:
    return [experiment_record_to_json(record) for record in result.records]


@pytest.fixture
def prefetched_calls(monkeypatch):
    """Whether each experiment's PER table came from the helper."""
    calls: list = []
    original = experiments.placement_schedule_specs

    def spy(*args, prefetched=None, **kwargs):
        calls.append(prefetched is not None)
        return original(*args, prefetched=prefetched, **kwargs)

    monkeypatch.setattr(experiments, "placement_schedule_specs", spy)
    return calls


@pytest.fixture
def no_leftovers():
    """Assert that the test leaves no child process and no new thread."""
    before = set(threading.enumerate())
    yield
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) == before


# -- equivalence ---------------------------------------------------------


@pytest.mark.parametrize("scheme", ["file", "mem"])
def test_helper_and_inline_campaigns_are_identical(
    scheme, tmp_path, monkeypatch, prefetched_calls
):
    """Forced on, forced off, and as the host's own selection rule
    decides (in-line when pinned to one CPU)."""
    n = len(WORK)
    outcomes = {}
    for name, selected in (("on", True), ("off", False), ("host", None)):
        if selected is None:
            monkeypatch.setattr(experiments, "_table_helper_selected", HOST_RULE)
            selected = HOST_RULE(n)
        else:
            select_helper(monkeypatch, selected)
        prefetched_calls.clear()
        store = open_store(store_uri(scheme, tmp_path, name))
        records = [
            encoded(run(store, spec=spec, resume=False)) for spec in VARIANTS
        ]
        outcomes[name] = records, shard_lines(store)
        # The first table of each campaign is always built in-line.
        assert prefetched_calls == ([False] + [selected] * (n - 1)) * 2
    assert outcomes["on"] == outcomes["off"] == outcomes["host"]
    if scheme == "file":
        for path in (tmp_path / "on").glob("*.jsonl"):
            for other in ("off", "host"):
                twin = tmp_path / other / path.name
                assert path.read_bytes() == twin.read_bytes()


class Interrupt(Exception):
    pass


@pytest.mark.parametrize("scheme", ["file", "mem"])
@pytest.mark.parametrize("k", [1, 3])
def test_resumed_campaign_equals_uninterrupted(scheme, k, tmp_path, monkeypatch):
    select_helper(monkeypatch, True)
    whole_store = open_store(store_uri(scheme, tmp_path, f"whole-{k}"))
    whole = run(whole_store, resume=False)

    started: list = []

    def stop_after_k(n, placement):
        if len(started) == k:
            raise Interrupt
        started.append(placement)

    store = open_store(store_uri(scheme, tmp_path, f"resumed-{k}"))
    with pytest.raises(Interrupt):
        run(store, progress=stop_after_k)
    assert len(store.keys()) == k
    resumed = run(store)
    assert encoded(resumed) == encoded(whole)
    assert shard_lines(store) == shard_lines(whole_store)


@pytest.mark.parametrize("scheme", ["file", "mem"])
def test_manifest_drain_with_helper_equals_uninterrupted(
    scheme, tmp_path, monkeypatch, prefetched_calls, no_leftovers
):
    """A single-worker drain of a partly finished campaign: the helper
    builds the pending keys' tables in the order the queue hands them
    out."""
    select_helper(monkeypatch, False)
    whole_store = open_store(store_uri(scheme, tmp_path, "whole"))
    whole = run(whole_store, resume=False)

    def stop_after_two(n, placement):
        if len(prefetched_calls) == 2:
            raise Interrupt

    store = open_store(store_uri(scheme, tmp_path, "drained"))
    prefetched_calls.clear()
    with pytest.raises(Interrupt):
        run(store, progress=stop_after_two)
    select_helper(monkeypatch, True)
    prefetched_calls.clear()
    drained = run(store, manifest="sweep")
    assert prefetched_calls == [False] + [True] * (len(WORK) - 3)
    assert encoded(drained) == encoded(whole)
    assert shard_lines(store) == shard_lines(whole_store)


#: Set by a test before the helper forks: the file the gated job waits
#: for, and the file it logs each placement it builds to.
GATE = LOG = None


def gated_job(testbed, placement, config):
    """Hold the helper on placement 1's table until the gate opens."""
    while placement == WORK[1] and not GATE.exists():
        time.sleep(0.005)
    with open(LOG, "a") as log:
        log.write(f"{WORK.index(placement)}\n")
    return BUILD_TABLE(testbed, placement, config)


def test_tables_passed_over_are_cancelled(monkeypatch, tmp_path, no_leftovers):
    """A drain whose peers ran placements 1-7: while the helper is held
    on 1, at most the two tables queued behind it are built."""
    monkeypatch.setattr(sys.modules[__name__], "GATE", tmp_path / "gate")
    monkeypatch.setattr(sys.modules[__name__], "LOG", tmp_path / "log")
    monkeypatch.setattr(experiments, "_prefetch_table", gated_job)
    prefetch = experiments._TablePrefetcher(TESTBED, CONFIG, WORK)
    try:
        assert prefetch.table_for(WORK[0]) is None  # built in-line
        fetch = prefetch.table_for(WORK[-1])
        GATE.touch()
        (tx, rx), table = fetch()
        assert prefetch.table_for(WORK[2]) is None  # out of order: in-line
    finally:
        prefetch.close()
    (tx0, rx0), table0, _ = BUILD_TABLE(TESTBED, WORK[-1], CONFIG)
    assert (tx, rx) == (tx0, rx0) and (table == table0).all()
    built = [int(line) for line in LOG.read_text().split()]
    assert built[0] == 1 and built[-1] == len(WORK) - 1
    assert set(built) <= {1, 2, 3, len(WORK) - 1}


def test_a_table_for_other_positions_is_refused():
    placement = WORK[0]
    (terminals, antennas), table, _ = BUILD_TABLE(TESTBED, placement, CONFIG)
    moved = [(x + 1e-9, y) for x, y in terminals], antennas

    def specs(prefetched):
        return placement_schedule_specs(
            TESTBED, placement, experiments._experiment_rng(CONFIG, placement),
            payload_bytes=CONFIG.session.payload_bytes,
            eve_extra_cells=CONFIG.eve_extra_cells, prefetched=prefetched,
        )

    assert specs(lambda: ((terminals, antennas), table)) == specs(None)
    with pytest.raises(RuntimeError, match="built for other positions"):
        specs(lambda: (moved, table))


# -- the planning LPs the helper solves ----------------------------------


def hexed(profile) -> tuple:
    """Every field of an allocation profile, each float as ``float.hex``."""
    return (
        profile.n,
        float(profile.p).hex(),
        float(profile.z_cost_factor).hex(),
        tuple(v.hex() for v in profile.level_rows),
        profile.l_per_packet.hex(),
        profile.m_per_packet.hex(),
        profile.efficiency.hex(),
    )


@pytest.mark.parametrize("spec", VARIANTS)
def test_helper_profiles_equal_the_inline_solves(spec, monkeypatch):
    """Each leader's profile, solved in a forked helper, against the
    ``group_allocation_profile`` call its accounting makes in-line:
    same arguments, same bits (an extra Eve antenna included)."""
    inline: list = []
    original = engine.group_allocation_profile

    def spy(**arguments):
        profile = original(**arguments)
        inline.append((arguments, hexed(profile)))
        return profile

    monkeypatch.setattr(engine, "group_allocation_profile", spy)
    select_helper(monkeypatch, False)
    clear_efficiency_cache()
    run(spec=spec)
    monkeypatch.setattr(engine, "group_allocation_profile", original)
    clear_efficiency_cache()
    with ProcessPoolExecutor(
        1, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        jobs = [
            pool.submit(
                BUILD_TABLE, TESTBED, placement, CONFIG,
                estimator_spec=spec, rounds_per_leader=ROUNDS,
            )
            for placement in WORK
        ]
        helper = [
            (arguments, hexed(profile))
            for job in jobs
            for arguments, profile in job.result()[2]
        ]
    assert efficiency_cache_info().misses == 0  # all solved in the helper
    assert len(inline) == sum(p.n_terminals for p in WORK)
    assert helper == inline


def test_leaders_read_the_adopted_profiles(monkeypatch):
    """With the helper, only the in-line first placement's leaders
    solve; every later leader reads the profile its table brought."""
    select_helper(monkeypatch, True)
    clear_efficiency_cache()
    run()
    info = efficiency_cache_info()
    assert 1 <= info.misses <= WORK[0].n_terminals
    assert info.hits == sum(p.n_terminals for p in WORK) - info.misses


def zeroed(profile):
    return dataclasses.replace(
        profile,
        level_rows=tuple(0.0 for _ in profile.level_rows),
        l_per_packet=0.0,
        m_per_packet=0.0,
        efficiency=0.0,
    )


def misfiled_job(testbed, placement, config, **job):
    """The real job, its profiles zeroed and filed under a nudged loss."""
    positions, table, profiles = BUILD_TABLE(testbed, placement, config, **job)
    return positions, table, tuple(
        (dict(arguments, p=math.nextafter(arguments["p"], 1.0)), zeroed(profile))
        for arguments, profile in profiles
    )


def test_a_profile_adopted_under_other_arguments_is_never_read():
    arguments = dict(
        n=5, p=0.3, z_cost_factor=2.5, max_level=3,
        support_feasible=True, support_rate=0.2,
    )
    clear_efficiency_cache()
    solved = group_allocation_profile(**arguments)
    clear_efficiency_cache()
    bogus = zeroed(solved)
    for other in (
        dict(arguments, n=6),
        dict(arguments, p=math.nextafter(0.3, 1.0)),
        dict(arguments, z_cost_factor=2.0),
        dict(arguments, max_level=2),
        dict(arguments, support_rate=0.19),
        dict(arguments, support_feasible=False),
    ):
        adopt_allocation_profile(bogus, **other)
    assert efficiency_cache_info().misses == 0  # adopting is no solve
    assert hexed(group_allocation_profile(**arguments)) == hexed(solved)
    assert efficiency_cache_info().misses == 1
    # Under exactly its arguments, an adopted profile is read.
    clear_efficiency_cache()
    adopt_allocation_profile(bogus, **arguments)
    assert group_allocation_profile(**arguments) is bogus
    assert efficiency_cache_info()[:2] == (1, 0)


def test_misfiled_profiles_leave_the_records_unchanged(monkeypatch, tmp_path):
    """A helper whose profiles sit under other arguments: every leader
    solves in-line, as with no helper, and stores the same records."""
    select_helper(monkeypatch, False)
    clear_efficiency_cache()
    inline = encoded(run(open_store(f"file:{tmp_path / 'off'}")))
    inline_solves = efficiency_cache_info().misses
    select_helper(monkeypatch, True)
    monkeypatch.setattr(experiments, "_prefetch_table", misfiled_job)
    clear_efficiency_cache()
    assert encoded(run(open_store(f"file:{tmp_path / 'on'}"))) == inline
    assert efficiency_cache_info().misses == inline_solves


@pytest.mark.parametrize(
    "campaign",
    [
        dict(),  # the host's rule, pinned to one usable CPU below
        dict(max_workers=2),
        dict(manifest="sweep", resume=True),
        dict(manifest="sweep", resume=True, max_workers=2),
    ],
    ids=["one-cpu", "processes", "manifest", "manifest-processes"],
)
def test_inline_campaigns_store_the_golden_shards(
    campaign, monkeypatch, tmp_path, helper_starts, no_leftovers
):
    """Where no helper runs, every leader's LP is solved in-line: the
    stored shards are the golden ones, which the helper also stores."""
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0})
    digest = campaign_shard_digest(tmp_path / "store", **campaign)
    assert digest == json.loads(GOLDEN.read_text())["testbed_campaign"]
    assert helper_starts == []


# -- lifecycle and failures ----------------------------------------------


def test_no_helper_outlives_a_campaign(monkeypatch, prefetched_calls, no_leftovers):
    select_helper(monkeypatch, True)
    run()
    assert any(prefetched_calls)


def test_no_helper_outlives_a_raising_experiment(monkeypatch, no_leftovers):
    select_helper(monkeypatch, True)
    original = experiments.placement_schedule_specs
    started: list = []

    def third_raises(*args, **kwargs):
        started.append(args[1])
        if len(started) == 3:
            raise RuntimeError("boom")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "placement_schedule_specs", third_raises)
    with pytest.raises(RuntimeError, match="boom"):
        run()


def die_on_first(testbed, placement, config, **job):
    os._exit(3)


def die_on_last(testbed, placement, config, **job):
    if placement == WORK[-1]:
        os._exit(3)
    return BUILD_TABLE(testbed, placement, config, **job)


@pytest.mark.parametrize(
    "job,dead",
    # The first table is built in-line and every later one is handed
    # to the helper then, so the first job is placement 1's: it dies
    # while placement 0 runs, and the wait for its table sees it.  The
    # last job dies after every other table was built.
    [(die_on_first, 1), (die_on_last, len(WORK) - 1)],
)
def test_dead_helper_names_the_placement(
    job, dead, monkeypatch, tmp_path, no_leftovers
):
    select_helper(monkeypatch, True)
    monkeypatch.setattr(experiments, "_prefetch_table", job)
    store = open_store(f"file:{tmp_path}")
    label = re.escape(placement_label(WORK[dead]))
    with pytest.raises(ShardWorkerError, match=label):
        run(store, resume=False)
    assert store.keys() == sorted(key_for(p) for p in WORK[:dead])


@pytest.mark.parametrize("selected", [True, False])
def test_invalid_antenna_cells_fail_at_the_same_experiment(
    selected, monkeypatch, tmp_path, no_leftovers
):
    select_helper(monkeypatch, selected)
    work = campaign_work_items(CONFIG)
    invalid = Placement(eve_cell=0, terminal_cells=(1, 4, 8))  # 4 is Eve's
    work.insert(2, (3, invalid))
    monkeypatch.setattr(experiments, "campaign_work_items", lambda config: work)
    started: list = []
    store = open_store(f"file:{tmp_path}")
    with pytest.raises(ValueError, match="cannot share terminal cells"):
        run(store, resume=False, progress=lambda n, p: started.append(p))
    assert started == [placement for _, placement in work[:3]]
    assert store.keys() == sorted(key_for(p) for _, p in work[:2])


# -- the selection rule ----------------------------------------------------


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(
        experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )


@pytest.fixture
def two_cpus_and_fork(two_cpus, monkeypatch):
    """The facts under which the helper is selected, whatever the host."""
    monkeypatch.setattr(
        experiments.multiprocessing,
        "get_start_method",
        lambda allow_none=False: "fork",
    )


def test_selected_in_the_main_thread_of_a_top_level_process(two_cpus_and_fork):
    assert experiments._table_helper_selected(2)


def test_not_selected_for_one_pending_experiment(two_cpus_and_fork):
    assert not experiments._table_helper_selected(1)
    assert not experiments._table_helper_selected(0)


def test_not_selected_with_one_usable_cpu(two_cpus_and_fork, monkeypatch):
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0})
    assert not experiments._table_helper_selected(5)
    monkeypatch.delattr(experiments.os, "sched_getaffinity")
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert not experiments._table_helper_selected(5)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_not_selected_without_fork(two_cpus_and_fork, monkeypatch, method):
    monkeypatch.setattr(
        experiments.multiprocessing,
        "get_start_method",
        lambda allow_none=False: method,
    )
    assert not experiments._table_helper_selected(5)


class UnsetContext(multiprocessing.context.DefaultContext):
    """The multiprocessing module of a process that set no start method,
    on a platform whose default is ``default``: it lists that method
    first, as Python 3.14 does."""

    def __init__(self, default: str, available=None) -> None:
        super().__init__(multiprocessing.get_context(default))
        self._available = available

    def get_all_start_methods(self):
        methods = self._available or super().get_all_start_methods()
        default = self._default_context.get_start_method()
        return [default] + [m for m in methods if m != default]


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_an_explicit_start_method_is_respected(two_cpus, monkeypatch, method):
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(experiments, "multiprocessing", context)
    assert experiments._table_helper_selected(5) == (method == "fork")


@pytest.mark.parametrize("default", multiprocessing.get_all_start_methods())
def test_selected_with_no_start_method_set_if_fork_is_available(
    two_cpus, monkeypatch, default
):
    context = UnsetContext(default)
    assert context.get_start_method(allow_none=True) is None
    assert context.get_all_start_methods()[0] == default
    monkeypatch.setattr(experiments, "multiprocessing", context)
    assert experiments._table_helper_selected(5) == (
        "fork" in multiprocessing.get_all_start_methods()
    )
    monkeypatch.setattr(
        experiments, "multiprocessing", UnsetContext("spawn", ["spawn"])
    )
    assert not experiments._table_helper_selected(5)


def test_not_selected_with_live_children(two_cpus_and_fork):
    """The parent of ``--workers-per-host`` drain processes shares the
    CPUs with them."""
    done = multiprocessing.get_context("fork").Event()
    child = multiprocessing.get_context("fork").Process(target=done.wait)
    child.start()
    try:
        assert not experiments._table_helper_selected(5)
    finally:
        done.set()
        child.join()
    assert experiments._table_helper_selected(5)


def test_not_selected_in_pool_workers(two_cpus_and_fork):
    with ThreadPoolExecutor(1) as pool:  # a caller's own worker thread
        assert not pool.submit(experiments._table_helper_selected, 5).result()
    with ProcessPoolExecutor(
        1, mp_context=multiprocessing.get_context("fork")
    ) as pool:  # a process-sharded one
        assert not pool.submit(experiments._table_helper_selected, 5).result()


def oracle_factory(testbed, placement):
    return OracleEstimator()


@pytest.fixture
def helper_starts(monkeypatch):
    """Helper pools started by run_campaign, counted."""
    starts: list = []

    class Counting(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Counting)
    return starts


def test_selection_starts_one_helper(monkeypatch, helper_starts):
    select_helper(monkeypatch, True)
    run()
    assert helper_starts == [1]


def test_no_helper_in_sharded_or_packet_campaigns(
    monkeypatch, helper_starts, tmp_path
):
    select_helper(monkeypatch, True)
    run(max_workers=2)
    run(store=open_store(f"file:{tmp_path}"), manifest="sweep", max_workers=2)
    run_campaign(
        TESTBED,
        oracle_factory,
        config=CampaignConfig(
            session=SessionConfig(n_x_packets=30, payload_bytes=20),
            max_placements_per_n=2,
            group_sizes=(3,),
        ),
    )
    assert helper_starts == []


def test_no_helper_with_one_cpu_or_one_pending_experiment(
    two_cpus_and_fork, monkeypatch, helper_starts
):
    one = CampaignConfig(
        session=CONFIG.session, max_placements_per_n=1, group_sizes=(3,)
    )
    run_campaign(
        TESTBED,
        config=one,
        engine="batched",
        estimator_spec=OracleEstimatorSpec(),
        rounds_per_leader=1,
    )
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0})
    run()
    assert helper_starts == []
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    run()
    assert helper_starts == [1]
