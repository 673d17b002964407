"""The forked twin of a serial ``CampaignRunner``'s stacked groups.

When the shared selection rule
(:func:`repro.sim.campaign._second_process_selected`) allows a second
process, a serial runner splits each stacked group of two or more cells
that holds enough work (``_TWIN_MIN_TERMINAL_ROUNDS``) in two and runs
the second half on a forked twin.  This module pins
that the twin changes wall-clock only:

* equivalence: with the rule forced on, forced off and as the host
  decides, the golden store grid (``tests/store/golden/store_lines.json``)
  stores the golden lines and shard bytes on ``file:`` and ``mem:``,
  plain, resumed and drained as a manifest; the accounting golden's
  cells (``tests/sim/golden/accounting.json``), stacked by signature
  and split across a twin, give the golden ``BatchResult`` digests;
* memo counts: the caller solves every cell's planning LP before the
  fork, so each distinct LP is one miss in the caller;
* lifecycle: a twin that dies, or whose pass raises, raises
  :class:`ShardWorkerError` naming the group, with exactly the earlier
  groups stored; a caller whose own half raises ends the twin; no
  process and no thread outlives a run;
* scope: sharded runners (``max_workers`` > 1), single-cell groups
  and groups below the work floor fork no twin.

Every test forces the side of the selection it needs, so the module
also passes pinned to one CPU (``taskset -c 0``).  Forcing the twin on
also lowers the work floor to 0, so the small golden grids split.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.context
import os
import re
import threading
import time

import pytest

from repro.sim import CampaignRunner, ScenarioGrid, group_cells
from repro.sim import campaign as sim_campaign
from repro.sim.campaign import ShardWorkerError, _group_label
from repro.store import open_store
from repro.store.backend_mem import MemoryStoreBackend
from repro.theory import (
    clear_efficiency_cache,
    clear_realised_flow_cache,
    efficiency_cache_info,
)
from tests.sim import test_accounting_golden as accounting
from tests.store import test_store_golden as store_golden

pytestmark = pytest.mark.accounting

#: The selection rule, before any test replaces it.
HOST_RULE = sim_campaign._second_process_selected


def select_twin(monkeypatch, selected) -> None:
    """Force the twin on (True: whatever the host and the group's
    work, for two or more cells) or off (False), or restore the host's
    rule and the shipped work floor (None)."""
    rule = HOST_RULE if selected is None else (
        lambda n_items: selected and n_items >= 2
    )
    monkeypatch.setattr(sim_campaign, "_second_process_selected", rule)
    if selected:
        monkeypatch.setattr(sim_campaign, "_TWIN_MIN_TERMINAL_ROUNDS", 0)


@pytest.fixture
def two_cpus_and_fork(monkeypatch):
    """The facts under which the host's rule selects a twin."""
    monkeypatch.setattr(
        sim_campaign.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    monkeypatch.setattr(
        sim_campaign.multiprocessing,
        "get_start_method",
        lambda allow_none=False: "fork",
    )


@pytest.fixture
def twins(monkeypatch):
    """The groups' second halves handed to forked twins, in fork order."""
    started: list = []
    original = multiprocessing.context.ForkProcess.start

    def spy(process):
        if process._target is sim_campaign._twin_main:
            started.append(process._args[0])
        return original(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", spy)
    return started


@pytest.fixture
def no_leftovers():
    """Assert that the test leaves no child process and no new thread."""
    before = set(threading.enumerate())
    yield
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) == before


@pytest.fixture(scope="module")
def golden_lines() -> dict:
    return json.loads(store_golden.GOLDEN.read_text())


#: The golden cells' stack groups, in run order: three pairs (the
#: third is n = 4, IID 0.3) and two single cells.
GROUPS = [
    [store_golden.golden_cells()[i] for i in g]
    for g in group_cells(store_golden.golden_cells())
]

#: The twin's whole life, before any test replaces it.
TWIN_MAIN = sim_campaign._twin_main


def group_label(group) -> str:
    """The label a failure of ``group``'s twin carries."""
    runner = CampaignRunner(seed=store_golden.SEED)
    items = []
    for scenario in group:
        seq = runner.cell_seed_sequence(scenario)
        items.append((scenario, seq.entropy, seq.spawn_key))
    return _group_label(tuple(items))


def work(group) -> int:
    """A group's work in terminal-rounds, as the work floor counts it."""
    return sum(scenario.rounds * scenario.n_terminals for scenario in group)


def expected_twins(cells=None) -> int:
    """Forks for one run of ``cells`` (the golden cells): one per
    group of two or more cells that reaches the current work floor."""
    cells = store_golden.golden_cells() if cells is None else cells
    return sum(
        len(g) >= 2
        and work([cells[i] for i in g]) >= sim_campaign._TWIN_MIN_TERMINAL_ROUNDS
        for g in group_cells(cells)
    )


# -- equivalence ---------------------------------------------------------


@pytest.mark.parametrize("selected", [True, False, None], ids=["on", "off", "host"])
def test_twin_stores_the_golden_lines(
    selected, monkeypatch, tmp_path, golden_lines, twins, no_leftovers
):
    select_twin(monkeypatch, selected)
    got = store_golden.all_digests(tmp_path, f"twin-{tmp_path.name}")
    for section in ("file", "mem", "file_bytes", "resumed"):
        assert got[section] == golden_lines[section], section
    if selected is None:
        selected = HOST_RULE(2)
    # Two plain runs (file:, mem:) and a resumed one: its first call
    # runs 3 cells, its second the rest.
    cells = store_golden.golden_cells()
    forks = 2 * expected_twins() + expected_twins(cells[:3]) + expected_twins(cells[3:])
    assert len(twins) == (forks if selected else 0)


@pytest.mark.parametrize("scheme", ["file", "mem"])
def test_twin_manifest_drain_stores_the_golden_lines(
    scheme, monkeypatch, tmp_path, golden_lines, twins, no_leftovers
):
    """A serial drain claims a whole stack group at a time, and the
    twin runs half of each claim while the heartbeat thread runs."""
    select_twin(monkeypatch, True)
    name = f"twin-drain-{tmp_path.name}"
    uri = f"mem:{name}" if scheme == "mem" else f"file:{tmp_path}"
    try:
        got = store_golden.campaign_digests(uri, manifest="golden")
    finally:
        MemoryStoreBackend.discard(name)
    assert got == golden_lines[scheme]
    assert len(twins) == expected_twins()


def test_twin_outcomes_equal_the_accounting_golden(monkeypatch, twins):
    """The accounting golden's cells, each on its ``run_batch`` seed,
    stacked by signature and split across a twin."""
    select_twin(monkeypatch, True)
    clear_realised_flow_cache()
    clear_efficiency_cache()
    cells = accounting.accounting_cells()
    scenarios = [scenario for _, scenario in cells]
    got = {}
    for indices in group_cells(scenarios):
        group = tuple((scenarios[i], i, ()) for i in indices)
        outcomes = sim_campaign._run_group_split(group)
        for i, outcome in zip(indices, outcomes):
            assert outcome.scenario == scenarios[i]
            got[cells[i][0]] = accounting.result_digests(outcome.result)
    want = json.loads(accounting.GOLDEN.read_text())["engine"]
    assert got == {label: want[label] for label in got}
    assert len(got) == len(cells)
    assert len(twins) == sum(len(g) >= 2 for g in group_cells(scenarios)) > 0


def test_lp_solved_once_per_distinct_cell_with_a_twin(monkeypatch, twins):
    """The caller solves each cell's planning LP before forking, so
    the twin's cells count in the caller's memo as in-line ones do."""
    select_twin(monkeypatch, True)
    grid = ScenarioGrid(
        group_sizes=(4,),
        estimators=store_golden.GRID.estimators,
        rounds=10,
        n_x_packets=40,
    )
    clear_efficiency_cache()
    CampaignRunner(seed=1).run(grid)
    assert efficiency_cache_info().misses == 2
    assert len(twins) == 1


# -- scope ---------------------------------------------------------------


def test_no_twin_in_sharded_runs_or_single_cell_groups(
    monkeypatch, tmp_path, golden_lines, twins, two_cpus_and_fork, no_leftovers
):
    """The host's rule, on facts that select a twin for a group, with
    no work floor."""
    monkeypatch.setattr(sim_campaign, "_TWIN_MIN_TERMINAL_ROUNDS", 0)
    assert sim_campaign._second_process_selected(2)
    got = store_golden.campaign_digests(f"file:{tmp_path}", max_workers=2)
    assert got == golden_lines["file"]
    CampaignRunner(seed=3).run(store_golden.golden_cells()[-1:])
    assert twins == []
    CampaignRunner(seed=3).run(GROUPS[0])
    assert len(twins) == 1


def test_no_twin_below_the_work_floor(monkeypatch, twins, no_leftovers):
    """A group forks from exactly the floor's work up."""
    select_twin(monkeypatch, True)
    floor = work(GROUPS[0])
    monkeypatch.setattr(sim_campaign, "_TWIN_MIN_TERMINAL_ROUNDS", floor + 1)
    CampaignRunner(seed=3).run(GROUPS[0])
    assert twins == []
    monkeypatch.setattr(sim_campaign, "_TWIN_MIN_TERMINAL_ROUNDS", floor)
    CampaignRunner(seed=3).run(GROUPS[0])
    assert len(twins) == 1


def test_short_groups_stay_in_line_on_the_shipped_floor(
    twins, two_cpus_and_fork, no_leftovers
):
    """The host's rule, on facts that select a twin: a stacked pair of
    a few rounds, where a fork costs more than the half it saves, runs
    in-line."""
    assert sim_campaign._second_process_selected(2)
    assert work(GROUPS[0]) < sim_campaign._TWIN_MIN_TERMINAL_ROUNDS
    CampaignRunner(seed=3).run(GROUPS[0])
    assert twins == []


# -- lifecycle and failures ----------------------------------------------


def dies_on_third_group(half, sender):
    if half[0][0] in GROUPS[2]:
        os._exit(3)
    TWIN_MAIN(half, sender)


def raises_on_third_group(half, sender):
    if half[0][0] in GROUPS[2]:
        half = (half[0][:1] + (-1,) + half[0][2:],)  # a negative entropy
    TWIN_MAIN(half, sender)


def test_dead_twin_names_the_group(monkeypatch, tmp_path, no_leftovers):
    select_twin(monkeypatch, True)
    monkeypatch.setattr(sim_campaign, "_twin_main", dies_on_third_group)
    store = open_store(f"file:{tmp_path}")
    label = re.escape(group_label(GROUPS[2]))
    with pytest.raises(ShardWorkerError, match=f"died on {label} .*exit code 3"):
        CampaignRunner(seed=store_golden.SEED, store=store).run(
            store_golden.golden_cells()
        )
    runner = CampaignRunner(seed=store_golden.SEED)
    assert store.keys() == sorted(
        runner.cell_key(s) for group in GROUPS[:2] for s in group
    )


def test_a_raising_twin_names_the_group(monkeypatch, no_leftovers):
    select_twin(monkeypatch, True)
    monkeypatch.setattr(sim_campaign, "_twin_main", raises_on_third_group)
    label = re.escape(group_label(GROUPS[2]))
    with pytest.raises(ShardWorkerError, match=f"failed on {label}: ValueError") as info:
        CampaignRunner(seed=store_golden.SEED).run(store_golden.golden_cells())
    assert isinstance(info.value.__cause__, ValueError)


class Interrupt(Exception):
    pass


def test_a_raising_caller_half_ends_the_twin(monkeypatch, no_leftovers):
    """The twin sleeps; the caller's own half raises at once, and the
    twin is ended rather than waited for."""
    select_twin(monkeypatch, True)
    parent = os.getpid()
    original = sim_campaign._run_scenario_group

    def slow_twin_raising_caller(group):
        if os.getpid() == parent:
            raise Interrupt
        time.sleep(60)
        return original(group)

    monkeypatch.setattr(sim_campaign, "_run_scenario_group", slow_twin_raising_caller)
    started = time.monotonic()
    with pytest.raises(Interrupt):
        CampaignRunner(seed=store_golden.SEED).run(GROUPS[0])
    assert time.monotonic() - started < 30
