"""The allocation-LP memo: exact by construction, blind to names.

:func:`repro.coding.privacy._solve_allocation_lp` hands its Dinkelbach
loop the LP's constraint bytes and scalars, memoized on exactly those.
Equal matrices give equal solutions, so a hit returns what a solve
would have; terminal names never reach the key, so sessions of other
groups with the same reception histogram share the entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import allocation_lp_cache_info, clear_allocation_lp_cache
from repro.coding.privacy import plan_y_allocation

pytestmark = pytest.mark.lp


@pytest.fixture(autouse=True)
def cold_memo():
    clear_allocation_lp_cache()
    yield
    clear_allocation_lp_cache()


def seeded_reports(seed: int, names, n_packets: int = 48, loss: float = 0.35) -> dict:
    rng = np.random.default_rng(seed)
    return {
        name: frozenset(int(i) for i in np.flatnonzero(rng.random(n_packets) >= loss))
        for name in names
    }


def fraction_budget(ids, exclude=frozenset()):
    return 0.25 * len(ids)


def plan(reports):
    return plan_y_allocation(reports, fraction_budget, overhead_packets=48)


def shape(allocation, rename=lambda name: name) -> list:
    return [
        (frozenset(rename(t) for t in b.subset), b.support, b.rows, b.matrix.data.tobytes())
        for b in allocation.blocks
    ]


@pytest.mark.parametrize("n_receivers", [1, 2, 3])
def test_renamed_terminals_share_the_entry_and_the_plan(n_receivers):
    """Renaming that keeps the names' order keeps every LP byte, so the
    second plan is a memo hit and equals the first up to the renaming."""
    names = [f"node-{k:02d}" for k in range(n_receivers)]
    renamed = {name: f"peer-{k:02d}" for k, name in enumerate(names)}
    reports = seeded_reports(3, names)
    first = plan(reports)
    info = allocation_lp_cache_info()
    assert (info.hits, info.misses) == (0, 1)

    second = plan({renamed[name]: ids for name, ids in reports.items()})
    info = allocation_lp_cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert first.blocks
    assert shape(second) == shape(first, renamed.get)


def test_different_histograms_miss():
    plan(seeded_reports(1, ["a", "b"]))
    plan(seeded_reports(2, ["a", "b"]))
    info = allocation_lp_cache_info()
    assert (info.hits, info.misses) == (0, 2)


def test_clear_resets_the_counters():
    reports = seeded_reports(7, ["a", "b"])
    plan(reports)
    plan(reports)
    assert allocation_lp_cache_info().currsize == 1
    clear_allocation_lp_cache()
    info = allocation_lp_cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_large_lps_are_solved_without_caching():
    """Four receivers pose LPs above MEMO_MAX_ENTRIES; they bypass the
    memo, which keeps its memory bounded."""
    reports = seeded_reports(9, ["a", "b", "c", "d"], n_packets=96)
    first = shape(plan(reports))
    assert shape(plan(reports)) == first
    info = allocation_lp_cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
