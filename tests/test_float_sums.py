"""Stored outputs do not depend on which Python sums their floats.

From Python 3.12 the builtin ``sum`` adds exact floats with Neumaier's
compensated summation, so the same sequence can sum to different bits
on 3.11 and on 3.12+.  The level LP's support mass
(:mod:`repro.theory.efficiency`) and the interference power of
:func:`repro.net.radio.sinr_db` (which feeds the PER tables) therefore
accumulate left to right in explicit loops.  These tests put the 3.12
``sum`` into both modules and re-check the golden LP profiles and PER
tables, whatever interpreter runs them.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest

import repro.net.radio as radio
import repro.theory.efficiency as efficiency
from tests.coding import test_allocation_golden as allocation_golden
from tests.sim import test_accounting_golden as accounting_golden


def sum_312(iterable, start=0):
    """CPython 3.12's builtin ``sum``, ported to Python.

    An int start stays on exact integer addition until an item is not
    an int.  A float total then takes exact floats with Neumaier's
    compensation and ints as doubles; the compensation is added once at
    the end, or before handing over to ``+`` for any other item type
    (numpy scalars included), which adds naively from there on.
    """
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is float:
        comp = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            total = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        total = total + item
    return total


@pytest.fixture
def python_312_sum(monkeypatch):
    monkeypatch.setattr(efficiency, "sum", sum_312, raising=False)
    monkeypatch.setattr(radio, "sum", sum_312, raising=False)


def test_the_port_compensates_like_python_312():
    # The documented 3.12 results; a naive left-to-right sum differs.
    assert sum_312([0.1] * 10) == 1.0
    assert sum_312([1e100, 1.0, -1e100, 1.0]) == 2.0
    assert sum_312([]) == 0 and type(sum_312([])) is int
    assert sum_312([1, 2, 3]) == 6
    # numpy scalars leave the compensated path: plain addition.
    values = [np.float64(0.1)] * 10
    naive = np.float64(0.0)
    for v in values:
        naive = naive + v
    assert sum_312(values) == naive


@pytest.mark.skipif(sys.version_info < (3, 12), reason="needs the 3.12 builtin")
def test_the_port_matches_the_builtin():
    rng = np.random.default_rng(12)
    for _ in range(500):
        scale = 10.0 ** rng.integers(-5, 5)
        seq = [float(v) for v in rng.standard_normal(rng.integers(0, 40)) * scale]
        assert float(sum_312(seq)).hex() == float(sum(seq)).hex()


@pytest.mark.lp
def test_lp_profiles_hold_under_the_312_sum(python_312_sum):
    golden = json.loads(allocation_golden.GOLDEN.read_text())
    assert allocation_golden.profile_fields() == golden["profiles"]
    assert allocation_golden.rated_profile_fields() == golden["rated_profiles"]


@pytest.mark.accounting
def test_per_tables_hold_under_the_312_sum(python_312_sum):
    golden = json.loads(accounting_golden.GOLDEN.read_text())
    assert accounting_golden.per_tables() == golden["per_tables"]
