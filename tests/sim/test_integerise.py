"""Hand-computed cases of the batched engine's demand integerisation.

Each round's fractional support demand (one value per terminal subset,
indexed by bitmask) is rounded to whole packets by largest remainder:
every subset keeps ``floor(x + 1e-9)``, and the remainders above
``1e-9`` are granted one more packet each, biggest first, ties to the
lower mask, as long as every nested size family ``s <= |T|`` the grant
counts against still has room (the family of size ``s`` may hold at
most the packets of patterns of size ``>= s``).  The empty subset
(level 0) never gets a grant.

Every expected row below was worked out by hand from that rule; the
comments show the arithmetic.  Each case is one row of a multi-row
call, so rows must not share state.  Seeded random rounds, 1-7
receivers, are then checked against the rule written one round at a
time on Python scalars.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim.engine import _integerise_rows

pytestmark = pytest.mark.accounting


def integerise(id_need, counts, r):
    n_sub = 1 << r
    return _integerise_rows(
        np.asarray(id_need, dtype=float).reshape(-1, n_sub),
        np.asarray(counts, dtype=np.int64).reshape(-1, n_sub),
        r,
    )


# r = 2: masks 0 (empty), 1 and 2 (size 1), 3 (size 2).
CASES_R2 = [
    pytest.param(
        # Floors [0, 1, 1, 0]; remainders 0.5 and 0.5 tie.  Families:
        # need[1] = 2, cap[1] = 1 + 1 + 1 = 3; need[2] = 0, cap[2] = 1.
        # Mask 1 (the lower) takes the last unit of family 1, mask 2
        # finds 2 + 1 + 1 > 3.
        [0.0, 1.5, 1.5, 0.0], [0, 1, 1, 1], [0, 2, 1, 0],
        id="tie-goes-to-the-lower-mask",
    ),
    pytest.param(
        # Remainders 0.9 (mask 0) and 0.2 (mask 1).  Mask 0 is visited
        # first but is level 0, so it is skipped, not a stop: mask 1
        # still gets its unit (need[1] 0 + 1 <= cap[1] 3).
        [0.9, 0.2, 0.0, 0.0], [3, 3, 0, 0], [0, 1, 0, 0],
        id="level-0-subset-is-skipped",
    ),
    pytest.param(
        # Floors [0, 0, 0, 1]; remainders 0.6 (mask 1), 0.8 (mask 3).
        # need[1] = 1, cap[1] = 2 + 0 + 1 = 3; need[2] = 1, cap[2] = 1.
        # Mask 3 has the larger remainder but its size-2 family is full
        # (1 + 1 > 1); mask 1 fits (1 + 1 <= 3).
        [0.0, 0.6, 0.0, 1.8], [0, 2, 0, 1], [0, 1, 0, 1],
        id="family-cap-binds-the-larger-remainder",
    ),
    pytest.param(
        # Floors [0, 0, 0, 1]; remainders 0.6, 0.7, 0.8 on masks 1-3.
        # need[1] = 1, cap[1] = 1 + 0 + 2 = 3; need[2] = 1, cap[2] = 2.
        # Mask 3: 2 <= 3 and 2 <= 2, granted (need[1] = need[2] = 2).
        # Mask 2: 3 <= 3, granted.  Mask 1: 4 > 3, refused.
        [0.0, 0.6, 0.7, 1.8], [0, 1, 0, 2], [0, 0, 1, 2],
        id="family-1-fills-in-remainder-order",
    ),
    pytest.param(
        # floor(x + 1e-9): 1.0000000005 -> 1 (remainder 5e-10, dead),
        # 0.9999999995 -> 1 (remainder -5e-10, dead), 2.0000000011 -> 2
        # (remainder 1.1e-9, live, granted: families have room).
        [0.0, 1.0000000005, 0.9999999995, 2.0000000011], [0, 5, 5, 5],
        [0, 1, 1, 3],
        id="remainder-just-above-1e-9-is-live",
    ),
    pytest.param(
        # 2.0000000009 -> 2, remainder 9e-10 <= 1e-9: no grant.
        [0.0, 0.0, 0.0, 2.0000000009], [0, 5, 5, 5], [0, 0, 0, 2],
        id="remainder-at-or-below-1e-9-is-dead",
    ),
    pytest.param(
        # Nothing fractional: the floors are the demand.
        [0.0, 2.0, 0.0, 3.0], [0, 1, 1, 1], [0, 2, 0, 3],
        id="whole-numbers-pass-through",
    ),
]


@pytest.mark.parametrize("id_need, counts, expected", CASES_R2)
def test_single_row_r2(id_need, counts, expected):
    assert integerise([id_need], [counts], 2) == [expected]


def test_rows_are_independent():
    rows = [case.values for case in CASES_R2]
    got = integerise([v[0] for v in rows], [v[1] for v in rows], 2)
    assert got == [v[2] for v in rows]


def test_nested_families_r3():
    # r = 3: sizes by mask 0..7 are 0, 1, 1, 2, 1, 2, 2, 3.  Masks 1, 2,
    # 3, 6 and 7 each want 0.5 (all floors 0, one five-way tie).
    # Patterns: one packet on mask 3 and one on mask 7, so cap[1] = 2,
    # cap[2] = 2, cap[3] = 1.  In mask order: mask 1 (1 <= 2) and mask 2
    # (2 <= 2) are granted; masks 3, 6 and 7 all count against family 1,
    # now full (3 > 2), and are refused.
    id_need = [0.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 0.5]
    counts = [0, 0, 0, 1, 0, 0, 0, 1]
    assert integerise([id_need], [counts], 3) == [[0, 1, 1, 0, 0, 0, 0, 0]]


def test_larger_sets_win_when_family_1_has_room():
    # Same demand, but patterns 1 and 2 hold a packet each: cap[1] = 4,
    # cap[2] = 2, cap[3] = 1.  Masks 1, 2 take family 1 to 2; mask 3
    # (3 <= 4, 1 <= 2) is granted; mask 6 (4 <= 4, 2 <= 2) is granted;
    # mask 7 finds family 1 full (5 > 4).
    id_need = [0.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 0.5]
    counts = [0, 1, 1, 1, 0, 0, 0, 1]
    assert integerise([id_need], [counts], 3) == [[0, 1, 1, 1, 0, 0, 1, 0]]


def test_empty_batch():
    assert integerise(np.zeros((0, 4)), np.zeros((0, 4)), 2) == []


def reference_integerise(id_need, counts, r):
    """The rule above, one round at a time, on Python scalars."""
    n_sub = 1 << r
    sizes = [bin(mask).count("1") for mask in range(n_sub)]
    demand = [math.floor(x + 1e-9) for x in id_need]
    rem = [x - d for x, d in zip(id_need, demand)]
    # room[s]: units family s (subsets of size >= s) can still take.
    room = [
        sum(counts[m] - demand[m] for m in range(n_sub) if sizes[m] >= s)
        for s in range(r + 1)
    ]
    for i in sorted(range(n_sub), key=lambda i: (-rem[i], i)):
        if rem[i] <= 1e-9:
            break
        level = sizes[i]
        if level and all(room[t] >= 1 for t in range(1, level + 1)):
            demand[i] += 1
            for t in range(1, level + 1):
                room[t] -= 1
    return demand


@pytest.mark.parametrize("r", range(1, 8))
def test_matches_the_scalar_reference(r):
    rng = np.random.default_rng(2012 + r)
    n_sub = 1 << r
    for _ in range(40):
        rounds = int(rng.integers(1, 6))
        counts = rng.integers(0, 6, (rounds, n_sub))
        counts[rng.random((rounds, n_sub)) < 0.4] = 0
        id_need = rng.integers(0, 4, (rounds, n_sub)) + rng.choice(
            [0.0, 0.25, 0.5, 0.75, 1e-9, 2e-9, -5e-10], (rounds, n_sub)
        )
        id_need[rng.random((rounds, n_sub)) < 0.3] = 0.0
        id_need = np.maximum(id_need, 0.0)
        assert integerise(id_need, counts, r) == [
            reference_integerise(row, crow, r)
            for row, crow in zip(id_need.tolist(), counts.tolist())
        ]
