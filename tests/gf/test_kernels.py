"""Table-driven GF(256) kernels against scalar references kept here.

Every kernel in :mod:`repro.gf` is a lookup in the product table ``MUL``
or the inverse table ``INV``.  These tests hold each one to an
independent scalar implementation: carry-less multiplication for the
tables, a Horner loop for polynomial evaluation and the one-time MAC,
a log/antilog Gaussian elimination for rank and solve, and the
two-rank formula for the single-pass leakage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.auth.mac import MAC_KEY_BYTES, TAG_SYMBOLS, OneTimeMac
from repro.coding.privacy import build_phase2_matrices, plan_y_allocation
from repro.core.eve import round_leakage, stacked_secret_maps
from repro.gf import field
from repro.gf.field import gf_matmul, gf_poly_eval
from repro.gf.linalg import GFMatrix, conditional_rank
from repro.gf.tables import EXP, GF_POLY, INV, LOG, MUL

pytestmark = pytest.mark.gf


# -- scalar references ------------------------------------------------------


def ref_carryless_mul(a: int, b: int) -> int:
    """Shift-and-add product of two polynomials modulo ``GF_POLY``."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= GF_POLY
    return result


def ref_mul(a: int, b: int) -> int:
    """Log/antilog product of two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(EXP[LOG[a] + LOG[b]])


def ref_inv(a: int) -> int:
    return int(EXP[255 - LOG[a]])


def ref_horner(coeffs, x: int) -> int:
    acc = 0
    for c in coeffs:
        acc = ref_mul(acc, x) ^ int(c)
    return acc


def ref_tag(key: bytes, message: bytes) -> bytes:
    """The per-symbol Horner MAC: ``m(k) * k + len`` plus the pad."""
    coeffs = list(message) or [0]
    out = bytearray()
    for j in range(TAG_SYMBOLS):
        point = key[j] or 1
        value = ref_mul(ref_horner(coeffs, point), point) ^ (len(message) % 256)
        out.append(value ^ key[TAG_SYMBOLS + j])
    return bytes(out)


def ref_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for t in range(a.shape[1]):
                acc ^= ref_mul(int(a[i, t]), int(b[t, j]))
            out[i, j] = acc
    return out


def ref_eliminate(a: np.ndarray, aug: np.ndarray) -> tuple:
    """Scalar Gauss-Jordan: (rref, aug_rref, pivot_cols) as int lists."""
    a = [[int(v) for v in row] for row in a]
    aug = [[int(v) for v in row] for row in aug]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        aug[r], aug[p] = aug[p], aug[r]
        inv = ref_inv(a[r][c])
        a[r] = [ref_mul(inv, v) for v in a[r]]
        aug[r] = [ref_mul(inv, v) for v in aug[r]]
        for i in range(rows):
            f = a[i][c]
            if i != r and f:
                a[i] = [v ^ ref_mul(f, w) for v, w in zip(a[i], a[r])]
                aug[i] = [v ^ ref_mul(f, w) for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, aug, pivots


def low_rank(rng, rows: int, cols: int, rank: int) -> np.ndarray:
    """A random ``rows x cols`` matrix of rank at most ``rank``."""
    left = rng.integers(0, 256, (rows, rank), dtype=np.uint8)
    right = rng.integers(0, 256, (rank, cols), dtype=np.uint8)
    return ref_matmul(left, right)


# -- tables -----------------------------------------------------------------


def test_mul_table_matches_carryless_multiplication_on_all_pairs():
    want = np.array(
        [[ref_carryless_mul(a, b) for b in range(256)] for a in range(256)],
        dtype=np.uint8,
    )
    assert MUL.dtype == np.uint8 and MUL.shape == (256, 256)
    assert np.array_equal(MUL, want)


def test_inv_table_inverts_every_nonzero_element():
    assert INV.dtype == np.uint8 and INV.shape == (256,)
    for a in range(1, 256):
        assert ref_carryless_mul(a, int(INV[a])) == 1
    assert len(set(INV[1:].tolist())) == 255


# -- polynomial evaluation and the MAC ------------------------------------------


def test_poly_eval_matches_horner():
    rng = np.random.default_rng(11)
    for _ in range(300):
        coeffs = rng.integers(0, 256, int(rng.integers(0, 40)), dtype=np.uint8)
        x = int(rng.integers(0, 256)) if rng.random() < 0.9 else 0
        assert gf_poly_eval(coeffs, x) == ref_horner(coeffs, x)


def test_poly_eval_edge_cases():
    assert gf_poly_eval(np.zeros(0, dtype=np.uint8), 7) == 0
    assert gf_poly_eval(np.zeros(0, dtype=np.uint8), 0) == 0
    # At x = 0 only the constant term survives.
    assert gf_poly_eval(np.array([9, 8, 7], dtype=np.uint8), 0) == 7
    assert gf_poly_eval(np.array([5], dtype=np.uint8), 0) == 5


def test_poly_eval_vectorises_over_points():
    coeffs = np.array([3, 0, 250, 1, 17], dtype=np.uint8)
    points = np.arange(256, dtype=np.uint8).reshape(16, 16)
    values = gf_poly_eval(coeffs, points)
    assert values.shape == points.shape and values.dtype == np.uint8
    for x in range(256):
        assert values.flat[x] == ref_horner(coeffs, x)


def test_mac_tag_matches_per_symbol_horner():
    rng = np.random.default_rng(3000)
    for case in range(1000):
        key = bytearray(rng.integers(0, 256, MAC_KEY_BYTES, dtype=np.uint8).tobytes())
        # Zero evaluation points, one or all of them.
        if case % 5 == 0:
            key[int(rng.integers(0, TAG_SYMBOLS))] = 0
        if case % 50 == 0:
            key[:TAG_SYMBOLS] = bytes(TAG_SYMBOLS)
        size = (0, 1, 255, 256, 700)[case % 5] if case % 3 == 0 else int(rng.integers(0, 700))
        message = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        assert OneTimeMac(bytes(key)).tag(message) == ref_tag(bytes(key), message)


def test_mac_tag_of_empty_message_is_the_pad():
    key = bytes(range(1, MAC_KEY_BYTES + 1))
    assert OneTimeMac(key).tag(b"") == key[TAG_SYMBOLS:]


# -- matmul -----------------------------------------------------------------


@pytest.mark.parametrize("chunk_bytes", [1, 40, 1 << 20])
def test_matmul_matches_reference_across_row_chunks(monkeypatch, chunk_bytes):
    monkeypatch.setattr(field, "MATMUL_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(chunk_bytes)
    # With 40 bytes a 4 x 3 inner block runs 3 rows per chunk, so 7 and
    # 9 rows end on a partial and a full chunk respectively.
    for rows, k, cols in [(7, 4, 3), (9, 4, 3), (1, 4, 3), (5, 13, 7), (3, 1, 1)]:
        a = rng.integers(0, 256, (rows, k), dtype=np.uint8)
        b = rng.integers(0, 256, (k, cols), dtype=np.uint8)
        a[0, :] = 0  # a zero row and zero entries ride along
        b[:, 0] = 0
        got = gf_matmul(a, b)
        assert got.dtype == np.uint8
        assert np.array_equal(got, ref_matmul(a, b))


@pytest.mark.parametrize(
    "rows, k, cols", [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (0, 3, 0)]
)
def test_matmul_zero_size_dimensions(rows, k, cols):
    a = np.ones((rows, k), dtype=np.uint8)
    b = np.ones((k, cols), dtype=np.uint8)
    got = gf_matmul(a, b)
    assert got.shape == (rows, cols) and got.dtype == np.uint8
    assert not got.any()


# -- elimination -------------------------------------------------------------


def test_rank_and_rref_match_scalar_elimination():
    rng = np.random.default_rng(5)
    for _ in range(120):
        rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        a = low_rank(rng, rows, cols, int(rng.integers(0, min(rows, cols) + 1)))
        ref_a, _, ref_pivots = ref_eliminate(a, np.zeros((rows, 0), dtype=np.uint8))
        rref, pivots = GFMatrix(a).rref()
        assert pivots == ref_pivots
        assert GFMatrix(a).rank() == len(ref_pivots)
        assert rref.data.tolist() == ref_a


def test_solve_matches_scalar_elimination():
    rng = np.random.default_rng(6)
    outcomes = {"solved": 0, "deficient": 0, "inconsistent": 0}
    for case in range(150):
        rows, cols = int(rng.integers(1, 10)), int(rng.integers(1, 8))
        rank = min(rows, cols) if case % 2 else int(rng.integers(0, min(rows, cols) + 1))
        a = low_rank(rng, rows, cols, rank)
        if case % 3:
            rhs = ref_matmul(a, rng.integers(0, 256, (cols, 3), dtype=np.uint8))
        else:
            rhs = rng.integers(0, 256, (rows, 3), dtype=np.uint8)
        _, ref_aug, pivots = ref_eliminate(a, rhs)
        if len(pivots) < cols:
            outcome = "deficient"
        elif any(any(row) for row in ref_aug[len(pivots):]):
            outcome = "inconsistent"
        else:
            outcome = "solved"
        outcomes[outcome] += 1
        if outcome == "solved":
            x = GFMatrix(a).solve(GFMatrix(rhs))
            assert x.data.tolist() == ref_aug[:cols]
            assert np.array_equal(ref_matmul(a, x.data), rhs)
        else:
            with pytest.raises(ValueError):
                GFMatrix(a).solve(GFMatrix(rhs))
    assert all(outcomes.values())


def test_inverse_matches_scalar_elimination():
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        a = rng.integers(0, 256, (n, n), dtype=np.uint8)
        _, ref_aug, pivots = ref_eliminate(a, np.eye(n, dtype=np.uint8))
        if len(pivots) < n:
            with pytest.raises(ValueError):
                GFMatrix(a).inverse()
        else:
            assert GFMatrix(a).inverse().data.tolist() == ref_aug


# -- single-pass leakage -----------------------------------------------------


def test_conditional_rank_is_the_rank_difference():
    rng = np.random.default_rng(9)
    for _ in range(200):
        cols = int(rng.integers(1, 14))
        z_rows, s_rows = int(rng.integers(0, 10)), int(rng.integers(0, 8))
        z = low_rank(rng, z_rows, cols, int(rng.integers(0, min(z_rows, cols) + 1)))
        s = low_rank(rng, s_rows, cols, int(rng.integers(0, min(s_rows, cols) + 1)))
        if z_rows and s_rows and rng.random() < 0.5:
            # Part of the secret inside Eve's span: those rows hide nothing.
            s[: s_rows // 2 + 1] = ref_matmul(
                rng.integers(0, 256, (s_rows // 2 + 1, z_rows), dtype=np.uint8), z
            )
        both = np.vstack([z, s])
        stacked = len(ref_eliminate(both, np.zeros((len(both), 0), np.uint8))[2])
        known = len(ref_eliminate(z, np.zeros((z_rows, 0), np.uint8))[2])
        assert conditional_rank(GFMatrix(s), GFMatrix(z)) == stacked - known
        assert (
            conditional_rank(GFMatrix(s), given=GFMatrix(z))
            == GFMatrix(both).rank() - GFMatrix(z).rank()
        )


def test_conditional_rank_rejects_column_mismatch():
    with pytest.raises(ValueError):
        conditional_rank(GFMatrix.zeros(2, 3), GFMatrix.zeros(2, 4))


def test_round_leakage_matches_the_two_rank_formula():
    rng = np.random.default_rng(10)
    checked = leaked = 0
    for case in range(40):
        n_x = 48
        receivers = 2 + case % 3
        reports = {
            t: {i for i in range(n_x) if rng.random() > 0.35}
            for t in range(1, receivers + 1)
        }
        # The planner certifies a fraction of every pool; Eve's actual
        # capture varies around it, so some rounds leak.
        fraction = float(rng.uniform(0.2, 0.6))
        allocation = plan_y_allocation(reports, lambda ids, _t=None: fraction * len(ids), n_x)
        plan = build_phase2_matrices(allocation, secrecy_slack=case % 2)
        eve = frozenset(i for i in range(n_x) if rng.random() > fraction * 0.8)
        ids = list(range(n_x))
        report = round_leakage(allocation, plan, eve, ids)
        z_map, s_map = stacked_secret_maps(allocation, plan, ids)
        missed = [j for j in ids if j not in eve]
        if s_map.rows and missed:
            z_d, s_d = z_map.take_cols(missed), s_map.take_cols(missed)
            want = z_d.vstack(s_d).rank() - z_d.rank()
            assert report.hidden_dims == want
            checked += 1
            leaked += report.hidden_dims < report.secret_dims
        assert report.eve_missed == len(missed)
        assert report.secret_dims == s_map.rows
    assert checked > 20 and leaked > 0
