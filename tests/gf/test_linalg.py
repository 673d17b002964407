"""GFMatrix: elimination, rank, solving, inversion, null spaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf.linalg import GFMatrix, conditional_rank


def random_invertible(n, rng):
    while True:
        m = GFMatrix.random(n, n, rng)
        if m.is_invertible():
            return m


class TestConstruction:
    def test_zeros_and_identity(self):
        z = GFMatrix.zeros(3, 4)
        assert z.shape == (3, 4) and z.data.max() == 0
        eye = GFMatrix.identity(4)
        assert eye.rank() == 4

    def test_from_rows(self):
        m = GFMatrix([[1, 2], [3, 4]])
        assert m.shape == (2, 2)
        assert m.data.dtype == np.uint8
        assert m.data.tolist() == [[1, 2], [3, 4]]
        # A single row is a 1 x n matrix, the shape a probe vector takes.
        assert GFMatrix([5, 6, 7]).shape == (1, 3)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            GFMatrix(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GFMatrix([[300]])

    def test_equality_and_hash(self, rng):
        a = GFMatrix.random(3, 3, rng)
        b = GFMatrix(a.data.copy())
        assert a == b and hash(a) == hash(b)
        assert a != GFMatrix.zeros(3, 3) or a.data.max() == 0

    def test_repr(self):
        assert "3x4" in repr(GFMatrix.zeros(3, 4))


class TestAlgebra:
    def test_addition_is_xor(self, rng):
        a = GFMatrix.random(3, 5, rng)
        b = GFMatrix.random(3, 5, rng)
        assert (a + b).data.tobytes() == np.bitwise_xor(a.data, b.data).tobytes()

    def test_addition_shape_mismatch(self):
        with pytest.raises(ValueError):
            GFMatrix.zeros(2, 2) + GFMatrix.zeros(3, 3)

    def test_matmul_identity(self, rng):
        a = GFMatrix.random(4, 4, rng)
        assert (GFMatrix.identity(4) @ a) == a

    def test_transpose_involution(self, rng):
        a = GFMatrix.random(3, 5, rng)
        assert a.transpose().transpose() == a

    def test_take_rows_cols(self, rng):
        a = GFMatrix.random(4, 6, rng)
        sub = a.take_rows([0, 2]).take_cols([1, 3, 5])
        assert sub.shape == (2, 3)
        assert sub.data[1, 2] == a.data[2, 5]

    def test_stacking(self, rng):
        a = GFMatrix.random(2, 3, rng)
        b = GFMatrix.random(4, 3, rng)
        assert a.vstack(b).shape == (6, 3)
        c = GFMatrix.random(2, 5, rng)
        assert a.hstack(c).shape == (2, 8)
        with pytest.raises(ValueError):
            a.vstack(GFMatrix.zeros(1, 4))
        with pytest.raises(ValueError):
            a.hstack(GFMatrix.zeros(3, 1))


class TestRankAndRref:
    def test_rank_identity(self):
        assert GFMatrix.identity(7).rank() == 7

    def test_rank_zero_matrix(self):
        assert GFMatrix.zeros(4, 5).rank() == 0
        assert GFMatrix.zeros(0, 5).rank() == 0

    def test_rank_duplicated_rows(self, rng):
        row = rng.integers(1, 256, (1, 6), dtype=np.uint8)
        m = GFMatrix(np.vstack([row, row, row]))
        assert m.rank() == 1

    def test_rref_pivots_are_unit_columns(self, rng):
        m = GFMatrix.random(4, 7, rng)
        r, pivots = m.rref()
        for row_idx, col in enumerate(pivots):
            column = r.data[:, col]
            assert column[row_idx] == 1
            assert np.sum(column != 0) == 1

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_rank_bounded(self, r, c):
        rng = np.random.default_rng(r * 31 + c)
        m = GFMatrix.random(r, c, rng)
        assert 0 <= m.rank() <= min(r, c)

    def test_rank_of_product_bounded(self, rng):
        a = GFMatrix.random(5, 3, rng)
        b = GFMatrix.random(3, 6, rng)
        assert (a @ b).rank() <= min(a.rank(), b.rank())


class TestSolveInverse:
    def test_inverse_roundtrip(self, rng):
        m = random_invertible(6, rng)
        assert (m @ m.inverse()) == GFMatrix.identity(6)
        assert (m.inverse() @ m) == GFMatrix.identity(6)

    def test_inverse_of_singular_raises(self, rng):
        row = rng.integers(1, 256, (1, 3), dtype=np.uint8)
        m = GFMatrix(np.vstack([row, row, rng.integers(0, 256, (1, 3), dtype=np.uint8)]))
        with pytest.raises(ValueError):
            m.inverse()

    def test_inverse_non_square_raises(self):
        with pytest.raises(ValueError):
            GFMatrix.zeros(2, 3).inverse()

    def test_solve_square(self, rng):
        m = random_invertible(5, rng)
        x = GFMatrix.random(5, 8, rng)
        assert m.solve(m @ x) == x

    def test_solve_overdetermined_consistent(self, rng):
        # 6 equations, 3 unknowns, full column rank.
        a = GFMatrix.random(6, 3, rng)
        while a.rank() < 3:
            a = GFMatrix.random(6, 3, rng)
        x = GFMatrix.random(3, 4, rng)
        assert a.solve(a @ x) == x

    def test_solve_underdetermined_raises(self, rng):
        a = GFMatrix.random(2, 5, rng)
        rhs = GFMatrix.random(2, 1, rng)
        with pytest.raises(ValueError):
            a.solve(rhs)

    def test_solve_inconsistent_raises(self, rng):
        a = GFMatrix(np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8))
        rhs = GFMatrix(np.array([[1], [2], [3]], dtype=np.uint8))
        with pytest.raises(ValueError):
            a.solve(rhs)

    def test_solve_rhs_shape_mismatch(self, rng):
        a = GFMatrix.random(3, 3, rng)
        with pytest.raises(ValueError):
            a.solve(GFMatrix.zeros(4, 1))

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_solve_roundtrip_property(self, n):
        rng = np.random.default_rng(n * 977)
        m = random_invertible(n, rng)
        x = GFMatrix.random(n, 3, rng)
        assert m.solve(m @ x) == x


class TestNullSpace:
    def test_null_space_orthogonality(self, rng):
        m = GFMatrix.random(3, 8, rng)
        ns = m.null_space()
        assert (m @ ns.transpose()).data.max() == 0

    def test_rank_nullity(self, rng):
        for cols in (4, 7, 10):
            m = GFMatrix.random(3, cols, rng)
            assert m.rank() + m.null_space().rows == cols

    def test_full_rank_square_has_trivial_null_space(self, rng):
        m = random_invertible(4, rng)
        assert m.null_space().rows == 0

    def test_row_space_contains(self, rng):
        # Row-space membership is a conditional rank of zero.
        m = GFMatrix.random(3, 6, rng)
        # Any row of m is in its own row space.
        assert conditional_rank(GFMatrix(m.data[0]), given=m) == 0
        # A vector outside (generically) is not: extend rank check.
        probe = rng.integers(0, 256, 6, dtype=np.uint8)
        expected = GFMatrix(np.vstack([m.data, probe])).rank() == m.rank()
        assert (conditional_rank(GFMatrix(probe), given=m) == 0) == expected

    def test_row_space_contains_length_mismatch(self, rng):
        m = GFMatrix.random(2, 4, rng)
        with pytest.raises(ValueError):
            conditional_rank(GFMatrix([1, 2, 3]), given=m)
