"""Cauchy structure: the minor property secrecy rests on."""

import itertools

import numpy as np
import pytest

from repro.gf.matrices import MAX_CAUCHY_POINTS, cauchy_matrix


class TestCauchy:
    def test_shape(self):
        assert cauchy_matrix(3, 5).shape == (3, 5)

    def test_all_entries_nonzero(self):
        m = cauchy_matrix(6, 9)
        assert np.all(m.data != 0)

    def test_every_minor_nonsingular_exhaustive_small(self):
        m = cauchy_matrix(4, 5)
        for k in range(1, 5):
            for rows in itertools.combinations(range(4), k):
                for cols in itertools.combinations(range(5), k):
                    minor = m.take_rows(rows).take_cols(cols)
                    assert minor.is_invertible(), (rows, cols)

    def test_superregular_sampled_large(self, rng):
        m = cauchy_matrix(20, 60)
        for _ in range(100):
            k = int(rng.integers(1, 21))
            rows = sorted(rng.choice(20, size=k, replace=False))
            cols = sorted(rng.choice(60, size=k, replace=False))
            minor = m.take_rows(rows).take_cols(cols)
            assert minor.is_invertible(), (rows, cols)

    def test_offset_produces_distinct_matrices(self):
        a = cauchy_matrix(3, 4, offset=0)
        b = cauchy_matrix(3, 4, offset=10)
        assert a != b

    def test_stacked_square_cauchy_invertible(self):
        # The phase-2 construction relies on the full M x M matrix.
        for m in (2, 10, 40):
            assert cauchy_matrix(m, m).is_invertible()

    def test_size_limit_enforced(self):
        with pytest.raises(ValueError):
            cauchy_matrix(128, 129)
        # Boundary case is allowed.
        assert cauchy_matrix(1, MAX_CAUCHY_POINTS - 1).shape == (1, 255)

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            cauchy_matrix(-1, 3)

    def test_empty_dimensions(self):
        assert cauchy_matrix(0, 5).shape == (0, 5)
        assert cauchy_matrix(5, 0).shape == (5, 0)
