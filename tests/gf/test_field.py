"""Field axioms and vector/scalar agreement for GF(2^8) arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gf.field import (
    GF_GENERATOR,
    as_gf_array,
    gf_add,
    gf_div,
    gf_inv,
    gf_matmul,
    gf_mul,
    gf_poly_eval,
    gf_pow,
)
from repro.gf.tables import EXP, LOG, build_tables

element = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestTables:
    def test_generator_is_primitive(self):
        # g**k for k in [0, 255) hits every nonzero element exactly once,
        # so the generator has order 255.
        assert EXP[1] == GF_GENERATOR
        assert sorted(EXP[:255].tolist()) == list(range(1, 256))

    def test_exp_log_roundtrip(self):
        for a in range(1, 256):
            assert EXP[LOG[a]] == a

    def test_exp_is_periodic(self):
        assert np.array_equal(EXP[:255], EXP[255:510])

    def test_log_zero_is_sentinel(self):
        assert LOG[0] < -255

    def test_build_tables_deterministic(self):
        exp2, log2 = build_tables()
        assert np.array_equal(exp2, EXP)
        assert np.array_equal(log2, LOG)


class TestScalarAxioms:
    @given(element, element)
    def test_addition_is_xor_and_commutative(self, a, b):
        assert gf_add(a, b) == (a ^ b) == gf_add(b, a)

    @given(element)
    def test_addition_self_inverse(self, a):
        assert gf_add(a, a) == 0

    @given(element, element)
    def test_multiplication_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(element, element, element)
    def test_multiplication_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(element, element, element)
    def test_distributivity(self, a, b, c):
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))

    @given(element)
    def test_multiplicative_identity(self, a):
        assert gf_mul(a, 1) == a

    @given(element)
    def test_zero_annihilates(self, a):
        assert gf_mul(a, 0) == 0

    @given(nonzero)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(element, nonzero)
    def test_division_inverts_multiplication(self, a, b):
        assert gf_mul(gf_div(a, b), b) == a

    @given(nonzero)
    def test_fermat(self, a):
        assert gf_pow(a, 255) == 1

    @given(nonzero, st.integers(min_value=0, max_value=10))
    def test_pow_matches_repeated_multiplication(self, a, k):
        expected = 1
        for _ in range(k):
            expected = gf_mul(expected, a)
        assert gf_pow(a, k) == expected

    @given(nonzero, st.integers(min_value=1, max_value=10))
    def test_negative_pow(self, a, k):
        assert gf_mul(gf_pow(a, k), gf_pow(a, -k)) == 1

    def test_pow_zero_conventions(self):
        assert gf_pow(0, 0) == 1
        assert gf_pow(0, 5) == 0

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)


class TestVectorisedAgreement:
    def test_mul_matches_scalar(self, rng):
        a = rng.integers(0, 256, 300, dtype=np.uint8)
        b = rng.integers(0, 256, 300, dtype=np.uint8)
        out = gf_mul(a, b)
        for i in range(300):
            assert out[i] == gf_mul(int(a[i]), int(b[i]))

    def test_div_matches_scalar(self, rng):
        a = rng.integers(0, 256, 200, dtype=np.uint8)
        b = rng.integers(1, 256, 200, dtype=np.uint8)
        out = gf_div(a, b)
        for i in range(200):
            assert out[i] == gf_div(int(a[i]), int(b[i]))

    def test_inv_matches_scalar(self, rng):
        a = rng.integers(1, 256, 200, dtype=np.uint8)
        out = gf_inv(a)
        for i in range(200):
            assert out[i] == gf_inv(int(a[i]))

    def test_pow_matches_scalar(self, rng):
        a = rng.integers(0, 256, 100, dtype=np.uint8)
        out = gf_pow(a, 3)
        for i in range(100):
            assert out[i] == gf_pow(int(a[i]), 3)

    def test_vector_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(np.array([1, 2], dtype=np.uint8), np.array([1, 0], dtype=np.uint8))

    def test_vector_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(np.array([3, 0], dtype=np.uint8))

    def test_add_arrays(self):
        a = np.array([1, 2, 255], dtype=np.uint8)
        b = np.array([1, 3, 255], dtype=np.uint8)
        assert np.array_equal(gf_add(a, b), np.array([0, 1, 0], dtype=np.uint8))


class TestMatmul:
    def test_identity(self, rng):
        x = rng.integers(0, 256, (5, 7), dtype=np.uint8)
        eye = np.eye(5, dtype=np.uint8)
        assert np.array_equal(gf_matmul(eye, x), x)

    def test_associativity(self, rng):
        a = rng.integers(0, 256, (4, 5), dtype=np.uint8)
        b = rng.integers(0, 256, (5, 6), dtype=np.uint8)
        c = rng.integers(0, 256, (6, 3), dtype=np.uint8)
        left = gf_matmul(gf_matmul(a, b), c)
        right = gf_matmul(a, gf_matmul(b, c))
        assert np.array_equal(left, right)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf_matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))

    def test_empty_dimensions(self):
        out = gf_matmul(np.zeros((0, 3), dtype=np.uint8), np.zeros((3, 2), dtype=np.uint8))
        assert out.shape == (0, 2)

    def test_zero_rows_stay_zero(self, rng):
        a = np.zeros((2, 4), dtype=np.uint8)
        b = rng.integers(0, 256, (4, 5), dtype=np.uint8)
        assert gf_matmul(a, b).max() == 0


class TestHelpers:
    def test_as_gf_array_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            as_gf_array([0, 256])
        with pytest.raises(ValueError):
            as_gf_array([-1])

    def test_as_gf_array_accepts_uint8(self):
        arr = np.array([1, 2], dtype=np.uint8)
        assert as_gf_array(arr) is arr

    def test_poly_eval_constant(self):
        assert gf_poly_eval(np.array([42], dtype=np.uint8), 17) == 42

    def test_poly_eval_horner(self):
        # p(x) = 3x^2 + 5x + 7 at x = 2
        coeffs = np.array([3, 5, 7], dtype=np.uint8)
        x = 2
        expected = gf_add(gf_add(gf_mul(3, gf_mul(x, x)), gf_mul(5, x)), 7)
        assert gf_poly_eval(coeffs, x) == expected
