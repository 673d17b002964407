"""Scalar and vectorised arithmetic in GF(2^8).

All functions accept either Python ints or numpy arrays (any shape) of
dtype uint8 and broadcast like ordinary numpy ufuncs.  Addition is XOR;
every product is one lookup in the 256 x 256 table ``MUL`` and every
inverse one lookup in ``INV`` (both from :mod:`repro.gf.tables`), so
zero operands need no masking.  Powers go through the discrete-log
tables.

The arithmetic is exact: a table lookup returns the same byte as any
other correct multiplication, so kernels built on these tables produce
bit-identical combinations, tags and ranks.  :func:`gf_matmul` — which
combines packet payloads — is one broadcast gather plus an XOR
reduction.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.gf.tables import EXP, GF_GENERATOR, GF_ORDER, GF_POLY, INV, LOG, MUL

GFElement = Union[int, np.ndarray]

__all__ = [
    "GF_ORDER",
    "GF_POLY",
    "GF_GENERATOR",
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "gf_matmul",
    "gf_poly_eval",
    "as_gf_array",
]


def as_gf_array(values) -> np.ndarray:
    """Coerce ``values`` to a uint8 numpy array, validating the range.

    Raises:
        ValueError: if any value is outside [0, 255].
    """
    arr = np.asarray(values)
    if arr.dtype != np.uint8:
        if np.any((arr < 0) | (arr > 255)):
            raise ValueError("GF(256) elements must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    return arr


def gf_add(a: GFElement, b: GFElement) -> GFElement:
    """Field addition (== subtraction): bitwise XOR."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return int(a) ^ int(b)
    return np.bitwise_xor(as_gf_array(a), as_gf_array(b))


def gf_mul(a: GFElement, b: GFElement) -> GFElement:
    """Field multiplication: one lookup in the product table ``MUL``."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return int(MUL[a, b])
    return MUL[as_gf_array(a), as_gf_array(b)]


def gf_inv(a: GFElement) -> GFElement:
    """Multiplicative inverse.

    Raises:
        ZeroDivisionError: on any zero operand, scalar or array.
    """
    if isinstance(a, (int, np.integer)):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return int(INV[a])
    a_arr = as_gf_array(a)
    if np.any(a_arr == 0):
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return INV[a_arr]


def gf_div(a: GFElement, b: GFElement) -> GFElement:
    """Field division ``a / b``; raises ZeroDivisionError when b == 0."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(256)")
        return int(MUL[a, INV[b]])
    b_arr = as_gf_array(b)
    if np.any(b_arr == 0):
        raise ZeroDivisionError("division by zero in GF(256)")
    return MUL[as_gf_array(a), INV[b_arr]]


def _powers(a: np.ndarray, exponents) -> np.ndarray:
    """``a ** e`` elementwise (broadcasting) for exponents ``e >= 0``."""
    # LOG[0] is a sentinel: 0 ** e is 0, except 0 ** 0 == 1.
    powers = EXP[LOG[a] * (exponents % 255) % 255]
    return np.where(a == 0, exponents == 0, powers).astype(np.uint8)


def gf_pow(a: GFElement, exponent: int) -> GFElement:
    """``a ** exponent`` with the usual conventions (``a**0 == 1``)."""
    if exponent < 0:
        return gf_pow(gf_inv(a), -exponent)
    out = _powers(as_gf_array(a), exponent)
    return int(out) if isinstance(a, (int, np.integer)) else out


#: Bytes of the (rows, k, cols) product block :func:`gf_matmul` gathers
#: at once; larger products run in row chunks of about this size.
MATMUL_CHUNK_BYTES = 1 << 20


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256).

    ``a`` has shape (r, k), ``b`` has shape (k, c); the result has shape
    (r, c).  Every scalar product is one broadcast gather
    ``MUL[a[:, :, None], b[None]]`` of shape (r, k, c), XOR-reduced over
    k.  Rows run in chunks so the gathered block stays near
    :data:`MATMUL_CHUNK_BYTES`.
    """
    a = as_gf_array(np.atleast_2d(a))
    b = as_gf_array(np.atleast_2d(b))
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch for GF matmul: {a.shape} x {b.shape}")
    rows, k = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols), dtype=np.uint8)
    if k == 0 or cols == 0:
        return out
    step = max(1, MATMUL_CHUNK_BYTES // (k * cols))
    for start in range(0, rows, step):
        block = MUL[a[start : start + step, :, None], b[None]]
        np.bitwise_xor.reduce(block, axis=1, out=out[start : start + step])
    return out


def gf_poly_eval(coeffs: np.ndarray, x: GFElement) -> GFElement:
    """Evaluate a polynomial with GF(256) coefficients at ``x``.

    ``coeffs`` is highest-degree first; ``x`` is one point or an array
    of points, and the result has the shape of ``x``.  The powers
    ``x**d`` come from the log tables, and the sum over terms is one
    ``MUL`` gather XOR-reduced over the degree axis.  Used by the
    authentication MAC (polynomial universal hashing).
    """
    coeffs = as_gf_array(np.atleast_1d(coeffs))
    points = as_gf_array(x)
    powers = _powers(points[..., None], np.arange(coeffs.size - 1, -1, -1))
    values = np.bitwise_xor.reduce(MUL[coeffs, powers], axis=-1)
    return int(values) if np.ndim(x) == 0 else values
