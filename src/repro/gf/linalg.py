"""Linear algebra over GF(2^8): the :class:`GFMatrix` class.

Everything the protocol needs reduces to a handful of operations on
matrices over GF(256):

* **encode** — multiply a combination matrix by a payload matrix,
* **decode** — solve a linear system for missing y-packets,
* **measure leakage** — ranks of stacked knowledge matrices (this is how
  Eve's exact conditional entropy, and therefore the paper's reliability
  metric, is computed).

The implementation keeps data in numpy uint8 arrays and performs row
reduction with vectorised row operations; only the pivot search is a
Python-level loop, so cost is O(min(r,c)) vectorised passes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gf.field import as_gf_array, gf_matmul
from repro.gf.tables import INV, MUL

__all__ = ["GFMatrix", "conditional_rank"]


def _row_reduce(
    a: np.ndarray,
    aug: Optional[np.ndarray] = None,
    start: int = 0,
    stop: Optional[int] = None,
) -> list[int]:
    """Gauss-Jordan elimination in place, pivots drawn from a row band.

    Pivots come only from rows ``start .. stop-1`` (``stop`` defaults to
    the last row) and are moved up to rows ``start, start+1, ...``.  Each
    pivot row is scaled to a leading 1 and its column is cleared in every
    row from ``start`` on; rows above ``start`` are left as they are.
    ``aug`` (if given) receives the same row operations.  Returns the
    pivot columns in order.

    Every product is a ``MUL`` lookup: ``MUL[f][:, row]`` holds
    ``f[i] * row[j]``, so zero entries need no masking.
    """
    rows, cols = a.shape
    stop = rows if stop is None else stop
    pivot_cols: list[int] = []
    r = start
    for c in range(cols):
        if r >= stop:
            break
        candidates = np.flatnonzero(a[r:stop, c])
        if candidates.size == 0:
            continue
        p = r + int(candidates[0])
        # Scale the pivot row to a leading 1; it will sit in row r.
        scale = MUL[INV[a[p, c]]]
        pivot = scale[a[p]]
        # Row r moves to p (a swap), then column c is cleared in one
        # pass; row r itself is overwritten by the pivot afterwards.
        factors = a[start:, c].copy()
        if p != r:
            a[p] = a[r]
            factors[p - start] = factors[r - start]
        products = MUL[factors]
        a[start:] ^= products[:, pivot]
        a[r] = pivot
        if aug is not None:
            pivot_aug = scale[aug[p]]
            if p != r:
                aug[p] = aug[r]
            aug[start:] ^= products[:, pivot_aug]
            aug[r] = pivot_aug
        pivot_cols.append(c)
        r += 1
    return pivot_cols


class GFMatrix:
    """A dense matrix over GF(256) backed by a numpy uint8 array.

    Instances are immutable by convention: operations return new matrices.
    The raw array is reachable via :attr:`data` for interop (e.g. feeding
    payload blocks in), but callers must not mutate it.
    """

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = as_gf_array(np.atleast_2d(np.asarray(data)))
        if arr.ndim != 2:
            raise ValueError("GFMatrix requires 2-D data")
        self.data = arr

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GFMatrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> "GFMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def random(cls, rows: int, cols: int, rng: np.random.Generator) -> "GFMatrix":
        return cls(rng.integers(0, 256, size=(rows, cols), dtype=np.uint8))

    # -- basic protocol -----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GFMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.all(self.data == other.data))

    def __hash__(self):
        return hash((self.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"GFMatrix({self.rows}x{self.cols})"

    def copy(self) -> "GFMatrix":
        return GFMatrix(self.data.copy())

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "GFMatrix") -> "GFMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch for GF matrix addition")
        return GFMatrix(np.bitwise_xor(self.data, other.data))

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        return GFMatrix(gf_matmul(self.data, other.data))

    def transpose(self) -> "GFMatrix":
        return GFMatrix(self.data.T.copy())

    def take_rows(self, indices) -> "GFMatrix":
        return GFMatrix(self.data[np.asarray(indices, dtype=np.intp), :])

    def take_cols(self, indices) -> "GFMatrix":
        return GFMatrix(self.data[:, np.asarray(indices, dtype=np.intp)])

    def vstack(self, other: "GFMatrix") -> "GFMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch for vstack")
        return GFMatrix(np.vstack([self.data, other.data]))

    def hstack(self, other: "GFMatrix") -> "GFMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch for hstack")
        return GFMatrix(np.hstack([self.data, other.data]))

    # -- elimination core ----------------------------------------------

    def _eliminate(self, augment: Optional[np.ndarray] = None):
        """Reduced row echelon form on a copy.

        Returns ``(rref, aug_rref, pivot_cols)``.  If ``augment`` is given
        it is carried along (for solving); otherwise ``aug_rref`` is None.
        """
        a = self.data.copy()
        aug = None if augment is None else as_gf_array(augment).copy()
        pivot_cols = _row_reduce(a, aug)
        return a, aug, pivot_cols

    def rref(self) -> tuple["GFMatrix", list[int]]:
        """Reduced row echelon form and the pivot column indices."""
        a, _, pivots = self._eliminate()
        return GFMatrix(a), pivots

    def rank(self) -> int:
        """Rank over GF(256)."""
        if self.rows == 0 or self.cols == 0:
            return 0
        _, pivots = self.rref()
        return len(pivots)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "GFMatrix":
        """Matrix inverse; raises ValueError when singular or non-square."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        a, aug, pivots = self._eliminate(np.eye(self.rows, dtype=np.uint8))
        if len(pivots) != self.rows:
            raise ValueError("matrix is singular over GF(256)")
        return GFMatrix(aug)

    def solve(self, rhs: "GFMatrix") -> "GFMatrix":
        """Solve ``self @ X = rhs`` for X.

        Works for square invertible systems and for overdetermined
        consistent systems with full column rank (the decoder's case:
        more z-equations than missing y-packets).

        Raises:
            ValueError: if the system is rank-deficient in its columns or
            inconsistent.
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs row count must match matrix row count")
        a, aug, pivots = self._eliminate(rhs.data)
        n_pivots = len(pivots)
        if n_pivots < self.cols:
            raise ValueError("underdetermined system: column rank deficient")
        # Consistency: rows of the rref beyond the pivots must have zero rhs.
        if n_pivots < self.rows and np.any(aug[n_pivots:] != 0):
            raise ValueError("inconsistent linear system over GF(256)")
        x = np.zeros((self.cols, rhs.cols), dtype=np.uint8)
        for row_idx, col_idx in enumerate(pivots):
            x[col_idx] = aug[row_idx]
        return GFMatrix(x)

    def null_space(self) -> "GFMatrix":
        """Basis for the right null space, one basis vector per row.

        Used by property tests to certify secrecy statements: a secret
        functional is hidden from Eve iff it has a component in the null
        space of her knowledge matrix.
        """
        rref, pivots = self.rref()
        free_cols = [c for c in range(self.cols) if c not in pivots]
        basis = np.zeros((len(free_cols), self.cols), dtype=np.uint8)
        for k, fc in enumerate(free_cols):
            basis[k, fc] = 1
            for row_idx, pc in enumerate(pivots):
                basis[k, pc] = rref.data[row_idx, fc]
        return GFMatrix(basis) if free_cols else GFMatrix.zeros(0, self.cols)


def conditional_rank(rows: GFMatrix, given: GFMatrix) -> int:
    """``rank([given; rows]) - rank(given)``, in one elimination pass.

    The rank ``rows`` add beyond the row space of ``given``: Eve's
    conditional entropy when ``given`` is what she knows and ``rows``
    is the secret (see :func:`repro.core.eve.round_leakage`).  The
    ``given`` rows are reduced first, with pivots drawn from them only,
    which clears their pivot columns from ``rows`` as well; the pivots
    the reduced ``rows`` then yield are exactly the added rank.
    """
    if rows.cols != given.cols:
        raise ValueError("column mismatch for conditional rank")
    a = np.vstack([given.data, rows.data])
    known = len(_row_reduce(a, stop=given.rows))
    # Unused given rows are zero now, so carry on from the first of them.
    return len(_row_reduce(a, start=known))
