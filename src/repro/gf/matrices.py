"""Cauchy generator matrices over GF(2^8).

The secrecy arguments of the protocol hinge on one structured family.
A **Cauchy matrix** ``C[i][j] = 1 / (x_i + y_j)`` (with all ``x_i``,
``y_j`` distinct) has *every square minor nonsingular* — the
"superregular" property.  This is the strongest possible MDS-type
guarantee and is what lets one matrix serve simultaneously as the
z-combination block (decodability for every terminal, whatever subset
of y-packets it is missing) and, stacked with the s-block, as a secrecy
certificate (row spaces intersect trivially).

Size limits: a Cauchy matrix over GF(256) needs ``rows + cols <= 256``
distinct field points.  The privacy-amplification layer chunks larger
pools (see :mod:`repro.coding.privacy`), so the builder simply raises
on oversize requests.
"""

from __future__ import annotations

import numpy as np

from repro.gf.linalg import GFMatrix
from repro.gf.tables import INV

__all__ = [
    "cauchy_matrix",
    "MAX_CAUCHY_POINTS",
]

#: A Cauchy matrix needs rows + cols distinct field elements.
MAX_CAUCHY_POINTS = 256


def cauchy_matrix(rows: int, cols: int, offset: int = 0) -> GFMatrix:
    """Build a ``rows x cols`` Cauchy matrix over GF(256).

    Row points are ``offset .. offset+rows-1`` and column points are
    ``offset+rows .. offset+rows+cols-1`` (all reduced mod 256 must stay
    distinct, hence the size check).  Every square submatrix of the result
    is invertible.

    Args:
        rows: number of rows (>= 0).
        cols: number of columns (>= 0).
        offset: starting field point; lets callers derive disjoint
            matrices from the same family deterministically.

    Raises:
        ValueError: if ``rows + cols + offset > 256`` (points would wrap
        and collide) or on negative sizes.
    """
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if rows + cols + offset > MAX_CAUCHY_POINTS:
        raise ValueError(
            f"Cauchy matrix needs {rows + cols + offset} <= 256 distinct points; "
            "chunk the pool instead"
        )
    x = np.arange(offset, offset + rows, dtype=np.uint8)
    y = np.arange(offset + rows, offset + rows + cols, dtype=np.uint8)
    # Field addition is XOR; all x_i ^ y_j are nonzero because the point
    # sets are disjoint.
    return GFMatrix(INV[x[:, None] ^ y[None, :]])

