"""Finite-field substrate: arithmetic and linear algebra over GF(2^8).

Every linear combination in the protocol (y-, z- and s-packets) and every
secrecy computation (Eve's conditional entropy) is carried out over the
field GF(2^8) = GF(256).  Packet payloads are treated as vectors of field
symbols (one byte per symbol), and all combinations act symbol-wise, so a
payload of ``k`` bytes is combined with plain matrix multiplication over
the field.

The field is realised with the primitive polynomial ``x^8 + x^4 + x^3 +
x^2 + 1`` (0x11D), the conventional choice for Reed-Solomon erasure codes,
with generator element 2.

Public surface:

* :mod:`repro.gf.tables` — the ``EXP``/``LOG`` discrete-log tables and
  the ``MUL``/``INV`` product and inverse tables every kernel looks up.
* :mod:`repro.gf.field` — scalar and vectorised numpy arithmetic.
* :mod:`repro.gf.linalg` — :class:`GFMatrix` with rank / solve / inverse /
  null-space, the workhorse behind both decoding and leakage measurement,
  and :func:`conditional_rank` for Eve's hidden dimensions.
* :mod:`repro.gf.matrices` — Cauchy generator matrices, whose
  every-minor-nonsingular property carries the secrecy proofs.
"""

from repro.gf.field import (
    GF_ORDER,
    GF_POLY,
    gf_add,
    gf_div,
    gf_inv,
    gf_mul,
    gf_pow,
)
from repro.gf.linalg import GFMatrix, conditional_rank
from repro.gf.matrices import cauchy_matrix

__all__ = [
    "GF_ORDER",
    "GF_POLY",
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "GFMatrix",
    "conditional_rank",
    "cauchy_matrix",
]
