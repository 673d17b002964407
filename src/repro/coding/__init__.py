"""Erasure coding and secrecy extraction.

This package implements the combination constructions the paper defers to
its technical report [9] (arXiv:1105.4991):

* :mod:`repro.coding.privacy` — privacy amplification: plans and builds
  the y-packet combination blocks so that the group secret is perfectly
  hidden from Eve whenever the erasure estimator's lower bounds hold, and
  builds the z/s matrices for phase 2.
* :mod:`repro.coding.reconcile` — the terminal-side decoders: reconstruct
  decodable y-packets from received x-packets, recover missing y-packets
  from public z-packets, and assemble s-packets.
"""

from repro.coding.privacy import (
    CombinationBlock,
    GroupCodingPlan,
    YAllocation,
    allocation_lp_cache_info,
    build_phase2_matrices,
    clear_allocation_lp_cache,
    plan_y_allocation,
)
from repro.coding.reconcile import (
    assemble_secret,
    decodable_y_indices,
    decode_y_from_x,
    recover_missing_y,
)

__all__ = [
    "CombinationBlock",
    "YAllocation",
    "GroupCodingPlan",
    "plan_y_allocation",
    "allocation_lp_cache_info",
    "clear_allocation_lp_cache",
    "build_phase2_matrices",
    "decodable_y_indices",
    "decode_y_from_x",
    "recover_missing_y",
    "assemble_secret",
]
