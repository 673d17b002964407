"""Exact leakage accounting: what does Eve know about the secret?

The paper's reliability metric: *reliability r means Eve can correctly
guess each bit of the shared group secret with probability 2^-r*.  In
our linear-algebraic setting this is an exact computation, not an
estimate.  Everything Eve knows about one round is linear in the round's
x-payload symbols:

* a unit row per x-packet she captured (she knows those symbols),
* the z-map rows (she hears every reliably-broadcast z-content — the
  paper's conservative assumption),
* all combination *identities* (descriptor broadcasts), i.e. the
  matrices themselves.

Conditioning on her known symbols deletes their columns; over the
remaining (Eve-missed) columns ``D`` the secret's conditional entropy in
field symbols per payload position is::

    hidden = rank([Z_D; S_D]) - rank(Z_D)

and reliability is ``hidden / L``; :func:`round_leakage` computes both
ranks in one elimination pass (:func:`repro.gf.linalg.conditional_rank`).
``r = 1`` means the secret is uniform given everything Eve saw; ``r = 0``
means she can reconstruct it outright.  The rank identity and the
per-bit guessing interpretation are exercised by a Monte-Carlo
cross-check in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Sequence, Tuple

import numpy as np

from repro.coding.privacy import GroupCodingPlan, YAllocation
from repro.gf.linalg import GFMatrix, conditional_rank

__all__ = ["LeakageReport", "round_leakage", "stacked_secret_maps"]


@dataclass(frozen=True)
class LeakageReport:
    """Exact secrecy outcome of one round.

    Attributes:
        secret_dims: L — group-secret length in packets.
        hidden_dims: how many of those packets remain fully unknown to
            Eve (conditional entropy in packet units).
        eve_missed: how many x-packets Eve actually missed.
    """

    secret_dims: int
    hidden_dims: int
    eve_missed: int

    @property
    def leaked_dims(self) -> int:
        return self.secret_dims - self.hidden_dims

    @property
    def reliability(self) -> float:
        """The paper's r; 1.0 for an empty secret (nothing to leak)."""
        if self.secret_dims == 0:
            return 1.0
        return self.hidden_dims / self.secret_dims

    @property
    def perfect(self) -> bool:
        return self.hidden_dims == self.secret_dims


def stacked_secret_maps(
    allocation: YAllocation, plan: GroupCodingPlan, all_x_ids: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """(Z·G, S·G): the x-to-z and x-to-s linear maps, stacked over chunks.

    ``G`` is the global y-map; columns follow ``all_x_ids`` order.
    """
    g = allocation.global_matrix(all_x_ids)
    z_rows = []
    s_rows = []
    for chunk in plan.chunks:
        g_chunk = g.take_rows(list(chunk.y_rows))
        if chunk.n_public:
            z_rows.append((chunk.z_matrix @ g_chunk).data)
        if chunk.n_secret:
            s_rows.append((chunk.s_matrix @ g_chunk).data)
    n_cols = len(all_x_ids)
    z_map = GFMatrix(np.vstack(z_rows)) if z_rows else GFMatrix.zeros(0, n_cols)
    s_map = GFMatrix(np.vstack(s_rows)) if s_rows else GFMatrix.zeros(0, n_cols)
    return z_map, s_map


def round_leakage(
    allocation: YAllocation,
    plan: GroupCodingPlan,
    eve_received_ids: FrozenSet[int],
    all_x_ids: Sequence[int],
) -> LeakageReport:
    """Compute Eve's exact uncertainty about one round's secret.

    Args:
        allocation: the round's y-plan (public identities).
        plan: the round's z/s maps (public identities).
        eve_received_ids: x-ids Eve captured over the air.
        all_x_ids: every x-id the leader transmitted this round.

    Returns:
        :class:`LeakageReport` with exact hidden/leaked dimensions.
    """
    z_map, s_map = stacked_secret_maps(allocation, plan, all_x_ids)
    missed_cols = [
        j for j, xid in enumerate(all_x_ids) if xid not in eve_received_ids
    ]
    secret_dims = s_map.rows
    if secret_dims == 0:
        return LeakageReport(0, 0, len(missed_cols))
    if not missed_cols:
        # Eve saw every x-packet: the whole secret is computable.
        return LeakageReport(secret_dims, 0, 0)
    z_d = z_map.take_cols(missed_cols)
    s_d = s_map.take_cols(missed_cols)
    hidden = conditional_rank(s_d, given=z_d)
    return LeakageReport(secret_dims, hidden, len(missed_cols))
