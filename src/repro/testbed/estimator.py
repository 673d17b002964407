"""The artificial-interference estimator (§3.3, first idea).

"We can use especially crafted interference that causes Eve to miss some
minimum fraction of the packets shared by Alice and Bob, independently
from the naturally occurring channel conditions."

The interference schedule is public and position-oblivious: *whatever
cell Eve occupies*, the rotating row+column beams cover her for the
patterns crossing that cell, and while covered she loses at least
``min_jam_loss`` of the packets (a property of interferer power and
geometry, calibrated once per deployment — see
:meth:`calibrate_min_jam_loss`).

For a packet set ``I`` the certified budget is therefore::

    min over candidate cells e of
        min_jam_loss * |{ i in I : pattern(slot_i) jams cell e }|

minus a binomial concentration margin.  Because the bound quantifies
over *every* cell Eve could occupy and conditions only on the public
schedule — never on what terminals received — it has no selection bias,
unlike naive leave-one-out counting (see
:class:`repro.core.estimator.LeaveOneOutEstimator`'s discussion).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.estimator import EveErasureEstimator
from repro.net.packet import Packet, PacketKind
from repro.testbed.deployment import PhysicalLossModel, Testbed
from repro.testbed.geometry import TestbedGeometry
from repro.testbed.interference import InterferenceField

__all__ = ["InterferenceAwareEstimator", "calibrate_min_jam_loss"]


class InterferenceAwareEstimator(EveErasureEstimator):
    """Budget = guaranteed in-beam misses, minimised over Eve's possible cells.

    Args:
        field: the deployment's interference field (public schedule).
        geometry: the cell grid.
        min_jam_loss: certified lower bound on the loss probability of a
            receiver inside an active beam (from calibration).
        candidate_cells: cells Eve might occupy; defaults to all cells
            (the protocol cannot know which cell is hers).
        discount: multiplicative conservatism on the certified rate (the
            budget must stay linear in the query size so the allocation
            LP can reason about small cells; concentration safety comes
            from this discount plus phase-2 secrecy slack).
    """

    def __init__(
        self,
        field: InterferenceField,
        geometry: TestbedGeometry,
        min_jam_loss: float,
        candidate_cells: Optional[Sequence[int]] = None,
        discount: float = 0.9,
    ) -> None:
        if not 0.0 <= min_jam_loss <= 1.0:
            raise ValueError("min_jam_loss must be in [0, 1]")
        if not 0.0 < discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        self.field = field
        self.geometry = geometry
        self.min_jam_loss = min_jam_loss
        self.candidate_cells = (
            list(candidate_cells)
            if candidate_cells is not None
            else geometry.all_cells()
        )
        self.discount = discount
        # Pattern -> jammed-cell table, precomputed once: the schedule
        # is static, so a budget query only needs each queried slot's
        # pattern index and a bincount instead of rebuilding a jammed
        # set per (candidate cell, x-id) pair.
        self._jam_table = np.zeros(
            (len(field.patterns), geometry.n_cells), dtype=float
        )
        for k in range(len(field.patterns)):
            cells = field.jammed_cells_for_pattern(geometry, k)
            self._jam_table[k, sorted(cells)] = 1.0
        self._candidate_index = np.asarray(self.candidate_cells, dtype=np.intp)

    def budget(self, ids: Sequence[int], exclude: frozenset = frozenset()) -> float:
        ctx = self.context
        if ctx.x_slots is None:
            return 0.0
        p = self.min_jam_loss
        if p <= 0.0 or not self.candidate_cells:
            return 0.0
        field = self.field
        n_patterns = len(field.patterns)
        if not field.enabled or n_patterns == 0:
            return 0.0
        pattern_ids = [
            field.pattern_index(slot)
            for slot in (ctx.x_slots.get(xid) for xid in ids)
            if slot is not None
        ]
        if not pattern_ids:
            return 0.0
        hits = np.bincount(pattern_ids, minlength=n_patterns)
        jammed = hits @ self._jam_table[:, self._candidate_index]
        return max(p * self.discount * float(jammed.min()), 0.0)


def calibrate_min_jam_loss(
    testbed: Testbed,
    rng: np.random.Generator,
    payload_bytes: int = 100,
    trials: int = 400,
    quantile_discount: float = 0.9,
) -> float:
    """Measure the smallest in-beam loss probability across the grid.

    For every (cell, jamming pattern that covers it, representative
    transmitter cell) the loss rate is Monte-Carlo sampled; the minimum
    over all combinations, discounted by ``quantile_discount``, is a
    defensible ``min_jam_loss`` for this deployment.  Deployments would
    do the same with a site survey.
    """
    geometry = testbed.config.geometry
    field = testbed.interference
    packet_bits = Packet(
        kind=PacketKind.X_DATA,
        src="probe",
        payload=np.zeros(payload_bytes, dtype=np.uint8),
    ).wire_bits
    loss_model = PhysicalLossModel(testbed.config, field)
    worst: Optional[float] = None
    for rx_cell in geometry.all_cells():
        rx_pos = geometry.cell_center(rx_cell)
        for pattern_idx in range(field.n_patterns()):
            slot = pattern_idx * field.slots_per_pattern
            if rx_cell not in field.jammed_cells(geometry, slot):
                continue
            for tx_cell in geometry.all_cells():
                if tx_cell == rx_cell:
                    continue
                sinr = loss_model.mean_sinr_db(
                    geometry.cell_center(tx_cell), rx_pos, slot
                )
                losses = sum(
                    1
                    for _ in range(trials)
                    if loss_model.lost_at_sinr(sinr, packet_bits, rng)
                )
                rate = losses / trials
                worst = rate if worst is None else min(worst, rate)
    return (worst or 0.0) * quantile_discount

