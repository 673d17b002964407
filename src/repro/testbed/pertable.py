"""Analytic per-pattern PER tables: the slot-aware testbed bridge.

The batched engine reaches the physical testbed through closed-form
channel math: for every (transmitter, receiver, noise pattern) triple
the mean SINR comes from the deployment's one link model
(:func:`repro.testbed.deployment.pattern_mean_sinr_db`, which the
per-packet medium reads too), and the Rayleigh-faded packet error rate
is integrated by fixed quadrature
(:func:`repro.net.radio.expected_packet_loss`) instead of sampled.

The result feeds a :class:`~repro.sim.spec.ScheduleLossSpec`, so the
per-pattern structure — in-beam slots bursty-lossy, clear slots clean —
survives all the way into the subset-lattice accounting.  The
Monte-Carlo :meth:`~repro.testbed.deployment.Testbed.link_loss_probe`
stays as the sampled reference these tables are checked against.

Axis and ordering conventions (shared with :mod:`repro.sim.spec`):

* Tables are ``(n_patterns, n_tx, n_rx)``; pattern index ``k`` is the
  schedule's k-th noise pattern, active during slots
  ``[k * slots_per_pattern, (k+1) * slots_per_pattern)`` of each
  period.
* ``rx`` columns follow the engine's link order: the leader's fellow
  terminals in placement order first, then every Eve antenna — her
  placement cell followed by ``eve_extra_cells`` in the order given.
  A multi-antenna Eve therefore contributes one loss column per
  antenna cell, and :func:`repro.sim.reception.sample_receptions`
  unions reception across exactly those trailing columns.
* Geometry jitter is drawn by
  :meth:`~repro.testbed.deployment.Testbed.draw_positions`, the draw
  :meth:`~repro.testbed.deployment.Testbed.build_medium` makes, so a
  per-packet medium built from the same seed sees identical positions.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.net.packet import DEFAULT_HEADER_BYTES
from repro.net.radio import expected_packet_loss
from repro.sim.spec import ScheduleLossSpec
from repro.testbed.deployment import Testbed, pattern_mean_sinr_db
from repro.testbed.placements import Placement

__all__ = [
    "schedule_loss_table",
    "leader_schedule_specs",
    "placement_schedule_specs",
]


def schedule_loss_table(
    testbed: Testbed,
    tx_positions: Sequence[tuple],
    rx_positions: Sequence[tuple],
    payload_bytes: int = 100,
) -> np.ndarray:
    """Expected loss probability per (pattern, transmitter, receiver).

    Combines the deployment's residual ``base_loss`` with the analytic
    Rayleigh/shadowing PER expectation at each pattern's mean SINR —
    the closed-form counterpart of probing each link with
    :meth:`~repro.testbed.deployment.Testbed.link_loss_probe`.

    Args:
        testbed: the deployment (radio, interference, base loss).
        tx_positions / rx_positions: node coordinates in metres.
        payload_bytes: packet payload; the link-layer header is added
            exactly as :attr:`repro.net.packet.Packet.wire_bytes` does.

    Returns:
        Array ``(n_patterns, n_tx, n_rx)`` of loss probabilities.
    """
    cfg = testbed.config
    sinr = pattern_mean_sinr_db(
        cfg, testbed.interference, tx_positions, rx_positions
    )
    packet_bits = 8 * (payload_bytes + DEFAULT_HEADER_BYTES)
    per = expected_packet_loss(sinr, packet_bits, cfg.radio)
    return cfg.base_loss + (1.0 - cfg.base_loss) * per


def placement_schedule_specs(
    testbed: Testbed,
    placement: Placement,
    rng: np.random.Generator,
    payload_bytes: int = 100,
    eve_extra_cells: tuple = (),
    prefetched: Optional[Callable[[], tuple]] = None,
) -> list:
    """Per-leader :class:`~repro.sim.spec.ScheduleLossSpec`s for a placement.

    One spec per leader, links ordered as the batched engine expects
    (the other terminals in placement order, then every Eve antenna),
    each carrying the full per-pattern loss table and the deployment's
    dwell length.

    ``eve_extra_cells`` adds one trailing loss column per extra Eve
    antenna (the multi-antenna threat model of the paper's §6 and
    examples/multiantenna_eve.py): each antenna cell gets its own
    per-(pattern, tx) SINR column, so an antenna parked outside the
    jammed beam keeps hearing exactly when the schedule protects the
    primary cell.  Pair the resulting specs with
    ``AdversarySpec(antennas=1 + len(eve_extra_cells))`` so the
    engine's reception sampler unions across all antenna columns.

    ``rng`` draws the position jitter only, through
    :meth:`~repro.testbed.deployment.Testbed.draw_positions` — the draw
    :meth:`~repro.testbed.deployment.Testbed.build_medium` makes
    (terminals, Eve, then extra antennas), so packet- and
    batched-engine experiments with a shared seed see the same
    geometry.

    ``prefetched``, when given, returns ``(positions, table)``: a
    :func:`schedule_loss_table` built elsewhere (the campaign runner's
    helper process, which also solves the leaders' planning LPs from
    it) for the ``(terminal_positions, eve_antenna_positions)`` pair
    that :meth:`~repro.testbed.deployment.Testbed.draw_positions`
    returns.  The jitter is still drawn here, so the generator is
    consumed exactly as without it, and the table is used only if it
    was built for exactly the drawn positions.  Either way
    the specs are cut by :func:`leader_schedule_specs`.

    Raises:
        ValueError: an extra antenna cell holds a terminal.
        RuntimeError: the prefetched table was built for other positions.
    """
    positions = testbed.draw_positions(placement, rng, eve_extra_cells)
    if prefetched is None:
        terminals, antennas = positions
        table = schedule_loss_table(
            testbed, terminals, terminals + antennas, payload_bytes
        )
    else:
        built_for, table = prefetched()
        if built_for != positions:
            raise RuntimeError(
                "the prefetched PER table was built for other positions"
            )
    return leader_schedule_specs(testbed, placement, table)


def leader_schedule_specs(
    testbed: Testbed, placement: Placement, table: np.ndarray
) -> list:
    """One :class:`~repro.sim.spec.ScheduleLossSpec` per leader of a
    placement, cut from its :func:`schedule_loss_table`.

    Leader ``i``'s links are the other terminals in placement order,
    then every Eve antenna column of ``table`` (see
    :func:`placement_schedule_specs`).
    """
    n = placement.n_terminals
    n_antennas = table.shape[2] - n
    specs = []
    for leader in range(n):
        # Fellow terminals first, then every Eve antenna column.
        receivers = [j for j in range(n) if j != leader] + list(
            range(n, n + n_antennas)
        )
        pattern_probabilities = tuple(
            tuple(float(table[k, leader, j]) for j in receivers)
            for k in range(table.shape[0])
        )
        specs.append(
            ScheduleLossSpec(
                pattern_probabilities=pattern_probabilities,
                slots_per_pattern=testbed.config.slots_per_pattern,
            )
        )
    return specs
