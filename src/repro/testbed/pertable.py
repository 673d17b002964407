"""Analytic per-pattern PER tables: the slot-aware testbed bridge.

The batched engine used to reach the physical testbed through a
Monte-Carlo link probe that *averaged loss across all interference
patterns* into an IID :class:`~repro.sim.spec.MatrixLossSpec` — erasing
exactly the slot-level burstiness the rotating schedule (§3.3/§4 of the
paper) engineers.  This module replaces the probe with closed-form
channel math: for every (transmitter, receiver, noise pattern) triple
the mean SINR follows from :mod:`repro.net.radio` path loss plus the
pattern's active-antenna interference powers, and the Rayleigh-faded
packet error rate is integrated by fixed quadrature
(:func:`repro.net.radio.expected_packet_loss`) instead of sampled.

The result feeds a :class:`~repro.sim.spec.ScheduleLossSpec`, so the
per-pattern structure — in-beam slots bursty-lossy, clear slots clean —
survives all the way into the subset-lattice accounting.  Faster (no
per-packet probe loop) and more faithful at once.

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
* Geometry jitter draws from the caller's generator in
  :meth:`~repro.testbed.deployment.Testbed.build_medium` order
  (terminals, Eve, extra antennas), so a per-packet medium built from
  the same seed sees identical positions.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.net.packet import DEFAULT_HEADER_BYTES
from repro.net.radio import expected_packet_loss, received_power_dbm, sinr_db
from repro.sim.spec import ScheduleLossSpec
from repro.testbed.deployment import Testbed
from repro.testbed.placements import Placement

__all__ = [
    "pattern_mean_sinr_db",
    "schedule_loss_table",
    "draw_positions",
    "placement_schedule_specs",
]


def pattern_mean_sinr_db(
    testbed: Testbed,
    tx_positions: Sequence[tuple],
    rx_positions: Sequence[tuple],
) -> np.ndarray:
    """Pre-fading mean SINR per (pattern, transmitter, receiver).

    Interference depends only on the receiver position and the active
    pattern; the signal term only on the (tx, rx) distance.  Returns
    shape ``(n_patterns, n_tx, n_rx)`` in dB.  With interference
    disabled (or no patterns) a single all-clear pattern is returned so
    the downstream schedule degenerates to the static channel.
    """
    cfg = testbed.config
    field = testbed.interference
    signal = np.empty((len(tx_positions), len(rx_positions)))
    for i, tx in enumerate(tx_positions):
        for j, rx in enumerate(rx_positions):
            distance = float(np.hypot(tx[0] - rx[0], tx[1] - rx[1]))
            signal[i, j] = received_power_dbm(
                cfg.radio.tx_power_dbm, distance, cfg.radio
            )
    n_patterns = field.n_patterns() if field.enabled else 0
    sinr = np.empty((max(n_patterns, 1),) + signal.shape)
    if n_patterns == 0:
        sinr[0] = signal - cfg.radio.noise_floor_dbm
        return sinr
    for k in range(n_patterns):
        slot = k * cfg.slots_per_pattern
        for j, rx in enumerate(rx_positions):
            interference = field.interference_powers_dbm(rx, slot)
            for i in range(len(tx_positions)):
                sinr[k, i, j] = sinr_db(
                    signal[i, j], interference, cfg.radio.noise_floor_dbm
                )
    return sinr


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
    sinr = pattern_mean_sinr_db(testbed, tx_positions, rx_positions)
    packet_bits = 8 * (payload_bytes + DEFAULT_HEADER_BYTES)
    per = expected_packet_loss(sinr, packet_bits, cfg.radio)
    return cfg.base_loss + (1.0 - cfg.base_loss) * per


def draw_positions(
    testbed: Testbed,
    placement: Placement,
    rng: np.random.Generator,
    eve_extra_cells: tuple = (),
) -> tuple:
    """Jittered ``(tx_positions, rx_positions)`` of a placement's links.

    Transmitters are the terminals in placement order; receivers are
    the same terminals followed by every Eve antenna (her placement
    cell, then ``eve_extra_cells`` in the order given).  The jitter
    comes from ``rng`` in
    :meth:`~repro.testbed.deployment.Testbed.build_medium` order, so a
    twin of an experiment's generator draws the positions its
    :func:`placement_schedule_specs` call will draw.

    Raises:
        ValueError: an extra antenna cell holds a terminal.
    """
    for cell in eve_extra_cells:
        if cell in placement.terminal_cells:
            raise ValueError("Eve's extra antennas cannot share terminal cells")
    terminal_positions, eve_position = testbed.node_positions(placement, rng)
    antenna_positions = [eve_position] + testbed.antenna_positions(
        tuple(eve_extra_cells), rng
    )
    return terminal_positions, list(terminal_positions) + antenna_positions


def placement_schedule_specs(
    testbed: Testbed,
    placement: Placement,
    rng: np.random.Generator,
    payload_bytes: int = 100,
    eve_extra_cells: tuple = (),
    prefetched: Optional[Callable[[], tuple]] = None,
) -> list:
    """Per-leader :class:`~repro.sim.spec.ScheduleLossSpec`s for a placement.

    The slot-aware replacement for the probe-based
    ``placement_loss_specs`` bridge: one spec per leader, links ordered
    as the batched engine expects (the other terminals in placement
    order, then every Eve antenna), each carrying the full per-pattern
    loss table and the deployment's dwell length.

    ``eve_extra_cells`` adds one trailing loss column per extra Eve
    antenna (the multi-antenna threat model of the paper's §6 and
    examples/multiantenna_eve.py): each antenna cell gets its own
    per-(pattern, tx) SINR column, so an antenna parked outside the
    jammed beam keeps hearing exactly when the schedule protects the
    primary cell.  Pair the resulting specs with
    ``AdversarySpec(antennas=1 + len(eve_extra_cells))`` so the
    engine's reception sampler unions across all antenna columns.

    ``rng`` draws the position jitter only (:func:`draw_positions`) —
    the same stream
    :meth:`~repro.testbed.deployment.Testbed.build_medium` would
    consume (terminals, Eve, then extra antennas), so packet- and
    batched-engine experiments with a shared seed see the same
    geometry.

    ``prefetched``, when given, returns ``(positions, table)``: a
    :func:`schedule_loss_table` built elsewhere (the campaign runner's
    helper process) for the ``(tx_positions, rx_positions)`` pair of
    :func:`draw_positions`.  The jitter is still drawn here, so the
    generator is consumed exactly as without it, and the table is used
    only if it was built for exactly the drawn positions.

    Raises:
        ValueError: an extra antenna cell holds a terminal.
        RuntimeError: the prefetched table was built for other positions.
    """
    positions = draw_positions(testbed, placement, rng, eve_extra_cells)
    if prefetched is None:
        table = schedule_loss_table(
            testbed, *positions, payload_bytes=payload_bytes
        )
    else:
        built_for, table = prefetched()
        if built_for != positions:
            raise RuntimeError(
                "the prefetched PER table was built for other positions"
            )
    n = placement.n_terminals
    n_antennas = len(positions[1]) - n
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
