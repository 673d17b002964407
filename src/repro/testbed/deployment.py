"""Wiring geometry + interference + PHY into a broadcast medium.

:class:`Testbed` is the top-level factory: give it a
:class:`~repro.testbed.placements.Placement` and it returns a
:class:`~repro.net.medium.BroadcastMedium` populated with terminals at
cell centres, Eve in her cell, and a :class:`PhysicalLossModel` that
computes per-packet delivery from SINR under the rotating interference
schedule.  Each physical decision is made once here:
:meth:`Testbed.draw_positions` is the one jitter draw and
:func:`pattern_mean_sinr_db` the one link model — the per-packet medium,
the analytic PER tables (:mod:`repro.testbed.pertable`) and the
calibration all read their mean SINRs from it.

Calibration notes (docs/architecture.md, ``testbed``): with the default
0 dBm interferer EIRP, a jammed cell sees interference within a few dB
of the desired signal, so Rayleigh fading puts jammed links in the
0.4-0.9 loss regime while clear links lose almost nothing — the
partial-erasure environment the protocol feeds on, and the same
mechanism the paper engineered with WARP boards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.net.medium import BroadcastMedium, LossModel
from repro.net.node import Eavesdropper, Node, Terminal
from repro.net.packet import Packet
from repro.net.radio import (
    RadioConfig,
    received_power_dbm,
    sample_packet_loss,
    sinr_db,
)
from repro.net.trace import TransmissionLedger
from repro.testbed.geometry import TestbedGeometry
from repro.testbed.interference import InterferenceField, build_interference_field
from repro.testbed.placements import Placement

__all__ = [
    "TestbedConfig",
    "pattern_mean_sinr_db",
    "PhysicalLossModel",
    "Testbed",
]


@dataclass(frozen=True)
class TestbedConfig:
    """All knobs of the simulated deployment.

    Attributes:
        geometry: cell grid (defaults to the paper's 14 m² 3×3).
        radio: PHY parameters (defaults to the paper's 802.11g setup).
        interferer_power_dbm: EIRP of each interference antenna.
        interference_enabled: ablation switch (§3.3 of the paper argues
            the protocol needs the artificial interference).
        slots_per_pattern: transmissions per noise-pattern dwell.
        base_loss: residual loss probability on every link, modelling
            non-PHY effects (collisions, driver hiccups).
        position_jitter_m: uniform jitter applied to node positions so
            distinct experiments see slightly different geometries.
    """

    geometry: TestbedGeometry = field(default_factory=TestbedGeometry)
    radio: RadioConfig = field(default_factory=RadioConfig)
    interferer_power_dbm: float = 0.0
    interference_enabled: bool = True
    slots_per_pattern: int = 10
    base_loss: float = 0.02
    position_jitter_m: float = 0.15


def pattern_mean_sinr_db(
    config: TestbedConfig,
    field_: InterferenceField,
    tx_positions: Sequence[tuple],
    rx_positions: Sequence[tuple],
) -> np.ndarray:
    """Pre-fading mean SINR per (pattern, transmitter, receiver).

    The one place a link's distance and mean SINR are computed: the
    PER tables (:func:`repro.testbed.pertable.schedule_loss_table`),
    the per-packet medium and the calibration all read it.  The signal
    depends only on the (tx, rx) distance and is computed once per
    pair; the interference only on the receiver and the active pattern,
    once per (pattern, rx).  Returns shape ``(n_patterns, n_tx, n_rx)``
    in dB.  With interference disabled (or no patterns) a single
    all-clear pattern is returned, so a schedule built on it
    degenerates to the static channel.
    """
    radio = config.radio
    signal = np.empty((len(tx_positions), len(rx_positions)))
    for i, tx in enumerate(tx_positions):
        for j, rx in enumerate(rx_positions):
            distance = float(np.hypot(tx[0] - rx[0], tx[1] - rx[1]))
            signal[i, j] = received_power_dbm(radio.tx_power_dbm, distance, radio)
    n_patterns = field_.n_patterns() if field_.enabled else 0
    sinr = np.empty((max(n_patterns, 1),) + signal.shape)
    if n_patterns == 0:
        sinr[0] = signal - radio.noise_floor_dbm
        return sinr
    for k in range(n_patterns):
        for j, rx in enumerate(rx_positions):
            interference = field_.pattern_powers_dbm(rx, k)
            for i in range(len(tx_positions)):
                sinr[k, i, j] = sinr_db(
                    signal[i, j], interference, radio.noise_floor_dbm
                )
    return sinr


class PhysicalLossModel(LossModel):
    """SINR-driven per-packet loss under the interference schedule.

    A link's mean (pre-fading) SINR depends only on the transmitter
    position, the receiver position and the active jamming pattern, so
    :meth:`mean_sinr_db` takes a link's whole pattern row from
    :func:`pattern_mean_sinr_db` once and keeps it on the instance.
    :meth:`Testbed.build_medium` makes one model per placement and the
    calibration one per call, so each memo lives exactly as long as its
    medium or its calibration; there is no module-level cache.  The
    memo assumes the config and the field's antennas stay fixed;
    toggling ``field.enabled`` is safe (it is part of the key).
    """

    def __init__(self, config: TestbedConfig, field_: InterferenceField) -> None:
        self.config = config
        self.field = field_
        self._mean_sinr: dict = {}

    def mean_sinr_db(
        self, tx_position: tuple, rx_position: tuple, slot: int
    ) -> float:
        """Pre-fading SINR (dB) of the link at ``slot``'s pattern, memoised.

        The link's row of :func:`pattern_mean_sinr_db` is keyed on both
        positions and on whether the field is enabled.
        """
        field = self.field
        key = (tx_position, rx_position, field.enabled)
        row = self._mean_sinr.get(key)
        if row is None:
            row = pattern_mean_sinr_db(
                self.config, field, (tx_position,), (rx_position,)
            )[:, 0, 0].tolist()
            self._mean_sinr[key] = row
        if len(row) == 1:  # disabled, or a one-pattern schedule
            return row[0]
        return row[field.pattern_index(slot)]

    def lost_at(
        self,
        src: Node,
        position: tuple,
        dst: Node,
        packet: Packet,
        slot: int,
        rng: np.random.Generator,
    ) -> bool:
        return self.lost_at_sinr(
            self.mean_sinr_db(src.position, position, slot), packet.wire_bits, rng
        )

    def lost_at_sinr(
        self, mean_sinr_db: float, packet_bits: int, rng: np.random.Generator
    ) -> bool:
        """One packet's fate on a link of the given mean SINR.

        Draws the base-loss coin, then (unless it fired) fading,
        shadowing and the PER coin, in that order.
        """
        cfg = self.config
        if cfg.base_loss > 0 and rng.random() < cfg.base_loss:
            return True
        return sample_packet_loss(mean_sinr_db, packet_bits, cfg.radio, rng)


class Testbed:
    """Factory for placement-specific broadcast media.

    Example:
        >>> testbed = Testbed(TestbedConfig())
        >>> placement = next(enumerate_placements(3))  # doctest: +SKIP
        >>> medium, names = testbed.build_medium(placement, rng)  # doctest: +SKIP
    """

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        self.config = config if config is not None else TestbedConfig()
        self.interference = build_interference_field(
            self.config.geometry,
            self.config.radio,
            self.config.interferer_power_dbm,
            slots_per_pattern=self.config.slots_per_pattern,
        )
        self.interference.enabled = self.config.interference_enabled

    def draw_positions(
        self,
        placement: Placement,
        rng: np.random.Generator,
        eve_extra_cells: tuple = (),
    ) -> tuple:
        """Jittered node coordinates for a placement.

        Returns ``(terminal_positions, eve_antenna_positions)``: the
        terminals in placement order, then Eve's placement cell
        followed by ``eve_extra_cells`` in the order given.  The jitter
        is drawn from ``rng`` in that order, one cell at a time; the
        per-packet medium (:meth:`build_medium`) and the PER tables
        (:func:`repro.testbed.pertable.placement_schedule_specs`) both
        draw through here, so a shared generator state gives both the
        same geometry.

        Raises:
            ValueError: an extra antenna cell holds a terminal.
        """
        for cell in eve_extra_cells:
            if cell in placement.terminal_cells:
                raise ValueError("Eve's extra antennas cannot share terminal cells")
        geometry = self.config.geometry
        jitter = self.config.position_jitter_m
        positions = []
        for cell in (
            *placement.terminal_cells, placement.eve_cell, *eve_extra_cells
        ):
            x, y = geometry.cell_center(cell)
            if jitter > 0:
                x += float(rng.uniform(-jitter, jitter))
                y += float(rng.uniform(-jitter, jitter))
            positions.append((x, y))
        n = placement.n_terminals
        return positions[:n], positions[n:]

    def build_medium(
        self,
        placement: Placement,
        rng: np.random.Generator,
        eve_extra_cells: tuple = (),
        ledger: Optional[TransmissionLedger] = None,
    ) -> tuple:
        """Instantiate nodes for a placement and wire up the medium.

        Args:
            placement: Eve's cell + terminal cells.
            rng: randomness for jitter and all subsequent channel draws.
            eve_extra_cells: additional antenna cells for a multi-antenna
                Eve (the paper's §6 threat model); must avoid terminals.
            ledger: optional shared ledger.

        Returns:
            (medium, terminal_names) where terminal_names[i] corresponds
            to terminal_cells[i]; Eve's node is named ``"eve"``.
        """
        terminal_positions, antennas = self.draw_positions(
            placement, rng, eve_extra_cells
        )
        terminals = [
            Terminal(name=f"T{i}", position=pos)
            for i, pos in enumerate(terminal_positions)
        ]
        eve = Eavesdropper(
            name="eve", position=antennas[0], extra_antennas=antennas[1:]
        )
        loss_model = PhysicalLossModel(self.config, self.interference)
        medium = BroadcastMedium(
            terminals + [eve], loss_model, rng, ledger=ledger
        )
        return medium, [t.name for t in terminals]

    def eve_candidate_cells(self, placement: Placement) -> list:
        """Cells Eve could occupy: everything the terminals do not.

        The paper's deployment requires every node to keep the minimum
        distance (one cell diagonal) from every other node, so Eve cannot
        share a cell with a terminal.  Schedule-based estimators
        (:class:`repro.testbed.estimator.InterferenceAwareEstimator`)
        minimise their certified budget over exactly this candidate set —
        which is why their bounds tighten as the group grows and fills
        the grid.
        """
        occupied = set(placement.terminal_cells)
        return [c for c in self.config.geometry.all_cells() if c not in occupied]

    # -- diagnostics -----------------------------------------------------

    def link_loss_probe(
        self,
        placement: Placement,
        rng: np.random.Generator,
        packet_bytes: int = 128,
        trials: int = 300,
    ) -> dict:
        """Monte-Carlo per-link loss rates per noise pattern (diagnostics).

        Returns { (src, dst, pattern_index): loss_rate } for every
        directed terminal/Eve pair: the sampled reference the analytic
        PER tables (:mod:`repro.testbed.pertable`) are checked against.
        """
        from repro.net.packet import PacketKind  # local to avoid cycle at import

        medium, names = self.build_medium(placement, rng)
        probe = Packet(
            kind=PacketKind.X_DATA,
            src=names[0],
            payload=np.zeros(packet_bytes, dtype=np.uint8),
        )
        out: dict = {}
        all_names = names + ["eve"]
        n_patterns = self.interference.n_patterns()
        for pattern in range(n_patterns):
            slot = pattern * self.config.slots_per_pattern
            for src in names:
                probe.src = src
                for dst in all_names:
                    if dst == src:
                        continue
                    losses = 0
                    src_node = medium.node(src)
                    dst_node = medium.node(dst)
                    for _ in range(trials):
                        if medium.loss_model.lost(
                            src_node, dst_node, probe, slot, rng
                        ):
                            losses += 1
                    out[(src, dst, pattern)] = losses / trials
        return out
