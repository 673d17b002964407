"""Artificial interference: directional perimeter antennas and the
9-pattern rotation schedule.

The paper's interferers are 6 WARP boards with two directional antennas
each (3-dB beamwidth 22°), placed along the perimeter, switched so that
"at any point in time, one pair of antennas creates noise along a row,
while another pair creates noise along a column".  With a 3×3 grid that
yields 3 × 3 = 9 patterns, rotated once per time slot; every cell is
jammed in 5 of the 9 patterns (its row's 3 plus its column's 3, minus
the double-counted intersection), so *wherever Eve sits she is jammed
for 5/9 of the experiment* — the mechanism that guarantees her a minimum
miss fraction regardless of natural channel conditions.

We model each antenna as a cone: full power inside the half-beamwidth,
a flat side-lobe suppression outside.  A row is jammed by the pair of
antennas facing each other across it (likewise columns), which evens the
jamming power across the row's three cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.net.radio import RadioConfig, path_loss_db
from repro.testbed.geometry import TestbedGeometry

__all__ = [
    "InterfererAntenna",
    "NoisePattern",
    "InterferenceField",
    "build_interference_field",
]


@dataclass(frozen=True)
class InterfererAntenna:
    """One directional interference antenna.

    Attributes:
        position: (x, y) in metres.
        azimuth_rad: boresight direction.
        power_dbm: EIRP on boresight.
        beamwidth_deg: full 3-dB beamwidth (paper: 22°).
        sidelobe_suppression_db: attenuation outside the beam cone.
    """

    position: tuple
    azimuth_rad: float
    power_dbm: float
    beamwidth_deg: float = 22.0
    sidelobe_suppression_db: float = 25.0

    def gain_db_towards(self, target: tuple) -> float:
        """Antenna gain towards ``target`` relative to boresight."""
        dx = target[0] - self.position[0]
        dy = target[1] - self.position[1]
        if dx == 0.0 and dy == 0.0:
            return 0.0
        angle = math.atan2(dy, dx)
        delta = abs((angle - self.azimuth_rad + math.pi) % (2 * math.pi) - math.pi)
        half_beam = math.radians(self.beamwidth_deg / 2.0)
        if delta <= half_beam:
            return 0.0
        return -self.sidelobe_suppression_db

    def power_at_dbm(self, target: tuple, radio: RadioConfig) -> float:
        """Interference power this antenna lands on ``target``."""
        distance = math.hypot(
            target[0] - self.position[0], target[1] - self.position[1]
        )
        return (
            self.power_dbm
            + self.gain_db_towards(target)
            - path_loss_db(distance, radio)
        )


@dataclass(frozen=True)
class NoisePattern:
    """One schedule entry: a jammed row and a jammed column.

    ``antenna_ids`` are the four active antennas (the row pair and the
    column pair).
    """

    row: int
    col: int
    antenna_ids: tuple


@dataclass
class InterferenceField:
    """All antennas plus the rotating pattern schedule.

    ``slots_per_pattern`` controls how many transmission slots each
    pattern stays up before the schedule advances — the paper rotates
    through all 9 patterns within each experiment.
    """

    antennas: list
    patterns: list
    radio: RadioConfig
    slots_per_pattern: int = 10
    enabled: bool = True

    def pattern_index(self, slot: int) -> int:
        """Index of the pattern up at ``slot`` (ignores ``enabled``)."""
        return (slot // max(self.slots_per_pattern, 1)) % len(self.patterns)

    def pattern_at(self, slot: int) -> NoisePattern:
        return self.patterns[self.pattern_index(slot)]

    def pattern_powers_dbm(self, position: tuple, index: int) -> list:
        """Powers (dBm) pattern ``index``'s antennas land on ``position``
        (ignores ``enabled``)."""
        return [
            self.antennas[i].power_at_dbm(position, self.radio)
            for i in self.patterns[index].antenna_ids
        ]

    def jammed_cells_for_pattern(self, geometry: TestbedGeometry, index: int) -> set:
        """Cells inside pattern ``index``'s row/column beams.

        Pure schedule geometry (ignores ``enabled``): the single source
        of truth for beam coverage, shared by the live :meth:`jammed_cells`
        query and precomputed tables like the interference-aware
        estimator's pattern-to-jammed-cell matrix.
        """
        pattern = self.patterns[index]
        return set(geometry.cells_in_row(pattern.row)) | set(
            geometry.cells_in_col(pattern.col)
        )

    def jammed_cells(self, geometry: TestbedGeometry, slot: int) -> set:
        """Cells inside the beams active at ``slot`` (diagnostics)."""
        if not self.enabled or not self.patterns:
            return set()
        return self.jammed_cells_for_pattern(geometry, self.pattern_index(slot))

    def n_patterns(self) -> int:
        return len(self.patterns)


def build_interference_field(
    geometry: TestbedGeometry,
    radio: RadioConfig,
    power_dbm: float,
    margin_m: float = 0.3,
    slots_per_pattern: int = 10,
    beamwidth_deg: float = 22.0,
) -> InterferenceField:
    """Construct the paper's perimeter interferer layout.

    For each row: a pair of antennas facing each other from the west and
    east edges (offset ``margin_m`` outside the area); for each column: a
    pair from the south and north edges.  Pattern ``(r, c)`` activates
    row ``r``'s pair and column ``c``'s pair; all ``grid²`` patterns are
    scheduled in row-major order.
    """
    side = geometry.side_m
    grid = geometry.grid
    cell = geometry.cell_size_m
    antennas: list = []
    row_pairs: dict = {}
    col_pairs: dict = {}
    for r in range(grid):
        y = (r + 0.5) * cell
        west = InterfererAntenna(
            position=(-margin_m, y),
            azimuth_rad=0.0,
            power_dbm=power_dbm,
            beamwidth_deg=beamwidth_deg,
        )
        east = InterfererAntenna(
            position=(side + margin_m, y),
            azimuth_rad=math.pi,
            power_dbm=power_dbm,
            beamwidth_deg=beamwidth_deg,
        )
        row_pairs[r] = (len(antennas), len(antennas) + 1)
        antennas.extend([west, east])
    for c in range(grid):
        x = (c + 0.5) * cell
        south = InterfererAntenna(
            position=(x, -margin_m),
            azimuth_rad=math.pi / 2.0,
            power_dbm=power_dbm,
            beamwidth_deg=beamwidth_deg,
        )
        north = InterfererAntenna(
            position=(x, side + margin_m),
            azimuth_rad=-math.pi / 2.0,
            power_dbm=power_dbm,
            beamwidth_deg=beamwidth_deg,
        )
        col_pairs[c] = (len(antennas), len(antennas) + 1)
        antennas.extend([south, north])
    patterns = [
        NoisePattern(row=r, col=c, antenna_ids=row_pairs[r] + col_pairs[c])
        for r in range(grid)
        for c in range(grid)
    ]
    return InterferenceField(
        antennas=antennas,
        patterns=patterns,
        radio=radio,
        slots_per_pattern=slots_per_pattern,
    )
