"""Interference: beams, the 9 patterns, coverage guarantees."""

import math

import pytest

from repro.net.radio import RadioConfig
from repro.testbed.geometry import TestbedGeometry
from repro.testbed.interference import (
    InterfererAntenna,
    build_interference_field,
)


@pytest.fixture
def field():
    return build_interference_field(
        TestbedGeometry(), RadioConfig(), power_dbm=10.0, slots_per_pattern=10
    )


@pytest.fixture
def geometry():
    return TestbedGeometry()


class TestLayout:
    def test_twelve_antennas(self, field):
        # 3 row pairs + 3 column pairs = 12 = 6 WARP nodes x 2 antennas.
        assert len(field.antennas) == 12

    def test_nine_patterns(self, field):
        assert field.n_patterns() == 9

    def test_patterns_cover_all_row_col_combos(self, field):
        combos = {(p.row, p.col) for p in field.patterns}
        assert combos == {(r, c) for r in range(3) for c in range(3)}

    def test_four_active_antennas_per_pattern(self, field):
        for p in field.patterns:
            assert len(p.antenna_ids) == 4


class TestBeamGeometry:
    def test_boresight_full_gain(self):
        ant = InterfererAntenna(position=(0.0, 0.0), azimuth_rad=0.0, power_dbm=0.0)
        assert ant.gain_db_towards((5.0, 0.0)) == 0.0

    def test_off_axis_suppressed(self):
        ant = InterfererAntenna(position=(0.0, 0.0), azimuth_rad=0.0, power_dbm=0.0)
        assert ant.gain_db_towards((0.0, 5.0)) == -ant.sidelobe_suppression_db

    def test_beam_edge(self):
        ant = InterfererAntenna(
            position=(0.0, 0.0), azimuth_rad=0.0, power_dbm=0.0, beamwidth_deg=22.0
        )
        inside = (5.0, 5.0 * math.tan(math.radians(10.0)))
        outside = (5.0, 5.0 * math.tan(math.radians(12.0)))
        assert ant.gain_db_towards(inside) == 0.0
        assert ant.gain_db_towards(outside) < 0.0

    def test_power_decays_with_distance(self):
        ant = InterfererAntenna(position=(0.0, 0.0), azimuth_rad=0.0, power_dbm=10.0)
        cfg = RadioConfig()
        near = ant.power_at_dbm((1.0, 0.0), cfg)
        far = ant.power_at_dbm((3.0, 0.0), cfg)
        assert near > far


class TestCoverage:
    def test_jammed_cells_are_row_plus_column(self, field, geometry):
        pattern = field.patterns[0]
        slot = 0
        jammed = field.jammed_cells(geometry, slot)
        expected = set(geometry.cells_in_row(pattern.row)) | set(
            geometry.cells_in_col(pattern.col)
        )
        assert jammed == expected
        assert len(jammed) == 5  # 3 + 3 - 1 overlap

    def test_every_cell_jammed_in_exactly_five_patterns(self, field, geometry):
        for cell in geometry.all_cells():
            count = sum(
                1
                for k in range(9)
                if cell in field.jammed_cells(geometry, k * field.slots_per_pattern)
            )
            assert count == 5, cell

    def test_schedule_rotation(self, field):
        assert field.pattern_at(0) == field.patterns[0]
        assert field.pattern_at(10) == field.patterns[1]
        assert field.pattern_at(95) == field.patterns[(95 // 10) % 9]

    def test_in_beam_interference_dominates(self, field, geometry):
        """A jammed cell must see far more interference power than a
        clear cell in the same slot."""
        slot = 0
        jammed_cell = next(iter(field.jammed_cells(geometry, slot)))
        clear_cell = next(
            c for c in geometry.all_cells()
            if c not in field.jammed_cells(geometry, slot)
        )
        pattern = field.pattern_index(slot)
        jam_power = sum(
            10 ** (p / 10)
            for p in field.pattern_powers_dbm(
                geometry.cell_center(jammed_cell), pattern
            )
        )
        clear_power = sum(
            10 ** (p / 10)
            for p in field.pattern_powers_dbm(
                geometry.cell_center(clear_cell), pattern
            )
        )
        assert jam_power > 30 * clear_power

    def test_disabled_field_produces_nothing(self, field, geometry):
        field.enabled = False
        assert field.jammed_cells(geometry, 0) == set()
