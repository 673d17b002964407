"""The interference-aware estimator and its calibration."""

import numpy as np
import pytest

from repro.core.estimator import RoundContext
from repro.testbed.deployment import Testbed, TestbedConfig
from repro.testbed.estimator import (
    InterferenceAwareEstimator,
    calibrate_min_jam_loss,
)


@pytest.fixture(scope="module")
def testbed():
    return Testbed(TestbedConfig(interferer_power_dbm=10.0))


def make_context(n_packets=90, slots_per_packet=1):
    x_slots = {i: i * slots_per_packet for i in range(n_packets)}
    return RoundContext(
        leader="T0", reports={}, n_packets=n_packets, x_slots=x_slots
    )


class TestBudget:
    def test_scales_with_jam_share(self, testbed):
        est = InterferenceAwareEstimator(
            testbed.interference, testbed.config.geometry, min_jam_loss=0.5,
            discount=1.0,
        )
        est.begin_round(make_context(n_packets=90))
        budget = est.budget(list(range(90)))
        # Every cell is jammed 5/9 of slots: expect ~0.5 * 50 = 25.
        assert 20 <= budget <= 30

    def test_candidate_restriction_never_decreases_budget(self, testbed):
        all_cells = InterferenceAwareEstimator(
            testbed.interference, testbed.config.geometry, 0.5
        )
        one_cell = InterferenceAwareEstimator(
            testbed.interference, testbed.config.geometry, 0.5,
            candidate_cells=[4],
        )
        ctx = make_context()
        all_cells.begin_round(ctx)
        one_cell.begin_round(ctx)
        ids = list(range(40))
        assert one_cell.budget(ids) >= all_cells.budget(ids)

    def test_zero_without_slots(self, testbed):
        est = InterferenceAwareEstimator(
            testbed.interference, testbed.config.geometry, 0.5
        )
        est.begin_round(RoundContext(leader="T0", reports={}, n_packets=10))
        assert est.budget([1, 2, 3]) == 0.0

    def test_zero_floor(self, testbed):
        est = InterferenceAwareEstimator(
            testbed.interference, testbed.config.geometry, 0.0
        )
        est.begin_round(make_context())
        assert est.budget(list(range(20))) == 0.0

    def test_linear_in_discount(self, testbed):
        full = InterferenceAwareEstimator(
            testbed.interference, testbed.config.geometry, 0.5, discount=1.0
        )
        half = InterferenceAwareEstimator(
            testbed.interference, testbed.config.geometry, 0.5, discount=0.5
        )
        ctx = make_context()
        full.begin_round(ctx)
        half.begin_round(ctx)
        ids = list(range(90))
        assert half.budget(ids) == pytest.approx(0.5 * full.budget(ids))

    def test_validation(self, testbed):
        with pytest.raises(ValueError):
            InterferenceAwareEstimator(
                testbed.interference, testbed.config.geometry, 1.5
            )
        with pytest.raises(ValueError):
            InterferenceAwareEstimator(
                testbed.interference, testbed.config.geometry, 0.5, discount=0.0
            )


class TestCalibration:
    def test_floor_is_a_true_lower_bound(self, testbed):
        """The certified floor must not exceed any observed in-beam loss
        rate measured independently."""
        rng = np.random.default_rng(3)
        floor = calibrate_min_jam_loss(testbed, rng, trials=150)
        assert 0.0 < floor < 1.0
        # Spot-check one cell/pattern combination against the floor.
        from repro.net.node import Terminal
        from repro.net.packet import Packet, PacketKind
        from repro.testbed.deployment import PhysicalLossModel

        geometry = testbed.config.geometry
        model = PhysicalLossModel(testbed.config, testbed.interference)
        packet = Packet(
            kind=PacketKind.X_DATA, src="tx",
            payload=np.zeros(100, dtype=np.uint8),
        )
        rx_pos = geometry.cell_center(4)
        dst = Terminal(name="rx", position=rx_pos)
        src = Terminal(name="tx", position=geometry.cell_center(0))
        # Find a slot jamming cell 4.
        slot = next(
            k * testbed.config.slots_per_pattern
            for k in range(9)
            if 4 in testbed.interference.jammed_cells(
                geometry, k * testbed.config.slots_per_pattern
            )
        )
        probe_rng = np.random.default_rng(9)
        losses = sum(
            1 for _ in range(400)
            if model.lost_at(src, rx_pos, dst, packet, slot, probe_rng)
        )
        assert losses / 400 >= floor - 0.1

    def test_stronger_interferers_raise_floor(self):
        weak = Testbed(TestbedConfig(interferer_power_dbm=0.0))
        strong = Testbed(TestbedConfig(interferer_power_dbm=10.0))
        rng = np.random.default_rng(4)
        weak_floor = calibrate_min_jam_loss(weak, rng, trials=100)
        strong_floor = calibrate_min_jam_loss(strong, np.random.default_rng(4), trials=100)
        assert strong_floor > weak_floor
