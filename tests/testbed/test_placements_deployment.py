"""Placements enumeration and the physical deployment."""

import math

import numpy as np
import pytest

from repro.net.node import Eavesdropper, Terminal
from repro.net.packet import Packet, PacketKind
from repro.net.radio import path_loss_db
from repro.testbed.deployment import (
    PhysicalLossModel,
    Testbed,
    TestbedConfig,
    pattern_mean_sinr_db,
)
from repro.testbed.placements import (
    Placement,
    enumerate_placements,
    placement_count,
    sample_placements,
)


class TestPlacements:
    def test_counts_match_paper(self):
        # 9 * C(8, n) — the paper's experiment population.
        assert placement_count(8) == 9
        assert placement_count(3) == 9 * math.comb(8, 3)
        for n in range(3, 9):
            assert len(list(enumerate_placements(n))) == placement_count(n)

    def test_all_placements_valid(self):
        for placement in enumerate_placements(4):
            assert placement.eve_cell not in placement.terminal_cells
            assert len(set(placement.terminal_cells)) == 4

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            list(enumerate_placements(0))
        with pytest.raises(ValueError):
            list(enumerate_placements(9))

    def test_placement_validation(self):
        with pytest.raises(ValueError):
            Placement(eve_cell=0, terminal_cells=(0, 1))
        with pytest.raises(ValueError):
            Placement(eve_cell=5, terminal_cells=(1, 1))

    def test_sampling_deterministic_and_bounded(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        a = sample_placements(3, 10, rng1)
        b = sample_placements(3, 10, rng2)
        assert a == b
        assert len(a) == 10

    def test_sampling_caps_at_population(self):
        rng = np.random.default_rng(5)
        assert len(sample_placements(8, 1000, rng)) == 9


class TestDeployment:
    @pytest.fixture
    def testbed(self):
        return Testbed(TestbedConfig(interferer_power_dbm=10.0))

    def test_build_medium_node_types(self, testbed, rng):
        placement = Placement(eve_cell=4, terminal_cells=(0, 2, 6))
        medium, names = testbed.build_medium(placement, rng)
        assert len(names) == 3
        for name in names:
            assert isinstance(medium.node(name), Terminal)
        assert isinstance(medium.node("eve"), Eavesdropper)

    def test_positions_near_cell_centres(self, testbed, rng):
        placement = Placement(eve_cell=4, terminal_cells=(0, 2, 6))
        medium, names = testbed.build_medium(placement, rng)
        geometry = testbed.config.geometry
        jitter = testbed.config.position_jitter_m
        for name, cell in zip(names, placement.terminal_cells):
            cx, cy = geometry.cell_center(cell)
            x, y = medium.node(name).position
            assert abs(x - cx) <= jitter + 1e-9
            assert abs(y - cy) <= jitter + 1e-9

    def test_multi_antenna_eve(self, testbed, rng):
        placement = Placement(eve_cell=4, terminal_cells=(0, 2))
        medium, _ = testbed.build_medium(placement, rng, eve_extra_cells=(8,))
        assert len(medium.node("eve").antenna_positions()) == 2

    def test_extra_antenna_in_terminal_cell_rejected(self, testbed, rng):
        placement = Placement(eve_cell=4, terminal_cells=(0, 2))
        with pytest.raises(ValueError):
            testbed.build_medium(placement, rng, eve_extra_cells=(0,))

    def test_eve_candidate_cells(self, testbed):
        placement = Placement(eve_cell=4, terminal_cells=(0, 1, 2, 3, 5, 6, 7, 8))
        assert testbed.eve_candidate_cells(placement) == [4]
        small = Placement(eve_cell=4, terminal_cells=(0, 8))
        assert len(testbed.eve_candidate_cells(small)) == 7

    def test_jammed_links_lossier_than_clear(self, testbed, rng):
        """The engineered contrast: in-beam receivers lose much more."""
        placement = Placement(eve_cell=4, terminal_cells=(0, 2, 6, 8))
        probe = testbed.link_loss_probe(placement, rng, trials=150)
        geometry = testbed.config.geometry
        field = testbed.interference
        jam_rates, clear_rates = [], []
        # T0 is in cell 0; check its reception of T2's transmissions.
        for pattern in range(9):
            slot = pattern * testbed.config.slots_per_pattern
            jammed = field.jammed_cells(geometry, slot)
            rate = probe[("T1", "T0", pattern)]
            (jam_rates if 0 in jammed else clear_rates).append(rate)
        assert np.mean(jam_rates) > np.mean(clear_rates) + 0.3

    def test_interference_ablation_switch(self, rng):
        quiet = Testbed(TestbedConfig(interference_enabled=False))
        placement = Placement(eve_cell=4, terminal_cells=(0, 8))
        probe = quiet.link_loss_probe(placement, rng, trials=100)
        # Without interference, LOS links at 4 m are nearly lossless
        # (only the base_loss floor remains).
        base = quiet.config.base_loss
        for (src, dst, pattern), rate in probe.items():
            assert rate < base + 0.1


class TestMeanSinrMemo:
    """The per-model mean-SINR memo never changes a loss decision."""

    def test_memo_matches_a_fresh_model_per_packet(self):
        # Eve listens through three antennas, so every packet runs
        # lost_at up to three times on her; interference goes off for
        # the middle third of the stream and comes back, so a stale
        # entry on either side of a flip would move a decision.
        testbed = Testbed(TestbedConfig(interferer_power_dbm=10.0))
        placement = Placement(eve_cell=4, terminal_cells=(0, 2, 6))
        medium, names = testbed.build_medium(
            placement, np.random.default_rng(5), eve_extra_cells=(1, 8)
        )
        memo_model = medium.loss_model
        receivers = [medium.node(n) for n in names] + [medium.node("eve")]
        field = testbed.interference
        memo_rng, fresh_rng = np.random.default_rng(9), np.random.default_rng(9)
        memo_lost, fresh_lost = [], []
        n_packets = 270
        for k in range(n_packets):
            field.enabled = not n_packets // 3 <= k < 2 * n_packets // 3
            src = medium.node(names[k % len(names)])
            packet = Packet(
                kind=PacketKind.X_DATA,
                src=src.name,
                payload=np.zeros(40 + k % 3 * 30, dtype=np.uint8),
            )
            for dst in receivers:
                if dst is src:
                    continue
                fresh_model = PhysicalLossModel(testbed.config, field)
                memo_lost.append(memo_model.lost(src, dst, packet, k, memo_rng))
                fresh_lost.append(fresh_model.lost(src, dst, packet, k, fresh_rng))
        assert memo_lost == fresh_lost
        assert memo_rng.bit_generator.state == fresh_rng.bit_generator.state
        assert 0 < sum(memo_lost) < len(memo_lost)


class TestPatternMeanSinr:
    def test_signal_follows_the_link_distance(self):
        # A 3-4-5 link with interference off: the SINR is the path-loss
        # budget at 5 m over the noise floor, in the table and in the
        # memoised per-packet lookup alike.
        config = TestbedConfig(interference_enabled=False)
        testbed = Testbed(config)
        radio = config.radio
        tx, rx = (0.0, 0.0), (3.0, 4.0)
        table = pattern_mean_sinr_db(config, testbed.interference, [tx], [rx])
        want = radio.tx_power_dbm - path_loss_db(5.0, radio) - radio.noise_floor_dbm
        assert table.shape == (1, 1, 1)
        assert table[0, 0, 0] == want
        model = PhysicalLossModel(config, testbed.interference)
        assert model.mean_sinr_db(tx, rx, slot=37) == want
