"""Analytic per-pattern PER table vs the Monte-Carlo link probe."""

import numpy as np
import pytest

from repro.sim import ScheduleLossSpec
from repro.testbed import (
    Placement,
    Testbed,
    TestbedConfig,
    pattern_mean_sinr_db,
    placement_schedule_specs,
    schedule_loss_table,
)

PLACEMENT = Placement(eve_cell=4, terminal_cells=(0, 2, 6, 8))


@pytest.fixture(scope="module")
def testbed():
    # Zero jitter so the probe's medium and the analytic table see the
    # exact same geometry (cell centres).
    return Testbed(
        TestbedConfig(interferer_power_dbm=10.0, position_jitter_m=0.0)
    )


def cell_positions(testbed, placement):
    geometry = testbed.config.geometry
    terminals = [geometry.cell_center(c) for c in placement.terminal_cells]
    return terminals, geometry.cell_center(placement.eve_cell)


class TestTableVsMonteCarloProbe:
    def test_agreement_within_mc_tolerance(self, testbed):
        """The quadrature expectation must sit inside the probe's
        Monte-Carlo band on every (link, pattern) — this is the
        correctness contract that lets the analytic path replace the
        probe in the campaign bridge."""
        rng = np.random.default_rng(3)
        probe = testbed.link_loss_probe(
            PLACEMENT, rng, packet_bytes=128, trials=600
        )
        terminals, eve = cell_positions(testbed, PLACEMENT)
        table = schedule_loss_table(
            testbed, terminals, terminals + [eve], payload_bytes=128
        )
        names = [f"T{i}" for i in range(PLACEMENT.n_terminals)]
        diffs = []
        for k in range(testbed.interference.n_patterns()):
            for i, src in enumerate(names):
                for j, dst in enumerate(names + ["eve"]):
                    if dst == src:
                        continue
                    diffs.append(abs(probe[(src, dst, k)] - table[k, i, j]))
        diffs = np.asarray(diffs)
        # 600-trial probe noise is sigma <= 0.021 per entry; the
        # quadrature itself is accurate to ~2e-3.
        assert diffs.max() < 0.09
        assert diffs.mean() < 0.02

    def test_jammed_patterns_are_lossier_than_clear_ones(self, testbed):
        terminals, eve = cell_positions(testbed, PLACEMENT)
        table = schedule_loss_table(testbed, terminals, [eve])
        geometry = testbed.config.geometry
        dwell = testbed.config.slots_per_pattern
        jammed, clear = [], []
        for k in range(testbed.interference.n_patterns()):
            cells = testbed.interference.jammed_cells(geometry, k * dwell)
            target = jammed if PLACEMENT.eve_cell in cells else clear
            target.append(table[k].mean())
        assert min(jammed) > max(clear)

    def test_base_loss_floor(self, testbed):
        config = TestbedConfig(
            interferer_power_dbm=10.0, position_jitter_m=0.0, base_loss=0.1
        )
        floored = Testbed(config)
        terminals, eve = cell_positions(floored, PLACEMENT)
        table = schedule_loss_table(floored, terminals, terminals + [eve])
        assert np.all(table >= 0.1)

    def test_interference_disabled_collapses_to_one_clear_pattern(self):
        quiet = Testbed(
            TestbedConfig(interference_enabled=False, position_jitter_m=0.0)
        )
        terminals, eve = cell_positions(quiet, PLACEMENT)
        sinr = pattern_mean_sinr_db(
            quiet.config, quiet.interference, terminals, [eve]
        )
        assert sinr.shape[0] == 1
        table = schedule_loss_table(quiet, terminals, terminals + [eve])
        # Short LOS links without interference are near-lossless beyond
        # the residual base loss.
        assert np.all(table < quiet.config.base_loss + 0.05)

    def test_stronger_interferers_raise_inbeam_loss(self):
        weak = Testbed(TestbedConfig(interferer_power_dbm=0.0, position_jitter_m=0.0))
        strong = Testbed(TestbedConfig(interferer_power_dbm=10.0, position_jitter_m=0.0))
        terminals, eve = cell_positions(weak, PLACEMENT)
        weak_table = schedule_loss_table(weak, terminals, [eve])
        strong_table = schedule_loss_table(strong, terminals, [eve])
        assert strong_table.max() > weak_table.max()


class TestPlacementScheduleSpecs:
    def test_one_spec_per_leader_with_schedule_shape(self, testbed):
        rng = np.random.default_rng(0)
        specs = placement_schedule_specs(testbed, PLACEMENT, rng)
        assert len(specs) == PLACEMENT.n_terminals
        for spec in specs:
            assert isinstance(spec, ScheduleLossSpec)
            assert spec.n_patterns == testbed.interference.n_patterns()
            assert spec.slots_per_pattern == testbed.config.slots_per_pattern
            probs = spec.link_loss_probabilities(PLACEMENT.n_terminals)
            assert probs.shape == (PLACEMENT.n_terminals,)
            assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_marginals_match_legacy_probe_bridge(self, testbed):
        """The slot-aware bridge must agree with the pattern-averaged
        Monte-Carlo link probe (what the batched engine was once fed)
        on the *marginal* per-link loss — it adds burstiness, it does
        not move the mean."""
        probe = testbed.link_loss_probe(
            PLACEMENT, np.random.default_rng(3), packet_bytes=128, trials=400
        )
        analytic = placement_schedule_specs(
            testbed, PLACEMENT, np.random.default_rng(3), payload_bytes=128
        )
        n = PLACEMENT.n_terminals
        n_patterns = testbed.interference.n_patterns()
        names = [f"T{i}" for i in range(n)]
        for leader, schedule_spec in zip(names, analytic):
            receivers = [t for t in names if t != leader] + ["eve"]
            probed = [
                np.mean([probe[(leader, dst, k)] for k in range(n_patterns)])
                for dst in receivers
            ]
            assert np.allclose(
                probed, schedule_spec.link_loss_probabilities(n), atol=0.04
            )

    def test_jitter_consumes_the_same_stream_as_build_medium(self):
        jittered = Testbed(
            TestbedConfig(interferer_power_dbm=10.0, position_jitter_m=0.3)
        )
        seed = 11
        terminals, antennas = jittered.draw_positions(
            PLACEMENT, np.random.default_rng(seed), eve_extra_cells=(1,)
        )
        medium, names = jittered.build_medium(
            PLACEMENT, np.random.default_rng(seed), eve_extra_cells=(1,)
        )
        for name, expected in zip(names, terminals):
            assert medium.node(name).position == expected
        assert medium.node("eve").antenna_positions() == antennas
