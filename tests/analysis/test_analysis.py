"""Stats semantics, campaign runner, report rendering."""

import math

import numpy as np
import pytest

from repro.analysis.experiments import (
    CampaignConfig,
    run_campaign,
    run_placement_experiment,
)
from repro.analysis.report import (
    render_figure1_table,
    render_figure2_table,
    render_headline_table,
)
from repro.analysis.stats import (
    ReliabilitySummary,
    best_fraction_minimum,
    summarize_reliability,
)
from repro.core.estimator import FixedFractionEstimator
from repro.core.session import SessionConfig
from repro.testbed.deployment import Testbed, TestbedConfig
from repro.testbed.placements import Placement


class TestStats:
    def test_best_fraction_minimum_semantics(self):
        values = [1.0, 1.0, 0.9, 0.5, 0.0]
        # Best 100%: plain minimum.
        assert best_fraction_minimum(values, 1.0) == 0.0
        # Best 80% keeps 4 values: min of {1,1,.9,.5}.
        assert best_fraction_minimum(values, 0.8) == 0.5
        # Best 50% keeps ceil(2.5)=3: min of {1,1,.9}.
        assert best_fraction_minimum(values, 0.5) == 0.9

    def test_best_fraction_validation(self):
        with pytest.raises(ValueError):
            best_fraction_minimum([1.0], 0.0)
        with pytest.raises(ValueError):
            best_fraction_minimum([], 0.5)

    def test_summary_fields(self):
        s = summarize_reliability(5, [1.0, 0.8, 0.2, 1.0])
        assert s.n_terminals == 5
        assert s.n_experiments == 4
        assert s.minimum == 0.2
        assert s.mean == pytest.approx(0.75)
        assert s.median == 1.0  # best half = {1.0, 1.0}
        assert s.p95 == 0.2  # ceil(.95*4)=4 keeps everything

    def test_summary_ordering_invariant(self):
        s = summarize_reliability(3, [0.5, 0.9, 1.0, 0.1, 0.7])
        assert s.minimum <= s.p95 <= s.median
        assert s.minimum <= s.mean <= 1.0

    def test_summary_requires_data(self):
        with pytest.raises(ValueError):
            summarize_reliability(3, [])


class TestCampaign:
    @pytest.fixture(scope="class")
    def testbed(self):
        return Testbed(TestbedConfig(interferer_power_dbm=10.0))

    def _factory(self, testbed, placement):
        return FixedFractionEstimator(0.15)

    def test_single_experiment_record(self, testbed):
        placement = Placement(eve_cell=4, terminal_cells=(0, 2, 6))
        config = CampaignConfig(
            session=SessionConfig(n_x_packets=45, payload_bytes=16)
        )
        record = run_placement_experiment(
            testbed, placement, self._factory, config
        )
        assert record.n_terminals == 3
        assert 0.0 <= record.reliability <= 1.0
        assert record.transmitted_bits > 0

    def test_campaign_runs_and_is_deterministic(self, testbed):
        config = CampaignConfig(
            session=SessionConfig(n_x_packets=36, payload_bytes=8),
            max_placements_per_n=2,
            group_sizes=(3,),
            seed=99,
        )
        a = run_campaign(testbed, self._factory, config)
        b = run_campaign(testbed, self._factory, config)
        assert len(a.records) == 2
        assert [r.efficiency for r in a.records] == [
            r.efficiency for r in b.records
        ]
        assert a.group_sizes() == [3]
        assert len(a.reliabilities(3)) == 2
        assert len(a.efficiencies(3)) == 2

    def test_progress_callback(self, testbed):
        calls = []
        config = CampaignConfig(
            session=SessionConfig(n_x_packets=36, payload_bytes=8),
            max_placements_per_n=1,
            group_sizes=(3, 4),
        )
        run_campaign(
            testbed, self._factory, config,
            progress=lambda n, pl: calls.append(n),
        )
        assert calls == [3, 4]


class TestReports:
    def test_figure1_table(self):
        text = render_figure1_table(
            [0.3, 0.5],
            {2: [0.21, 0.25], math.inf: [0.19, 0.2]},
            {2: [0.17, 0.2]},
            measured={(3, 0.5): 0.19},
        )
        assert "n=2" in text and "n=inf" in text
        assert "0.250" in text
        assert "measured 0.190" in text

    def test_figure2_table(self):
        s = summarize_reliability(8, [1.0, 1.0])
        text = render_figure2_table([s])
        assert "Figure 2" in text
        assert "  8" in text

    def test_headline_table(self):
        class Rec:
            def __init__(self, cell, eff, rel):
                self.placement = Placement(
                    eve_cell=cell, terminal_cells=tuple(c for c in range(8) if c != cell)
                )
                self.efficiency = eff
                self.reliability = rel

        text = render_headline_table([Rec(8, 0.04, 1.0), Rec(0, 0.03, 1.0)])
        assert "minimum efficiency 0.0300" in text
        assert "30.0 secret kbps" in text
        assert "paper: 0.038" in text
