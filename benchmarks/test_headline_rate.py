"""The §4 headline: n = 8, minimum efficiency 0.038 -> 38 secret kbps.

Runs all nine n = 8 placements (the full population, exactly as the
paper did) with the deployment estimator and full bit accounting —
feedback, descriptors, z-contents, ACKs, retransmissions — and prints
the per-placement table.

Shape assertions: reliability 1.0 in every placement (the paper's
r_min = 1 at n = 8) and minimum efficiency within the paper's order of
magnitude (a few secret kbps at 1 Mbps; our simulated room differs from
the authors', docs/paper-map.md §4).
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro import SessionConfig
from repro.analysis import (
    CampaignConfig,
    render_headline_table,
    run_campaign,
)
from repro.core import CombinedEstimator, LeaveOneOutEstimator
from repro.testbed.estimator import InterferenceAwareEstimator

SESSION = SessionConfig(
    n_x_packets=270, payload_bytes=100, secrecy_slack=1, z_cost_factor=2.5
)


@pytest.fixture(scope="module")
def headline(testbed, min_jam_loss):
    def factory(tb, placement):
        ia = InterferenceAwareEstimator(
            tb.interference,
            tb.config.geometry,
            min_jam_loss,
            candidate_cells=tb.eve_candidate_cells(placement),
        )
        return CombinedEstimator([ia, LeaveOneOutEstimator(rate_margin=0.02)])

    config = CampaignConfig(
        session=SESSION, seed=2012, max_placements_per_n=None, group_sizes=(8,)
    )
    return run_campaign(testbed, factory, config)


def test_headline_table_regenerates(headline, benchmark):
    records = headline.for_n(8)
    table = benchmark(render_headline_table, records)
    emit("Headline (n = 8)", table)
    assert len(records) == 9  # the full placement population


def test_every_placement_perfectly_secret(headline, benchmark):
    benchmark(lambda: [r.reliability for r in headline.for_n(8)])
    for record in headline.for_n(8):
        assert record.reliability >= 0.99, (
            f"eve@{record.placement.eve_cell}: {record.reliability}"
        )



def test_minimum_efficiency_order_of_magnitude(headline):
    worst = min(r.efficiency for r in headline.for_n(8))
    kbps = worst * 1e3
    # Paper: 38 kbps.  Same order of magnitude on our simulated radios:
    # thousands of secret bits per second, not hundreds or tens.
    assert kbps >= 10.0, f"minimum rate {kbps:.1f} kbps"
    assert kbps <= 120.0, "implausibly above the paper's testbed"


def test_secret_bits_accounted_exactly(headline):
    for record in headline.for_n(8):
        assert record.efficiency == pytest.approx(
            record.secret_bits / record.transmitted_bits
        )


def test_benchmark_gf_rank_kernel(benchmark, rng=np.random.default_rng(3)):
    """Timed kernel: the leakage engine's rank computation at the size
    one n=8 round produces."""
    from repro.gf.linalg import GFMatrix

    z = GFMatrix.random(60, 140, rng)
    s = GFMatrix.random(25, 140, rng)

    def kernel():
        return z.vstack(s).rank() - z.rank()

    hidden = benchmark(kernel)
    assert 0 <= hidden <= 25
