"""Command-line entry point: regenerate the paper's results.

Usage::

    python -m repro.cli figure1
    python -m repro.cli figure2  [--per-n 9] [--full]
    python -m repro.cli headline
    python -m repro.cli quickstart

Each subcommand prints one of the paper's tables; docs/paper-map.md
maps each to the claim it reproduces.
The heavy campaigns accept ``--per-n`` to trade completeness for time;
``--full`` runs the paper's entire placement population.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np


def _figure1(args) -> int:
    from repro.analysis import render_figure1_table
    from repro.theory import (
        group_efficiency,
        group_efficiency_infinite,
        unicast_efficiency,
    )

    probs = [round(0.1 * k, 1) for k in range(1, 10)]
    ns = [2, 3, 6, 10]
    group_curves = {n: [group_efficiency(n, p) for p in probs] for n in ns}
    group_curves[math.inf] = [group_efficiency_infinite(p) for p in probs]
    unicast_curves = {n: [unicast_efficiency(n, p) for p in probs] for n in ns}
    print(render_figure1_table(probs, group_curves, unicast_curves))
    return 0


def _campaign(args, group_sizes):
    from repro import SessionConfig, Testbed, TestbedConfig
    from repro.analysis import CampaignConfig, run_campaign
    from repro.core import CombinedEstimator, LeaveOneOutEstimator
    from repro.testbed.estimator import (
        InterferenceAwareEstimator,
        calibrate_min_jam_loss,
    )

    testbed = Testbed(TestbedConfig(interferer_power_dbm=10.0))
    rng = np.random.default_rng(args.seed)
    min_jam_loss = calibrate_min_jam_loss(testbed, rng, trials=150)

    def factory(tb, placement):
        ia = InterferenceAwareEstimator(
            tb.interference,
            tb.config.geometry,
            min_jam_loss,
            candidate_cells=tb.eve_candidate_cells(placement),
        )
        return CombinedEstimator([ia, LeaveOneOutEstimator(rate_margin=0.02)])

    config = CampaignConfig(
        session=SessionConfig(
            n_x_packets=270, payload_bytes=100, secrecy_slack=1,
            z_cost_factor=2.5,
        ),
        seed=args.seed,
        max_placements_per_n=None if args.full else args.per_n,
        group_sizes=group_sizes,
    )
    return run_campaign(testbed, factory, config)


def _figure2(args) -> int:
    from repro.analysis import (
        render_figure2_table,
        render_secrecy_table,
        summarize_reliability,
    )

    result = _campaign(args, tuple(range(3, 9)))
    summaries = [
        summarize_reliability(n, result.reliabilities(n))
        for n in result.group_sizes()
    ]
    print(render_figure2_table(summaries))
    print()
    print(
        render_secrecy_table(
            [result.secrecy_summary(n) for n in result.group_sizes()]
        )
    )
    return 0


def _headline(args) -> int:
    from repro.analysis import render_headline_table

    args.full = True  # only nine placements at n = 8; always run them all
    result = _campaign(args, (8,))
    print(render_headline_table(result.for_n(8)))
    return 0


def _quickstart(args) -> int:
    from repro import (
        BroadcastMedium,
        Eavesdropper,
        IIDLossModel,
        OracleEstimator,
        SessionConfig,
        Terminal,
        run_experiment,
    )

    rng = np.random.default_rng(args.seed)
    names = ["alice", "bob", "calvin"]
    nodes = [Terminal(name=n) for n in names] + [Eavesdropper(name="eve")]
    medium = BroadcastMedium(nodes, IIDLossModel(0.4), rng)
    result = run_experiment(
        medium, names, OracleEstimator(), rng,
        config=SessionConfig(n_x_packets=90, payload_bytes=100),
    )
    print(f"secret: {result.group_secret.shape[0]} packets "
          f"({result.secret_bits} bits)")
    print(f"efficiency {result.efficiency:.4f}, "
          f"reliability {result.reliability:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=2012)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("figure1", help="analytic efficiency curves")
    fig2 = sub.add_parser("figure2", help="testbed reliability campaign")
    fig2.add_argument("--per-n", type=int, default=9)
    fig2.add_argument("--full", action="store_true")
    head = sub.add_parser("headline", help="n=8 efficiency table")
    head.add_argument("--per-n", type=int, default=9)
    head.add_argument("--full", action="store_true")
    sub.add_parser("quickstart", help="minimal three-terminal run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "figure1": _figure1,
        "figure2": _figure2,
        "headline": _headline,
        "quickstart": _quickstart,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
