"""ASCII rendering of the paper's figures and headline numbers.

The benchmarks print these tables so a reader can compare the simulated
series against the paper's plots line by line (docs/paper-map.md maps
each figure to the code and tests behind it).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.analysis.stats import ReliabilitySummary, SecrecySummary

__all__ = [
    "render_figure1_table",
    "render_figure2_table",
    "render_secrecy_table",
    "render_headline_table",
]


def render_figure1_table(
    erasure_probs: Sequence[float],
    group_curves: Mapping,
    unicast_curves: Mapping,
    measured: Mapping = (),
) -> str:
    """Figure 1 as a table: efficiency vs erasure probability.

    Args:
        erasure_probs: the p grid.
        group_curves: n -> [efficiency per p] (solid lines; n may be inf).
        unicast_curves: n -> [efficiency per p] (dashed lines).
        measured: optional (n, p) -> efficiency spot checks from the
            packet-level simulator.
    """
    lines = ["Figure 1 — maximum efficiency vs erasure probability"]
    header = "  ".join(f"p={p:4.2f}" for p in erasure_probs)
    lines.append(f"{'':16s}{header}")
    for n, values in group_curves.items():
        label = "inf" if n == math.inf else str(n)
        cells = "  ".join(f"{v:6.3f}" for v in values)
        lines.append(f"group   n={label:<4s} {cells}")
    for n, values in unicast_curves.items():
        label = "inf" if n == math.inf else str(n)
        cells = "  ".join(f"{v:6.3f}" for v in values)
        lines.append(f"unicast n={label:<4s} {cells}")
    if measured:
        lines.append("packet-level simulation (oracle estimator):")
        for (n, p), eff in sorted(measured.items()):
            lines.append(f"  n={n} p={p:4.2f}: measured {eff:.3f}")
    return "\n".join(lines)


def render_figure2_table(summaries: Sequence[ReliabilitySummary]) -> str:
    """Figure 2 as a table: reliability series vs group size."""
    lines = [
        "Figure 2 — reliability vs number of terminals",
        f"{'n':>3s} {'exps':>5s} {'min':>6s} {'p95':>6s} {'mean':>6s} {'median':>6s}",
    ]
    for s in sorted(summaries, key=lambda x: x.n_terminals):
        lines.append(
            f"{s.n_terminals:>3d} {s.n_experiments:>5d} "
            f"{s.minimum:>6.2f} {s.p95:>6.2f} {s.mean:>6.2f} {s.median:>6.2f}"
        )
    return "\n".join(lines)


def render_secrecy_table(summaries: Sequence[SecrecySummary]) -> str:
    """Measured secrecy beside Figure 2: residual min-entropy vs n.

    Totals are measured bits across the group size's experiments;
    the residual columns are per-experiment ``min_entropy / secret``
    fractions under the same rank convention as the reliability series
    (min, worst of the best 95%, mean, median).
    """
    lines = [
        "Measured secrecy — residual min-entropy vs number of terminals",
        f"{'n':>3s} {'exps':>5s} {'excl':>5s} {'secret_kb':>10s} "
        f"{'minH_kb':>10s} {'leak_kb':>8s} "
        f"{'min':>6s} {'p95':>6s} {'mean':>6s} {'median':>6s}",
    ]
    for s in sorted(summaries, key=lambda x: x.n_terminals):
        lines.append(
            f"{s.n_terminals:>3d} {s.n_experiments:>5d} {s.n_excluded:>5d} "
            f"{s.secret_bits / 1e3:>10.2f} {s.min_entropy_bits / 1e3:>10.2f} "
            f"{s.leaked_bits / 1e3:>8.2f} "
            f"{s.min_residual:>6.2f} {s.p95_residual:>6.2f} "
            f"{s.mean_residual:>6.2f} {s.median_residual:>6.2f}"
        )
    return "\n".join(lines)


def render_headline_table(
    per_placement: Sequence, bitrate_bps: float = 1e6
) -> str:
    """The §4 headline: minimum efficiency and secret rate at n=8.

    Args:
        per_placement: ExperimentRecord-like objects (need .placement,
            .efficiency, .reliability).
        bitrate_bps: PHY rate (paper: 1 Mbps).
    """
    lines = [
        "Headline (n = 8): efficiency and secret rate per placement",
        f"{'eve cell':>8s} {'efficiency':>11s} {'kbps':>7s} {'reliability':>12s}",
    ]
    worst = None
    for rec in per_placement:
        kbps = rec.efficiency * bitrate_bps / 1e3
        lines.append(
            f"{rec.placement.eve_cell:>8d} {rec.efficiency:>11.4f} "
            f"{kbps:>7.1f} {rec.reliability:>12.2f}"
        )
        worst = rec.efficiency if worst is None else min(worst, rec.efficiency)
    if worst is not None:
        lines.append(
            f"minimum efficiency {worst:.4f} -> "
            f"{worst * bitrate_bps / 1e3:.1f} secret kbps at "
            f"{bitrate_bps / 1e6:.0f} Mbps (paper: 0.038 -> 38 kbps)"
        )
    return "\n".join(lines)
