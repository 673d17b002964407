"""Order statistics for experiment campaigns (Figure 2's four series).

The paper plots, per group size n: the minimum reliability across all
experiments (diamonds), the average (circles), the minimum achieved
during 95% of experiments (triangles — i.e. the 5th percentile) and the
minimum achieved during 50% of experiments (squares — the median).

Two aggregation styles share the :class:`ReliabilitySummary` output:

* :func:`summarize_reliability` — the original list-in, summary-out
  collapse (fine when the population already sits in memory).
* **Streaming accumulators** — :class:`ValueCountAccumulator` /
  :class:`ReliabilityAccumulator` (an exact, merge-able value multiset
  for the rank statistics).  Campaign-store readers feed these
  one record at a time, so Figure-2 aggregates over arbitrarily large
  sweeps never materialise the experiment population; and because the
  finalised statistics are computed from the *multiset* (insertion and
  merge order cannot matter), an interrupted-and-resumed campaign
  aggregates bit-identically to an uninterrupted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np

__all__ = [
    "ReliabilitySummary",
    "summarize_reliability",
    "best_fraction_minimum",
    "ValueCountAccumulator",
    "ReliabilityAccumulator",
    "SecrecySummary",
    "SecrecyAccumulator",
]


def _best_fraction_rank(fraction: float, n: int) -> int:
    """How many best-ranked observations the best ``fraction`` of ``n``
    keeps: ``ceil(fraction * n)`` in intended (decimal) arithmetic.

    The product is guarded against binary double-rounding before the
    ceil: ``0.95 * 20`` evaluates to ``19.000000000000004`` in float64,
    and a bare ``ceil`` would keep 20 observations — reporting the
    global minimum for the p95 series, an off-by-one at exactly the
    ranks Figure 2 plots.  Clamping to ``[1, n]`` keeps ``fraction=1.0``
    and single-sample populations in range.
    """
    return max(1, min(n, math.ceil(fraction * n - 1e-9)))


def best_fraction_minimum(values: Sequence[float], fraction: float) -> float:
    """Minimum over the best ``fraction`` of experiments.

    "Minimum reliability achieved during 95% of the experiments" keeps
    the best 95% of runs and reports their worst member — the
    ``(1 - fraction)``-quantile by rank, discarding the bottom tail.

    NaN sentinels (zero-secret experiments, the campaign-record
    convention) are excluded before ranking — they would otherwise
    poison the sort order — and a population that is *all* sentinels
    returns NaN rather than raising, matching
    :meth:`ReliabilityAccumulator.summary`.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    vals = sorted(
        (v for v in map(float, values) if not math.isnan(v)), reverse=True
    )
    if not vals:
        if len(values) > 0:
            return math.nan
        raise ValueError("no values to summarise")
    return vals[_best_fraction_rank(fraction, len(vals)) - 1]


@dataclass(frozen=True)
class ReliabilitySummary:
    """The four Figure-2 series for one group size."""

    n_terminals: int
    n_experiments: int
    minimum: float
    mean: float
    p95: float  # min over the best 95% of experiments (triangles)
    median: float  # min over the best 50% of experiments (squares)

    def as_row(self) -> tuple:
        return (
            self.n_terminals,
            self.n_experiments,
            self.minimum,
            self.p95,
            self.mean,
            self.median,
        )


def summarize_reliability(
    n_terminals: int, reliabilities: Sequence[float]
) -> ReliabilitySummary:
    """Collapse one group size's experiments into the Figure-2 series."""
    if not reliabilities:
        raise ValueError("need at least one experiment")
    values = list(reliabilities)
    return ReliabilitySummary(
        n_terminals=n_terminals,
        n_experiments=len(values),
        minimum=min(values),
        mean=float(np.mean(values)),
        p95=best_fraction_minimum(values, 0.95),
        median=best_fraction_minimum(values, 0.50),
    )


class ValueCountAccumulator:
    """Exact, merge-able multiset of observations.

    The Figure-2 series are *rank* statistics (minimum, best-fraction
    minima) — not derivable from moments alone — so this accumulator
    keeps a ``value -> count`` map instead: exact, mergeable, and
    order-independent.  Memory is O(distinct values): reliability
    populations concentrate on a spike at 1.0 plus a short tail, so the
    map stays tiny even for campaigns whose record lists would not.

    Every finalised statistic is computed from the sorted multiset,
    never from insertion order, which is what makes aggregates
    bit-identical across serial, sharded, and interrupted-then-resumed
    campaigns.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[float, int] = {}

    def add(self, value: float, count: int = 1) -> None:
        value = float(value)
        if count < 1:
            raise ValueError("count must be positive")
        self.counts[value] = self.counts.get(value, 0) + count

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "ValueCountAccumulator") -> None:
        for value, count in other.counts.items():
            self.counts[value] = self.counts.get(value, 0) + count

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __bool__(self) -> bool:
        return bool(self.counts)

    @property
    def minimum(self) -> float:
        if not self.counts:
            raise ValueError("no values accumulated")
        return min(self.counts)

    @property
    def maximum(self) -> float:
        if not self.counts:
            raise ValueError("no values accumulated")
        return max(self.counts)

    @property
    def sum(self) -> float:
        """Exact total via compensated summation in sorted-value order
        (deterministic whatever the insertion/merge order)."""
        return math.fsum(
            value * count for value, count in sorted(self.counts.items())
        )

    @property
    def mean(self) -> float:
        """Exact mean (see :attr:`sum` for the determinism contract)."""
        if not self.counts:
            raise ValueError("no values accumulated")
        return self.sum / self.total

    def best_fraction_minimum(self, fraction: float) -> float:
        """Weighted-rank twin of :func:`best_fraction_minimum`: minimum
        over the best ``fraction`` of the multiset."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        total = self.total
        if total == 0:
            raise ValueError("no values to summarise")
        keep = _best_fraction_rank(fraction, total)
        seen = 0
        for value, count in sorted(self.counts.items(), reverse=True):
            seen += count
            if seen >= keep:
                return value
        raise AssertionError("rank walked past the multiset")  # pragma: no cover


class ReliabilityAccumulator:
    """Streaming Figure-2 aggregate for one group size.

    Wraps a :class:`ValueCountAccumulator` with the campaign-record
    NaN convention: a zero-secret experiment carries NaN reliability
    and is *excluded* from the population (counted in
    :attr:`n_excluded`) — the same rule
    :meth:`repro.analysis.experiments.CampaignResult.reliabilities`
    applies in memory, so store-streamed aggregates can never be
    poisoned by round-tripped NaNs.
    """

    __slots__ = ("values", "n_excluded")

    def __init__(self) -> None:
        self.values = ValueCountAccumulator()
        self.n_excluded = 0

    def add(self, reliability: float) -> None:
        value = float(reliability)
        if math.isnan(value):
            self.n_excluded += 1
        else:
            self.values.add(value)

    def extend(self, reliabilities: Iterable[float]) -> None:
        for value in reliabilities:
            self.add(value)

    def merge(self, other: "ReliabilityAccumulator") -> None:
        self.values.merge(other.values)
        self.n_excluded += other.n_excluded

    @property
    def n_experiments(self) -> int:
        """Included experiments (NaN exclusions not counted)."""
        return self.values.total

    def __bool__(self) -> bool:
        return bool(self.values)

    def summary(self, n_terminals: int) -> ReliabilitySummary:
        """The four Figure-2 series, computed from the multiset.

        A population that is 100% NaN-sentinel (every experiment
        produced zero secret) has no reliability to rank: the summary
        is a NaN row with ``n_experiments=0`` — not a division error —
        and merging such an accumulator into a populated one only adds
        to :attr:`n_excluded`, leaving the populated statistics alone.
        """
        if not self.values:
            if self.n_excluded > 0:
                return ReliabilitySummary(
                    n_terminals=n_terminals,
                    n_experiments=0,
                    minimum=math.nan,
                    mean=math.nan,
                    p95=math.nan,
                    median=math.nan,
                )
            raise ValueError("need at least one experiment")
        return ReliabilitySummary(
            n_terminals=n_terminals,
            n_experiments=self.values.total,
            minimum=self.values.minimum,
            mean=self.values.mean,
            p95=self.values.best_fraction_minimum(0.95),
            median=self.values.best_fraction_minimum(0.50),
        )


@dataclass(frozen=True)
class SecrecySummary:
    """Measured-secrecy series for one group size (beside Figure 2).

    Totals are measured bits (Eve's knowledge subtracted), fractions
    are per-experiment residuals ``min_entropy_bits / secret_bits`` —
    so ``min_residual`` is the worst experiment's surviving fraction
    and ``p95_residual`` the worst among the best 95%, the same rank
    convention as the reliability series.
    """

    n_terminals: int
    n_experiments: int
    n_excluded: int
    secret_bits: float
    min_entropy_bits: float
    leaked_bits: float
    min_residual: float
    mean_residual: float
    p95_residual: float
    median_residual: float

    def as_row(self) -> tuple:
        return (
            self.n_terminals,
            self.n_experiments,
            self.n_excluded,
            self.secret_bits,
            self.min_entropy_bits,
            self.leaked_bits,
            self.min_residual,
            self.p95_residual,
            self.mean_residual,
            self.median_residual,
        )


class SecrecyAccumulator:
    """Streaming, merge-able leakage/min-entropy aggregate.

    The measured-secrecy twin of :class:`ReliabilityAccumulator`: one
    :meth:`add` per experiment record (its measured ``secret_bits`` and
    ``min_entropy_bits``), exact multisets underneath, so aggregates
    are bit-identical across serial, sharded, and resumed campaigns.
    Zero-secret experiments have nothing to protect and are excluded
    from the residual-fraction population (counted in
    :attr:`n_excluded`), mirroring the NaN-reliability convention.
    """

    __slots__ = ("residuals", "secret_bits", "entropy_bits", "n_excluded")

    def __init__(self) -> None:
        self.residuals = ValueCountAccumulator()
        self.secret_bits = ValueCountAccumulator()
        self.entropy_bits = ValueCountAccumulator()
        self.n_excluded = 0

    def add(self, secret_bits: float, min_entropy_bits: float) -> None:
        secret = float(secret_bits)
        entropy = float(min_entropy_bits)
        if secret <= 0.0 or math.isnan(entropy):
            self.n_excluded += 1
            return
        if entropy < 0.0 or entropy > secret:
            raise ValueError(
                "min-entropy must lie in [0, secret_bits] "
                f"(got {entropy} of {secret})"
            )
        self.residuals.add(entropy / secret)
        self.secret_bits.add(secret)
        self.entropy_bits.add(entropy)

    def add_record(self, record) -> None:
        """Accumulate an :class:`~repro.analysis.experiments.ExperimentRecord`
        (or anything with ``secret_bits`` / ``min_entropy_bits``)."""
        self.add(record.secret_bits, record.min_entropy_bits)

    def merge(self, other: "SecrecyAccumulator") -> None:
        self.residuals.merge(other.residuals)
        self.secret_bits.merge(other.secret_bits)
        self.entropy_bits.merge(other.entropy_bits)
        self.n_excluded += other.n_excluded

    @property
    def n_experiments(self) -> int:
        return self.residuals.total

    def __bool__(self) -> bool:
        return bool(self.residuals) or self.n_excluded > 0

    def summary(self, n_terminals: int) -> SecrecySummary:
        """Collapse into the secrecy series; NaN row when every
        experiment was excluded (nothing agreed, nothing leaked)."""
        if not self.residuals:
            if self.n_excluded == 0:
                raise ValueError("need at least one experiment")
            return SecrecySummary(
                n_terminals=n_terminals,
                n_experiments=0,
                n_excluded=self.n_excluded,
                secret_bits=0.0,
                min_entropy_bits=0.0,
                leaked_bits=0.0,
                min_residual=math.nan,
                mean_residual=math.nan,
                p95_residual=math.nan,
                median_residual=math.nan,
            )
        total_secret = self.secret_bits.sum
        total_entropy = self.entropy_bits.sum
        return SecrecySummary(
            n_terminals=n_terminals,
            n_experiments=self.residuals.total,
            n_excluded=self.n_excluded,
            secret_bits=total_secret,
            min_entropy_bits=total_entropy,
            leaked_bits=max(total_secret - total_entropy, 0.0),
            min_residual=self.residuals.minimum,
            mean_residual=(
                total_entropy / total_secret if total_secret > 0 else math.nan
            ),
            p95_residual=self.residuals.best_fraction_minimum(0.95),
            median_residual=self.residuals.best_fraction_minimum(0.50),
        )
