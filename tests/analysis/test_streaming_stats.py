"""Streaming accumulators vs the materialised statistics they replace.

The example-based classes at the top pin concrete behaviours; the
hypothesis classes at the bottom pin the *merge algebra* the multi-host
sweep layer leans on — merge must be associative and order-independent
against the batch computation, exactly, whatever partition of the
observations each queue worker happened to produce, NaN zero-secret
sentinels included.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from repro.analysis.stats import (
    ReliabilityAccumulator,
    SecrecyAccumulator,
    ValueCountAccumulator,
    best_fraction_minimum,
    summarize_reliability,
)


def populations():
    rng = np.random.default_rng(42)
    yield [1.0] * 40 + [0.7, 0.93, 0.85]  # the spike-plus-tail shape
    yield list(rng.random(257))
    yield list(np.round(rng.random(500), 2))  # heavy duplication
    yield [0.5]
    yield list(rng.choice([0.0, 0.25, 1.0], size=64))


class TestStreamingMoments:
    """The moments a campaign streams (count, mean, extrema) come from
    :class:`ValueCountAccumulator`; all-distinct values are its worst
    case, one map entry per observation."""

    def test_matches_numpy(self):
        rng = np.random.default_rng(7)
        values = rng.random(1000) * 3 - 1
        moments = ValueCountAccumulator()
        moments.extend(values)
        assert moments.total == 1000
        assert moments.mean == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert moments.sum == math.fsum(values)
        assert moments.minimum == float(values.min())
        assert moments.maximum == float(values.max())

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(8)
        values = rng.random(999)
        whole = ValueCountAccumulator()
        whole.extend(values)
        merged = ValueCountAccumulator()
        for chunk in np.array_split(values, 7):
            part = ValueCountAccumulator()
            part.extend(chunk)
            merged.merge(part)
        assert merged.total == whole.total
        assert merged.mean == whole.mean
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum

    def test_merge_into_empty(self):
        part = ValueCountAccumulator()
        part.extend([1.0, 2.0, 3.0])
        empty = ValueCountAccumulator()
        empty.merge(part)
        assert (empty.total, empty.mean) == (3, 2.0)
        part.merge(ValueCountAccumulator())  # no-op the other way
        assert part.total == 3

    def test_empty_raises(self):
        empty = ValueCountAccumulator()
        assert not empty and empty.total == 0
        with pytest.raises(ValueError, match="no values"):
            empty.maximum
        with pytest.raises(ValueError, match="no values"):
            empty.best_fraction_minimum(0.5)


class TestValueCountAccumulator:
    @pytest.mark.parametrize("fraction", [0.05, 0.5, 0.95, 1.0])
    def test_rank_statistics_match_materialised(self, fraction):
        for values in populations():
            acc = ValueCountAccumulator()
            acc.extend(values)
            assert acc.total == len(values)
            assert acc.minimum == min(values)
            assert acc.maximum == max(values)
            assert acc.best_fraction_minimum(fraction) == best_fraction_minimum(
                values, fraction
            )

    def test_mean_matches_materialised(self):
        for values in populations():
            acc = ValueCountAccumulator()
            acc.extend(values)
            assert acc.mean == pytest.approx(float(np.mean(values)), rel=1e-12)

    def test_order_and_partition_invariance_is_exact(self):
        """The resume guarantee: however the observations arrive —
        shuffled, split, merged — every finalised float is *identical*,
        not just approximately equal."""
        rng = np.random.default_rng(11)
        values = list(np.round(rng.random(400), 3))
        reference = ValueCountAccumulator()
        reference.extend(values)
        for permutation_seed in (1, 2, 3):
            order = np.random.default_rng(permutation_seed).permutation(400)
            merged = ValueCountAccumulator()
            for chunk in np.array_split(order, 9):
                part = ValueCountAccumulator()
                part.extend(values[i] for i in chunk)
                merged.merge(part)
            assert merged.counts == reference.counts
            assert merged.mean == reference.mean  # exact, not approx
            assert merged.best_fraction_minimum(0.95) == (
                reference.best_fraction_minimum(0.95)
            )

    def test_validation(self):
        acc = ValueCountAccumulator()
        with pytest.raises(ValueError, match="no values"):
            acc.minimum
        with pytest.raises(ValueError, match="no values"):
            acc.mean
        with pytest.raises(ValueError, match="fraction"):
            acc.best_fraction_minimum(0.0)
        acc.add(1.0)
        with pytest.raises(ValueError, match="count must be positive"):
            acc.add(1.0, count=0)


class TestReliabilityAccumulator:
    def test_summary_matches_summarize_reliability(self):
        for values in populations():
            acc = ReliabilityAccumulator()
            acc.extend(values)
            streamed = acc.summary(5)
            materialised = summarize_reliability(5, values)
            assert streamed.n_experiments == materialised.n_experiments
            assert streamed.minimum == materialised.minimum
            assert streamed.p95 == materialised.p95
            assert streamed.median == materialised.median
            assert streamed.mean == pytest.approx(materialised.mean, rel=1e-12)

    def test_nan_exclusion_matches_campaign_rule(self):
        """Zero-secret experiments (NaN) are excluded exactly like
        CampaignResult.reliabilities does in memory."""
        values = [1.0, float("nan"), 0.8, float("nan"), 0.95]
        acc = ReliabilityAccumulator()
        acc.extend(values)
        kept = [v for v in values if not math.isnan(v)]
        assert acc.n_experiments == len(kept)
        assert acc.n_excluded == 2
        summary = acc.summary(3)
        reference = summarize_reliability(3, kept)
        assert summary.minimum == reference.minimum
        assert summary.median == reference.median

    def test_all_nan_population_summarises_to_nan_row(self):
        # 100% zero-secret experiments: a measured outcome, not an
        # error — the summary is a NaN row with every exclusion counted.
        acc = ReliabilityAccumulator()
        acc.extend([float("nan")] * 5)
        assert not acc
        assert acc.n_experiments == 0
        assert acc.n_excluded == 5
        summary = acc.summary(4)
        assert summary.n_experiments == 0
        assert math.isnan(summary.minimum)
        assert math.isnan(summary.mean)
        assert math.isnan(summary.p95)
        assert math.isnan(summary.median)

    def test_truly_empty_population_still_raises(self):
        with pytest.raises(ValueError, match="at least one experiment"):
            ReliabilityAccumulator().summary(4)

    def test_nan_row_merges_consistently(self):
        # Merging an all-NaN shard into a populated one must leave the
        # populated statistics untouched and only add exclusions.
        nan_only = ReliabilityAccumulator()
        nan_only.extend([float("nan")] * 3)
        populated = ReliabilityAccumulator()
        populated.extend([1.0, 0.5])
        reference = populated.summary(6)
        populated.merge(nan_only)
        merged = populated.summary(6)
        assert merged.n_experiments == reference.n_experiments
        assert merged.minimum == reference.minimum
        assert merged.mean == reference.mean
        assert populated.n_excluded == 3

    def test_merge_accumulates_exclusions(self):
        a = ReliabilityAccumulator()
        a.extend([1.0, float("nan")])
        b = ReliabilityAccumulator()
        b.extend([0.5, float("nan"), float("nan")])
        a.merge(b)
        assert a.n_experiments == 2
        assert a.n_excluded == 3
        assert a.summary(3).minimum == 0.5


# -- the merge algebra (hypothesis) ----------------------------------------

#: Reliability-shaped observations: mostly a spike at 1.0 with a short
#: rounded tail (heavy duplication, like real campaigns), plus raw
#: floats so the properties are not an artefact of rounding.
observations = st.lists(
    st.one_of(
        st.just(1.0),
        st.floats(min_value=0.0, max_value=1.0).map(lambda v: round(v, 2)),
        st.floats(min_value=-1e6, max_value=1e6),
    ),
    min_size=1,
    max_size=120,
)

#: The same, with NaN zero-secret sentinels sprinkled in.
observations_with_nan = st.lists(
    st.one_of(
        st.just(float("nan")),
        st.just(1.0),
        st.floats(min_value=0.0, max_value=1.0).map(lambda v: round(v, 2)),
    ),
    min_size=1,
    max_size=120,
)

partition_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def shuffled_chunks(values, seed, accumulate):
    """Partition a shuffled copy of ``values`` into random-size chunks
    and return one accumulator per chunk — one simulated queue worker's
    share of the sweep each."""
    rng = random.Random(seed)
    values = list(values)
    rng.shuffle(values)
    chunks = []
    start = 0
    while start < len(values):
        size = rng.randint(1, max(1, len(values) - start))
        chunks.append(values[start : start + size])
        start += size
    parts = []
    for chunk in chunks:
        part = accumulate()
        part.extend(chunk)
        parts.append(part)
    return parts


def merge_in_tree_order(parts, seed, accumulate):
    """Fold the parts pairwise in a random binary-tree order, so the
    associativity claim is exercised, not just left-folding."""
    rng = random.Random(seed)
    forest = list(parts)
    while len(forest) > 1:
        i = rng.randrange(len(forest) - 1)
        left = forest.pop(i)
        right = forest.pop(i)
        combined = accumulate()
        combined.merge(left)
        combined.merge(right)
        forest.insert(i, combined)
    return forest[0]


class TestMomentsMergeAlgebra:
    @given(values=observations, seed=partition_seeds)
    @settings(max_examples=150, deadline=None)
    def test_merge_matches_batch_within_tolerance(self, values, seed):
        parts = shuffled_chunks(values, seed, ValueCountAccumulator)
        merged = merge_in_tree_order(parts, seed + 1, ValueCountAccumulator)
        assert merged.total == len(values)
        assert merged.mean == pytest.approx(
            float(np.mean(values)), rel=1e-9, abs=1e-9
        )
        assert merged.minimum == min(values)
        assert merged.maximum == max(values)

    @given(values=observations, seed=partition_seeds)
    @settings(max_examples=100, deadline=None)
    def test_two_merge_orders_agree(self, values, seed):
        parts_a = shuffled_chunks(values, seed, ValueCountAccumulator)
        parts_b = shuffled_chunks(values, seed + 7, ValueCountAccumulator)
        a = merge_in_tree_order(parts_a, seed + 1, ValueCountAccumulator)
        b = merge_in_tree_order(parts_b, seed + 2, ValueCountAccumulator)
        assert a.total == b.total
        assert a.mean == b.mean
        assert a.sum == b.sum
        assert (a.minimum, a.maximum) == (b.minimum, b.maximum)


class TestCountMergeAlgebraIsExact:
    @given(values=observations, seed=partition_seeds)
    @settings(max_examples=150, deadline=None)
    def test_any_partition_any_order_is_bit_identical(self, values, seed):
        """The store contract, as algebra: whatever partition of the
        sweep the workers produced and whatever order the shards merge
        in, every finalised statistic is *identical* to the batch
        computation — not approximately equal."""
        reference = ValueCountAccumulator()
        reference.extend(values)
        parts = shuffled_chunks(values, seed, ValueCountAccumulator)
        merged = merge_in_tree_order(parts, seed + 1, ValueCountAccumulator)
        assert merged.counts == reference.counts
        assert merged.total == len(values)
        assert merged.mean == reference.mean  # exact float equality
        assert merged.minimum == min(values)
        assert merged.maximum == max(values)
        for fraction in (0.05, 0.5, 0.95, 1.0):
            assert merged.best_fraction_minimum(
                fraction
            ) == best_fraction_minimum(values, fraction)

    @given(values=observations_with_nan, seed=partition_seeds)
    @settings(max_examples=150, deadline=None)
    def test_reliability_merge_with_nan_sentinels_is_exact(self, values, seed):
        """NaN zero-secret sentinels ride the merge algebra too: the
        exclusion count is conserved across any partition, and the
        summary equals the batch computation over the non-NaN kept
        population."""
        kept = [v for v in values if not math.isnan(v)]
        parts = shuffled_chunks(values, seed, ReliabilityAccumulator)
        merged = merge_in_tree_order(parts, seed + 1, ReliabilityAccumulator)
        assert merged.n_excluded == len(values) - len(kept)
        assert merged.n_experiments == len(kept)
        if not kept:
            # 100% sentinels: a NaN row, never a division error.
            row = merged.summary(4)
            assert row.n_experiments == 0
            assert math.isnan(row.minimum) and math.isnan(row.mean)
            return
        reference = summarize_reliability(4, kept)
        streamed = merged.summary(4)
        assert streamed.minimum == reference.minimum
        assert streamed.p95 == reference.p95
        assert streamed.median == reference.median
        assert streamed.n_experiments == reference.n_experiments
        assert streamed.mean == pytest.approx(reference.mean, rel=1e-12)


# -- best_fraction_minimum vs a sorted oracle (hypothesis) -----------------

def _oracle_best_fraction_minimum(values, numerator, denominator):
    """Naive reference: exact rational rank over an explicit sort.

    Keep the best ceil(fraction * n) experiments (computed in exact
    arithmetic, never float) and return the worst of them.
    """
    kept = [float(v) for v in values if not math.isnan(v)]
    if not kept:
        return math.nan
    n = len(kept)
    rank = -((-Fraction(numerator, denominator) * n) // 1)  # exact ceil
    rank = max(1, min(n, int(rank)))
    return sorted(kept, reverse=True)[rank - 1]


class TestBestFractionMinimumOracle:
    """The rank arithmetic bugfix, pinned against exact rational math."""

    @given(
        values=observations_with_nan,
        hundredths=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_rational_oracle(self, values, hundredths):
        fraction = hundredths / 100.0
        expected = _oracle_best_fraction_minimum(values, hundredths, 100)
        got = best_fraction_minimum(values, fraction)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == expected
        acc = ValueCountAccumulator()
        acc.extend(v for v in values if not math.isnan(v))
        if acc:
            assert acc.best_fraction_minimum(fraction) == expected

    def test_p95_of_twenty_keeps_nineteen(self):
        """Regression: 0.95 * 20 = 19.000000000000004 in float64; a bare
        ceil kept all twenty and returned the global minimum."""
        values = [float(k) for k in range(1, 21)]  # 1..20, distinct
        assert best_fraction_minimum(values, 0.95) == 2.0
        assert best_fraction_minimum(values, 1.0) == 1.0

    def test_fraction_one_is_global_minimum(self):
        values = [0.4, 0.9, 0.1, 1.0]
        assert best_fraction_minimum(values, 1.0) == 0.1

    def test_single_sample_any_fraction(self):
        for fraction in (0.01, 0.5, 0.95, 1.0):
            assert best_fraction_minimum([0.7], fraction) == 0.7

    def test_all_nan_returns_nan(self):
        assert math.isnan(best_fraction_minimum([math.nan] * 5, 0.95))

    def test_truly_empty_raises(self):
        with pytest.raises(ValueError):
            best_fraction_minimum([], 0.95)


class TestSecrecyAccumulator:
    def test_totals_match_materialised(self):
        rng = np.random.default_rng(11)
        secrets = rng.integers(1, 50, size=60) * 800.0
        entropies = secrets * rng.random(60)
        acc = SecrecyAccumulator()
        for s, h in zip(secrets, entropies):
            acc.add(s, h)
        row = acc.summary(5)
        assert row.n_terminals == 5
        assert row.n_experiments == 60
        assert row.n_excluded == 0
        assert row.secret_bits == math.fsum(sorted(map(float, secrets)))
        assert row.min_entropy_bits == pytest.approx(
            float(entropies.sum()), rel=1e-12
        )
        assert row.leaked_bits == pytest.approx(
            row.secret_bits - row.min_entropy_bits, rel=1e-12
        )
        residuals = entropies / secrets
        assert row.min_residual == float(residuals.min())
        assert row.mean_residual == pytest.approx(
            row.min_entropy_bits / row.secret_bits, rel=1e-12
        )
        assert row.p95_residual == best_fraction_minimum(list(residuals), 0.95)

    def test_zero_secret_and_nan_are_excluded(self):
        acc = SecrecyAccumulator()
        acc.add(0.0, 0.0)
        acc.add(800.0, math.nan)
        acc.add(800.0, 600.0)
        assert acc.n_experiments == 1
        row = acc.summary(3)
        assert row.n_excluded == 2
        assert row.min_residual == 0.75

    def test_all_excluded_summarises_to_nan_row(self):
        acc = SecrecyAccumulator()
        acc.add(0.0, 0.0)
        row = acc.summary(3)
        assert row.n_experiments == 0
        assert row.n_excluded == 1
        assert row.secret_bits == 0.0
        assert math.isnan(row.min_residual)
        assert math.isnan(row.mean_residual)

    def test_truly_empty_raises(self):
        with pytest.raises(ValueError, match="at least one experiment"):
            SecrecyAccumulator().summary(3)

    def test_entropy_above_secret_rejected(self):
        acc = SecrecyAccumulator()
        with pytest.raises(ValueError, match="min-entropy"):
            acc.add(800.0, 800.1)
        with pytest.raises(ValueError, match="min-entropy"):
            acc.add(800.0, -1.0)

    @given(seed=partition_seeds)
    @settings(max_examples=60, deadline=None)
    def test_merge_partition_invariance_is_exact(self, seed):
        rng = np.random.default_rng(seed % (2**31))
        n = int(rng.integers(1, 80))
        secrets = rng.integers(0, 40, size=n) * 800.0
        entropies = np.where(
            secrets > 0, secrets * np.round(rng.random(n), 3), 0.0
        )
        pairs = list(zip(secrets, entropies))
        reference = SecrecyAccumulator()
        for s, h in pairs:
            reference.add(s, h)

        def accumulate():
            return SecrecyAccumulator()

        parts = shuffled_chunks(pairs, seed, _PairAdapter)
        merged = merge_in_tree_order(
            [p.inner for p in parts], seed + 1, accumulate
        )
        assert merged.n_excluded == reference.n_excluded
        assert merged.n_experiments == reference.n_experiments
        if reference.n_experiments == 0 and reference.n_excluded == 0:
            return
        ref_row = reference.summary(4)
        got_row = merged.summary(4)
        assert got_row == ref_row  # bit-identical dataclass equality


class _PairAdapter:
    """Adapts (secret, entropy) pair streams to the chunk helpers."""

    def __init__(self):
        self.inner = SecrecyAccumulator()

    def extend(self, pairs):
        for secret, entropy in pairs:
            self.inner.add(secret, entropy)
