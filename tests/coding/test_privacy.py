"""Allocation invariants: disjoint supports, decodability, budgets,
trimming, phase-2 structure and the secrecy slack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.privacy import (
    CombinationBlock,
    MAX_PHASE2_ROWS,
    YAllocation,
    _scatter_order,
    build_phase2_matrices,
    plan_y_allocation,
)
from repro.gf.matrices import cauchy_matrix


def make_reports(rng, n_receivers=3, n_packets=60, loss=0.4):
    return {
        t: {i for i in range(n_packets) if rng.random() > loss}
        for t in range(1, n_receivers + 1)
    }


def oracle_for(eve_missed):
    def budget(ids, exclude=frozenset()):
        return float(sum(1 for i in ids if i in eve_missed))

    return budget


def fraction_budget(fraction):
    def budget(ids, exclude=frozenset()):
        return fraction * len(ids)

    return budget


class TestCombinationBlock:
    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            CombinationBlock(
                subset=frozenset({1}),
                support=(1, 2, 3),
                matrix=cauchy_matrix(2, 2),
                certified_budget=2,
            )

    def test_rejects_more_rows_than_support(self):
        with pytest.raises(ValueError):
            CombinationBlock(
                subset=frozenset({1}),
                support=(1, 2),
                matrix=cauchy_matrix(3, 2),
                certified_budget=3,
            )


class TestAllocationInvariants:
    def test_supports_disjoint(self, rng):
        reports = make_reports(rng)
        eve_missed = {i for i in range(60) if rng.random() < 0.5}
        alloc = plan_y_allocation(reports, oracle_for(eve_missed), 60)
        seen = set()
        for b in alloc.blocks:
            assert not (seen & set(b.support))
            seen |= set(b.support)

    def test_decodability_support_within_reports(self, rng):
        reports = make_reports(rng)
        eve_missed = {i for i in range(60) if rng.random() < 0.5}
        alloc = plan_y_allocation(reports, oracle_for(eve_missed), 60)
        for b in alloc.blocks:
            for t in b.subset:
                assert set(b.support) <= reports[t], (t, b.support)

    def test_rows_within_certified_budget(self, rng):
        reports = make_reports(rng)
        eve_missed = {i for i in range(60) if rng.random() < 0.5}
        budget = oracle_for(eve_missed)
        alloc = plan_y_allocation(reports, budget, 60)
        for b in alloc.blocks:
            assert b.rows <= budget(b.support, b.subset)

    def test_empty_reports_give_empty_allocation(self):
        alloc = plan_y_allocation({1: set(), 2: set()}, fraction_budget(0.5), 10)
        assert alloc.total_rows == 0

    def test_zero_budget_gives_empty_allocation(self, rng):
        reports = make_reports(rng)
        alloc = plan_y_allocation(reports, fraction_budget(0.0), 60)
        assert alloc.total_rows == 0

    def test_max_subset_size_respected(self, rng):
        reports = make_reports(rng, n_receivers=4)
        alloc = plan_y_allocation(
            reports, fraction_budget(0.4), 60, max_subset_size=2
        )
        assert all(len(b.subset) <= 2 for b in alloc.blocks)

    def test_m_i_consistency(self, rng):
        reports = make_reports(rng)
        eve_missed = {i for i in range(60) if rng.random() < 0.5}
        alloc = plan_y_allocation(reports, oracle_for(eve_missed), 60)
        for t in reports:
            assert alloc.m_i(t) == len(alloc.rows_for_terminal(t))
        assert alloc.min_m_i() == min(alloc.m_i(t) for t in reports)

    def test_trimming_balances_coverage(self, rng):
        # After trimming, no single-terminal block should exceed the
        # group minimum by much: rows above min_m_i serve nobody.
        reports = make_reports(rng, n_receivers=4, n_packets=100)
        eve_missed = {i for i in range(100) if rng.random() < 0.5}
        alloc = plan_y_allocation(reports, oracle_for(eve_missed), 100)
        floor = alloc.min_m_i()
        for b in alloc.blocks:
            if len(b.subset) == 1:
                (t,) = b.subset
                # Removing any row of this block would drop t to >= floor.
                assert alloc.m_i(t) - 0 >= floor

    def test_every_block_is_the_cauchy_matrix_of_its_shape(self):
        # Followers rebuild each block as cauchy_matrix(rows, |support|)
        # from its descriptor; trimmed blocks must match that too.
        trimmed = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = 2 + seed % 4
            reports = make_reports(rng, n_receivers=n, n_packets=96)
            eve_missed = {i for i in range(96) if rng.random() < 0.5}
            alloc = plan_y_allocation(reports, oracle_for(eve_missed), 96)
            for b in alloc.blocks:
                assert b.matrix == cauchy_matrix(b.rows, len(b.support))
                trimmed += b.rows < b.certified_budget
        assert trimmed > 0  # the sweep does exercise trimming

    def test_global_matrix_matches_blocks(self, rng):
        reports = make_reports(rng)
        eve_missed = {i for i in range(60) if rng.random() < 0.5}
        alloc = plan_y_allocation(reports, oracle_for(eve_missed), 60)
        g = alloc.global_matrix(list(range(60)))
        assert g.shape == (alloc.total_rows, 60)
        offset = 0
        for b in alloc.blocks:
            for r in range(b.rows):
                row = g.data[offset + r]
                nz_cols = set(np.nonzero(row)[0].tolist())
                assert nz_cols <= set(b.support)
            offset += b.rows

    def test_block_row_offsets(self, rng):
        # Global y-rows run in block order: each block starts where the
        # previous one ended, and a terminal decodes exactly its blocks.
        reports = make_reports(rng)
        alloc = plan_y_allocation(reports, fraction_budget(0.3), 60)
        offsets = []
        acc = 0
        for b in alloc.blocks:
            offsets.append(acc)
            acc += b.rows
        assert acc == alloc.total_rows
        for t in alloc.receivers:
            expected = [
                row
                for off, b in zip(offsets, alloc.blocks)
                if t in b.subset
                for row in range(off, off + b.rows)
            ]
            assert alloc.rows_for_terminal(t) == expected

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=2, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_invariants_hold_across_rates(self, fraction, n_receivers):
        rng = np.random.default_rng(int(fraction * 1000) + n_receivers)
        reports = make_reports(rng, n_receivers=n_receivers, n_packets=50)
        alloc = plan_y_allocation(reports, fraction_budget(fraction), 50)
        seen = set()
        for b in alloc.blocks:
            assert not (seen & set(b.support))
            seen |= set(b.support)
            for t in b.subset:
                assert set(b.support) <= reports[t]


class TestScatterOrder:
    def test_is_permutation(self):
        ids = list(range(37))
        scattered = _scatter_order(ids)
        assert sorted(scattered) == ids

    def test_prefixes_spread_over_range(self):
        ids = list(range(100))
        prefix = _scatter_order(ids)[:20]
        # A time-clustered prefix would span < 25 slots; scattered must
        # cover most of the round.
        assert max(prefix) - min(prefix) > 60

    def test_deterministic(self):
        assert _scatter_order(range(50)) == _scatter_order(range(50))


class TestPhase2:
    def _alloc(self, rng, n_receivers=3, n_packets=60):
        reports = make_reports(rng, n_receivers=n_receivers, n_packets=n_packets)
        eve_missed = {i for i in range(n_packets) if rng.random() < 0.5}
        return plan_y_allocation(reports, oracle_for(eve_missed), n_packets), reports

    def test_chunk_rows_partition_global_rows(self, rng):
        alloc, _ = self._alloc(rng)
        plan = build_phase2_matrices(alloc)
        covered = [r for c in plan.chunks for r in c.y_rows]
        assert sorted(covered) == list(range(alloc.total_rows))

    def test_z_plus_slack_plus_s_counts(self, rng):
        alloc, reports = self._alloc(rng)
        plan = build_phase2_matrices(alloc)
        assert plan.total_secret <= alloc.min_m_i()
        for chunk in plan.chunks:
            assert chunk.n_public + chunk.n_secret <= chunk.size

    def test_secrecy_slack_reduces_secret_only(self, rng):
        alloc, _ = self._alloc(rng)
        base = build_phase2_matrices(alloc, secrecy_slack=0)
        slacked = build_phase2_matrices(alloc, secrecy_slack=2)
        assert slacked.total_public == base.total_public
        assert slacked.total_secret == max(
            0, sum(max(0, c.n_secret - 2) for c in base.chunks)
        )

    def test_negative_slack_rejected(self, rng):
        alloc, _ = self._alloc(rng)
        with pytest.raises(ValueError):
            build_phase2_matrices(alloc, secrecy_slack=-1)

    def test_stacked_zs_matrix_full_rank(self, rng):
        alloc, _ = self._alloc(rng)
        plan = build_phase2_matrices(alloc)
        for chunk in plan.chunks:
            stacked = chunk.z_matrix.vstack(chunk.s_matrix)
            assert stacked.rank() == stacked.rows

    def test_z_minor_solvability(self, rng):
        # Every subset of <= n_public columns must be solvable — the
        # terminal-side decode relies on it.
        alloc, _ = self._alloc(rng)
        plan = build_phase2_matrices(alloc)
        for chunk in plan.chunks:
            if chunk.n_public == 0:
                continue
            k = min(chunk.n_public, 3)
            sub = chunk.z_matrix.take_cols(list(range(k)))
            assert sub.rank() == k

    def test_empty_allocation(self):
        plan = build_phase2_matrices(YAllocation(blocks=[], receivers=(1, 2)))
        assert plan.total_secret == 0 and plan.total_public == 0

    def test_chunking_respects_limit(self, rng):
        # Build an allocation with enough rows to force chunking.
        reports = {
            t: set(range(240)) for t in (1, 2)
        }
        alloc = plan_y_allocation(reports, fraction_budget(0.9), 240)
        if alloc.total_rows > MAX_PHASE2_ROWS:
            plan = build_phase2_matrices(alloc)
            assert len(plan.chunks) >= 2
            assert all(c.size <= MAX_PHASE2_ROWS for c in plan.chunks)
