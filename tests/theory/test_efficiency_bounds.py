"""Figure-1 theory: closed forms, LP behaviour, capacity bounds."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.theory.bounds import group_secret_upper_bound, pairwise_secrecy_capacity
from repro.theory.efficiency import (
    _LevelLPMemo,
    clear_efficiency_cache,
    efficiency_cache_info,
    group_allocation_profile,
    group_efficiency,
    group_efficiency_infinite,
    group_efficiency_lp,
    unicast_efficiency,
)

probability = st.floats(min_value=0.02, max_value=0.98)


class TestUnicast:
    def test_closed_form(self):
        assert unicast_efficiency(2, 0.5) == pytest.approx(0.2)

    @given(probability)
    @settings(max_examples=25, deadline=None)
    def test_decreasing_in_n(self, p):
        values = [unicast_efficiency(n, p) for n in (2, 3, 6, 10, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_vanishes_as_n_grows(self):
        assert unicast_efficiency(10_000, 0.5) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            unicast_efficiency(1, 0.5)
        with pytest.raises(ValueError):
            unicast_efficiency(3, 1.5)


class TestGroup:
    def test_n2_closed_form(self):
        for p in (0.1, 0.5, 0.8):
            assert group_efficiency(2, p) == pytest.approx(p * (1 - p))

    def test_peak_at_half(self):
        assert group_efficiency(2, 0.5) == pytest.approx(0.25)

    def test_infinite_closed_form(self):
        assert group_efficiency_infinite(0.5) == pytest.approx(0.2)
        assert group_efficiency(math.inf, 0.5) == pytest.approx(0.2)

    @given(probability)
    @settings(max_examples=15, deadline=None)
    def test_ordering_group_decreasing_in_n(self, p):
        values = [group_efficiency(n, p) for n in (2, 3, 6, 10)]
        values.append(group_efficiency_infinite(p))
        for a, b in zip(values, values[1:]):
            assert a >= b - 1e-9

    @given(probability)
    @settings(max_examples=15, deadline=None)
    def test_group_beats_unicast(self, p):
        for n in (3, 6, 10):
            assert group_efficiency(n, p) >= unicast_efficiency(n, p) - 1e-9

    @given(probability)
    @settings(max_examples=15, deadline=None)
    def test_group_stays_above_infinite_limit(self, p):
        limit = group_efficiency_infinite(p)
        for n in (3, 6, 10):
            assert group_efficiency(n, p) >= limit - 1e-6

    def test_lp_approaches_infinite_limit(self):
        # At n = 40 the LP should be within a few percent of the limit.
        p = 0.5
        lp = group_efficiency_lp(40, p)
        assert abs(lp - group_efficiency_infinite(p)) < 0.01

    def test_extremes_are_zero(self):
        assert group_efficiency(5, 0.0) == 0.0
        assert group_efficiency(5, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            group_efficiency(1, 0.5)
        with pytest.raises(ValueError):
            group_efficiency_infinite(-0.1)


class TestInfiniteLimitClosedForm:
    """Regression pin for the n -> inf closed form p(1-p)/(1+p^2).

    The Figure-1 seed suite once compared the limit against 0.8x the
    n=2 value with a strict `>` — which fails at p = 0.5, where the
    ratio is *exactly* 0.8.  These tests pin the closed form and that
    boundary identity so the relationship stays explicit.
    """

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9])
    def test_closed_form_values(self, p):
        expected = p * (1.0 - p) / (1.0 + p * p)
        assert group_efficiency_infinite(p) == pytest.approx(expected, abs=1e-15)
        assert group_efficiency(math.inf, p) == pytest.approx(expected, abs=1e-15)

    def test_boundary_identity_at_half(self):
        # p(1-p)/(1+p^2) at p=0.5 is 0.2 — exactly 80% of the n=2 peak.
        limit = group_efficiency_infinite(0.5)
        assert limit == pytest.approx(0.2, abs=1e-15)
        assert limit == pytest.approx(0.8 * group_efficiency(2, 0.5), abs=1e-15)

    def test_edges_vanish(self):
        assert group_efficiency_infinite(0.0) == 0.0
        assert group_efficiency_infinite(1.0) == 0.0

    def test_limit_peak_location(self):
        # d/dp [p(1-p)/(1+p^2)] = 0 at p = sqrt(2) - 1.
        p_star = math.sqrt(2.0) - 1.0
        grid = np.linspace(0.01, 0.99, 197)
        best = max(group_efficiency_infinite(p) for p in grid)
        assert group_efficiency_infinite(p_star) >= best - 1e-9


class TestEfficiencyCache:
    def test_cache_hits_and_unchanged_results(self):
        clear_efficiency_cache()
        first = group_efficiency(7, 0.45)
        after_first = efficiency_cache_info()
        assert after_first.misses >= 1
        second = group_efficiency(7, 0.45)
        after_second = efficiency_cache_info()
        assert second == first
        assert after_second.hits == after_first.hits + 1
        assert after_second.misses == after_first.misses

    def test_cached_matches_fresh_solve(self):
        clear_efficiency_cache()
        warm = group_efficiency_lp(6, 0.35)
        cached = group_efficiency_lp(6, 0.35)
        clear_efficiency_cache()
        fresh = group_efficiency_lp(6, 0.35)
        assert cached == warm
        assert fresh == pytest.approx(warm, abs=1e-12)

    def test_distinct_keys_do_not_collide(self):
        clear_efficiency_cache()
        a = group_efficiency_lp(5, 0.3)
        b = group_efficiency_lp(5, 0.4)
        c = group_efficiency_lp(6, 0.3)
        assert len({round(v, 12) for v in (a, b, c)}) == 3


    def test_group_efficiency_lp_shares_the_profile_entry(self):
        clear_efficiency_cache()
        profile = group_allocation_profile(6, 0.35)
        assert group_efficiency_lp(6, 0.35) == profile.efficiency
        assert efficiency_cache_info()[:2] == (1, 1)


def _keyed(*key):
    return ("solved", key)


class TestLevelLPMemo:
    def test_least_recently_used_entry_is_evicted(self):
        memo = _LevelLPMemo(_keyed, maxsize=3)
        for k in (1, 2, 3):
            memo(k)
        memo(1)  # now the most recent
        memo.adopt((4,), ("adopted", 4))
        assert memo.cache_info() == (1, 3, 3, 3)
        assert memo(4) == ("adopted", 4) and memo(1) == _keyed(1)
        memo(2)  # evicted by the adoption: solved again
        assert memo.cache_info()[:2] == (3, 4)
        assert memo.__wrapped__ is _keyed

    def test_threads_lose_no_count_and_no_bound(self):
        """Eight threads on two cores, switching every few bytecodes,
        solve and adopt over one small key set."""
        memo = _LevelLPMemo(_keyed, maxsize=8)
        calls, wrong = 2000, []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for key in rng.integers(0, 24, size=calls):
                key = int(key)
                if key % 5 == 0:
                    memo.adopt((key,), _keyed(key))
                elif memo(key) != _keyed(key):
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        adopted = sum(
            int(k) % 5 == 0
            for s in range(8)
            for k in np.random.default_rng(s).integers(0, 24, size=calls)
        )
        info = memo.cache_info()
        assert wrong == []
        assert info.hits + info.misses == 8 * calls - adopted
        assert info.currsize <= 8


class TestAllocationProfile:
    def test_profile_consistent_with_efficiency(self):
        for n, p in [(3, 0.5), (5, 0.3), (8, 0.6)]:
            profile = group_allocation_profile(n, p)
            assert profile.efficiency == pytest.approx(
                group_efficiency_lp(n, p), abs=1e-12
            )
            # The profile's own L and M reproduce its efficiency value.
            implied = profile.l_per_packet / (
                1.0 + profile.m_per_packet - profile.l_per_packet
            )
            assert implied == pytest.approx(profile.efficiency, rel=1e-6)

    def test_profile_respects_budget_constraints(self):
        n, p = 6, 0.4
        profile = group_allocation_profile(n, p)
        r = n - 1
        # s = 0 union bound: M <= p (1 - p^r) per packet.
        assert profile.m_per_packet <= p * (1 - p**r) + 1e-9
        # Coverage: L <= M_i per packet.
        m_i = sum(
            math.comb(r - 1, t - 1) * a
            for t, a in enumerate(profile.level_rows, start=1)
        )
        assert profile.l_per_packet <= m_i + 1e-9

    def test_z_cost_factor_shrinks_overhead(self):
        cheap = group_allocation_profile(6, 0.5, z_cost_factor=1.0)
        pricey = group_allocation_profile(6, 0.5, z_cost_factor=4.0)
        assert (
            pricey.m_per_packet - pricey.l_per_packet
            <= cheap.m_per_packet - cheap.l_per_packet + 1e-9
        )

    def test_degenerate_p(self):
        profile = group_allocation_profile(4, 0.0)
        assert profile.efficiency == 0.0
        assert profile.l_per_packet == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            group_allocation_profile(1, 0.5)
        with pytest.raises(ValueError):
            group_allocation_profile(4, 0.5, z_cost_factor=0.0)


class TestCapacityBounds:
    def test_pairwise_formula(self):
        assert pairwise_secrecy_capacity(0.4, 0.5) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            pairwise_secrecy_capacity(1.2, 0.5)

    def test_group_bound_uses_weakest(self):
        bound = group_secret_upper_bound([0.2, 0.6], 0.5, 100)
        assert bound == pytest.approx(100 * 0.4 * 0.5)

    def test_group_bound_edges(self):
        assert group_secret_upper_bound([], 0.5, 10) == 0.0
        with pytest.raises(ValueError):
            group_secret_upper_bound([0.2], 0.5, -1)

    def test_protocol_never_beats_capacity(self):
        """The packet-level protocol with an oracle must stay below the
        information-theoretic ceiling."""
        from repro.core.estimator import OracleEstimator
        from repro.core.session import ProtocolSession, SessionConfig
        from repro.net.medium import BroadcastMedium, IIDLossModel
        from repro.net.node import Eavesdropper, Terminal

        p = 0.5
        rng = np.random.default_rng(123)
        names = ["T0", "T1", "T2"]
        nodes = [Terminal(name=x) for x in names] + [Eavesdropper(name="eve")]
        medium = BroadcastMedium(nodes, IIDLossModel(p), rng)
        cfg = SessionConfig(n_x_packets=200, payload_bytes=16)
        session = ProtocolSession(medium, names, OracleEstimator(), rng, config=cfg)
        result = session.run_round("T0")
        # Empirical per-terminal erasure rates from the actual run.
        bound = group_secret_upper_bound(
            [1 - len(result.reports[t]) / cfg.n_x_packets for t in names[1:]],
            1 - len(result.eve_received_ids) / cfg.n_x_packets,
            cfg.n_x_packets,
        )
        # Monte-Carlo slack: the bound uses realised rates, so allow a
        # small tolerance for integer effects.
        assert result.secret_packets <= bound + 3
