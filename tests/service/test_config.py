"""ServiceConfig: constructor bounds and the memoized pair pools."""

from __future__ import annotations

import asyncio
import hashlib

import pytest

from repro.auth.mac import MAC_KEY_BYTES
from repro.service import ServiceConfig, run_memory_group_outcome
from repro.service.config import _pair_pool
from repro.service.derive import HKDF_MAX_BYTES, hkdf_expand, hkdf_extract


class TestPoolSizeBounds:
    """A pool must hold one MAC key and fit one HKDF expansion; outside
    that range every session used to fail, so construction refuses it."""

    @pytest.mark.parametrize("size", [0, MAC_KEY_BYTES - 1, HKDF_MAX_BYTES + 1, 8192])
    def test_out_of_range_sizes_are_rejected(self, size):
        with pytest.raises(ValueError, match="pool_bytes_per_peer"):
            ServiceConfig(pool_bytes_per_peer=size)

    @pytest.mark.parametrize("size", [MAC_KEY_BYTES, HKDF_MAX_BYTES])
    def test_both_bounds_are_accepted(self, size):
        config = ServiceConfig(pool_bytes_per_peer=size)
        assert len(config.pair_pool("a", "b")) == size

    def test_a_session_runs_at_the_upper_bound(self):
        config = ServiceConfig(n_x_packets=24, pool_bytes_per_peer=HKDF_MAX_BYTES)
        outcome = asyncio.run(run_memory_group_outcome(config, "a", ("b",)))
        assert outcome.keys_agree


@pytest.mark.lp
class TestPairPoolCache:
    @pytest.fixture(autouse=True)
    def cold_cache(self):
        _pair_pool.cache_clear()
        yield
        _pair_pool.cache_clear()

    def test_cached_pool_equals_a_direct_expansion(self):
        config = ServiceConfig()
        first = config.pair_pool("leader", "follower")
        again = config.pair_pool("leader", "follower")
        info = _pair_pool.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        salt = hashlib.sha256(b"thin-air/pair-pool|leader|follower").digest()
        direct = hkdf_expand(
            hkdf_extract(salt, config.bootstrap), b"bootstrap-pool", config.pool_bytes_per_peer
        )
        assert first == again == direct

    def test_bootstrap_is_part_of_the_key(self):
        """The digest leaves the bootstrap out, so it cannot key pools."""
        a = ServiceConfig(bootstrap=b"a" * 32)
        b = ServiceConfig(bootstrap=b"b" * 32)
        assert a.digest() == b.digest()
        assert a.pair_pool("x", "y") != b.pair_pool("x", "y")

    def test_pairs_and_sizes_get_their_own_pools(self):
        config = ServiceConfig()
        assert config.pair_pool("x", "y") != config.pair_pool("y", "x")
        small = ServiceConfig(pool_bytes_per_peer=64).pair_pool("x", "y")
        assert config.pair_pool("x", "y")[:64] == small  # HKDF output is a prefix stream
        assert _pair_pool.cache_info().misses == 3
