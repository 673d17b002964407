"""Measured secrecy in the live service: budgets, sized keys, typed aborts.

The tentpole claims under test:

* Both live engines account the *same* per-round leakage the reference
  simulator computes — :class:`~repro.service.derive.LeakageBudget`
  equality is exact (integer bits), across fraction and oracle modes.
* Key derivation is privacy amplification sized by measurement:
  ``key_bytes`` is a ceiling, the measured residual min-entropy (minus
  the configured safety margin) is the binding constraint, and a budget
  that cannot cover the minimum key length aborts *typed* — never a
  silently stretched key.
* Inflating Eve's observations (oracle mode, lower ``eve_loss_prob``)
  shrinks the derived key or aborts the session.
"""

from collections import deque
from functools import partial

import numpy as np
import pytest

from repro.service import (
    AbortCode,
    FollowerEngine,
    InsufficientEntropyError,
    LeaderEngine,
    LeakageBudget,
    NoSecretError,
    ServiceConfig,
    reference_budget,
    reference_keys,
)
from repro.service.derive import MIN_KEY_BYTES, derive_session_keys
from repro.service.errors import abort_code_for

LEADER = "leader"  # routing token, distinct from any terminal name


def make_engines(config, follower_names=("bob",)):
    leader = LeaderEngine(config, "alice", tuple(follower_names))
    followers = {
        name: FollowerEngine(config, name, "alice") for name in follower_names
    }
    return leader, followers


def pump(leader, followers):
    """Deliver frames between engines until no traffic remains (the
    sans-io driver from test_fail_closed, without fault injection)."""
    queue = deque()
    for name, engine in followers.items():
        for frame in engine.start():
            queue.append((name, LEADER, frame))
    while queue:
        src, dst, frame = queue.popleft()
        if dst == LEADER:
            for peer, out in leader.on_frame(src, frame):
                queue.append((LEADER, peer, out))
        else:
            for out in followers[dst].on_frame(frame):
                queue.append((dst, LEADER, out))


class TestBudgetAlgebra:
    def test_min_entropy_and_extractable(self):
        budget = LeakageBudget(
            secret_bits=1024, leaked_bits=256, safety_margin_bits=64
        )
        assert budget.min_entropy_bits == 768
        assert budget.extractable_bytes == (768 - 64) // 8

    def test_margin_cannot_go_negative(self):
        budget = LeakageBudget(secret_bits=64, leaked_bits=0, safety_margin_bits=256)
        assert budget.extractable_bytes == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="exceed"):
            LeakageBudget(secret_bits=100, leaked_bits=101)
        with pytest.raises(ValueError, match="non-negative"):
            LeakageBudget(secret_bits=-1, leaked_bits=0)
        with pytest.raises(ValueError, match="margin"):
            LeakageBudget(secret_bits=10, leaked_bits=0, safety_margin_bits=-1)

    def test_low_entropy_abort_code(self):
        assert abort_code_for(InsufficientEntropyError("x")) is AbortCode.LOW_ENTROPY


class TestLiveBudgetMatchesReference:
    @pytest.mark.parametrize(
        "config",
        [
            ServiceConfig(n_x_packets=16, payload_bytes=8),
            ServiceConfig(n_x_packets=32, payload_bytes=8),
            ServiceConfig(
                n_x_packets=32,
                payload_bytes=8,
                estimator_kind="oracle",
                eve_loss_prob=0.6,
            ),
            ServiceConfig(n_x_packets=16, payload_bytes=8, n_rounds=3),
        ],
        ids=["fraction-pair", "fraction-trio-sized", "oracle", "multi-round"],
    )
    def test_all_parties_account_identically(self, config):
        """Leader, every follower, and the simulator agree on the
        measured budget bit for bit — no wire traffic carries it; each
        side computes it from what it already knows."""
        followers = ("bob", "carol")
        leader, engines = make_engines(config, followers)
        pump(leader, engines)
        assert leader.established
        ref = reference_budget(config, "alice", followers)
        assert leader.leakage_budget() == ref
        for engine in engines.values():
            assert engine.leakage_budget() == ref
        # The budget really measures this session: everything agreed is
        # accounted, and the secret the engines hold matches it.
        payload_bits = config.payload_bytes * 8
        assert ref.secret_bits == leader.secret_rows * payload_bits

    def test_snapshots_carry_the_measurement(self):
        config = ServiceConfig(n_x_packets=16, payload_bytes=16)
        leader, engines = make_engines(config)
        pump(leader, engines)
        for engine in (leader, engines["bob"]):
            snapshot = engine.snapshot()
            assert snapshot.secret_bits > 0
            assert snapshot.min_entropy_bits == (
                snapshot.secret_bits - snapshot.leaked_bits
            )
            assert snapshot.key_bytes == len(engine.derived_keys.material)
            doc = snapshot.to_json()
            for key in ("secret_bits", "leaked_bits", "min_entropy_bits", "key_bytes"):
                assert doc[key] == getattr(snapshot, key)


class TestSizedDerivation:
    def test_inflating_eves_observations_shrinks_key_or_aborts(self):
        """The acceptance claim, end to end: same protocol sizing, Eve
        capturing progressively more => monotonically less key material,
        down to a typed LOW_ENTROPY abort when she saw everything."""

        def key_len(eve_loss_prob):
            config = ServiceConfig(
                n_x_packets=32,
                payload_bytes=8,
                key_bytes=64,
                estimator_kind="oracle",
                eve_loss_prob=eve_loss_prob,
            )
            leader, engines = make_engines(config)
            pump(leader, engines)
            assert leader.derived_keys.material == (
                engines["bob"].derived_keys.material
            )
            return len(leader.derived_keys.material)

        blind = key_len(1.0)  # Eve missed every x-packet
        partial = key_len(0.5)
        assert blind >= partial >= MIN_KEY_BYTES

        omniscient = ServiceConfig(
            n_x_packets=32,
            payload_bytes=8,
            key_bytes=64,
            estimator_kind="oracle",
            eve_loss_prob=0.0,  # Eve captured the entire burst
        )
        leader, engines = make_engines(omniscient)
        # Either typed fail-closed abort is acceptable: the oracle
        # estimator may already plan zero secret (NoSecretError), or the
        # budget measures the leak and refuses (InsufficientEntropyError).
        with pytest.raises((InsufficientEntropyError, NoSecretError)):
            pump(leader, engines)
        assert leader.derived_keys is None  # failed closed, keys cleared

    @pytest.mark.parametrize("margin_bits", [0, 13])
    def test_the_key_floor_is_exactly_min_key_bytes(self, margin_bits):
        """A budget of exactly MIN_KEY_BYTES - 1 extractable bytes
        aborts; one of exactly MIN_KEY_BYTES ships that many bytes."""
        derive = partial(
            derive_session_keys,
            np.arange(64, dtype=np.uint8),
            session_id=b"floor",
            config_digest=b"digest",
            leader="alice",
            key_bytes=64,
        )
        # One bit short of MIN_KEY_BYTES whole bytes.
        short = LeakageBudget(MIN_KEY_BYTES * 8 - 1 + margin_bits, 0, margin_bits)
        assert short.extractable_bytes == MIN_KEY_BYTES - 1
        with pytest.raises(InsufficientEntropyError, match="need at least 16"):
            derive(budget=short)
        exact = LeakageBudget(MIN_KEY_BYTES * 8 + 7 + margin_bits, 7, margin_bits)
        assert exact.extractable_bytes == MIN_KEY_BYTES
        assert len(derive(budget=exact).material) == MIN_KEY_BYTES

    def test_exhausted_margin_aborts_low_entropy(self):
        """A margin larger than anything the session can agree forces
        the LOW_ENTROPY path deterministically — typed, keys cleared."""
        config = ServiceConfig(
            n_x_packets=16, payload_bytes=8, secrecy_margin_bits=100_000
        )
        leader, engines = make_engines(config)
        with pytest.raises(InsufficientEntropyError, match="measured budget"):
            pump(leader, engines)
        assert leader.derived_keys is None
        for engine in engines.values():
            assert engine.derived_keys is None

    def test_safety_margin_shrinks_key_identically_everywhere(self):
        base = ServiceConfig(n_x_packets=24, payload_bytes=16, key_bytes=64)
        cut = ServiceConfig(
            n_x_packets=24,
            payload_bytes=16,
            key_bytes=64,
            secrecy_margin_bits=128,
        )
        assert base.digest() != cut.digest()  # wire-relevant: must match

        lengths = {}
        for config in (base, cut):
            leader, engines = make_engines(config)
            pump(leader, engines)
            ref = reference_keys(config, "alice", ("bob",))
            assert leader.derived_keys.material == ref.material
            assert engines["bob"].derived_keys.material == ref.material
            lengths[config.secrecy_margin_bits] = len(ref.material)
        budget = reference_budget(base, "alice", ("bob",))
        if budget.extractable_bytes < 64:  # below the ceiling: margin bites
            assert lengths[128] == lengths[0] - 128 // 8
        else:
            assert lengths[128] <= lengths[0]
