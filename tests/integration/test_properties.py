"""Property-based end-to-end invariants.

Hypothesis drives the protocol across random group sizes, loss rates,
payload sizes and estimator choices; these invariants must hold on
every draw:

1. **Agreement** — every terminal derives the identical secret (the
   session raises ProtocolError otherwise, so completing a round *is*
   the assertion).
2. **Conservation** — the secret is never longer than min_i M_i, and
   phase 2 publishes exactly M − L_cap z-packets.
3. **Oracle soundness** — ground-truth budgets never leak.
4. **Accounting** — efficiency equals secret bits over ledger bits.
5. **Secrecy ceiling** — whatever the estimator, a round leaves Eve at
   most ``min_i |R_i - E|`` hidden dimensions (``R_i`` receiver i's
   packets, ``E`` Eve's): everything receiver i computes lies in the
   span of the packets it received.  This is the per-round form of the
   S <= I(X; Y_i | Z) bound of Safaka et al.  It is checked on the
   per-packet session, on the round core the live engines call, and
   on seeded live sessions, whose keys must fit under it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.estimator import (
    FixedFractionEstimator,
    LeaveOneOutEstimator,
    OracleEstimator,
)
from repro.core.round import plan_round, terminal_secret
from repro.core.session import ProtocolSession, SessionConfig
from repro.net.medium import BroadcastMedium, IIDLossModel
from repro.net.node import Eavesdropper, Terminal
from repro.service import FollowerEngine, LeaderEngine, ServiceConfig
from tests.service.test_fail_closed import pump

SET = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build(seed, n_terminals, loss):
    rng = np.random.default_rng(seed)
    names = [f"T{i}" for i in range(n_terminals)]
    nodes = [Terminal(name=x) for x in names] + [Eavesdropper(name="eve")]
    medium = BroadcastMedium(nodes, IIDLossModel(loss), rng)
    return medium, names, rng


#: The estimators the ceiling is checked for: ground truth, the
#: interference guarantee, and the empirical leave-one-out estimate.
CEILING_ESTIMATORS = {
    "oracle": OracleEstimator,
    "fraction": lambda: FixedFractionEstimator(0.3),
    "loo": lambda: LeaveOneOutEstimator(rate_margin=0.05),
}


def ceiling(reports, eve_received):
    """``min_i |R_i - E|``: the worst-placed receiver's Eve-missed packets."""
    return min(len(set(r) - set(eve_received)) for r in reports.values())


class TestEndToEndProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_terminals=st.integers(min_value=2, max_value=5),
        loss=st.floats(min_value=0.05, max_value=0.6),
        payload=st.integers(min_value=1, max_value=64),
    )
    @SET
    def test_oracle_rounds_agree_and_never_leak(
        self, seed, n_terminals, loss, payload
    ):
        medium, names, rng = build(seed, n_terminals, loss)
        cfg = SessionConfig(n_x_packets=36, payload_bytes=payload)
        session = ProtocolSession(
            medium, names, OracleEstimator(), rng, config=cfg
        )
        result = session.run_round(names[0])  # agreement asserted inside
        assert result.leakage.perfect
        assert result.secret_packets <= result.allocation.min_m_i()
        if result.secret.size:
            assert result.secret.shape[1] == payload

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        fraction=st.floats(min_value=0.0, max_value=0.6),
        slack=st.integers(min_value=0, max_value=3),
    )
    @SET
    def test_fixed_fraction_rounds_always_complete(self, seed, fraction, slack):
        """Even badly calibrated estimators must never break agreement
        or accounting — only secrecy (measured, not assumed)."""
        medium, names, rng = build(seed, 3, 0.3)
        cfg = SessionConfig(
            n_x_packets=30, payload_bytes=8, secrecy_slack=slack
        )
        session = ProtocolSession(
            medium, names, FixedFractionEstimator(fraction), rng, config=cfg
        )
        result = session.run_round(names[0])
        assert 0.0 <= result.leakage.reliability <= 1.0
        l_cap = result.allocation.min_m_i()
        assert result.secret_packets <= max(0, l_cap - slack) or l_cap == 0
        assert result.plan.total_public == result.allocation.total_rows - l_cap

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @SET
    def test_efficiency_accounting_exact(self, seed):
        medium, names, rng = build(seed, 3, 0.35)
        cfg = SessionConfig(n_x_packets=30, payload_bytes=16)
        session = ProtocolSession(
            medium, names, OracleEstimator(), rng, config=cfg
        )
        result = session.run_round(names[0])
        from repro.core.metrics import efficiency

        eff = efficiency(result.secret_bits, medium.ledger.total_bits)
        assert eff == result.secret_bits / medium.ledger.total_bits
        assert 0.0 <= eff < 1.0

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        loss=st.floats(min_value=0.05, max_value=0.5),
    )
    @SET
    def test_secret_bits_capped_by_eve_misses(self, seed, loss):
        """Information-theoretic sanity: the round's secret cannot
        exceed what Eve physically missed."""
        medium, names, rng = build(seed, 3, loss)
        cfg = SessionConfig(n_x_packets=40, payload_bytes=8)
        session = ProtocolSession(
            medium, names, OracleEstimator(), rng, config=cfg
        )
        result = session.run_round(names[0])
        eve_missed = cfg.n_x_packets - len(result.eve_received_ids)
        assert result.secret_packets <= eve_missed

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_terminals=st.integers(min_value=2, max_value=5),
        loss=st.floats(min_value=0.05, max_value=0.6),
        kind=st.sampled_from(sorted(CEILING_ESTIMATORS)),
    )
    @SET
    def test_hidden_dims_capped_by_worst_receiver(
        self, seed, n_terminals, loss, kind
    ):
        """The per-packet session never accounts Eve more hidden
        dimensions than the worst-placed receiver has packets she
        missed.  The planned secret may exceed it (that is estimator
        optimism, which the measured leakage catches); the hidden part
        may not."""
        medium, names, rng = build(seed, n_terminals, loss)
        cfg = SessionConfig(n_x_packets=40, payload_bytes=8)
        session = ProtocolSession(
            medium, names, CEILING_ESTIMATORS[kind](), rng, config=cfg
        )
        result = session.run_round(names[0])
        assert result.leakage.hidden_dims <= ceiling(
            result.reports, result.eve_received_ids
        )

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_receivers=st.integers(min_value=1, max_value=4),
        loss=st.floats(min_value=0.05, max_value=0.6),
        kind=st.sampled_from(sorted(CEILING_ESTIMATORS)),
    )
    @SET
    def test_round_core_hidden_dims_capped_and_agreed(
        self, seed, n_receivers, loss, kind
    ):
        """The round core the live engines call, on IID reception sets
        drawn without a medium: every receiver rebuilds the leader's
        secret from its own packets and the z-contents, and the hidden
        dimensions stay under the ceiling."""
        rng = np.random.default_rng(seed)
        cfg = SessionConfig(n_x_packets=40, payload_bytes=8)
        n = cfg.n_x_packets
        reports = {
            f"T{i + 1}": {x for x in range(n) if rng.random() >= loss}
            for i in range(n_receivers)
        }
        eve = frozenset(x for x in range(n) if rng.random() >= loss)
        payloads = rng.integers(0, 256, size=(n, cfg.payload_bytes), dtype=np.uint8)
        planned = plan_round(
            "T0",
            reports,
            CEILING_ESTIMATORS[kind](),
            eve,
            {x: x for x in range(n)},
            payloads,
            cfg,
        )
        for name, received in reports.items():
            secret = terminal_secret(
                planned.allocation,
                planned.plan,
                name,
                {x: payloads[x] for x in received},
                planned.z_values,
            )
            assert np.array_equal(secret, planned.secret)
        assert planned.leakage.hidden_dims <= ceiling(reports, eve)


def _session_ceilings(config, followers):
    """Per round, the ceiling of a live session, read off the config's
    seeded traces: follower f received x-id i iff its trace keeps it."""
    out = []
    for round_id in range(config.n_rounds):
        reports = {
            f: {int(i) for i in (~config.erasure_trace(f)[round_id]).nonzero()[0]}
            for f in followers
        }
        out.append(ceiling(reports, config.eve_received(round_id)))
    return out


@pytest.mark.parametrize("kind", ["fraction", "oracle"])
@pytest.mark.parametrize("seed", range(8))
def test_live_keys_fit_under_the_session_ceiling(seed, kind):
    """A seeded live session never measures more min-entropy, nor
    ships more key bits, than ``payload_bits`` times the sum of its
    rounds' ceilings.  The key ceiling is set high so the measured
    budget, not ``key_bytes``, sizes the key."""
    followers = ("bob", "carol", "dave")[: 1 + seed % 3]
    config = ServiceConfig(
        n_x_packets=(24, 48)[seed % 2],
        n_rounds=2,
        estimator_kind=kind,
        key_bytes=1024,
        loss_seed=seed,
        payload_seed=seed,
        loss_prob=0.3,
        eve_loss_prob=0.4,
    )
    leader = LeaderEngine(config, "alice", followers)
    engines = {f: FollowerEngine(config, f, "alice") for f in followers}
    pump(leader, engines)
    cap_bits = config.payload_bytes * 8 * sum(_session_ceilings(config, followers))
    for engine in (leader, *engines.values()):
        assert engine.established
        assert engine.leakage_budget().min_entropy_bits <= cap_bits
        assert 8 * len(engine.derived_keys.material) <= cap_bits
