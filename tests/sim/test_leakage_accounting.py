"""Measured leakage: every engine cross-validated against the oracle.

``repro.core.eve.round_leakage`` — an exact rank computation over the
coefficient matrices Eve can assemble — is the ground truth for Eve's
knowledge.  The per-packet session must *store* exactly that quantity,
the batched/stacked engines must reproduce its accounting identically
wherever the arithmetic is shared (the oracle estimator certifies zero
leakage on every path), and the Monte-Carlo engines must agree with
the per-packet population within sampling tolerance everywhere else.
The stacked==batched array identity for ``hidden_dims`` and
``eve_equations`` is pinned with the rest of the shard arrays in
tests/sim/test_stack.py.
"""

import numpy as np
import pytest

from repro.core.estimator import (
    FixedFractionEstimator,
    LeaveOneOutEstimator,
    OracleEstimator,
)
from repro.core.eve import round_leakage
from repro.core.rotation import run_experiment
from repro.core.session import ProtocolSession, SessionConfig
from repro.net.medium import BroadcastMedium, IIDLossModel, MatrixLossModel
from repro.net.node import Eavesdropper, Terminal
from repro.sim import (
    AdversarySpec,
    CollusionEstimatorSpec,
    FixedFractionEstimatorSpec,
    GilbertElliottLossSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    Scenario,
    run_batch,
)

N_PACKETS = 100
Z_COST = 2.0  # the SessionConfig default the sessions plan with

LOSSES = [IIDLossSpec(0.5), GilbertElliottLossSpec(0.1, 0.4, 0.8)]
ADVERSARIES = [AdversarySpec(), AdversarySpec(antennas=3)]


def run_session_rounds(n, p, estimator_factory, n_rounds=6, seed=7,
                       eve_antennas=1):
    """Per-packet rounds with an over-the-air Eve; returns RoundResults."""
    results = []
    names = [f"T{i}" for i in range(n)]
    for k in range(n_rounds):
        rng = np.random.default_rng(seed + 997 * k)
        eve = Eavesdropper(
            name="eve",
            extra_antennas=[(0.0, 0.0)] * (eve_antennas - 1),
        )
        nodes = [Terminal(name=x) for x in names] + [eve]
        medium = BroadcastMedium(nodes, IIDLossModel(p), rng)
        config = SessionConfig(
            n_x_packets=N_PACKETS, payload_bytes=8, z_cost_factor=Z_COST
        )
        session = ProtocolSession(
            medium, names, estimator_factory(), rng, config=config
        )
        results.append(session.run_round(names[0]))
    return results


def run_batched(loss, adversary, estimator_spec, n=3, rounds=1500, seed=3):
    scenario = Scenario(
        n_terminals=n,
        loss=loss,
        adversary=adversary,
        estimator=estimator_spec,
        n_x_packets=N_PACKETS,
        rounds=rounds,
        z_cost_factor=Z_COST,
    )
    return run_batch(scenario, seed=seed)


class TestSessionLeakageIsTheRankOracle:
    """What the per-packet session *stores* as ``result.leakage`` must
    be exactly what the rank oracle computes from the same round's
    public coefficients and Eve's true reception set — for every
    estimator and every antenna count."""

    @pytest.mark.parametrize("eve_antennas", [1, 3])
    @pytest.mark.parametrize(
        "factory",
        [OracleEstimator, lambda: LeaveOneOutEstimator(rate_margin=0.05)],
        ids=["oracle", "leave-one-out"],
    )
    def test_stored_report_matches_recomputation(self, factory, eve_antennas):
        for result in run_session_rounds(
            3, 0.5, factory, eve_antennas=eve_antennas
        ):
            recomputed = round_leakage(
                result.allocation,
                result.plan,
                result.eve_received_ids,
                list(range(result.n_x_packets)),
            )
            assert recomputed == result.leakage
            assert result.leakage.eve_missed == result.n_x_packets - len(
                result.eve_received_ids
            )


class TestOracleCertifiesZeroLeakage:
    """Under the oracle estimator the planner knows Eve's erasures
    exactly, so the measured leakage must be *zero* — bit-identical on
    the per-packet path (rank oracle) and the batched path (deficit
    accounting), across loss processes and antenna counts."""

    @pytest.mark.parametrize(
        "adversary", ADVERSARIES, ids=["eve1", "eve3"]
    )
    @pytest.mark.parametrize("loss", LOSSES, ids=["iid", "gilbert-elliott"])
    def test_batched_engine_leaks_nothing(self, loss, adversary):
        batch = run_batched(loss, adversary, OracleEstimatorSpec())
        assert np.array_equal(batch.hidden_dims, batch.secret_packets)
        assert np.array_equal(batch.leaked_dims, np.zeros_like(batch.hidden_dims))
        assert batch.total_leaked_bits == 0.0
        assert batch.min_reliability == 1.0

    @pytest.mark.parametrize("eve_antennas", [1, 3])
    def test_per_packet_session_leaks_nothing(self, eve_antennas):
        for result in run_session_rounds(
            3, 0.5, OracleEstimator, eve_antennas=eve_antennas
        ):
            assert result.leakage.leaked_dims == 0
            assert result.leakage.hidden_dims == result.leakage.secret_dims


class TestUnboundedPassiveEve:
    """An Eve who captures every x-packet (``AdversarySpec(loss=0.0)``)
    leaves no secret, whatever the estimator promises: ``hidden_dims``
    is 0 on every round.  The oracle plans nothing; the others still
    plan secret packets on every round, and the measured budget is what
    exposes the over-promise (reliability 0).  The per-packet session
    is held to the same, with the rank oracle measuring each round."""

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize(
        "estimator",
        [
            OracleEstimatorSpec(),
            FixedFractionEstimatorSpec(0.25),
            LeaveOneOutEstimatorSpec(),
            CollusionEstimatorSpec(k=1),
        ],
        ids=["oracle", "fixed-0.25", "leave-one-out", "collusion-1"],
    )
    def test_no_hidden_dimension_survives(self, n, estimator):
        batch = run_batch(
            Scenario(
                n_terminals=n,
                loss=IIDLossSpec(0.3),
                adversary=AdversarySpec(loss=0.0),
                estimator=estimator,
                rounds=200,
            ),
            seed=7,
        )
        assert np.all(batch.hidden_dims == 0)
        if isinstance(estimator, OracleEstimatorSpec):
            assert np.all(batch.secret_packets == 0)
        else:
            assert np.all(batch.secret_packets > 0)
            assert np.all(batch.reliability == 0.0)

    @pytest.mark.parametrize(
        "factory",
        [
            OracleEstimator,
            lambda: FixedFractionEstimator(0.25),
            LeaveOneOutEstimator,
        ],
        ids=["oracle", "fixed-0.25", "leave-one-out"],
    )
    def test_per_packet_session_hides_nothing(self, factory):
        names = ["T0", "T1", "T2"]
        # Every terminal -> eve link is lossless; the rest lose 30%.
        loss = MatrixLossModel({(t, "eve"): 0.0 for t in names}, default=0.3)
        rng = np.random.default_rng(5)
        nodes = [Terminal(name=t) for t in names] + [Eavesdropper(name="eve")]
        result = run_experiment(
            BroadcastMedium(nodes, loss, rng),
            names,
            factory(),
            rng,
            config=SessionConfig(n_x_packets=60, payload_bytes=8),
        )
        assert len(result.rounds) == len(names)
        for round_result in result.rounds:
            assert round_result.leakage.hidden_dims == 0
            if factory is OracleEstimator:
                assert round_result.leakage.secret_dims == 0
            else:
                assert round_result.leakage.secret_dims > 0


class TestBatchedAccountingInvariants:
    """The batched arrays obey the oracle's structural identities even
    where Monte-Carlo sampling forbids per-round equality."""

    @pytest.mark.parametrize(
        "adversary", ADVERSARIES, ids=["eve1", "eve3"]
    )
    @pytest.mark.parametrize("loss", LOSSES, ids=["iid", "gilbert-elliott"])
    def test_equation_count_and_entropy_bounds(self, loss, adversary):
        batch = run_batched(
            loss, adversary, LeaveOneOutEstimatorSpec(rate_margin=0.05), n=4
        )
        # Eve's equation count is integer-exact: captured x-packets
        # plus every public z-row of the round.
        expected = (N_PACKETS - batch.eve_missed) + batch.public_packets
        assert np.array_equal(batch.eve_equations, expected)
        # Hidden dimensions live in [0, secret] — never negative,
        # never more entropy than the secret holds.
        assert np.all(batch.hidden_dims >= 0.0)
        assert np.all(batch.hidden_dims <= batch.secret_packets + 1e-9)
        # Bit conversions are one shared expression.
        payload_bits = batch.scenario.payload_bytes * 8
        assert np.array_equal(
            batch.min_entropy_bits, batch.hidden_dims * payload_bits
        )
        assert batch.total_leaked_bits == pytest.approx(
            float(batch.leaked_dims.sum()) * payload_bits
        )


class TestMonteCarloAgreement:
    """Non-oracle estimators: the engines sample different erasure
    realisations, so the cross-check is the population residual
    ``sum(hidden) / sum(secret)`` — equal within MC tolerance."""

    def test_leave_one_out_residual_within_tolerance(self):
        rounds = run_session_rounds(
            4, 0.4, lambda: LeaveOneOutEstimator(rate_margin=0.05),
            n_rounds=8,
        )
        sess_hidden = sum(r.leakage.hidden_dims for r in rounds)
        sess_secret = sum(r.leakage.secret_dims for r in rounds)
        batch = run_batched(
            IIDLossSpec(0.4),
            AdversarySpec(),
            LeaveOneOutEstimatorSpec(rate_margin=0.05),
            n=4,
            rounds=2500,
        )
        batch_residual = float(
            batch.hidden_dims.sum() / batch.secret_packets.sum()
        )
        assert batch_residual == pytest.approx(
            sess_hidden / sess_secret, abs=0.08
        )
