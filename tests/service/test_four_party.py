"""Four-party live sessions: trimmed y-blocks must decode at every member.

With three followers the allocation often holds more y-rows than the
group secret can use, and ``_trim_excess_rows`` sheds the surplus.  The
leader then broadcasts the trimmed row count in the block's descriptor,
and each follower rebuilds ``cauchy_matrix(rows, |support|)`` from it.
The leader's own trimmed block must be that same matrix, or the block's
members decode the wrong y-values and key confirmation fails.
"""

import asyncio

import numpy as np
import pytest

from repro.service import ServiceConfig, reference_keys, run_memory_group_outcome

#: Seed and size of the session mix.
SESSION_SEED = 4
SESSION_COUNT = 60

POPULATION = tuple(f"node-{i:02d}" for i in range(12))


def four_party_specs(seed: int = SESSION_SEED, count: int = SESSION_COUNT) -> list:
    """Seeded ``(config, leader, followers)``: four parties, N in {48, 96},
    the service's default fraction estimator."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        names = [POPULATION[j] for j in rng.choice(len(POPULATION), size=4, replace=False)]
        config = ServiceConfig(
            n_x_packets=int(rng.choice((48, 96))),
            loss_prob=round(float(rng.uniform(0.2, 0.4)), 3),
            loss_seed=int(rng.integers(2**31)),
            payload_seed=int(rng.integers(2**31)),
        )
        specs.append((config, names[0], tuple(names[1:])))
    return specs


@pytest.mark.service
def test_four_party_sessions_all_establish_with_reference_keys():
    async def run_all():
        return [
            await run_memory_group_outcome(config, leader, followers, nonce=i)
            for i, (config, leader, followers) in enumerate(four_party_specs())
        ]

    outcomes = asyncio.run(run_all())
    failed = [
        (i, o.error_type, o.error) for i, o in enumerate(outcomes) if not o.keys_agree
    ]
    assert not failed
    for i, ((config, leader, followers), outcome) in enumerate(
        zip(four_party_specs(), outcomes)
    ):
        assert set(outcome.keys) == {leader, *followers}
        want = reference_keys(config, leader, followers, nonce=i)
        assert all(k.material == want.material for k in outcome.keys.values())
