"""Cross-cell batched accounting: one stacked kernel pass over many cells.

The per-cell :class:`~repro.sim.engine.BatchedRoundEngine` is already
vectorised *within* a cell, but a campaign grid holds many cells that
differ only along axes the reception tensor never sees (estimator
policy, slack, z-cost).  Cells sharing a **stack signature** —
``(n_terminals, loss model, adversary, n_x_packets)`` — have reception
tensors of identical shape drawn from the same channel law, so their
rounds can be stacked into one ``(sum_of_rounds, r, N)`` tensor and fed
through the pattern-histogram ``bincount`` and the subset-lattice zeta
transforms **once per group** instead of once per cell.

Seed discipline (the bit-identity contract):

* Every cell keeps its private generator, content-keyed as
  :meth:`~repro.sim.campaign.CampaignRunner.cell_seed_sequence`
  derives it (``SeedSequence(entropy=campaign_seed,
  spawn_key=content-hash(cell))``).  The stacked reception tensor is
  **shared storage, not shared randomness**: each cell's block is
  filled by the very same :func:`~repro.sim.reception.sample_receptions`
  call the per-cell engine would make, from the cell's own generator.
* The engine consumes its generator in a fixed order — reception tensor
  first, then one hypergeometric draw per (active subset, contributing
  cell) pair per round — and the stacked path preserves that order
  per cell exactly.

Consequently every cell's result is bit-identical to a
:class:`~repro.sim.engine.BatchedRoundEngine` run of that cell alone
(``tests/sim/test_stack.py``), and the stored lines of a stacked
campaign are pinned on every backend by
``tests/store/test_store_golden.py``.

There is one accounting kernel, and it lives in :mod:`repro.sim.engine`:
the pattern histogram and zeta transforms
(:func:`~repro.sim.engine._pattern_lattice`) run once over the whole
stacked tensor, amortising their fixed numpy dispatch cost over the
group, and each cell is then accounted on its row range by the same
:func:`~repro.sim.engine._account_cell` a single-cell
:meth:`~repro.sim.engine.BatchedRoundEngine.account` calls.  Grouping
only chooses the draw layout.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.sim.engine import (
    BatchResult,
    BatchedRoundEngine,
    _account_cell,
    _pattern_lattice,
)
from repro.sim.reception import sample_receptions_stacked
from repro.sim.spec import Scenario

__all__ = ["stack_signature", "group_cells", "run_stacked_batch"]


def stack_signature(scenario: Scenario) -> tuple:
    """The axes a reception tensor depends on: cells agreeing on these
    may share one stacked draw pass (never random values — each cell
    keeps its content-keyed stream)."""
    return (
        scenario.n_terminals,
        scenario.loss,
        scenario.adversary,
        scenario.n_x_packets,
    )


def group_cells(scenarios: Sequence[Scenario]) -> List[List[int]]:
    """Partition cell indices by :func:`stack_signature`.

    Groups appear in first-occurrence order and preserve cell order
    within each group; grouping affects kernel batching only, never
    results (every cell's generator is content-keyed).
    """
    groups: Dict[tuple, List[int]] = {}
    for index, scenario in enumerate(scenarios):
        groups.setdefault(stack_signature(scenario), []).append(index)
    return list(groups.values())


def run_stacked_batch(
    scenarios: Sequence[Scenario],
    rngs: Sequence[np.random.Generator],
) -> List[BatchResult]:
    """Run one stacked accounting pass over same-signature cells.

    Args:
        scenarios: the cells, all sharing one :func:`stack_signature`.
        rngs: each cell's private generator, consumed exactly as the
            per-cell engine would (reception first, then per-round
            hypergeometric draws).

    Returns:
        One :class:`~repro.sim.engine.BatchResult` per cell, in order,
        bit-identical to ``BatchedRoundEngine(cell, rng=rng).run()``.
    """
    scenarios = list(scenarios)
    rngs = list(rngs)
    if not scenarios:
        return []
    if len(rngs) != len(scenarios):
        raise ValueError("need exactly one generator per scenario")
    signature = stack_signature(scenarios[0])
    for scenario in scenarios[1:]:
        if stack_signature(scenario) != signature:
            raise ValueError(
                "stacked cells must share (n_terminals, loss, adversary, "
                "n_x_packets); group with group_cells() first"
            )
    engines = [
        BatchedRoundEngine(scenario, rng=rng)
        for scenario, rng in zip(scenarios, rngs)
    ]

    # One stacked reception tensor for the whole group (each cell's
    # block from its own generator), then the histogram and both zeta
    # transforms once over every round of every cell.
    batch, segments = sample_receptions_stacked(scenarios, rngs)
    lattice = _pattern_lattice(batch)
    return [
        _account_cell(
            engine,
            *(rows[start:stop] for rows in lattice),
            batch.terminals[start:stop],
            batch.eve[start:stop],
        )
        for engine, (start, stop) in zip(engines, segments)
    ]
