"""repro.sim — batched Monte-Carlo campaign engine.

The paper's claims are statistical: Figure 1's efficiency and Figure
2's reliability only emerge from many protocol rounds across a grid of
``(n, p, loss model, adversary)`` scenarios.  The per-packet simulator
(:class:`repro.core.session.ProtocolSession`) remains the ground-truth
oracle — it executes every transmission, Cauchy block and GF solve —
but at campaign scale it is the dominant cost.  This package trades
bit-exactness for two to three orders of magnitude of throughput by
simulating B independent rounds as numpy arrays.

Design (see :mod:`repro.sim.engine` for the full derivation):

* **One vectorised draw per loss model** — the whole ``(B, links, N)``
  reception tensor comes from a single sampling call (IID and matrix
  models are one comparison; Gilbert-Elliott chains iterate only the
  packet axis; :class:`~repro.sim.spec.ScheduleLossSpec` tiles a
  per-pattern loss table across the packet axis, carrying the
  testbed's rotating-interference burstiness into the accounting).
* **Subset-lattice accounting** — reception patterns become bitmasks,
  pattern counts become one ``bincount``, and a zeta transform yields
  every terminal-subset's support pool and Eve-miss count at once.
* **Allocation reuse, realised per round** — the symmetric allocation
  LP is solved once per scenario (memoized in
  :mod:`repro.theory.efficiency`); its row targets, clamped against each
  round's realised pools, become whole-packet demands, and each round
  realises them with an integral transportation max-flow on its
  pattern histogram (:func:`repro.theory.allocation.realised_support_flow`,
  solved once per histogram and demand in each cell, on a memo that
  dies with the cell, next to the Hall certificates the cell's failed
  solves proved).
* **Declarative campaigns** — :class:`~repro.sim.campaign.ScenarioGrid`
  expands the scenario matrix, and
  :class:`~repro.sim.campaign.CampaignRunner` shards cells across a
  process pool (``max_workers``) with content-keyed per-cell
  ``SeedSequence`` determinism, optionally checkpointing every
  completed cell to a :class:`repro.store.CampaignStore` for
  crash-safe resume.

Running a campaign::

    from repro.sim import (
        CampaignRunner, IIDLossSpec, LeaveOneOutEstimatorSpec, ScenarioGrid,
    )

    grid = ScenarioGrid(
        group_sizes=(3, 5, 8),
        loss_models=(IIDLossSpec(0.3), IIDLossSpec(0.5)),
        estimators=(LeaveOneOutEstimatorSpec(rate_margin=0.05),),
        rounds=1000,
        n_x_packets=180,
    )
    result = CampaignRunner(seed=2012, max_workers=4).run(grid)
    for n in result.group_sizes():
        print(n, sum(result.reliabilities(n)) / len(result.reliabilities(n)))

Cross-validation against the per-packet oracle lives in
``tests/sim/test_cross_validation.py`` and the speedup comparison in
``benchmarks/test_sim_campaign.py``.
"""

from repro.sim.campaign import (
    CampaignRunner,
    ScenarioGrid,
    ScenarioOutcome,
    SimCampaignResult,
    shard_map,
)
from repro.sim.engine import BatchedRoundEngine, BatchResult, run_batch
from repro.sim.reception import (
    ReceptionBatch,
    sample_receptions,
    sample_receptions_stacked,
)
from repro.sim.stack import group_cells, run_stacked_batch, stack_signature
from repro.sim.spec import (
    AdversarySpec,
    CollusionEstimatorSpec,
    CombinedEstimatorSpec,
    EstimatorSpec,
    FixedFractionEstimatorSpec,
    GilbertElliottLossSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    LossSpec,
    MatrixLossSpec,
    OracleEstimatorSpec,
    Scenario,
    ScheduleLossSpec,
)

__all__ = [
    # specs
    "LossSpec",
    "IIDLossSpec",
    "MatrixLossSpec",
    "ScheduleLossSpec",
    "GilbertElliottLossSpec",
    "AdversarySpec",
    "EstimatorSpec",
    "OracleEstimatorSpec",
    "FixedFractionEstimatorSpec",
    "LeaveOneOutEstimatorSpec",
    "CollusionEstimatorSpec",
    "CombinedEstimatorSpec",
    "Scenario",
    # sampling + engine
    "ReceptionBatch",
    "sample_receptions",
    "sample_receptions_stacked",
    "BatchedRoundEngine",
    "BatchResult",
    "run_batch",
    # cross-cell stacking
    "stack_signature",
    "group_cells",
    "run_stacked_batch",
    # campaigns
    "shard_map",
    "ScenarioGrid",
    "ScenarioOutcome",
    "SimCampaignResult",
    "CampaignRunner",
]
