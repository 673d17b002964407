"""repro — reproduction of "Creating Shared Secrets out of Thin Air"
(Safaka, Fragouli, Argyraki, Diggavi — HotNets 2012).

A group of wireless terminals agrees on a shared secret over a lossy
broadcast network such that a passive eavesdropper learns (almost)
nothing — security from *limited network presence*, not computational
hardness.

Quickstart::

    import numpy as np
    from repro import (
        BroadcastMedium, IIDLossModel, Terminal, Eavesdropper,
        OracleEstimator, SessionConfig, run_experiment,
    )

    rng = np.random.default_rng(0)
    nodes = [Terminal(name=f"T{i}") for i in range(3)]
    nodes.append(Eavesdropper(name="eve"))
    medium = BroadcastMedium(nodes, IIDLossModel(0.4), rng)
    result = run_experiment(
        medium, ["T0", "T1", "T2"], OracleEstimator(), rng,
        config=SessionConfig(n_x_packets=60, payload_bytes=100),
    )
    assert result.reliability == 1.0   # Eve knows nothing
    key = result.group_secret          # shared by all three terminals

Package map (docs/architecture.md has the full layer map):

- :mod:`repro.gf` — GF(2^8) arithmetic and linear algebra.
- :mod:`repro.solvers` — the LP driver and max-flow core under the
  planners.
- :mod:`repro.coding` — MDS secrecy codes: y/z/s constructions.
- :mod:`repro.net` — broadcast medium, channels, PHY, bit accounting.
- :mod:`repro.testbed` — the paper's 14 m² interference testbed.
- :mod:`repro.core` — the protocol: sessions, estimators, metrics, Eve.
- :mod:`repro.theory` — Figure-1 efficiency curves and capacity bounds.
- :mod:`repro.analysis` — campaign runner and figure rendering.
- :mod:`repro.sim` — batched Monte-Carlo campaign engine (vectorised
  scenario sweeps; the per-packet session stays the ground truth).
- :mod:`repro.store` — persistent campaign store: content-hashed JSONL
  shards, checkpoint/resume for both campaign runners.
- :mod:`repro.auth` — active-adversary extension (one-time MACs).
"""

from repro.core import (
    CollusionEstimator,
    CombinedEstimator,
    EveErasureEstimator,
    ExperimentMetrics,
    ExperimentResult,
    FixedFractionEstimator,
    GroupSecret,
    LeakageReport,
    LeaveOneOutEstimator,
    OracleEstimator,
    ProtocolSession,
    RoundResult,
    SecretPool,
    SessionConfig,
    run_experiment,
)
from repro.net import (
    BroadcastMedium,
    Eavesdropper,
    GilbertElliottChannel,
    IIDErasureChannel,
    IIDLossModel,
    MatrixLossModel,
    Packet,
    PacketKind,
    Terminal,
    TransmissionLedger,
)
from repro.sim import (
    AdversarySpec,
    BatchedRoundEngine,
    BatchResult,
    CampaignRunner,
    CollusionEstimatorSpec,
    CombinedEstimatorSpec,
    FixedFractionEstimatorSpec,
    GilbertElliottLossSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    MatrixLossSpec,
    OracleEstimatorSpec,
    Scenario,
    ScenarioGrid,
)
from repro.store import CampaignStore
from repro.testbed import (
    Placement,
    Testbed,
    TestbedConfig,
    TestbedGeometry,
    enumerate_placements,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # protocol
    "ProtocolSession",
    "SessionConfig",
    "RoundResult",
    "run_experiment",
    "ExperimentResult",
    "ExperimentMetrics",
    "LeakageReport",
    "GroupSecret",
    "SecretPool",
    # estimators
    "EveErasureEstimator",
    "OracleEstimator",
    "FixedFractionEstimator",
    "LeaveOneOutEstimator",
    "CollusionEstimator",
    "CombinedEstimator",
    # network
    "BroadcastMedium",
    "IIDLossModel",
    "MatrixLossModel",
    "IIDErasureChannel",
    "GilbertElliottChannel",
    "Terminal",
    "Eavesdropper",
    "Packet",
    "PacketKind",
    "TransmissionLedger",
    # testbed
    "Testbed",
    "TestbedConfig",
    "TestbedGeometry",
    "Placement",
    "enumerate_placements",
    # batched simulation
    "Scenario",
    "ScenarioGrid",
    "BatchedRoundEngine",
    "BatchResult",
    "CampaignRunner",
    "CampaignStore",
    "IIDLossSpec",
    "MatrixLossSpec",
    "GilbertElliottLossSpec",
    "AdversarySpec",
    "OracleEstimatorSpec",
    "FixedFractionEstimatorSpec",
    "LeaveOneOutEstimatorSpec",
    "CollusionEstimatorSpec",
    "CombinedEstimatorSpec",
]
