"""The paper's contribution: the group secret-agreement protocol.

Modules:

* :mod:`repro.core.messages` — wire-format sizing for every control
  message (reception reports, combination descriptors), feeding the
  efficiency metric's denominator.
* :mod:`repro.core.estimator` — the §3.3 estimators of what Eve missed:
  oracle (ground truth), fixed-fraction (the interference guarantee),
  leave-one-out ("pretend each terminal is Eve") and its k-collusion
  generalisation.
* :mod:`repro.core.round` — the round core: what a round computes, on
  the leader's side and on a receiver's, with no I/O.
* :mod:`repro.core.session` — one protocol round: phase 1 (x-packets,
  feedback, y-construction) and phase 2 (z-redistribution, s-extraction).
* :mod:`repro.core.rotation` — terminals take turns as leader, the
  paper's defence against the worst-case scenario.
* :mod:`repro.core.eve` — exact leakage accounting: Eve's conditional
  entropy about the secret, via GF(2^8) ranks.
* :mod:`repro.core.metrics` — the paper's two metrics: efficiency and
  reliability.
* :mod:`repro.core.secret` — secret containers and the refreshable pool.
"""

from repro.core.estimator import (
    CollusionEstimator,
    CombinedEstimator,
    NaiveLeaveOneOutEstimator,
    EveErasureEstimator,
    FixedFractionEstimator,
    LeaveOneOutEstimator,
    OracleEstimator,
    RoundContext,
)
from repro.core.eve import LeakageReport, round_leakage
from repro.core.metrics import ExperimentMetrics, efficiency, reliability
from repro.core.refresh import EpochReport, RefreshingGroup
from repro.core.rotation import ExperimentResult, run_experiment
from repro.core.secret import GroupSecret, SecretPool
from repro.core.session import ProtocolSession, RoundResult, SessionConfig

__all__ = [
    "EveErasureEstimator",
    "OracleEstimator",
    "FixedFractionEstimator",
    "LeaveOneOutEstimator",
    "CollusionEstimator",
    "NaiveLeaveOneOutEstimator",
    "CombinedEstimator",
    "RoundContext",
    "ProtocolSession",
    "SessionConfig",
    "RoundResult",
    "run_experiment",
    "ExperimentResult",
    "round_leakage",
    "LeakageReport",
    "efficiency",
    "reliability",
    "ExperimentMetrics",
    "GroupSecret",
    "SecretPool",
    "RefreshingGroup",
    "EpochReport",
]
