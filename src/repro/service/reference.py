"""Reference runs: the simulator driven by the service's seeded traces.

The deterministic network-test harness rests on one invariant: a live
service session and a :class:`~repro.core.session.ProtocolSession` run
on the *same seeded loss trace* must agree bit for bit — same reception
sets, same allocation, same z-contents, same secret.  This module
builds that reference run:

* :class:`TraceLossModel` replays the config's per-terminal erasure
  traces inside the simulator's medium: X_DATA packet ``(round, x_id)``
  is lost to terminal ``t`` iff ``trace[t][round, x_id]`` — exactly the
  frames the service follower drops locally.  Control packets are
  lossless (the service carries them over TCP).
* :func:`build_reference_session` wires a medium + session whose
  planning inputs (reports, payload rng, estimator) match the
  :class:`~repro.service.engine.LeaderEngine` construction order.

Equivalence holds for slot-agnostic estimators (``fraction`` and
``oracle`` — everything :class:`~repro.service.config.ServiceConfig`
can build): the simulator stamps real medium slots into ``x_slots``
while the service numbers packets 0..N-1, and only schedule-aware
estimators could tell the difference.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

import numpy as np

from repro.core.round import stack_secrets
from repro.core.session import ProtocolSession, RoundResult
from repro.net.medium import BroadcastMedium, LossModel
from repro.net.node import Eavesdropper, Node, Terminal
from repro.net.packet import Packet, PacketKind
from repro.service.config import ServiceConfig
from repro.service.derive import DerivedKeys, LeakageBudget, derive_session_keys

__all__ = [
    "TraceLossModel",
    "build_reference_session",
    "reference_budget",
    "reference_keys",
]

_EVE_NODE = "eve"


class TraceLossModel(LossModel):
    """Scripted per-receiver erasures for X_DATA; everything else lossless.

    Args:
        traces: receiver name -> ``(n_rounds, N)`` boolean array, True
            meaning the packet is lost on that link.  Unlisted receivers
            (and all control traffic) receive everything — matching the
            service, where control frames ride a reliable stream.
    """

    def __init__(self, traces: Mapping[str, np.ndarray]) -> None:
        self.traces = {name: np.asarray(t, dtype=bool) for name, t in traces.items()}

    def lost_at(
        self,
        src: Node,
        position: object,
        dst: Node,
        packet: Packet,
        slot: int,
        rng: np.random.Generator,
    ) -> bool:
        if packet.kind is not PacketKind.X_DATA:
            return False
        trace = self.traces.get(dst.name)
        if trace is None:
            return False
        round_id = int(packet.meta.get("round", 0))
        x_id = packet.meta.get("x_id")
        if x_id is None or round_id >= trace.shape[0] or int(x_id) >= trace.shape[1]:
            return False
        return bool(trace[round_id, int(x_id)])


def build_reference_session(
    config: ServiceConfig, leader: str, followers: Tuple[str, ...]
) -> ProtocolSession:
    """The simulator session equivalent to a live service session.

    Terminal order is ``[leader, *followers]``, the order the live
    session names its parties in.
    """
    traces = {name: config.erasure_trace(name) for name in followers}
    nodes: List[Node] = [Terminal(name) for name in (leader, *followers)]
    oracle = config.estimator_kind == "oracle"
    if oracle:
        traces[_EVE_NODE] = config.eve_trace()
        nodes.append(Eavesdropper(_EVE_NODE))
    medium = BroadcastMedium(
        nodes=nodes,
        loss_model=TraceLossModel(traces),
        # The trace model never consumes randomness, but the medium
        # requires a generator; seed it fixed so nothing can drift.
        rng=np.random.default_rng(0),
    )
    return ProtocolSession(
        medium=medium,
        terminal_names=[leader, *followers],
        estimator=config.build_estimator(),
        rng=np.random.default_rng(config.payload_seed),
        config=config.session_config(),
        eve_name=_EVE_NODE if oracle else None,
    )


def _reference_rounds(
    config: ServiceConfig, leader: str, followers: Tuple[str, ...]
) -> List[RoundResult]:
    session = build_reference_session(config, leader, followers)
    return [
        session.run_round(leader, round_id)
        for round_id in range(config.n_rounds)
    ]


def _budget_of(config: ServiceConfig, rounds: List[RoundResult]) -> LeakageBudget:
    return LeakageBudget.from_rounds(
        [r.leakage for r in rounds], config.payload_bytes, config.secrecy_margin_bits
    )


def reference_budget(
    config: ServiceConfig, leader: str, followers: Tuple[str, ...]
) -> LeakageBudget:
    """The measured secrecy budget the simulator computes on the
    config's traces — what every live engine's
    :meth:`~repro.service.engine._EngineBase.leakage_budget` must
    reproduce bit for bit."""
    return _budget_of(config, _reference_rounds(config, leader, followers))


def reference_keys(
    config: ServiceConfig,
    leader: str,
    followers: Tuple[str, ...],
    nonce: int = 0,
) -> DerivedKeys:
    """Reference-derived session keys (simulator secret through HKDF),
    sized by the same measured budget the live engines apply."""
    rounds = _reference_rounds(config, leader, followers)
    return derive_session_keys(
        stack_secrets([r.secret for r in rounds]),
        session_id=config.session_id(leader, followers, nonce),
        config_digest=config.digest(),
        leader=leader,
        key_bytes=config.key_bytes,
        budget=_budget_of(config, rounds),
    )
