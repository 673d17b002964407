"""Live async key-agreement service.

The production-shaped layer over the reproduction: real peers executing
the paper's protocol end to end over real transports — frame codec,
bootstrap-authenticated control plane, broadcast rounds, reconciliation,
privacy amplification, and HKDF key derivation with confirmation.

Layering (each module imports only downward):

* :mod:`repro.service.errors`    — the typed failure taxonomy.
* :mod:`repro.service.frames`    — length-prefixed wire codec.
* :mod:`repro.service.derive`    — HKDF extract/expand + confirmation.
* :mod:`repro.service.config`    — shared parameters, seeded traces.
* :mod:`repro.service.transport` — TCP / in-memory / fault-injecting.
* :mod:`repro.service.engine`    — sans-io leader/follower state machines.
* :mod:`repro.service.reference` — simulator runs on the same traces.
* :mod:`repro.service.peer`      — asyncio drivers, TCP entry points,
  the load generator.
"""

from repro.service.config import ServiceConfig
from repro.service.derive import (
    DerivedKeys,
    LeakageBudget,
    derive_session_keys,
)
from repro.service.engine import (
    FollowerEngine,
    LeaderEngine,
    SessionPhase,
    SessionSnapshot,
)
from repro.service.errors import (
    AbortCode,
    AuthenticationError,
    ConfigMismatchError,
    ConfirmationError,
    HandshakeError,
    InsufficientEntropyError,
    NoSecretError,
    PoolExhaustedError,
    ProtocolViolation,
    ServiceError,
    SessionAborted,
    SessionTimeout,
    TransportClosed,
)
from repro.service.frames import Frame, FrameDecoder, FrameType, encode_frame
from repro.service.peer import (
    LoadReport,
    SessionOutcome,
    TcpLeader,
    connect_follower_tcp,
    run_follower,
    run_leader,
    run_load,
    run_memory_group,
    run_memory_group_outcome,
)
from repro.service.reference import (
    TraceLossModel,
    build_reference_session,
    reference_budget,
    reference_keys,
)
from repro.service.transport import (
    FaultSpec,
    FlakyTransport,
    FrameTransport,
    MemoryTransport,
    StreamFrameTransport,
)

__all__ = [
    "ServiceConfig",
    "DerivedKeys",
    "derive_session_keys",
    "LeakageBudget",
    "FollowerEngine",
    "LeaderEngine",
    "SessionPhase",
    "SessionSnapshot",
    "ServiceError",
    "HandshakeError",
    "ConfigMismatchError",
    "AuthenticationError",
    "PoolExhaustedError",
    "ProtocolViolation",
    "NoSecretError",
    "InsufficientEntropyError",
    "ConfirmationError",
    "SessionAborted",
    "SessionTimeout",
    "TransportClosed",
    "AbortCode",
    "Frame",
    "FrameType",
    "FrameDecoder",
    "encode_frame",
    "FrameTransport",
    "StreamFrameTransport",
    "MemoryTransport",
    "FaultSpec",
    "FlakyTransport",
    "TraceLossModel",
    "build_reference_session",
    "reference_budget",
    "reference_keys",
    "run_leader",
    "run_follower",
    "run_memory_group",
    "run_memory_group_outcome",
    "SessionOutcome",
    "TcpLeader",
    "connect_follower_tcp",
    "LoadReport",
    "run_load",
]
