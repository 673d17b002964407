"""Sans-io session engines: the protocol as pure state machines.

The service separates *what the protocol does* (this module) from *how
bytes move* (:mod:`repro.service.peer`).  Both engines are event-driven:
``on_frame`` consumes one decoded frame and returns the frames to send,
never blocking and never touching a socket — so one asyncio event loop
can multiplex thousands of sessions, and tests can drive a handshake
frame by frame with no I/O at all.

Session timeline (one round; leader left, follower right)::

    AWAIT_HELLOS  <--------- HELLO ----------  AWAIT_HELLO
                  ---------- HELLO --------->
    (x broadcast) ------ X_PACKET * N ------>  RECV_X   (drops per trace)
                  ---------- X_END --------->
    AWAIT_REPORTS <-------- REPORT* ---------  AWAIT_Y
    (plan round)  ------ Y_DESCRIPTOR* ----->
                  ---- PHASE2_DESCRIPTOR* --->  AWAIT_P2
                  ------- Z_CONTENT** ------->  RECV_Z
                      ... next round, or ...
    AWAIT_CONFIRMS <------- CONFIRM ---------  AWAIT_ACK
                  -------- CONFIRM_ACK ----->
    ESTABLISHED                                ESTABLISHED

Frames marked ``*`` carry a one-time-MAC tag from the pair's bootstrap
pool (:class:`repro.auth.bootstrap.AuthenticatedChannel`); the MAC
sequence is strict, so any control-plane drop / duplicate / reorder
desynchronises the pool and the session aborts — by design, the only
frames allowed to be lossy are the X_PACKETs, which *are* the protocol's
channel model.  No engine ever exposes key material unless it reached
``ESTABLISHED``; every failure path raises a typed
:class:`~repro.service.errors.ServiceError` and clears the keys.

What a round computes comes from the round core (:mod:`repro.core.round`),
the code :class:`~repro.core.session.ProtocolSession` runs too: the
leader packs :func:`~repro.core.round.plan_round`'s output into frames,
and the follower runs :func:`~repro.core.round.terminal_secret` on plans
rebuilt from wire descriptors — the Cauchy coefficients are
deterministic given block shapes, which is exactly the paper's
identities-only broadcast.
"""

from __future__ import annotations

import hmac
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, TypeVar

import numpy as np

from repro.auth.bootstrap import AuthenticatedChannel, BootstrapError
from repro.auth.mac import TAG_SYMBOLS
from repro.coding.privacy import (
    CombinationBlock,
    GroupCodingPlan,
    Phase2Chunk,
    YAllocation,
)
from repro.core.eve import LeakageReport, round_leakage
from repro.core.messages import ReceptionReport
from repro.core.round import plan_round, stack_secrets, terminal_secret
from repro.gf.linalg import GFMatrix
from repro.gf.matrices import cauchy_matrix
from repro.service.config import FOLLOWER_ROLE, LEADER_ROLE, ServiceConfig
from repro.service.derive import DerivedKeys, LeakageBudget, derive_session_keys
from repro.service.errors import (
    AbortCode,
    AuthenticationError,
    ConfigMismatchError,
    ConfirmationError,
    PoolExhaustedError,
    ProtocolViolation,
    ServiceError,
    SessionAborted,
)
from repro.service.frames import (
    AUTHENTICATED_TYPES,
    Frame,
    FrameType,
    WireAbort,
    WireBlockDescriptor,
    WireConfirm,
    WireHello,
    WirePhase2Descriptor,
    WireXEnd,
    WireXPacket,
    WireZContent,
    pack_report,
    unpack_report,
)

__all__ = [
    "SessionPhase",
    "SessionSnapshot",
    "LeaderEngine",
    "FollowerEngine",
    "allocation_from_descriptor",
    "plan_from_descriptor",
]

#: Data-plane frame types: lossy by contract, ignored when stale.
_DATA_PLANE = frozenset({FrameType.X_PACKET, FrameType.X_END})


class SessionPhase(Enum):
    """Where a session engine is in the timeline above."""

    AWAIT_HELLO = "await_hello"  # follower: waiting for the leader's reply
    AWAIT_HELLOS = "await_hellos"  # leader: waiting for all followers
    RECV_X = "recv_x"  # follower: inside an x-burst
    AWAIT_REPORTS = "await_reports"  # leader: waiting for all reports
    AWAIT_Y = "await_y"  # follower: report sent, waiting for y-identities
    AWAIT_P2 = "await_p2"  # follower: waiting for the phase-2 descriptor
    RECV_Z = "recv_z"  # follower: collecting z-contents
    AWAIT_CONFIRMS = "await_confirms"  # leader: waiting for confirm tags
    AWAIT_ACK = "await_ack"  # follower: confirm sent, waiting for ack
    ESTABLISHED = "established"  # keys confirmed on both ends
    FAILED = "failed"  # aborted; keys cleared, engine inert


@dataclass(frozen=True)
class SessionSnapshot:
    """Serialisable per-session state summary.

    This is the "small dataclass advanced by events" contract: drivers
    and the load generator persist/report these, never engine internals.
    """

    role: str
    name: str
    peer: str
    session_id: str
    phase: str
    round_id: int
    n_rounds: int
    frames_in: int
    frames_out: int
    secret_rows: int
    established: bool
    secret_bits: int = 0
    leaked_bits: int = 0
    min_entropy_bits: int = 0
    key_bytes: int = 0

    def to_json(self) -> Dict[str, object]:
        return asdict(self)


# ---------------------------------------------------------------------------
# Plans rebuilt from wire descriptors; frame sealing
# ---------------------------------------------------------------------------


def allocation_from_descriptor(
    descriptor: WireBlockDescriptor,
    terminal: str,
    received_ids: FrozenSet[int],
    n_x_packets: int,
) -> YAllocation:
    """Rebuild the leader's y-plan from the wire descriptor, locally.

    The Cauchy coefficients are a pure function of (rows, support size),
    so the descriptor's identities suffice.  A block is decodable here
    iff this terminal received its *entire* support — a superset of the
    leader's subset-membership criterion (support ⊆ packets all of the
    subset received), so a subset member always decodes at least what
    the leader counted on, and extra decodable blocks only reduce how
    many z-packets phase 2 must consume.

    The leader's supports are disjoint sets of the round's x-ids, so a
    support naming an x-id outside ``[0, n_x_packets)``, or one another
    support (or itself) already named, is a protocol violation.
    """
    blocks = []
    seen: Set[int] = set()
    for support, rows in zip(descriptor.supports, descriptor.rows):
        for x_id in support:
            if not 0 <= x_id < n_x_packets:
                raise ProtocolViolation(f"y-descriptor names unknown x-id {x_id}")
            if x_id in seen:
                raise ProtocolViolation(f"y-descriptor repeats x-id {x_id}")
            seen.add(x_id)
        try:
            decodable = set(support) <= set(received_ids)
            blocks.append(
                CombinationBlock(
                    subset=frozenset({terminal}) if decodable else frozenset(),
                    support=tuple(support),
                    matrix=cauchy_matrix(rows, len(support)),
                    certified_budget=rows,
                )
            )
        except ValueError as exc:
            raise ProtocolViolation(f"unbuildable y-descriptor block: {exc}") from None
    return YAllocation(blocks=blocks, receivers=(terminal,))


def plan_from_descriptor(descriptor: WirePhase2Descriptor) -> GroupCodingPlan:
    """Rebuild the phase-2 z/s maps from the wire descriptor.

    Chunks cover consecutive global y-row ranges; each chunk's z-map is
    the first ``n_public`` rows and its s-map the last ``n_secret`` rows
    of the same square Cauchy matrix — matching
    :func:`repro.coding.privacy.build_phase2_matrices` row for row.
    """
    chunks = []
    offset = 0
    for size, n_secret, n_public in zip(
        descriptor.chunk_sizes, descriptor.secret_counts, descriptor.public_counts
    ):
        if size == 0:
            raise ProtocolViolation("phase-2 descriptor contains an empty chunk")
        if n_secret + n_public > size:
            raise ProtocolViolation("phase-2 chunk counts overlap or exceed its size")
        rows = tuple(range(offset, offset + size))
        offset += size
        try:
            square = cauchy_matrix(size, size)
        except ValueError as exc:
            raise ProtocolViolation(f"unbuildable phase-2 chunk: {exc}") from None
        z_matrix = (
            square.take_rows(range(n_public)) if n_public else GFMatrix.zeros(0, size)
        )
        s_matrix = (
            square.take_rows(range(size - n_secret, size))
            if n_secret
            else GFMatrix.zeros(0, size)
        )
        chunks.append(Phase2Chunk(y_rows=rows, z_matrix=z_matrix, s_matrix=s_matrix))
    return GroupCodingPlan(chunks=chunks)


def _seal(channel: AuthenticatedChannel, ftype: FrameType, inner: bytes) -> Frame:
    """Authenticate ``inner`` under the pair channel; build the frame."""
    try:
        tag = channel.authenticate(bytes([int(ftype)]) + inner)
    except BootstrapError as exc:
        raise PoolExhaustedError(str(exc)) from None
    return Frame(ftype, inner + tag)


def _open(channel: AuthenticatedChannel, frame: Frame) -> bytes:
    """Verify an authenticated frame's tag; return the inner body.

    The channel consumes a one-time key *regardless* of the verdict
    (``verify_next`` semantics), so a single failure permanently
    desynchronises the pair — exactly the strict-sequence behaviour the
    fail-closed contract relies on.
    """
    if frame.type not in AUTHENTICATED_TYPES:
        raise ProtocolViolation(f"frame type {frame.type.name} is not authenticated")
    if len(frame.body) < TAG_SYMBOLS:
        raise AuthenticationError(f"{frame.type.name} frame too short to carry a tag")
    inner, tag = frame.body[: -TAG_SYMBOLS], frame.body[-TAG_SYMBOLS:]
    try:
        ok = channel.verify_next(bytes([int(frame.type)]) + inner, tag)
    except BootstrapError as exc:
        raise PoolExhaustedError(str(exc)) from None
    if not ok:
        raise AuthenticationError(f"one-time MAC failed on {frame.type.name}")
    return inner


def _parse_abort(frame: Frame) -> SessionAborted:
    notice = WireAbort.unpack(frame)
    try:
        code = AbortCode(notice.code)
    except ValueError:
        code = AbortCode.INTERNAL
    return SessionAborted(code, notice.reason)


_Out = TypeVar("_Out")


class _EngineBase:
    """State shared by both engines: counters, snapshots, key
    derivation, fail-closed plumbing."""

    #: Set by subclasses: the snapshot's role and peer labels, and the
    #: session's parameters, party name and id.
    _role: str
    _peer_label: str
    config: ServiceConfig
    name: str
    session_id: bytes

    def __init__(self) -> None:
        self.phase = SessionPhase.FAILED  # subclasses set their start phase
        self.round_id = 0
        self.frames_in = 0
        self.frames_out = 0
        self._keys: Optional[DerivedKeys] = None
        self._secrets: List[np.ndarray] = []
        self._leakage: List[LeakageReport] = []

    @property
    def established(self) -> bool:
        return self.phase is SessionPhase.ESTABLISHED

    @property
    def derived_keys(self) -> Optional[DerivedKeys]:
        """The session keys — None unless the handshake fully confirmed.

        This property *is* the fail-closed gate: aborted sessions have
        their keys cleared, unconfirmed sessions never expose them.
        """
        if self.phase is SessionPhase.ESTABLISHED:
            return self._keys
        return None

    @property
    def secret_rows(self) -> int:
        return sum(int(np.asarray(s).shape[0]) for s in self._secrets)

    def leakage_budget(self) -> LeakageBudget:
        """The session's measured secrecy budget so far.

        Per-round :func:`repro.core.eve.round_leakage` accounting summed
        into bits: in oracle mode against Eve's actual capture trace, in
        fraction mode against an Eve who captured no x-packets but sees
        every public z-broadcast (``eve_received = {}``) — the
        structural leakage of the published combinations, matching the
        reference :class:`~repro.core.session.ProtocolSession` without
        an Eve node.  The safety margin is the deployment's stated cover
        for the fraction estimator's channel-capture assumption.
        """
        return LeakageBudget.from_rounds(
            self._leakage, self.config.payload_bytes, self.config.secrecy_margin_bits
        )

    def snapshot(self) -> SessionSnapshot:
        budget = self.leakage_budget()
        return SessionSnapshot(
            role=self._role,
            name=self.name,
            peer=self._peer_label,
            session_id=self.session_id.hex(),
            phase=self.phase.value,
            round_id=self.round_id,
            n_rounds=self.config.n_rounds,
            frames_in=self.frames_in,
            frames_out=self.frames_out,
            secret_rows=self.secret_rows,
            established=self.established,
            secret_bits=budget.secret_bits,
            leaked_bits=budget.leaked_bits,
            min_entropy_bits=budget.min_entropy_bits,
            key_bytes=len(self._keys.material) if self._keys else 0,
        )

    def _out(self, frames: List[_Out]) -> List[_Out]:
        self.frames_out += len(frames)
        return frames

    def _derive_keys(self, leader: str) -> DerivedKeys:
        """Every round done: the session keys from the stacked secret,
        sized by the measured budget."""
        self._keys = derive_session_keys(
            stack_secrets(self._secrets),
            session_id=self.session_id,
            config_digest=self.config.digest(),
            leader=leader,
            key_bytes=self.config.key_bytes,
            budget=self.leakage_budget(),
        )
        return self._keys

    def _fail(self, exc: ServiceError) -> ServiceError:
        """Enter FAILED: clear all key material, return ``exc`` to raise."""
        self.phase = SessionPhase.FAILED
        self._keys = None
        self._secrets = []
        return exc


# ---------------------------------------------------------------------------
# Follower
# ---------------------------------------------------------------------------


class FollowerEngine(_EngineBase):
    """A terminal's ("Bob's") side of one live session.

    Needs only the shared config, its own name and the leader's name —
    co-followers stay invisible, as on a real wire.  The seeded erasure
    trace from the config decides which X_PACKET frames the engine
    pretends its radio lost; everything else is the paper's algorithm on
    wire-rebuilt plans.
    """

    _role = "follower"

    def __init__(self, config: ServiceConfig, name: str, leader: str) -> None:
        super().__init__()
        self.config = config
        self.name = name
        self.leader = leader
        self._peer_label = leader
        self.auth = AuthenticatedChannel.from_bootstrap(config.pair_pool(leader, name))
        self.trace = config.erasure_trace(name)
        self.session_id = b"\x00" * 16  # assigned by the leader's HELLO
        self.phase = SessionPhase.AWAIT_HELLO
        self._received: Dict[int, np.ndarray] = {}
        self._allocation: Optional[YAllocation] = None
        self._plan: Optional[GroupCodingPlan] = None
        self._z_buf: Dict[int, Dict[int, np.ndarray]] = {}

    def start(self) -> List[Frame]:
        """Open the session: the follower speaks first."""
        hello = WireHello(
            role=FOLLOWER_ROLE,
            session_id=b"\x00" * 16,
            config_digest=self.config.digest(),
            name=self.name,
        )
        return self._out([hello.pack()])

    def on_frame(self, frame: Frame) -> List[Frame]:
        """Advance the state machine by one received frame."""
        self.frames_in += 1
        try:
            if frame.type is FrameType.ABORT:
                raise _parse_abort(frame)
            if self.phase is SessionPhase.AWAIT_HELLO:
                return self._out(self._on_hello(frame))
            if self.phase is SessionPhase.RECV_X:
                return self._out(self._on_data(frame))
            if self.phase in (
                SessionPhase.AWAIT_Y,
                SessionPhase.AWAIT_P2,
                SessionPhase.RECV_Z,
            ):
                if frame.type in _DATA_PLANE:
                    return []  # stragglers from the lossy burst: ignore
                return self._out(self._on_control(frame))
            if self.phase is SessionPhase.AWAIT_ACK:
                return self._out(self._on_ack(frame))
            raise ProtocolViolation(
                f"unexpected {frame.type.name} in phase {self.phase.value}"
            )
        except ServiceError as exc:
            raise self._fail(exc)

    # -- handshake -----------------------------------------------------

    def _on_hello(self, frame: Frame) -> List[Frame]:
        if frame.type is not FrameType.HELLO:
            raise ProtocolViolation(f"expected HELLO, got {frame.type.name}")
        hello = WireHello.unpack(frame)
        if hello.role != LEADER_ROLE:
            raise ProtocolViolation("peer is not a leader")
        if hello.name != self.leader:
            raise ProtocolViolation(
                f"leader identifies as {hello.name!r}, expected {self.leader!r}"
            )
        if hello.config_digest != self.config.digest():
            raise ConfigMismatchError(
                "leader's protocol parameters differ from ours"
            )
        self.session_id = hello.session_id
        self.phase = SessionPhase.RECV_X
        return []

    # -- phase 1: the x-burst ------------------------------------------

    def _on_data(self, frame: Frame) -> List[Frame]:
        cfg = self.config
        if frame.type is FrameType.X_PACKET:
            pkt = WireXPacket.unpack(frame)
            if (
                pkt.round_id != self.round_id
                or not 0 <= pkt.x_id < cfg.n_x_packets
                or len(pkt.payload) != cfg.payload_bytes
            ):
                return []  # stale / malformed data-plane frame: just loss
            if not self.trace[self.round_id, pkt.x_id]:
                self._received[pkt.x_id] = np.frombuffer(
                    pkt.payload, dtype=np.uint8
                ).copy()
            return []
        if frame.type is FrameType.X_END:
            end = WireXEnd.unpack(frame)
            if end.round_id != self.round_id:
                return []
            if end.count != cfg.n_x_packets:
                raise ProtocolViolation(
                    f"leader claims {end.count} x-packets, config says "
                    f"{cfg.n_x_packets}"
                )
            report = ReceptionReport(
                round_id=self.round_id,
                terminal=self.name,
                received_ids=frozenset(self._received),
                n_packets=cfg.n_x_packets,
            )
            self.phase = SessionPhase.AWAIT_Y
            return [_seal(self.auth, FrameType.REPORT, pack_report(report))]
        raise ProtocolViolation(f"unexpected {frame.type.name} during the x-burst")

    # -- phases 1b + 2: descriptors and z-contents ---------------------

    def _on_control(self, frame: Frame) -> List[Frame]:
        inner = _open(self.auth, frame)
        if self.phase is SessionPhase.AWAIT_Y:
            if frame.type is not FrameType.Y_DESCRIPTOR:
                raise ProtocolViolation(f"expected Y_DESCRIPTOR, got {frame.type.name}")
            descriptor = WireBlockDescriptor.unpack(inner)
            if descriptor.round_id != self.round_id:
                raise ProtocolViolation("y-descriptor round mismatch")
            self._allocation = allocation_from_descriptor(
                descriptor,
                self.name,
                frozenset(self._received),
                self.config.n_x_packets,
            )
            self.phase = SessionPhase.AWAIT_P2
            return []
        if self.phase is SessionPhase.AWAIT_P2:
            if frame.type is not FrameType.PHASE2_DESCRIPTOR:
                raise ProtocolViolation(
                    f"expected PHASE2_DESCRIPTOR, got {frame.type.name}"
                )
            descriptor = WirePhase2Descriptor.unpack(inner)
            if descriptor.round_id != self.round_id:
                raise ProtocolViolation("phase-2 descriptor round mismatch")
            assert self._allocation is not None
            if sum(descriptor.chunk_sizes) != self._allocation.total_rows:
                raise ProtocolViolation(
                    "phase-2 chunks do not cover the y-descriptor's rows"
                )
            self._plan = plan_from_descriptor(descriptor)
            self._z_buf = {i: {} for i in range(len(self._plan.chunks))}
            self.phase = SessionPhase.RECV_Z
            return self._finish_round_if_complete()
        # RECV_Z
        if frame.type is not FrameType.Z_CONTENT:
            raise ProtocolViolation(f"expected Z_CONTENT, got {frame.type.name}")
        content = WireZContent.unpack(inner)
        assert self._plan is not None
        if content.round_id != self.round_id:
            raise ProtocolViolation("z-content round mismatch")
        if not 0 <= content.chunk < len(self._plan.chunks):
            raise ProtocolViolation(f"z-content names unknown chunk {content.chunk}")
        chunk = self._plan.chunks[content.chunk]
        if not 0 <= content.row < chunk.n_public:
            raise ProtocolViolation(f"z-content names unknown row {content.row}")
        if content.row in self._z_buf[content.chunk]:
            raise ProtocolViolation("duplicate z-content row")
        if len(content.payload) != self.config.payload_bytes:
            raise ProtocolViolation("z-content payload length mismatch")
        self._z_buf[content.chunk][content.row] = np.frombuffer(
            content.payload, dtype=np.uint8
        ).copy()
        return self._finish_round_if_complete()

    def _finish_round_if_complete(self) -> List[Frame]:
        """Close the round once every expected z-content arrived."""
        assert self._allocation is not None and self._plan is not None
        for idx, chunk in enumerate(self._plan.chunks):
            if len(self._z_buf[idx]) < chunk.n_public:
                return []
        z_values = [
            np.vstack([self._z_buf[idx][r] for r in range(chunk.n_public)])
            if chunk.n_public
            else np.zeros((0, self.config.payload_bytes), dtype=np.uint8)
            for idx, chunk in enumerate(self._plan.chunks)
        ]
        try:
            secret = terminal_secret(
                self._allocation, self._plan, self.name, self._received, z_values
            )
        except (ValueError, KeyError) as exc:
            raise ProtocolViolation(f"phase-2 recovery failed: {exc}") from None
        self._secrets.append(secret)
        # Eve's reception set is a pure function of the shared config,
        # so the follower accounts the *same* leakage the leader does
        # without any extra wire traffic.
        self._leakage.append(
            round_leakage(
                self._allocation,
                self._plan,
                self.config.eve_received(self.round_id),
                list(range(self.config.n_x_packets)),
            )
        )
        self.round_id += 1
        self._received = {}
        self._allocation = None
        self._plan = None
        self._z_buf = {}
        if self.round_id < self.config.n_rounds:
            self.phase = SessionPhase.RECV_X
            return []
        keys = self._derive_keys(self.leader)
        self.phase = SessionPhase.AWAIT_ACK
        tag = keys.confirm_tag("follower", self.name)
        return [WireConfirm(tag).pack(ack=False)]

    # -- key confirmation ----------------------------------------------

    def _on_ack(self, frame: Frame) -> List[Frame]:
        if frame.type in _DATA_PLANE:
            return []
        if frame.type is not FrameType.CONFIRM_ACK:
            raise ProtocolViolation(f"expected CONFIRM_ACK, got {frame.type.name}")
        confirm = WireConfirm.unpack(frame)
        assert self._keys is not None
        expected = self._keys.confirm_tag("leader", self.name)
        if not hmac.compare_digest(confirm.tag, expected):
            raise ConfirmationError("leader's confirmation tag does not match")
        self.phase = SessionPhase.ESTABLISHED
        return []


# ---------------------------------------------------------------------------
# Leader
# ---------------------------------------------------------------------------


class LeaderEngine(_EngineBase):
    """The leader's ("Alice's") side of one live session.

    Drives the group: one engine instance serves every follower of the
    session; outputs are ``(follower_name, frame)`` pairs so drivers can
    route them to per-peer transports.  Reports are kept in arrival
    order; the plan does not depend on it, so live runs are
    bit-identical to :class:`~repro.core.session.ProtocolSession` on the
    same traces.
    """

    _role = "leader"

    def __init__(
        self,
        config: ServiceConfig,
        name: str,
        followers: Tuple[str, ...],
        nonce: int = 0,
    ) -> None:
        super().__init__()
        if not followers:
            raise ValueError("a session needs at least one follower")
        if len(set(followers)) != len(followers) or name in followers:
            raise ValueError("follower names must be unique and exclude the leader")
        self.config = config
        self.name = name
        self.followers = tuple(followers)
        self._peer_label = ",".join(self.followers)
        self.session_id = config.session_id(name, self.followers, nonce)
        self.auth = {
            f: AuthenticatedChannel.from_bootstrap(config.pair_pool(name, f))
            for f in self.followers
        }
        self.estimator = config.build_estimator()
        self._session_config = config.session_config()
        self._rng = np.random.default_rng(config.payload_seed)
        self.phase = SessionPhase.AWAIT_HELLOS
        self._present: Set[str] = set()
        self._payloads: Optional[np.ndarray] = None
        self._reports: Dict[str, Set[int]] = {}
        self._confirmed: Set[str] = set()

    @property
    def secret(self) -> np.ndarray:
        """The stacked multi-round secret (tests only; keys come from
        :attr:`derived_keys`)."""
        return stack_secrets(self._secrets)

    def on_frame(self, peer: str, frame: Frame) -> List[Tuple[str, Frame]]:
        """Advance the group state machine by one frame from ``peer``."""
        self.frames_in += 1
        try:
            if peer not in self.auth:
                raise ProtocolViolation(f"{peer!r} is not part of this session")
            if frame.type is FrameType.ABORT:
                raise _parse_abort(frame)
            if frame.type is FrameType.HELLO:
                return self._out(self._on_hello(peer, frame))
            if self.phase is SessionPhase.AWAIT_REPORTS:
                return self._out(self._on_report(peer, frame))
            if self.phase is SessionPhase.AWAIT_CONFIRMS:
                return self._out(self._on_confirm(peer, frame))
            raise ProtocolViolation(
                f"unexpected {frame.type.name} from {peer} in phase "
                f"{self.phase.value}"
            )
        except ServiceError as exc:
            raise self._fail(exc)

    # -- handshake -----------------------------------------------------

    def _on_hello(self, peer: str, frame: Frame) -> List[Tuple[str, Frame]]:
        if self.phase is not SessionPhase.AWAIT_HELLOS:
            raise ProtocolViolation(f"late HELLO from {peer}")
        hello = WireHello.unpack(frame)
        if hello.role != FOLLOWER_ROLE:
            raise ProtocolViolation(f"{peer} did not identify as a follower")
        if hello.name != peer:
            raise ProtocolViolation(
                f"HELLO name {hello.name!r} does not match the connection ({peer!r})"
            )
        if hello.config_digest != self.config.digest():
            raise ConfigMismatchError(
                f"{peer}'s protocol parameters differ from ours"
            )
        if peer in self._present:
            raise ProtocolViolation(f"duplicate HELLO from {peer}")
        self._present.add(peer)
        reply = WireHello(
            role=LEADER_ROLE,
            session_id=self.session_id,
            config_digest=self.config.digest(),
            name=self.name,
        )
        out: List[Tuple[str, Frame]] = [(peer, reply.pack())]
        if len(self._present) == len(self.followers):
            out.extend(self._begin_round())
        return out

    # -- rounds --------------------------------------------------------

    def _begin_round(self) -> List[Tuple[str, Frame]]:
        """Draw this round's payloads and emit the x-burst to everyone."""
        cfg = self.config
        self._payloads = self._rng.integers(
            0, 256, size=(cfg.n_x_packets, cfg.payload_bytes), dtype=np.uint8
        )
        self._reports = {}
        out: List[Tuple[str, Frame]] = []
        for follower in self.followers:
            for x_id in range(cfg.n_x_packets):
                pkt = WireXPacket(
                    self.round_id, x_id, self._payloads[x_id].tobytes()
                )
                out.append((follower, pkt.pack()))
            out.append((follower, WireXEnd(self.round_id, cfg.n_x_packets).pack()))
        self.phase = SessionPhase.AWAIT_REPORTS
        return out

    def _on_report(self, peer: str, frame: Frame) -> List[Tuple[str, Frame]]:
        if frame.type is not FrameType.REPORT:
            raise ProtocolViolation(f"expected REPORT from {peer}, got {frame.type.name}")
        if peer in self._reports:
            raise ProtocolViolation(f"duplicate report from {peer}")
        inner = _open(self.auth[peer], frame)
        report = unpack_report(inner, peer)
        if report.round_id != self.round_id:
            raise ProtocolViolation(f"report from {peer} names the wrong round")
        if report.n_packets != self.config.n_x_packets:
            raise ProtocolViolation(f"report from {peer} sized for a different round")
        self._reports[peer] = set(report.received_ids)
        if len(self._reports) < len(self.followers):
            return []
        return self._plan_round()

    def _plan_round(self) -> List[Tuple[str, Frame]]:
        """Pack the round core's plan into frames; keep our secret."""
        cfg = self.config
        assert self._payloads is not None
        planned = plan_round(
            self.name,
            self._reports,
            self.estimator,
            cfg.eve_received(self.round_id),
            {i: i for i in range(cfg.n_x_packets)},
            self._payloads,
            self._session_config,
        )
        y_body = WireBlockDescriptor(
            round_id=self.round_id,
            supports=tuple(b.support for b in planned.allocation.blocks),
            rows=tuple(b.rows for b in planned.allocation.blocks),
        ).pack()
        p2_body = WirePhase2Descriptor(
            round_id=self.round_id,
            chunk_sizes=tuple(c.size for c in planned.plan.chunks),
            secret_counts=tuple(c.n_secret for c in planned.plan.chunks),
            public_counts=tuple(c.n_public for c in planned.plan.chunks),
        ).pack()
        z_bodies = [
            WireZContent(self.round_id, chunk_idx, row, z_vals[row].tobytes()).pack()
            for chunk_idx, z_vals in enumerate(planned.z_values)
            for row in range(z_vals.shape[0])
        ]

        out: List[Tuple[str, Frame]] = []
        for follower in self.followers:
            channel = self.auth[follower]
            out.append((follower, _seal(channel, FrameType.Y_DESCRIPTOR, y_body)))
            out.append((follower, _seal(channel, FrameType.PHASE2_DESCRIPTOR, p2_body)))
            for body in z_bodies:
                out.append((follower, _seal(channel, FrameType.Z_CONTENT, body)))

        self._secrets.append(planned.secret)
        self._leakage.append(planned.leakage)
        self.round_id += 1
        if self.round_id < cfg.n_rounds:
            out.extend(self._begin_round())
            return out
        self._derive_keys(self.name)
        self._confirmed = set()
        self.phase = SessionPhase.AWAIT_CONFIRMS
        return out

    # -- key confirmation ----------------------------------------------

    def _on_confirm(self, peer: str, frame: Frame) -> List[Tuple[str, Frame]]:
        if frame.type is not FrameType.CONFIRM:
            raise ProtocolViolation(
                f"expected CONFIRM from {peer}, got {frame.type.name}"
            )
        if peer in self._confirmed:
            raise ProtocolViolation(f"duplicate CONFIRM from {peer}")
        confirm = WireConfirm.unpack(frame)
        assert self._keys is not None
        expected = self._keys.confirm_tag("follower", peer)
        if not hmac.compare_digest(confirm.tag, expected):
            raise ConfirmationError(f"{peer}'s confirmation tag does not match")
        self._confirmed.add(peer)
        if len(self._confirmed) < len(self.followers):
            return []
        self.phase = SessionPhase.ESTABLISHED
        return [
            (f, WireConfirm(self._keys.confirm_tag("leader", f)).pack(ack=True))
            for f in self.followers
        ]
