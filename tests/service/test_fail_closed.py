"""Sans-io fail-closed tests: drive the engines frame by frame.

These tests pump frames between a :class:`LeaderEngine` and its
:class:`FollowerEngine` peers with plain function calls — no event
loop, no transports — so each one can tamper with, drop, or replay a
specific frame and assert the precise typed error.  The invariant under
test everywhere: **no engine ever exposes key material unless the
handshake fully confirmed**, and every abort path clears what existed.
"""

import dataclasses
import json
from collections import deque

import pytest

from repro.auth.bootstrap import AuthenticatedChannel
from repro.auth.mac import TAG_SYMBOLS
from repro.service import (
    AuthenticationError,
    ConfirmationError,
    FollowerEngine,
    LeaderEngine,
    PoolExhaustedError,
    ProtocolViolation,
    ServiceConfig,
    SessionPhase,
    reference_keys,
)
from repro.service.frames import (
    AUTHENTICATED_TYPES,
    Frame,
    FrameType,
    WireBlockDescriptor,
    WirePhase2Descriptor,
)
from repro.service.engine import plan_from_descriptor

FAST = ServiceConfig(n_x_packets=16, payload_bytes=8)

LEADER = "leader"  # routing token for the pump, distinct from any name


def pump(leader, followers, mutate=None):
    """Deliver frames between engines until no traffic remains.

    ``mutate(src, dst, frame)`` may rewrite a frame, or return None to
    drop it — the sans-io equivalent of a hostile/faulty network.
    """
    queue = deque()
    for name, engine in followers.items():
        for frame in engine.start():
            queue.append((name, LEADER, frame))
    while queue:
        src, dst, frame = queue.popleft()
        if mutate is not None:
            frame = mutate(src, dst, frame)
            if frame is None:
                continue
        if dst == LEADER:
            for peer, out in leader.on_frame(src, frame):
                queue.append((LEADER, peer, out))
        else:
            for out in followers[dst].on_frame(frame):
                queue.append((dst, LEADER, out))


def make_engines(config, follower_names=("bob",)):
    leader = LeaderEngine(config, "alice", tuple(follower_names))
    followers = {
        name: FollowerEngine(config, name, "alice") for name in follower_names
    }
    return leader, followers


class TestSansIoHandshake:
    def test_pump_establishes_and_matches_reference(self):
        leader, followers = make_engines(FAST)
        pump(leader, followers)
        ref = reference_keys(FAST, "alice", ("bob",))
        assert leader.established and followers["bob"].established
        assert leader.derived_keys.material == ref.material
        assert followers["bob"].derived_keys.material == ref.material

    def test_snapshots_are_serialisable_and_truthful(self):
        leader, followers = make_engines(FAST)
        pump(leader, followers)
        for engine in (leader, followers["bob"]):
            snapshot = engine.snapshot()
            assert snapshot.established
            assert snapshot.phase == SessionPhase.ESTABLISHED.value
            assert snapshot.secret_rows > 0
            assert snapshot.frames_in > 0 and snapshot.frames_out > 0
            # The "small serialisable dataclass" contract.
            assert json.loads(json.dumps(snapshot.to_json())) == snapshot.to_json()

    def test_keys_gated_until_established(self):
        leader, followers = make_engines(FAST)
        seen_phases = []

        def watch(src, dst, frame):
            # Mid-handshake, neither engine may expose key material —
            # even after derivation, before confirmation completes.
            if not leader.established:
                assert leader.derived_keys is None
            if not followers["bob"].established:
                assert followers["bob"].derived_keys is None
            seen_phases.append(leader.phase)
            return frame

        pump(leader, followers, mutate=watch)
        assert SessionPhase.AWAIT_CONFIRMS in seen_phases
        assert leader.derived_keys is not None


class TestPoolExhaustion:
    def test_exhaustion_mid_handshake_aborts_typed_with_no_keys(self):
        """A 16-byte pair pool holds two one-time-MAC keys: the leader
        burns one verifying the report and one sealing the y-descriptor,
        then hits the wall sealing the phase-2 descriptor — mid-
        handshake, before any key material exists to leak."""
        config = ServiceConfig(
            n_x_packets=16, payload_bytes=8, pool_bytes_per_peer=16
        )
        leader, followers = make_engines(config)
        with pytest.raises(PoolExhaustedError):
            pump(leader, followers)
        assert leader.phase is SessionPhase.FAILED
        assert leader.derived_keys is None
        assert leader.secret_rows == 0
        assert followers["bob"].derived_keys is None

    def test_exhaustion_through_the_async_driver(self):
        import asyncio

        from repro.service import run_memory_group_outcome

        config = ServiceConfig(
            n_x_packets=16, payload_bytes=8, pool_bytes_per_peer=16
        )
        outcome = asyncio.run(run_memory_group_outcome(config))
        assert not outcome.ok
        assert outcome.keys is None
        # Whichever side's error won the race, it is one of the two
        # typed outcomes of the abort protocol.
        assert outcome.error_type in ("PoolExhaustedError", "SessionAborted")


class TestTamperedControlPlane:
    def test_tampered_report_tag_fails_authentication(self):
        leader, followers = make_engines(FAST)

        def corrupt_report(src, dst, frame):
            if frame.type is FrameType.REPORT:
                return Frame(frame.type, frame.body[:-1] + bytes([frame.body[-1] ^ 1]))
            return frame

        with pytest.raises(AuthenticationError):
            pump(leader, followers, mutate=corrupt_report)
        assert leader.phase is SessionPhase.FAILED
        assert leader.derived_keys is None

    def test_dropped_control_frame_desynchronises_the_mac_sequence(self):
        """Losing the y-descriptor shifts the follower's key sequence
        one slot: the next control frame verifies under the wrong
        one-time key and the session dies — never mis-decodes."""
        leader, followers = make_engines(FAST)
        dropped = []

        def drop_y(src, dst, frame):
            if frame.type is FrameType.Y_DESCRIPTOR and not dropped:
                dropped.append(frame)
                return None
            return frame

        with pytest.raises(AuthenticationError):
            pump(leader, followers, mutate=drop_y)
        assert dropped
        assert followers["bob"].phase is SessionPhase.FAILED
        assert followers["bob"].derived_keys is None

    def test_reflected_confirm_tag_rejected(self):
        """Confirmation tags are direction-bound: replaying the
        follower's own CONFIRM back as the leader's ack must fail."""
        leader, followers = make_engines(FAST)
        captured = {}

        def reflect(src, dst, frame):
            if frame.type is FrameType.CONFIRM:
                captured["tag"] = frame.body
            if frame.type is FrameType.CONFIRM_ACK:
                return Frame(FrameType.CONFIRM_ACK, captured["tag"])
            return frame

        with pytest.raises(ConfirmationError):
            pump(leader, followers, mutate=reflect)
        assert followers["bob"].phase is SessionPhase.FAILED
        assert followers["bob"].derived_keys is None


class TestMalformedDescriptor:
    """An authenticated descriptor can still be malformed: the MAC
    proves who sent it, not that it is a plan.  A y-descriptor's
    supports must be disjoint sets of the round's x-ids, and a phase-2
    chunk's public and secret rows must fit in it without overlapping;
    anything else aborts the follower typed, before any phase-2
    decoding or accounting runs."""

    #: At N = 32 the plan for two followers holds a block only carol
    #: decodes, so bob's descriptor names x-ids he lost.
    CONFIG = ServiceConfig(n_x_packets=32, payload_bytes=8)

    @staticmethod
    def forge(config, victim, ftype, rewrite):
        """A pump hook that re-seals the leader's ``ftype`` frame to
        ``victim`` after ``rewrite(inner)`` edits its body, tagging it
        with the victim's next one-time key from the pair pool, as a
        forger holding the pool would."""
        mirror = AuthenticatedChannel.from_bootstrap(
            config.pair_pool("alice", victim)
        )
        forged = []

        def hook(src, dst, frame):
            if victim not in (src, dst) or frame.type not in AUTHENTICATED_TYPES:
                return frame
            inner = frame.body[:-TAG_SYMBOLS]
            if frame.type is ftype:
                inner = rewrite(inner)
                forged.append(inner)
            tag = mirror.authenticate(bytes([int(frame.type)]) + inner)
            return Frame(frame.type, inner + tag)

        return hook, forged

    def out_of_range(self, supports, lost):
        """Swap a lost x-id for N: the victim still cannot decode the
        block, so only the rebuilt plan's accounting would notice."""
        for k, support in enumerate(supports):
            hit = [x for x in support if x in lost]
            if hit:
                n = self.CONFIG.n_x_packets
                supports[k] = tuple(n if x == hit[0] else x for x in support)
                return tuple(supports)
        raise AssertionError("no support holds an x-id the victim lost")

    def repeated(self, supports, lost):
        """Name a lost x-id twice in one support, in place of another."""
        for k, support in enumerate(supports):
            hit = [x for x in support if x in lost]
            if hit and len(support) > 1:
                other = next(x for x in support if x != hit[0])
                supports[k] = tuple(hit[0] if x == other else x for x in support)
                return tuple(supports)
        raise AssertionError("no support of two holds an x-id the victim lost")

    @pytest.mark.parametrize("rewrite", ["out_of_range", "repeated"])
    def test_follower_fails_closed(self, rewrite):
        leader, followers = make_engines(self.CONFIG, ("bob", "carol"))
        # ``lost``: the x-ids bob's trace drops.
        lost = {int(i) for i in self.CONFIG.erasure_trace("bob")[0].nonzero()[0]}

        def rewrite_supports(inner):
            honest = WireBlockDescriptor.unpack(inner)
            supports = getattr(self, rewrite)(list(honest.supports), lost)
            return WireBlockDescriptor(honest.round_id, supports, honest.rows).pack()

        hook, forged = self.forge(
            self.CONFIG, "bob", FrameType.Y_DESCRIPTOR, rewrite_supports
        )
        with pytest.raises(ProtocolViolation, match="x-id"):
            pump(leader, followers, mutate=hook)
        assert forged
        bob = followers["bob"]
        assert bob.phase is SessionPhase.FAILED
        assert bob.derived_keys is None
        assert bob.secret_rows == 0

    @pytest.mark.parametrize(
        "sizes, secrets, publics",
        [((3,), (2,), (2,)), ((3,), (1,), (5,)), ((3,), (5,), (0,))],
        ids=["overlapping", "public-past-size", "secret-past-size"],
    )
    def test_phase2_counts_past_the_chunk_size_are_refused(
        self, sizes, secrets, publics
    ):
        descriptor = WirePhase2Descriptor(0, sizes, secrets, publics)
        with pytest.raises(ProtocolViolation, match="phase-2 chunk"):
            plan_from_descriptor(descriptor)

    def test_overlapping_phase2_counts_fail_the_follower(self):
        """Each count passes the wire's own check against the chunk
        size, so only the rebuilt plan can refuse the overlap."""

        def overlap(inner):
            honest = WirePhase2Descriptor.unpack(inner)
            size, n_secret = honest.chunk_sizes[0], honest.secret_counts[0]
            assert n_secret > 0
            publics = (size - n_secret + 1,) + honest.public_counts[1:]
            return dataclasses.replace(honest, public_counts=publics).pack()

        leader, followers = make_engines(FAST)
        hook, forged = self.forge(FAST, "bob", FrameType.PHASE2_DESCRIPTOR, overlap)
        with pytest.raises(ProtocolViolation, match="phase-2 chunk"):
            pump(leader, followers, mutate=hook)
        assert forged
        bob = followers["bob"]
        assert bob.phase is SessionPhase.FAILED
        assert bob.derived_keys is None
