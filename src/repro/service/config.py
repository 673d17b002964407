"""Shared service-session parameters and their seeded derivations.

One :class:`ServiceConfig` object is the single source of truth both
peers of a session must agree on: the protocol sizing (mirroring
:class:`repro.core.round.SessionConfig`), the bootstrap secret, the
estimator, and — for deterministic testing — the seeded erasure traces
standing in for a lossy radio link.

Everything a peer derives from the config (per-pair bootstrap pools,
per-terminal erasure traces, the session id) is a pure function of the
config bytes and stable names, so two processes constructed from equal
configs derive byte-identical values without further coordination —
and so the deterministic network-test harness can replay any session.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

import numpy as np

from repro.auth.mac import MAC_KEY_BYTES
from repro.core.estimator import (
    EveErasureEstimator,
    FixedFractionEstimator,
    OracleEstimator,
)
from repro.core.round import SessionConfig
from repro.service.derive import HKDF_MAX_BYTES, hkdf_expand, hkdf_extract

__all__ = ["ServiceConfig", "LEADER_ROLE", "FOLLOWER_ROLE"]

LEADER_ROLE = 0
FOLLOWER_ROLE = 1

#: Demo-only bootstrap secret.  Real deployments provision this out of
#: band (the paper's "fundamentally unavoidable" step); tests override
#: it per scenario.
_DEMO_BOOTSTRAP = b"thin-air-service-demo-bootstrap/not-for-production"


@functools.lru_cache(maxsize=1024)
def _pair_pool(bootstrap: bytes, leader: str, follower: str, size: int) -> bytes:
    """HKDF expansion of one pair's pool (memoized).

    The pool is a pure function of these four values, so every session
    of a pair reuses one expansion.  The key holds the full bootstrap
    bytes: :meth:`ServiceConfig.digest` leaves the secret out, so two
    configs with equal digests may still hold different pools.
    """
    salt = hashlib.sha256(
        b"thin-air/pair-pool|" + leader.encode() + b"|" + follower.encode()
    ).digest()
    prk = hkdf_extract(salt, bootstrap)
    return hkdf_expand(prk, b"bootstrap-pool", size)


@dataclass(frozen=True)
class ServiceConfig:
    """Parameters of one live key-agreement session.

    Wire-relevant fields (everything that changes how frames are built
    or interpreted) are folded into :meth:`digest`, which HELLO frames
    carry so mismatched peers abort instead of mis-decoding.

    Attributes:
        n_x_packets: N, x-packets broadcast per round.
        payload_bytes: symbols per packet.
        n_rounds: protocol rounds per session; round secrets are
            concatenated before key derivation.
        secrecy_slack: withheld dimensions per phase-2 chunk (see
            :func:`repro.coding.privacy.build_phase2_matrices`).
        z_cost_factor: airtime weight of z-packets in the allocation.
        max_subset_size: cap on block decodable-set size (None = free).
        estimator_kind: ``"fraction"`` (deployable: the artificial-
            interference guarantee) or ``"oracle"`` (testing: ground
            truth from the eve trace).
        estimator_fraction: the fraction for ``"fraction"`` mode.
        key_bytes: *ceiling* on the derived symmetric key material —
            the measured secrecy budget may size the output below it
            (see :class:`repro.service.derive.LeakageBudget`).
        secrecy_margin_bits: safety haircut subtracted from the
            measured residual min-entropy before sizing key material;
            wire-relevant (both peers must size identically), so it is
            folded into :meth:`digest`.
        bootstrap: master bootstrap secret shared by the group.
        pool_bytes_per_peer: per-(leader, follower) one-time-MAC pool
            size expanded from the bootstrap: at least one MAC key,
            at most one HKDF expansion (8,160 bytes).
        payload_seed: seeds the leader's x-payload generator.
        loss_seed: seeds every per-terminal erasure trace.
        loss_prob: per-packet erasure probability in the traces.
        eve_loss_prob: Eve's per-packet erasure probability (oracle
            mode accounting).
        handshake_timeout: seconds a driver waits before failing closed.
        max_frame_bytes: codec frame-size ceiling.
    """

    n_x_packets: int = 48
    payload_bytes: int = 32
    n_rounds: int = 1
    secrecy_slack: int = 0
    z_cost_factor: float = 2.0
    max_subset_size: Optional[int] = None
    estimator_kind: str = "fraction"
    estimator_fraction: float = 0.25
    key_bytes: int = 64
    secrecy_margin_bits: int = 0
    bootstrap: bytes = _DEMO_BOOTSTRAP
    pool_bytes_per_peer: int = 4096
    payload_seed: int = 7
    loss_seed: int = 11
    loss_prob: float = 0.3
    eve_loss_prob: float = 0.5
    handshake_timeout: float = 30.0
    max_frame_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.n_x_packets < 1 or self.payload_bytes < 1:
            raise ValueError("rounds need at least one non-empty x-packet")
        if self.n_rounds < 1:
            raise ValueError("a session needs at least one round")
        if self.estimator_kind not in ("fraction", "oracle"):
            raise ValueError(f"unknown estimator kind {self.estimator_kind!r}")
        if not 0.0 <= self.loss_prob <= 1.0 or not 0.0 <= self.eve_loss_prob <= 1.0:
            raise ValueError("loss probabilities must be in [0, 1]")
        if self.key_bytes < 16:
            raise ValueError("derived key material must be at least 16 bytes")
        if self.secrecy_margin_bits < 0:
            raise ValueError("secrecy margin must be non-negative")
        if len(self.bootstrap) < 16:
            raise ValueError("bootstrap secret must be at least 16 bytes")
        if not MAC_KEY_BYTES <= self.pool_bytes_per_peer <= HKDF_MAX_BYTES:
            raise ValueError(
                f"pool_bytes_per_peer must be in [{MAC_KEY_BYTES}, {HKDF_MAX_BYTES}]:"
                " one MAC key at least, one HKDF expansion at most"
            )

    # -- wire identity -----------------------------------------------------

    def digest(self) -> bytes:
        """16-byte digest of every wire-relevant parameter.

        Deliberately excludes the bootstrap secret (never hashed into
        anything that travels) and the timeout (a local policy).
        """
        doc = json.dumps(
            {
                "v": 1,
                "n_x": self.n_x_packets,
                "payload": self.payload_bytes,
                "rounds": self.n_rounds,
                "slack": self.secrecy_slack,
                "z_cost": self.z_cost_factor,
                "max_subset": self.max_subset_size,
                "estimator": [self.estimator_kind, self.estimator_fraction],
                "key_bytes": self.key_bytes,
                "secrecy_margin": self.secrecy_margin_bits,
                "payload_seed": self.payload_seed,
                "loss_seed": self.loss_seed,
                "loss_prob": self.loss_prob,
                "eve_loss_prob": self.eve_loss_prob,
            },
            sort_keys=True,
        ).encode("utf-8")
        return hashlib.sha256(doc).digest()[:16]

    def session_id(self, leader: str, followers: Tuple[str, ...], nonce: int = 0) -> bytes:
        """Deterministic 16-byte session id (``nonce`` distinguishes
        concurrent sessions of the same group, e.g. in the load
        generator)."""
        h = hashlib.sha256()
        h.update(b"thin-air/session-id|")
        h.update(self.digest())
        h.update(leader.encode("utf-8"))
        for name in sorted(followers):
            h.update(b"|" + name.encode("utf-8"))
        h.update(nonce.to_bytes(8, "big"))
        return h.digest()[:16]

    # -- seeded derivations ------------------------------------------------

    def pair_pool(self, leader: str, follower: str) -> bytes:
        """The (leader, follower) pair's one-time-MAC bootstrap pool.

        Expanded from the master bootstrap with HKDF so each pair
        consumes independent material; both ends compute it locally.
        """
        return _pair_pool(self.bootstrap, leader, follower, self.pool_bytes_per_peer)

    def _trace_rng(self, name: str) -> np.random.Generator:
        tag = int.from_bytes(
            hashlib.sha256(b"thin-air/trace|" + name.encode("utf-8")).digest()[:8],
            "big",
        )
        return np.random.default_rng([self.loss_seed, tag])

    def erasure_trace(self, name: str) -> np.ndarray:
        """Seeded per-terminal loss trace: ``(n_rounds, N)`` booleans.

        True means the x-packet is *lost* on the link to ``name``.  The
        same array drives both the service follower (which drops the
        frames locally, standing in for its radio) and the reference
        :class:`~repro.core.session.ProtocolSession` medium — which is
        what makes live runs reproducible against the simulator.
        """
        rng = self._trace_rng(name)
        return rng.random((self.n_rounds, self.n_x_packets)) < self.loss_prob

    def eve_trace(self) -> np.ndarray:
        """Eve's seeded loss trace (same shape), for oracle accounting."""
        rng = self._trace_rng("@eve")
        return rng.random((self.n_rounds, self.n_x_packets)) < self.eve_loss_prob

    def eve_received(self, round_id: int) -> FrozenSet[int]:
        """The x-ids Eve captured in ``round_id``, read off
        :meth:`eve_trace` in oracle mode.

        Fraction mode accounts against an Eve who captured no
        x-packets but hears every public broadcast, so this is empty.
        """
        if self.estimator_kind != "oracle":
            return frozenset()
        lost = self.eve_trace()[round_id]
        return frozenset(i for i in range(self.n_x_packets) if not lost[i])

    def build_estimator(self) -> EveErasureEstimator:
        """The configured Eve-erasure estimator (leader side)."""
        if self.estimator_kind == "oracle":
            return OracleEstimator()
        return FixedFractionEstimator(self.estimator_fraction)

    def session_config(self) -> SessionConfig:
        """The round core's parameters for this session."""
        return SessionConfig(
            n_x_packets=self.n_x_packets,
            payload_bytes=self.payload_bytes,
            max_subset_size=self.max_subset_size,
            secrecy_slack=self.secrecy_slack,
            z_cost_factor=self.z_cost_factor,
        )
