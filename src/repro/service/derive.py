"""HKDF-style key derivation: agreed secret -> usable symmetric keys.

The protocol's output is a matrix of secret packets; applications need
fixed-length uniform key material.  This module closes that gap with
the standard extract-then-expand construction (RFC 5869, HMAC-SHA256)
— the same idiom as the RLPx ``derive_rlpx_keys`` handshake step, but
with an information-theoretic secret as input keying material instead
of an ECDH point.

The derivation contract (also documented in docs/architecture.md):

* ``salt  = SHA256("thin-air/service/v1" | session_id | config_digest
  | leader)`` — the session id already binds the full group (it is
  derived from the sorted member list), and a follower does not learn
  its co-followers' names, so the salt stays computable by every party.
* ``prk   = HMAC-SHA256(salt, secret_bytes)``
* ``material     = HKDF-Expand(prk, "key-material", key_bytes)``
* ``confirm_root = HKDF-Expand(prk, "confirm-root", 32)``

Key confirmation tags are ``HMAC-SHA256(confirm_root, label)`` where
the label names the direction (``confirm|<role>|<name>``), so a
follower cannot replay the leader's tag back at it.  An empty secret
derives nothing: :class:`~repro.service.errors.NoSecretError` enforces
the fail-closed contract at the derivation boundary itself.

Privacy amplification sizing (leftover-hash style): every caller hands
over a measured :class:`LeakageBudget`, and the expand step emits at
most ``extractable_bytes`` — the session's residual min-entropy after
Eve's measured observations and the configured safety margin — and a
session whose budget cannot support even :data:`MIN_KEY_BYTES` aborts
with a typed :class:`~repro.service.errors.InsufficientEntropyError`
instead of stretching thin entropy into a full-length key.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.eve import LeakageReport
from repro.service.errors import InsufficientEntropyError, NoSecretError

__all__ = [
    "hkdf_extract",
    "hkdf_expand",
    "DerivedKeys",
    "LeakageBudget",
    "derive_session_keys",
    "MIN_KEY_BYTES",
    "HKDF_MAX_BYTES",
]

_HASH_LEN = hashlib.sha256().digest_size

#: RFC 5869 caps one expansion at 255 hash blocks.
HKDF_MAX_BYTES = 255 * _HASH_LEN

#: Smallest key material the service will ever emit (mirrors the
#: ``ServiceConfig.key_bytes`` floor): a budget that cannot cover this
#: aborts the session rather than shipping a weak key.
MIN_KEY_BYTES = 16


@dataclass(frozen=True)
class LeakageBudget:
    """Measured secrecy budget of one session, in bits.

    Built from the engines' per-round :func:`repro.core.eve.round_leakage`
    accounting: ``secret_bits`` is everything the rounds agreed,
    ``leaked_bits`` the dimensions Eve's observed equations span, and
    ``safety_margin_bits`` the deployment's stated haircut for model
    error (estimator optimism, extractor loss).

    Attributes:
        secret_bits: total agreed secret size across rounds.
        leaked_bits: bits of it Eve's observations determine.
        safety_margin_bits: extra bits withheld on top of the
            measurement before sizing key material.
    """

    secret_bits: int
    leaked_bits: int
    safety_margin_bits: int = 0

    def __post_init__(self) -> None:
        if self.secret_bits < 0 or self.leaked_bits < 0:
            raise ValueError("budget bit counts must be non-negative")
        if self.safety_margin_bits < 0:
            raise ValueError("safety margin must be non-negative")
        if self.leaked_bits > self.secret_bits:
            raise ValueError(
                f"leaked_bits ({self.leaked_bits}) cannot exceed "
                f"secret_bits ({self.secret_bits})"
            )

    @classmethod
    def from_rounds(
        cls,
        rounds: Sequence[LeakageReport],
        payload_bytes: int,
        safety_margin_bits: int = 0,
    ) -> "LeakageBudget":
        """Sum per-round leakage reports into a session budget in bits."""
        bits = payload_bytes * 8
        return cls(
            sum(r.secret_dims for r in rounds) * bits,
            sum(r.leaked_dims for r in rounds) * bits,
            safety_margin_bits,
        )

    @property
    def min_entropy_bits(self) -> int:
        """Residual min-entropy Eve's measured view leaves intact."""
        return self.secret_bits - self.leaked_bits

    @property
    def extractable_bytes(self) -> int:
        """Whole bytes of key material the budget supports."""
        return max(self.min_entropy_bits - self.safety_margin_bits, 0) // 8


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """RFC 5869 extract: concentrate the input keying material."""
    return hmac.new(salt, ikm, hashlib.sha256).digest()


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """RFC 5869 expand: stretch a PRK to ``length`` output bytes."""
    if length < 0:
        raise ValueError("cannot derive a negative number of bytes")
    if length > HKDF_MAX_BYTES:
        raise ValueError(f"HKDF-Expand caps output at {HKDF_MAX_BYTES} bytes")
    out = bytearray()
    block = b""
    counter = 1
    while len(out) < length:
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:length])


@dataclass(frozen=True)
class DerivedKeys:
    """The service's output: key material of the configured length.

    Attributes:
        material: ``key_bytes`` of uniform key material (the stated
            service contract; split it as the application requires).
        confirm_root: root of the key-confirmation tags — used by the
            handshake itself and never handed to applications.
    """

    material: bytes
    confirm_root: bytes

    def confirm_tag(self, role: str, name: str) -> bytes:
        """Direction-bound confirmation tag for ``role``/``name``."""
        label = b"confirm|" + role.encode("utf-8") + b"|" + name.encode("utf-8")
        return hmac.new(self.confirm_root, label, hashlib.sha256).digest()

    def fingerprint(self) -> str:
        """Short public fingerprint for logs (never the material)."""
        return hashlib.sha256(b"fingerprint|" + self.material).hexdigest()[:16]


def derive_session_keys(
    secret: np.ndarray,
    *,
    session_id: bytes,
    config_digest: bytes,
    leader: str,
    key_bytes: int,
    budget: LeakageBudget,
) -> DerivedKeys:
    """Turn the agreed secret packets into usable symmetric keys.

    Args:
        budget: the session's measured secrecy budget.  The emitted
            material is ``min(key_bytes, budget.extractable_bytes)`` —
            privacy amplification sized by measurement, not by hope.

    Raises:
        NoSecretError: when the secret is empty — a session that agreed
            nothing must fail closed, not emit keys derived from an
            empty string.
        InsufficientEntropyError: when the measured budget cannot cover
            :data:`MIN_KEY_BYTES` of output.
    """
    arr = np.asarray(secret, dtype=np.uint8)
    if arr.size == 0:
        raise NoSecretError("the rounds produced an empty secret")
    key_bytes = min(key_bytes, budget.extractable_bytes)
    if key_bytes < MIN_KEY_BYTES:
        raise InsufficientEntropyError(
            f"measured budget supports {budget.extractable_bytes} key "
            f"bytes ({budget.min_entropy_bits} residual min-entropy "
            f"bits, margin {budget.safety_margin_bits}); "
            f"need at least {MIN_KEY_BYTES}"
        )
    h = hashlib.sha256()
    h.update(b"thin-air/service/v1|")
    h.update(session_id)
    h.update(config_digest)
    h.update(leader.encode("utf-8"))
    prk = hkdf_extract(h.digest(), arr.tobytes())
    return DerivedKeys(
        material=hkdf_expand(prk, b"key-material", key_bytes),
        confirm_root=hkdf_expand(prk, b"confirm-root", _HASH_LEN),
    )
