"""Exact accounting of every bit the terminals put on the air.

The paper's efficiency metric is ``secret bits / transmitted bits``, so
the denominator must include *everything*: x-packets, feedback reports,
combination descriptors, z-contents, every retransmission of a reliable
broadcast, and the ACKs that drive those retransmissions.

:class:`TransmissionLedger` records one entry per transmission *attempt*
and offers the per-kind breakdown that the benchmarks print.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.net.packet import Packet, PacketKind

__all__ = ["LedgerEntry", "TransmissionLedger"]

#: PLCP preamble + header transmitted at the base rate before every
#: attempt (long preamble: 144 + 48 bits).
PLCP_OVERHEAD_BITS = 192


@dataclass(frozen=True)
class LedgerEntry:
    """One transmission attempt."""

    src: str
    kind: PacketKind
    bits: int
    round_id: int


@dataclass
class TransmissionLedger:
    """Accumulates transmission attempts and summarises them.

    Args:
        count_plcp: include the PLCP preamble bits per attempt (defaults
            to True — the paper's 1 Mbps airtime includes it).
    """

    count_plcp: bool = True
    entries: list = field(default_factory=list)

    def charge(self, packet: Packet, round_id: int = 0) -> int:
        """Record one attempt of ``packet``; returns bits charged."""
        bits = packet.wire_bits + (PLCP_OVERHEAD_BITS if self.count_plcp else 0)
        self.entries.append(
            LedgerEntry(src=packet.src, kind=packet.kind, bits=bits, round_id=round_id)
        )
        return bits

    # -- summaries -----------------------------------------------------

    @property
    def total_bits(self) -> int:
        return sum(e.bits for e in self.entries)

    @property
    def total_attempts(self) -> int:
        return len(self.entries)

    def bits_by_kind(self) -> dict:
        out: dict = defaultdict(int)
        for e in self.entries:
            out[e.kind] += e.bits
        return dict(out)

    def merge(self, other: "TransmissionLedger") -> None:
        """Fold another ledger's entries into this one."""
        self.entries.extend(other.entries)

    def reset(self) -> None:
        self.entries.clear()
