"""Streaming aggregation over a campaign store.

Reads a :class:`~repro.store.store.CampaignStore` one record at a time
and folds each into the merge-able accumulators of
:mod:`repro.analysis.stats` — the campaign never materialises in
memory, however many shards the sweep wrote.  Both record flavours
fold into the same per-group-size aggregates:

* ``"experiment"`` records contribute one (reliability, efficiency)
  observation per placement experiment;
* ``"sim-cell"`` records contribute one observation per simulated
  round (the cell's per-round arrays).

The campaign-record NaN convention carries through: a zero-secret
experiment's NaN reliability is *excluded* from the reliability
population (tracked by
:attr:`~repro.analysis.stats.ReliabilityAccumulator.n_excluded`), the
same rule the in-memory
:meth:`~repro.analysis.experiments.CampaignResult.reliabilities` view
applies — stored NaNs can never poison merged aggregates.

This module is deliberately *not* re-exported from ``repro.store``'s
package root: it imports :mod:`repro.analysis`, which imports the
campaign runners, which import the store — fine at call sites, a cycle
if wired into the package ``__init__``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Union

if TYPE_CHECKING:
    from repro.store.manifest import SweepManifest

from repro.analysis.stats import (
    ReliabilityAccumulator,
    ReliabilitySummary,
    ValueCountAccumulator,
)
from repro.store.backend import open_store
from repro.store.manifest import SweepManifest
from repro.store.records import decode_value, require_measured
from repro.store.store import CampaignStore

__all__ = ["GroupAggregates", "stream_aggregates"]


@dataclass
class GroupAggregates:
    """One group size's streamed campaign aggregates."""

    n_terminals: int
    reliability: ReliabilityAccumulator = field(
        default_factory=ReliabilityAccumulator
    )
    efficiency: ValueCountAccumulator = field(
        default_factory=ValueCountAccumulator
    )

    def reliability_summary(self) -> ReliabilitySummary:
        """The Figure-2 series for this group size."""
        return self.reliability.summary(self.n_terminals)

    def merge(self, other: "GroupAggregates") -> None:
        if other.n_terminals != self.n_terminals:
            raise ValueError("cannot merge aggregates across group sizes")
        self.reliability.merge(other.reliability)
        self.efficiency.merge(other.efficiency)


def _fold_record(record: Dict[str, Any], groups: Dict[int, GroupAggregates]) -> None:
    require_measured(record)
    kind = record.get("kind")
    if kind == "experiment":
        n = int(record["n_terminals"])
        agg = groups.setdefault(n, GroupAggregates(n_terminals=n))
        agg.reliability.add(float(decode_value(record["reliability"])))
        agg.efficiency.add(float(decode_value(record["efficiency"])))
    elif kind == "sim-cell":
        n = int(record["scenario"]["n_terminals"])
        agg = groups.setdefault(n, GroupAggregates(n_terminals=n))
        agg.reliability.extend(
            float(v) for v in decode_value(record["reliability"])
        )
        agg.efficiency.extend(
            float(v) for v in decode_value(record["efficiency"])
        )
    else:
        raise ValueError(f"unknown record kind {kind!r}")


def stream_aggregates(
    store: Union[CampaignStore, str, "os.PathLike[str]"],
    keys: Optional[Iterable[str]] = None,
    manifest: Optional[Union["SweepManifest", str]] = None,
) -> Dict[int, GroupAggregates]:
    """Fold a store's records into per-group-size aggregates.

    Args:
        store: the campaign store to read — a
            :class:`~repro.store.store.CampaignStore`, or a store URI /
            path (``file:``/``mem:``, resolved by
            :func:`repro.store.backend.open_store`; reading never
            creates a store).
        keys: shard keys to aggregate over — pass the campaign's own
            key list to scope a shared store to one sweep; defaults to
            every shard.
        manifest: a :class:`~repro.store.manifest.SweepManifest` (or
            the name of one saved in the store) whose key list scopes
            the aggregation — the manifest already carries every shard
            key, so no fingerprint is recomputed from specs.  Mutually
            exclusive with ``keys``.

    Returns:
        ``{n_terminals: GroupAggregates}``, computed one record at a
        time.  Because the accumulators are order-independent
        multisets, the result is bit-identical however the campaign
        was produced — serial, sharded, interrupted-and-resumed, or
        drained by many queue workers.
    """
    if not isinstance(store, CampaignStore):
        store = open_store(store, create=False)
    if manifest is not None:
        if keys is not None:
            raise ValueError("pass keys or manifest, not both")
        if isinstance(manifest, str):
            manifest = SweepManifest.load(store, manifest)
        keys = manifest.keys()
    groups: Dict[int, GroupAggregates] = {}
    for record in store.stream(keys):
        _fold_record(record, groups)
    return groups
