"""Append-only, crash-safe campaign result store.

One append-only record shard per scenario fingerprint, living in
whatever :class:`~repro.store.backend.StoreBackend` the store was
opened on — a directory of JSONL files (``file:``, the default) or
an in-process object store (``mem:``); see :func:`repro.store.backend.open_store` for the URI
forms.  With the default filesystem backend the layout is:

.. code-block:: text

    store-root/
        3f9c2a41d0b8e7665f21.jsonl   # one scenario's records
        9b01d4c7aa35e2f08c44.jsonl
        ...

Write path (:meth:`CampaignStore.append`): the record is serialised to
one strict-JSON line and handed to the backend, which must make it
durable before returning — a killed campaign loses at most the line
being written, never a previously acknowledged one.  Because a record
only becomes visible once its write *completed* (a ``\\n``-terminated
line, a stored object), *line present* is the completion marker; no
separate checkpoint file can go stale.

Read path (:meth:`CampaignStore.load` / :meth:`records`): the backend
yields only completely written lines (a torn final line — the crash
signature — never surfaces); this layer parses them, skips corrupt
JSON, and dedupes duplicate lines for the same shard by keeping the
**last** complete record — so re-running a scenario simply supersedes
its earlier result instead of double counting it in aggregates.

The store never holds more than one record in memory per read step,
which is what lets the streaming accumulators in
:mod:`repro.analysis.stats` aggregate arbitrarily large campaigns
without materialising them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.store.backend import StoreBackend

__all__ = ["CampaignStore"]


class CampaignStore:
    """Per-scenario record shards over a pluggable backend.

    Args:
        root: a shard directory (created eagerly, so ``--store DIR``
            fails fast on an unwritable path rather than mid-campaign)
            — or any already-opened
            :class:`~repro.store.backend.StoreBackend`.  For URI
            strings (``file:...``, ``mem:...``) use
            :func:`repro.store.backend.open_store`.
    """

    def __init__(
        self, root: Union[str, "os.PathLike[str]", StoreBackend]
    ) -> None:
        if isinstance(root, StoreBackend):
            self.backend = root
        else:
            from repro.store.backend_fs import FilesystemStoreBackend

            self.backend = FilesystemStoreBackend(root, create=True)

    @property
    def uri(self) -> str:
        """The URI that re-opens this store (``file:``/``mem:``)."""
        return self.backend.uri

    # -- paths ------------------------------------------------------------

    @property
    def root(self) -> Path:
        """The shard directory — filesystem-backed stores only."""
        root = getattr(self.backend, "root", None)
        if not isinstance(root, Path):
            raise TypeError(
                f"{self.backend.scheme}: stores have no filesystem root"
            )
        return root

    def shard_path(self, key: str) -> Path:
        """The key's shard file — filesystem-backed stores only."""
        from repro.store.backend_fs import FilesystemStoreBackend

        if not isinstance(self.backend, FilesystemStoreBackend):
            raise TypeError(
                f"{self.backend.scheme}: stores have no shard files"
            )
        return self.backend.shard_path(key)

    def keys(self) -> List[str]:
        """Every shard key present, sorted (deterministic scan order)."""
        return self.backend.record_keys()

    def __contains__(self, key: str) -> bool:
        return self.load(key) is not None

    def __len__(self) -> int:
        return self.backend.count_keys()

    # -- writes -----------------------------------------------------------

    def append(self, key: str, record: Dict[str, Any]) -> None:
        """Durably append one record line to the key's shard.

        The line is written whole and made durable before this
        returns: once :meth:`append` acknowledges, a crash cannot lose
        the record; until it does, a crash leaves at most a torn final
        line that every reader skips.
        """
        line = json.dumps(record, separators=(",", ":"), allow_nan=False)
        self.backend.append_record(key, line)

    def append_batch(
        self, items: Iterable[Tuple[str, Dict[str, Any]]]
    ) -> None:
        """Durably append many ``(key, record)`` pairs in one flush.

        One sync however many records the batch holds (one ``os.sync``
        on the filesystem backend, one conditional put per shard on
        ``mem:``) — the write-side half
        of the cross-cell batched campaign.  Durability on return is
        the same as a sequence of :meth:`append` calls; a crash
        mid-batch loses at most lines of this batch.
        """
        self.backend.append_batch(
            [
                (key, json.dumps(record, separators=(",", ":"), allow_nan=False))
                for key, record in items
            ]
        )

    # -- reads ------------------------------------------------------------

    def _iter_lines(self, key: str) -> Iterator[Dict[str, Any]]:
        """Parse the shard's complete lines, skipping corrupt ones.

        The backend already withholds lines whose write never completed
        (fs: an unterminated trailer); anything
        that still fails to parse (bit rot, an injected fault) is
        ignored rather than poisoning the resume.
        """
        for raw in self.backend.read_records(key):
            try:
                yield json.loads(raw)
            except json.JSONDecodeError:
                continue  # corrupt line: treat as never written

    def records(self, key: str) -> List[Dict[str, Any]]:
        """All complete records of a shard, in append order."""
        return list(self._iter_lines(key))

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The shard's effective record: the *last* complete line.

        Reruns of a scenario append rather than rewrite, so the newest
        complete record supersedes the rest (dedupe-by-recency); None
        means the scenario never completed.
        """
        latest: Optional[Dict[str, Any]] = None
        for record in self._iter_lines(key):
            latest = record
        return latest

    def stream(
        self, keys: Optional[Iterable[str]] = None
    ) -> Iterator[Dict[str, Any]]:
        """Yield every shard's effective record, one at a time.

        Args:
            keys: shard keys to read, in the order given; defaults to
                every shard in sorted-key order.  Missing shards are
                skipped (a half-finished campaign streams what it has).
        """
        for key in self.keys() if keys is None else keys:
            record = self.load(key)
            if record is not None:
                yield record
