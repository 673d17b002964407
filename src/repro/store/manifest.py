"""Sweep manifests: a named, versioned key list living next to the shards.

A :class:`SweepManifest` is the store-side description of one sweep: a
JSON document listing every work item's declarative spec together with
the content-hashed shard key the item persists under.  It answers the
two questions a multi-host sweep keeps asking:

* *What work exists?*  Worker processes that were not present when the
  sweep was defined load the manifest and drain it — they never need
  the grid-expansion code path that produced it
  (:meth:`repro.sim.campaign.CampaignRunner.run_worker` decodes the
  scenarios straight from the manifest entries).  Both campaign
  runners define and drain manifests through one driver,
  :func:`repro.store.queue.run_sweep`, which refuses to redefine a
  saved manifest with different content
  (:func:`repro.store.queue.define_manifest`).
* *Which shards belong to this sweep?*  Aggregation scopes a shared
  store to one sweep by the manifest's key list
  (:func:`repro.store.aggregate.stream_aggregates` accepts a manifest
  directly), without recomputing fingerprints from specs.

The document is written **atomically** next to the shards it indexes,
through the store backend's document primitive (filesystem backend:
``store-root/<name>.manifest.json`` via temp file + fsync +
:func:`os.replace`; object store: a whole-object put), so a reader never observes a half-written manifest
and a crash mid-save leaves the previous version intact.  Re-saving identical content is a
no-op; saving changed content bumps ``version`` — workers can detect a
redefined sweep instead of silently draining a stale key list.

Manifests are *immutable descriptions*, not progress state: claim and
completion live in the lease files (:mod:`repro.store.queue`) and the
shards themselves, so the manifest never needs rewriting while a sweep
runs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from repro.store.store import CampaignStore

__all__ = ["ManifestEntry", "SweepManifest", "list_manifests"]

#: The document format tag; bump only on incompatible layout changes.
MANIFEST_FORMAT = "repro-sweep-manifest/1"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,100}$")
_SUFFIX = ".manifest.json"


def _doc_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"malformed manifest name {name!r}")
    return f"{name}{_SUFFIX}"


@dataclass(frozen=True)
class ManifestEntry:
    """One work item of a sweep.

    Attributes:
        key: the item's content-hashed shard key (where its record
            lands in the store, and what the work queue leases).
        spec: the item's declarative spec in its encoded JSON form
            (``repro.store.records.encode_spec`` output) — enough for a
            worker to rebuild and run the item without the code that
            enumerated the sweep.
        label: short human-readable name, used in error messages and
            status listings.
    """

    key: str
    spec: Any
    label: str = ""

    def to_json(self) -> Dict[str, Any]:
        return {"key": self.key, "spec": self.spec, "label": self.label}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ManifestEntry":
        return cls(
            key=str(data["key"]),
            spec=data["spec"],
            label=str(data.get("label", "")),
        )


@dataclass(frozen=True)
class SweepManifest:
    """A named, versioned list of (shard key, spec) work items.

    Attributes:
        name: filesystem-safe sweep name (the document is stored as
            ``<name>.manifest.json`` in the store root).
        entries: the work items, in sweep order (result assembly and
            drain order follow it).
        kind: which runner the specs belong to (``"sim-grid"`` or
            ``"testbed-campaign"``); workers refuse manifests of the
            wrong kind instead of mis-decoding specs.
        meta: opaque sweep-level parameters (campaign seed, engine,
            session sizing ...) recorded for provenance and mismatch
            detection.
        version: monotonically increasing revision of this name's
            document; bumped by :meth:`save` whenever the content
            changes.
    """

    name: str
    entries: Tuple[ManifestEntry, ...]
    kind: str = "sim-grid"
    meta: Dict[str, Any] = field(default_factory=dict)
    version: int = 1

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(f"malformed manifest name {self.name!r}")
        object.__setattr__(self, "entries", tuple(self.entries))
        keys = [entry.key for entry in self.entries]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate shard keys in manifest: {dupes}")

    # -- views -------------------------------------------------------------

    def keys(self) -> List[str]:
        """Every entry's shard key, in sweep order."""
        return [entry.key for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ManifestEntry]:
        return iter(self.entries)

    def content_equal(self, other: "SweepManifest") -> bool:
        """True when the sweeps describe the same work (version aside)."""
        return (
            self.name == other.name
            and self.kind == other.kind
            and self.entries == other.entries
            and self.meta == other.meta
        )

    # -- persistence -------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "name": self.name,
            "kind": self.kind,
            "version": self.version,
            "meta": self.meta,
            "entries": [entry.to_json() for entry in self.entries],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SweepManifest":
        if data.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"not a sweep manifest (format={data.get('format')!r})"
            )
        return cls(
            name=str(data["name"]),
            entries=tuple(
                ManifestEntry.from_json(e) for e in data["entries"]
            ),
            kind=str(data.get("kind", "sim-grid")),
            meta=dict(data.get("meta", {})),
            version=int(data.get("version", 1)),
        )

    def save(self, store: "CampaignStore") -> "SweepManifest":
        """Atomically write this manifest next to the store's shards.

        Idempotent-by-content: when the stored document already
        describes the same work, nothing is written and the stored
        version is returned; when the content differs, the document is
        replaced with ``version = stored + 1``.  The write itself is
        the backend's atomic document replacement (filesystem: a
        same-directory temp file + fsync + :func:`os.replace`; object
        store: a whole-object put), so readers
        only ever see a complete document and a crash mid-save cannot
        corrupt the previous one.
        """
        existing = self.load(store, self.name, missing_ok=True)
        if existing is not None:
            if existing.content_equal(self):
                return existing
            revised = SweepManifest(
                name=self.name,
                entries=self.entries,
                kind=self.kind,
                meta=self.meta,
                version=existing.version + 1,
            )
        else:
            revised = self
        payload = json.dumps(
            revised.to_json(), separators=(",", ":"), allow_nan=False
        )
        store.backend.put_doc(_doc_name(self.name), payload)
        return revised

    @classmethod
    def load(
        cls, store: "CampaignStore", name: str, missing_ok: bool = False
    ) -> Optional["SweepManifest"]:
        """Read the named manifest from the store."""
        payload = store.backend.get_doc(_doc_name(name))
        if payload is None:
            if missing_ok:
                return None
            raise FileNotFoundError(
                f"no manifest {name!r} in {store.uri}"
            )
        return cls.from_json(json.loads(payload))


def list_manifests(store: "CampaignStore") -> List[str]:
    """Every manifest name present in the store, sorted."""
    return sorted(
        name[: -len(_SUFFIX)]
        for name in store.backend.list_docs()
        if name.endswith(_SUFFIX) and not name.startswith(".")
    )
