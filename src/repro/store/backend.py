"""Pluggable storage backends: the interface the store contract rides on.

PR 4/5 built the campaign store and work queue directly on a shared
POSIX filesystem (fsynced JSONL shards, ``O_EXCL`` lease files).  This
module extracts the *contract* those mechanisms implement into two
small abstract interfaces, so a fleet can run with no shared
filesystem at all:

* :class:`StoreBackend` — durable record/document storage: append-only
  record lines per shard key (the completion marker), atomic
  whole-document replacement (sweep manifests), key listing.
* :class:`LeaseBackend` — the work queue's claim primitive: atomic
  test-and-set acquisition, owner-guarded heartbeat/release, and an
  expiry *break* that re-judges lease age at removal time so a stale
  observation can never kill a live peer's lease.

Two implementations ship (one module each):

=========  =======================  ==========================================
scheme     module                   mechanism
=========  =======================  ==========================================
``file:``  ``repro.store.backend_fs``      fsynced JSONL shards + ``O_EXCL``
                                           lease files (the PR 4/5 layout,
                                           byte-identical); the one
                                           durable store
``mem:``   ``repro.store.backend_mem``     in-process object store emulating
                                           S3-style conditional puts
                                           (ETag / if-match), with injectable
                                           latency and fault hooks
=========  =======================  ==========================================

Backends are selected by URI via :func:`open_store` (``file:/dir``,
``mem:name``; a bare path means ``file:``).  The
semantics every backend must honour — torn-write tolerance,
last-record-wins dedupe, single-winner claims, expiry judged only in
the backend's **own clock domain** — are pinned by the parametrized
conformance suite in ``tests/store/conformance/``: a new backend is
"implement these two interfaces and go green", not re-derive the
crash-safety argument.

A ``sqlite:`` URI (a single-database backend older versions shipped)
is refused with a :class:`ValueError` naming the commit that last
opens it; copy such a store to ``file:`` there with :func:`copy_store`.
"""

from __future__ import annotations

import os
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from repro.store.store import CampaignStore

__all__ = [
    "LeaseBackend",
    "LeaseView",
    "StoreBackend",
    "copy_store",
    "open_backend",
    "open_store",
]

#: Shard keys are content-hash hex digests (see repro.store.fingerprint);
#: every backend validates against this before touching storage, so a
#: malformed key can never escape into a path or object name.
KEY_RE = re.compile(r"^[0-9a-f]{8,64}$")

#: Lease namespaces and document names share the manifest-name alphabet.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,100}$")

_URI_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*):(.*)$", re.DOTALL)


def check_key(key: str) -> str:
    if not KEY_RE.match(key):
        raise ValueError(f"malformed shard key {key!r}")
    return key


def check_name(name: str) -> str:
    if not NAME_RE.match(name):
        raise ValueError(f"malformed document/namespace name {name!r}")
    return name


@dataclass(frozen=True)
class LeaseView:
    """A point-in-time read of one lease, in the backend's clock domain.

    Attributes:
        owner: the claiming worker's id, or None when the record was
            unreadable (a torn mid-write observation — treated as
            *held* by an unknown peer, never as free).
        heartbeat: the last heartbeat instant, stamped by the
            **backend's** clock (filesystem mtime, memory
            clock) — compare only against :meth:`LeaseBackend.now`,
            never against this process's wall clock.
    """

    owner: Optional[str]
    heartbeat: float


class LeaseBackend(ABC):
    """Atomic lease claim/heartbeat/release/break over (namespace, key).

    The conformance clauses (``tests/store/conformance/``):

    * :meth:`acquire` is a test-and-set — exactly one of any number of
      racers wins a free key, and acquiring a held key fails without
      touching it.
    * :meth:`heartbeat` and :meth:`release` succeed only for the
      current owner (a reborn worker with a recycled identity must use
      a fresh nonce — see :func:`repro.store.queue.default_owner`).
    * :meth:`break_expired` removes the lease only if its age —
      *re-judged atomically at removal time, in the backend's own clock
      domain* — has reached ``timeout``.  A lease refreshed between an
      expiry observation and the break must survive.
    * :meth:`now` and :data:`LeaseView.heartbeat` live in one clock
      domain; the caller's wall clock never enters expiry arithmetic.
    """

    @abstractmethod
    def now(self) -> float:
        """The current instant in the same clock domain as heartbeats."""

    @abstractmethod
    def acquire(self, namespace: str, key: str, owner: str) -> bool:
        """Atomically claim a free key; True iff this call took it."""

    @abstractmethod
    def get(self, namespace: str, key: str) -> Optional[LeaseView]:
        """The key's current lease, or None when unleased."""

    @abstractmethod
    def heartbeat(self, namespace: str, key: str, owner: str) -> bool:
        """Refresh the lease's heartbeat iff ``owner`` still holds it."""

    @abstractmethod
    def release(self, namespace: str, key: str, owner: str) -> bool:
        """Drop the lease iff ``owner`` still holds it."""

    @abstractmethod
    def break_expired(self, namespace: str, key: str, timeout: float) -> bool:
        """Remove the lease iff it has gone ``timeout`` without a beat.

        Expiry is re-verified atomically with the removal (compare-and-
        swap or breaker lock — the backend's choice), so
        a stale earlier observation can never kill a live lease.
        Returns True iff this call removed an expired lease.
        """

    @abstractmethod
    def age_lease(self, namespace: str, key: str, seconds: float) -> bool:
        """Backdate the lease's heartbeat by ``seconds``.

        The expiry fixture of the conformance suite, and the
        operational "nuke a wedged lease" tool: ageing past the sweep's
        timeout makes the lease immediately breakable.  Returns False
        when no lease exists.
        """

    def cleanup(self, namespace: str, timeout: float) -> None:
        """Drop this worker's advisory clutter for a finished sweep.

        Called by drained workers on the way out.  Backends with no
        per-worker residue (rows, objects) inherit this no-op; the
        filesystem backend removes its clock-probe file, sweeps
        breaker locks and probes older than ``timeout``, and prunes
        the namespace directory once empty — so a fully drained
        manifest leaves an empty ``leases/`` tree behind.
        """


class StoreBackend(ABC):
    """Durable record and document storage behind :class:`CampaignStore`.

    Records: per-key append-only lines.  ``append_record`` must be
    durable on return (a crash after the call cannot lose the line) and
    atomic in effect (``read_records`` yields only lines whose write
    completed — a torn write surfaces as *no* line, never a mangled
    one).  Documents: whole-payload atomic replacement (readers see the
    old or the new payload, nothing in between).
    """

    #: URI scheme this backend answers to (``file``, ``mem``).
    scheme: str = ""

    @property
    @abstractmethod
    def uri(self) -> str:
        """Canonical URI re-opening this same storage (``scheme:rest``)."""

    # -- records ----------------------------------------------------------

    @abstractmethod
    def append_record(self, key: str, line: str) -> None:
        """Durably append one complete record line to the key's shard."""

    def append_batch(self, items: Sequence[Tuple[str, str]]) -> None:
        """Durably append many ``(key, line)`` records in one flush.

        Same durability contract as :meth:`append_record` — when this
        returns, every line survives a crash; until it does, a crash
        loses at most lines of this batch (each surfacing as *absent*,
        never mangled).  Backends override this to amortise the sync
        cost over the whole batch (one ``os.sync``, one conditional
        put per shard); the fallback is a per-record loop, so callers
        may always batch.  In-batch order is preserved per key (last
        line wins on read, as ever).
        """
        for key, line in items:
            self.append_record(key, line)

    @abstractmethod
    def read_records(self, key: str) -> List[str]:
        """Every *completely written* line of the shard, in append order."""

    @abstractmethod
    def record_keys(self) -> List[str]:
        """Every shard key present, sorted."""

    def count_keys(self) -> int:
        return len(self.record_keys())

    # -- documents --------------------------------------------------------

    @abstractmethod
    def put_doc(self, name: str, payload: str) -> None:
        """Atomically replace the named document with ``payload``."""

    @abstractmethod
    def get_doc(self, name: str) -> Optional[str]:
        """The named document's payload, or None when absent."""

    @abstractmethod
    def list_docs(self) -> List[str]:
        """Every document name present, sorted."""

    # -- leases -----------------------------------------------------------

    @property
    @abstractmethod
    def leases(self) -> LeaseBackend:
        """The lease backend sharing this storage (and its clock domain)."""


def open_backend(
    target: Union[str, "os.PathLike[str]", StoreBackend],
    create: bool = True,
) -> StoreBackend:
    """Resolve a store URI (or bare path, or backend) to a backend.

    ``file:/dir`` (or any plain path) → the filesystem backend;
    ``mem:name`` → the named in-process object store.  A ``sqlite:``
    URI raises :class:`ValueError`: that backend is gone, and the
    message names the commit whose :func:`copy_store` moves such a
    database to ``file:``.  With ``create=False`` the
    backing storage must already exist (read-only status views must
    not create stores as a side effect) — :class:`FileNotFoundError`
    otherwise.

    Store URIs take no query: a ``?`` after a scheme raises
    :class:`ValueError` rather than silently becoming part of a path
    or store name.  A bare path never reaches that check — a literal
    ``?`` in a directory name stays a path character when no scheme
    was given.
    """
    if isinstance(target, StoreBackend):
        return target
    spec = os.fspath(target)
    match = _URI_RE.match(spec)
    if match is None:
        scheme, rest = "file", spec
    else:
        scheme, rest = match.group(1).lower(), match.group(2)
        if scheme == "sqlite":
            raise ValueError(
                f"store {spec!r} is a sqlite database, a backend this "
                "version no longer opens; copy it to a file: store with "
                "repro.store.copy_store at commit 85ca4c6, e.g. "
                "copy_store(open_store('sqlite:OLD.db'), "
                "open_store('file:NEW')), then open the copy"
            )
        if scheme not in ("file", "mem"):
            raise ValueError(
                f"unknown store scheme {scheme!r} in {spec!r} "
                "(known: file:, mem:)"
            )
        if "?" in rest:
            raise ValueError(f"store URIs take no query: {spec!r}")
    # file://host/path is out of scope; strip the empty-authority form.
    if rest.startswith("//"):
        rest = rest[2:]
        slash = rest.find("/")
        rest = rest[slash:] if slash >= 0 else ""
    if scheme == "file":
        from repro.store.backend_fs import FilesystemStoreBackend

        return FilesystemStoreBackend(rest, create=create)
    from repro.store.backend_mem import MemoryStoreBackend

    return MemoryStoreBackend.named(rest, create=create)


def open_store(
    target: Union[str, "os.PathLike[str]", StoreBackend],
    create: bool = True,
) -> "CampaignStore":
    """Open a :class:`~repro.store.store.CampaignStore` by URI.

    The one entry point runners and scripts route ``--store URI``
    through; see :func:`open_backend` for the scheme table.
    """
    from repro.store.store import CampaignStore

    return CampaignStore(open_backend(target, create=create))


def copy_store(
    src: "CampaignStore",
    dst: "CampaignStore",
    keys: Optional[Iterable[str]] = None,
) -> int:
    """Replicate ``src`` into ``dst`` line for line; returns shard count.

    Every shard's *complete record history* is re-appended verbatim
    (raw lines, so the copy is byte-identical under
    ``scripts/check_sweep_equivalence.py``), and every manifest
    document is carried over.  This is how a volatile ``mem:`` fleet
    store is exported to a durable one at the end of a drill, and the
    seed of the cross-store fleet aggregation the roadmap names.

    Records cross the interface as complete lines, so copying between
    backends (``mem:`` → ``file:``) or between two ``file:`` stores is
    lossless: the destination lays the same lines out its own way.
    Each shard lands in one batched append.
    """
    copied = 0
    for key in src.backend.record_keys() if keys is None else keys:
        lines = src.backend.read_records(key)
        if not lines:
            continue
        dst.backend.append_batch([(key, line) for line in lines])
        copied += 1
    for name in src.backend.list_docs():
        payload = src.backend.get_doc(name)
        if payload is not None:
            dst.backend.put_doc(name, payload)
    return copied
