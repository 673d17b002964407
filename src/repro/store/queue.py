"""Crash-safe work queue over the campaign store's lease backend.

Any number of worker processes — on one host, on many hosts sharing a
filesystem, or on a fleet sharing only an object store —
drain the same :class:`~repro.store.manifest.SweepManifest`
concurrently through a :class:`WorkQueue`.  The queue is three small
mechanisms, each chosen so that *no* failure mode can lose or corrupt
work:

* **Atomic claims.**  A claim is the lease backend's test-and-set
  (:meth:`~repro.store.backend.LeaseBackend.acquire`): an ``O_CREAT |
  O_EXCL`` lease file on the filesystem backend, an
  ``If-None-Match`` conditional put on the object store.  Exactly one racing worker wins a fresh claim, with no
  lock server and no shared state beyond the backend itself.
* **Heartbeats + expiry reclaim.**  A live worker refreshes its leases'
  heartbeats (:meth:`WorkQueue.heartbeat`); a lease that has gone
  ``lease_timeout`` without a beat belonged to a dead worker and may
  be broken.  Age is judged in the **backend's own clock domain**
  (:meth:`~repro.store.backend.LeaseBackend.now` — a probe-file mtime
  or the object store's clock), never the worker's wall
  clock: heartbeats are stamped by the backend host (think NFS server),
  and ``time.time()`` deltas against a foreign clock domain mis-age
  leases under skew.
  Breaking is itself race-safe: the backend re-judges expiry
  *atomically with the removal*
  (:meth:`~repro.store.backend.LeaseBackend.break_expired` — a breaker
  lock with re-verification, an ``If-Match`` delete), so a stale
  observation of the lease can never kill a live peer's lease, and the
  broken key is then competed for like a fresh one.
* **Idempotent completion.**  *Done* means "the item's shard holds a
  complete record" — the store's durable, last-record-wins line is the
  completion marker, not the lease.  If a lease expires while its
  worker is merely slow (not dead), two workers may run the same item;
  both append bit-identical records (results are pure functions of
  (seed, spec) — see :mod:`repro.store.fingerprint`), and the reader
  dedupes.  Duplicated work is wasted wall-clock, never wrong results.

Lease state is advisory: destroying it entirely merely forgets
in-flight claims (finished work lives in the shards), so leases need
atomicity but not durability.  :meth:`WorkQueue.cleanup` removes the
advisory debris a drained sweep would otherwise leave behind (clock
probes, orphaned breaker locks) — after a full drain plus cleanup the
lease area is empty.

Lifecycle of one item::

    pending ──claim (acquire)──▶ claimed ──run──▶ persist (store.append)
       ▲                          │                     │
       │                          │ worker dies         ▼
       └── lease expires ◀────────┘              release (drop lease)

Workers poll :meth:`WorkQueue.claim_pending` until
:meth:`WorkQueue.pending` is empty; items claimed by live peers are
simply awaited (their records appear in the store), and items leased by
dead peers come back via expiry.

Both campaign runners sweep through one driver, :func:`run_sweep`.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
    TypeVar, Union,
)

from repro.store.manifest import ManifestEntry, SweepManifest
from repro.store.store import CampaignStore

__all__ = [
    "LeaseInfo",
    "QueueStatus",
    "SweepItem",
    "WorkQueue",
    "default_owner",
    "define_manifest",
    "drain_manifest",
    "load_manifest",
    "run_sweep",
    "sweep_manifest",
]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: One work item of a sweep: its shard key, the runner's own item (a
#: scenario cell, a placement), the item's encoded spec, and its label.
SweepItem = Tuple[str, ItemT, Any, str]

#: Default lease expiry. Generous on purpose: expiry only matters after
#: a worker *dies*, and a too-short timeout makes two live workers
#: duplicate (harmless but wasted) work.  Workers running long items
#: should heartbeat well inside this.
DEFAULT_LEASE_TIMEOUT = 600.0


def default_owner() -> str:
    """A globally unique worker identity: host, pid, and a nonce.

    The nonce matters: pids recycle, and an owner id that survives a
    worker's death and rebirth would let the reborn worker mistake its
    predecessor's stale leases for its own.
    """
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


@dataclass(frozen=True)
class LeaseInfo:
    """A point-in-time view of one lease."""

    key: str
    owner: Optional[str]  # None when the record was unreadable (mid-write)
    age: float  # seconds since the last heartbeat, in the backend's clock
    expired: bool


@dataclass(frozen=True)
class QueueStatus:
    """Sweep progress: every manifest key is in exactly one bucket."""

    total: int
    done: int  # shard holds a complete record
    claimed: int  # live lease, no record yet
    stale: int  # expired lease (worker presumed dead), no record yet
    pending: int  # no record, no lease

    @property
    def remaining(self) -> int:
        return self.total - self.done


class WorkQueue:
    """Lease-based claim/release over one manifest's shard keys.

    Args:
        store: the :class:`~repro.store.store.CampaignStore` the sweep
            persists into (completion is judged by its shards; leases
            live in its backend's lease area, namespaced by manifest).
        manifest: the sweep to drain — a
            :class:`~repro.store.manifest.SweepManifest`, or a name to
            load from the store.
        owner: worker identity recorded in leases; defaults to
            :func:`default_owner`.
        lease_timeout: seconds without a heartbeat after which a lease
            counts as abandoned and may be reclaimed.
    """

    def __init__(
        self,
        store: CampaignStore,
        manifest: Union[SweepManifest, str],
        owner: Optional[str] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    ) -> None:
        if isinstance(manifest, str):
            loaded = SweepManifest.load(store, manifest)
            assert loaded is not None  # load without missing_ok raises
            manifest = loaded
        if not isinstance(manifest, SweepManifest):
            raise TypeError(f"{manifest!r} is not a SweepManifest")
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self.store = store
        self.manifest = manifest
        self.owner = owner if owner is not None else default_owner()
        self.lease_timeout = float(lease_timeout)
        self.leases_backend = store.backend.leases
        self.namespace = manifest.name
        self._known = set(manifest.keys())
        # The store is append-only and records never un-complete, so
        # "done" is monotone — cache it to keep the polling loop from
        # re-parsing finished shards on every pass.
        self._done_cache: Set[str] = set()

    # -- keys and views ------------------------------------------------------

    def _check_key(self, key: str) -> str:
        if key not in self._known:
            raise KeyError(f"{key!r} is not in manifest {self.manifest.name!r}")
        return key

    def _lease_path(self, key: str) -> Path:
        """The key's lease file — filesystem-backed stores only.

        Exists for operators (and the fault suite) poking at lease
        state directly; backend-portable code uses :meth:`lease_info`.
        """
        from repro.store.backend_fs import FilesystemLeaseBackend

        self._check_key(key)
        if not isinstance(self.leases_backend, FilesystemLeaseBackend):
            raise TypeError(
                f"{self.store.backend.scheme}: stores have no lease files"
            )
        return self.leases_backend.lease_path(self.namespace, key)

    def _now(self) -> float:
        """'Now' in the clock domain that stamps lease heartbeats."""
        return self.leases_backend.now()

    def lease_info(self, key: str, now: Optional[float] = None) -> Optional[LeaseInfo]:
        """The key's current lease, or None when unleased.

        Args:
            key: a manifest shard key.
            now: the backend-clock reference to age against; defaults
                to a fresh :meth:`~repro.store.backend.LeaseBackend.now`
                reading (pass it explicitly when scanning many keys in
                one sweep).
        """
        view = self.leases_backend.get(self.namespace, self._check_key(key))
        if view is None:
            return None
        if now is None:
            now = self._now()
        age = max(0.0, now - view.heartbeat)
        return LeaseInfo(
            key=key,
            owner=view.owner,
            age=age,
            expired=age >= self.lease_timeout,
        )

    # -- completion ----------------------------------------------------------

    def is_done(self, key: str) -> bool:
        """Done = the store holds a complete record for the key."""
        if key in self._done_cache:
            return True
        if self.store.load(key) is not None:
            self._done_cache.add(key)
            return True
        return False

    def pending(self) -> List[str]:
        """Manifest keys with no complete record yet, in sweep order
        (claimed-by-someone keys included: they are not *done*)."""
        return [key for key in self.manifest.keys() if not self.is_done(key)]

    # -- claim / heartbeat / release ------------------------------------------

    def claim(self, key: str) -> bool:
        """Try to take the key's lease; True iff this worker now holds it.

        Fresh keys are claimed with the backend's test-and-set (exactly
        one racer wins).  A key whose lease has outlived
        ``lease_timeout`` is first *broken* — the backend re-judges
        expiry atomically with the removal, so a lease refreshed in the
        meantime survives — and then competed for like a fresh key.
        Keys already done are never claimed.
        """
        self._check_key(key)
        if self.is_done(key):
            return False
        for _ in range(3):  # claim, maybe break a stale lease, re-claim
            if self.leases_backend.acquire(self.namespace, key, self.owner):
                return True
            view = self.leases_backend.get(self.namespace, key)
            if view is None:
                continue  # released under us; retry the fresh claim
            if self._now() - view.heartbeat < self.lease_timeout:
                return False  # live lease held by a peer
            self.leases_backend.break_expired(
                self.namespace, key, self.lease_timeout
            )
        return False

    def claim_pending(self, limit: Optional[int] = None) -> List[str]:
        """Claim up to ``limit`` not-yet-done keys, in sweep order.

        One pass over the manifest: keys already done are skipped, keys
        leased by live peers are left alone, fresh/expired keys are
        claimed.  Returns the keys now held by this worker.
        """
        claimed: List[str] = []
        for key in self.manifest.keys():
            if limit is not None and len(claimed) >= limit:
                break
            if self.claim(key):
                claimed.append(key)
        return claimed

    def heartbeat(self, key: str) -> bool:
        """Refresh the key's lease heartbeat iff this worker owns it."""
        return self.leases_backend.heartbeat(
            self.namespace, self._check_key(key), self.owner
        )

    def heartbeat_all(self, keys: Iterable[str]) -> None:
        for key in keys:
            self.heartbeat(key)

    def release(self, key: str) -> bool:
        """Drop the key's lease iff this worker owns it.

        Safe to call after completion *or* on abandon: completion is
        judged by the shard, so releasing an unfinished item simply
        returns it to the pending pool.
        """
        return self.leases_backend.release(
            self.namespace, self._check_key(key), self.owner
        )

    def cleanup(self) -> None:
        """Sweep the advisory lease debris this worker can clean.

        Leases themselves are released per-batch; what a finished sweep
        would otherwise leave behind is backend bookkeeping — the
        filesystem backend's clock probes and orphaned breaker locks.
        Called by :func:`drain_manifest` on the way out, so a fully
        drained manifest leaves an empty lease area.
        """
        self.leases_backend.cleanup(self.namespace, self.lease_timeout)

    # -- status ---------------------------------------------------------------

    def status(self) -> QueueStatus:
        """Count every manifest key into done/claimed/stale/pending."""
        done = claimed = stale = pending = 0
        now: Optional[float] = None
        for key in self.manifest.keys():
            if self.is_done(key):
                done += 1  # leftover leases on done keys are noise
                continue
            if now is None:
                now = self._now()  # one clock reading per scan, not per key
            lease = self.lease_info(key, now=now)
            if lease is None:
                pending += 1
            elif lease.expired:
                stale += 1
            else:
                claimed += 1
        return QueueStatus(
            total=len(self.manifest),
            done=done,
            claimed=claimed,
            stale=stale,
            pending=pending,
        )

    def leases(self) -> Dict[str, LeaseInfo]:
        """Every currently leased key's lease, keyed by shard key."""
        infos: Dict[str, LeaseInfo] = {}
        now = self._now()
        for key in self.manifest.keys():
            info = self.lease_info(key, now=now)
            if info is not None:
                infos[key] = info
        return infos


def drain_manifest(
    queue: WorkQueue,
    run_keys: Callable[[List[str]], object],
    batch_size: int = 1,
    poll_interval: float = 0.05,
) -> List[str]:
    """The worker loop: claim → run → release until the sweep is done.

    Repeatedly claims up to ``batch_size`` keys and hands them to
    ``run_keys(keys)``, which must *persist* each finished item into
    the queue's store (the runners route this through the ``on_result``
    hook of :meth:`repro.sim.campaign.ShardPool.map`, so each record
    lands the moment its worker finishes).  While a batch runs, a
    background thread refreshes the claimed leases' heartbeats every
    ``lease_timeout / 3`` seconds, so a *live* worker's leases never
    expire however long its items take — expiry reclaims stay reserved
    for workers that actually died.  A fork while the heartbeat
    thread runs copies locks that thread may hold, so a ``run_keys``
    whose workers touch the store must have forked them before this
    loop (the runners start their pools in :func:`run_sweep`'s
    ``prepare``); the serial runners' second processes (the PER-table
    helper, a stacked group's twin) fork inside it and only compute.
    Leases are released after every batch whatever happened —
    completion is judged by the shards, so releasing an unfinished
    item just returns it to the pool.

    When nothing is claimable but work remains, the loop polls: keys
    leased by live peers complete remotely (their records appear in
    the store), and keys leased by dead peers come back through lease
    expiry.  The loop therefore terminates exactly when every manifest
    key has a complete record.

    On the way out the worker sweeps its advisory lease debris
    (:meth:`WorkQueue.cleanup`), so a fully drained manifest leaves an
    empty lease area behind.

    Returns the keys this worker claimed and ran, in claim order.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    ran: List[str] = []
    try:
        while True:
            claimed = queue.claim_pending(limit=batch_size)
            if claimed:
                stop = threading.Event()

                def heartbeat_loop(keys: Tuple[str, ...] = tuple(claimed)) -> None:
                    while not stop.wait(queue.lease_timeout / 3.0):
                        queue.heartbeat_all(keys)

                beater = threading.Thread(target=heartbeat_loop, daemon=True)
                beater.start()
                try:
                    run_keys(claimed)
                finally:
                    stop.set()
                    beater.join()
                    for key in claimed:
                        queue.release(key)
                ran.extend(claimed)
                continue
            if not queue.pending():
                return ran
            time.sleep(poll_interval)
    finally:
        queue.cleanup()


def sweep_manifest(
    name: str, work: Sequence[SweepItem[Any]], kind: str, meta: Dict[str, Any]
) -> SweepManifest:
    """Describe a work list as a manifest: one entry per item, in order."""
    entries = (ManifestEntry(key, spec, label) for key, _, spec, label in work)
    return SweepManifest(name, tuple(entries), kind=kind, meta=meta)


def define_manifest(
    store: CampaignStore, manifest: SweepManifest
) -> SweepManifest:
    """Save ``manifest``, or return the saved one if it has the same
    content; a saved one with other content (another sweep under this
    name) is refused."""
    existing = SweepManifest.load(store, manifest.name, missing_ok=True)
    if existing is not None and not existing.content_equal(manifest):
        raise ValueError(
            f"manifest {manifest.name!r} already describes a different "
            f"sweep ({len(existing)} item(s), meta {existing.meta!r}); "
            "use a new name"
        )
    return manifest.save(store)


def load_manifest(
    store: CampaignStore, manifest: Union[str, SweepManifest], kind: str
) -> SweepManifest:
    """The manifest saved under a name (or the one given), if it holds
    ``kind`` work."""
    if isinstance(manifest, str):
        loaded = SweepManifest.load(store, manifest)
        assert loaded is not None  # load without missing_ok raises
        manifest = loaded
    if manifest.kind != kind:
        raise ValueError(
            f"manifest {manifest.name!r} holds {manifest.kind!r} work, "
            f"not {kind!r} work"
        )
    return manifest


def run_sweep(
    store: Optional[CampaignStore],
    work: Sequence[SweepItem[ItemT]],
    run_pending: Callable[[List[SweepItem[ItemT]]], Sequence[ResultT]],
    decode: Callable[[Dict[str, Any]], ResultT],
    *,
    kind: str,
    meta: Dict[str, Any],
    resume: bool = True,
    manifest: Union[None, str, SweepManifest] = None,
    batch_size: int = 1,
    lease_timeout: Optional[float] = None,
    poll_interval: float = 0.05,
    owner: Optional[str] = None,
    prepare: Optional[Callable[[List[SweepItem[ItemT]]], None]] = None,
) -> List[ResultT]:
    """Run a campaign's work list against a store; results in work order.

    The one sweep driver of both campaign runners.  ``run_pending``
    runs a list of work items, persists each into ``store`` as it
    finishes, and returns their results in order; ``decode`` turns a
    stored record into a result.  ``prepare``, if given, first sees the
    pending items in the order they are expected to run, before any
    runs or a manifest drain starts (the runners start their worker
    processes there).  A shard key listed twice is refused before
    anything runs or is written.

    Without ``manifest``, items with a stored record are loaded (when
    ``resume``) and the rest run in one ``run_pending`` call, so a
    resumed sweep ends bit-identical to an uninterrupted one.

    With ``manifest`` (a name, or a :class:`SweepManifest` that must
    equal the one built here), the work is saved as a ``kind`` manifest
    carrying ``meta`` (:func:`define_manifest`) and drained as one
    worker of the sweep (:func:`drain_manifest`, ``batch_size`` items a
    claim; ``lease_timeout``, ``poll_interval`` and ``owner`` tune the
    :class:`WorkQueue`); the result, peers' items included, is then
    loaded from the store.  Completion is judged by the shards, so
    ``resume=False`` is refused.
    """
    seen: Set[str] = set()
    for key, _, _, label in work:
        if key in seen:
            raise ValueError(f"work item {label} repeats shard key {key!r}")
        seen.add(key)
    if manifest is None:
        done: Dict[int, ResultT] = {}
        pending: List[int] = []
        for index, (key, _, _, _) in enumerate(work):
            record = store.load(key) if store is not None and resume else None
            if record is None:
                pending.append(index)
            else:
                done[index] = decode(record)
        todo = [work[index] for index in pending]
        if prepare is not None:
            prepare(todo)
        done.update(zip(pending, run_pending(todo)))
        return [done[index] for index in range(len(work))]

    if store is None:
        raise ValueError("manifest mode needs a store")
    if not resume:
        raise ValueError(
            "manifest mode judges completion by the store's shards and "
            "cannot re-run finished work; resume=False is incompatible "
            "(use a new manifest name or delete the shards)"
        )
    name = manifest if isinstance(manifest, str) else manifest.name
    built = sweep_manifest(name, work, kind, meta)
    if isinstance(manifest, SweepManifest) and not manifest.content_equal(built):
        raise ValueError(
            f"manifest {name!r} does not describe this campaign's work"
        )
    queue = WorkQueue(
        store,
        define_manifest(store, built),
        owner=owner,
        lease_timeout=(
            DEFAULT_LEASE_TIMEOUT if lease_timeout is None else lease_timeout
        ),
    )
    by_key = {item[0]: item for item in work}
    if prepare is not None:
        prepare([by_key[key] for key in queue.pending()])
    drain_manifest(
        queue,
        lambda keys: run_pending([by_key[key] for key in keys]),
        batch_size=batch_size,
        poll_interval=poll_interval,
    )
    results: List[ResultT] = []
    for key in by_key:
        record = store.load(key)
        if record is None:  # pragma: no cover - drain guarantees done
            raise RuntimeError(f"drained sweep missing shard {key}")
        results.append(decode(record))
    return results
