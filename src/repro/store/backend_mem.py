"""The in-memory backend: an object store with conditional puts.

This backend models the cloud object store (S3 / GCS / MinIO) a
no-shared-filesystem fleet would actually run on, using the only two
coordination primitives such stores offer:

* ``If-None-Match: *`` — create the object only if it does not exist
  (the test-and-set behind lease *acquisition*);
* ``If-Match: <etag>`` — replace/delete only if the object is still the
  exact version previously read (the compare-and-swap behind heartbeat,
  release, and expiry *break*).

Everything else is built on those two: a shard append is a
read-modify-``If-Match``-put retry loop; breaking an expired lease
reads the lease, judges its age, and deletes **conditionally on the
etag it read** — so a lease heartbeated between the observation and the
delete has a new etag and the break fails, exactly the guarantee the
filesystem backend needs a breaker-lock dance to approximate.

**Clock domain.**  The store carries its own clock — monotonic, plus an
offset that tests move with :meth:`MemoryObjectStore.advance` — and
heartbeats are stamped when the *store* executes the put (after any
injected latency), not when the worker sent it.  Workers' wall clocks
never appear, so the conformance suite's clock-skew clauses hold by
construction, and expiry scenarios are driven by advancing the store's
clock instead of sleeping.

**Fault hooks.**  ``latency`` delays every operation (widening race
windows the conformance races probe); ``before_op`` sees every
``(op, path)`` before it executes and may raise to simulate an outage
or kill a request mid-flight.  Both are per-store and injectable at any
point in a test.

Stores live in a process-global registry keyed by name (``mem:ci``
opens the same store everywhere in the process), because URI round-trips
through runner plumbing must land on the same object graph.  The
registry — like the store — does not survive the process: ``mem:`` is
for tests, drills, and ephemeral fleets that export durable results via
:func:`repro.store.backend.copy_store`.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.store.backend import (
    LeaseBackend,
    LeaseView,
    StoreBackend,
    check_key,
    check_name,
)

__all__ = ["MemoryLeaseBackend", "MemoryObjectStore", "MemoryStoreBackend"]

_REGISTRY: Dict[str, "MemoryStoreBackend"] = {}
_REGISTRY_LOCK = threading.Lock()


@dataclass(frozen=True)
class _Object:
    etag: str
    payload: str


class PreconditionFailed(Exception):
    """A conditional put/delete lost its race (stale etag or existing
    object); the caller re-reads and retries or gives up, S3-style."""


class MemoryObjectStore:
    """Versioned string objects with conditional puts, under one lock.

    The lock makes each *single* operation atomic — the store is linear-
    izable, like the real thing.  It deliberately does **not** make
    read-modify-write sequences atomic; callers get no more than etags
    give them, which is the point of the emulation.
    """

    def __init__(self) -> None:
        self._objects: Dict[str, _Object] = {}
        self._lock = threading.RLock()
        self._etag_counter = 0
        self._clock_offset = 0.0
        #: Seconds of simulated service latency per operation.
        self.latency = 0.0
        #: Fault hook: called with (op, path) before each operation;
        #: raise to simulate an outage / dropped request.
        self.before_op: Optional[Callable[[str, str], None]] = None

    # -- clock -------------------------------------------------------------

    def now(self) -> float:
        """The store's clock: monotonic + test-controlled offset."""
        with self._lock:
            return time.monotonic() + self._clock_offset

    def advance(self, seconds: float) -> None:
        """Advance the store's clock (expiry tests, no sleeping)."""
        if seconds < 0:
            raise ValueError("the store clock never runs backwards")
        with self._lock:
            self._clock_offset += seconds

    # -- primitives --------------------------------------------------------

    def _enter(self, op: str, path: str) -> None:
        if self.latency > 0:
            time.sleep(self.latency)
        if self.before_op is not None:
            self.before_op(op, path)

    def get(self, path: str) -> Optional[Tuple[str, str]]:
        """(etag, payload) of the object, or None when absent."""
        self._enter("get", path)
        with self._lock:
            obj = self._objects.get(path)
            return None if obj is None else (obj.etag, obj.payload)

    def list_prefix(self, prefix: str) -> List[str]:
        self._enter("list", prefix)
        with self._lock:
            return sorted(p for p in self._objects if p.startswith(prefix))

    def put(
        self,
        path: str,
        payload: str,
        if_match: Optional[str] = None,
        if_none_match: bool = False,
    ) -> str:
        """Write the object; returns its new etag.

        ``if_none_match=True`` → create-only (fails if the object
        exists); ``if_match=etag`` → replace-only-if-unchanged.  A
        failed precondition raises :class:`PreconditionFailed` without
        touching the object.
        """
        self._enter("put", path)
        with self._lock:
            current = self._objects.get(path)
            if if_none_match and current is not None:
                raise PreconditionFailed(f"object exists: {path}")
            if if_match is not None and (
                current is None or current.etag != if_match
            ):
                raise PreconditionFailed(f"etag mismatch: {path}")
            self._etag_counter += 1
            etag = f"v{self._etag_counter:x}"
            self._objects[path] = _Object(etag=etag, payload=payload)
            return etag

    def delete(self, path: str, if_match: Optional[str] = None) -> bool:
        """Remove the object; True iff something was removed.

        With ``if_match``, removal happens only while the object still
        carries that etag (:class:`PreconditionFailed` otherwise) — the
        compare-and-swap the lease break is built on.
        """
        self._enter("delete", path)
        with self._lock:
            current = self._objects.get(path)
            if current is None:
                return False
            if if_match is not None and current.etag != if_match:
                raise PreconditionFailed(f"etag mismatch: {path}")
            del self._objects[path]
            return True


class MemoryStoreBackend(StoreBackend):
    """Records, documents, and leases over a :class:`MemoryObjectStore`.

    Each shard is one object holding newline-terminated record lines.
    """

    scheme = "mem"

    def __init__(self, name: str = "default") -> None:
        self.name = check_name(name)
        self.objects = MemoryObjectStore()
        self._leases = MemoryLeaseBackend(self.objects)

    @classmethod
    def named(cls, name: str, create: bool = True) -> "MemoryStoreBackend":
        """The process-global store registered under ``name``.

        ``mem:`` URIs resolve here, so every component of a drill that
        opens ``mem:ci`` shares one object graph.  ``create=False``
        requires the name to be registered already (read-only status
        views must not conjure empty stores).
        """
        name = check_name(name or "default")
        with _REGISTRY_LOCK:
            backend = _REGISTRY.get(name)
            if backend is None:
                if not create:
                    raise FileNotFoundError(f"no mem: store named {name!r}")
                backend = cls(name)
                _REGISTRY[name] = backend
            return backend

    @classmethod
    def discard(cls, name: str) -> None:
        """Drop a registered store (test isolation between cases)."""
        with _REGISTRY_LOCK:
            _REGISTRY.pop(name, None)

    @property
    def uri(self) -> str:
        return f"mem:{self.name}"

    # -- records -----------------------------------------------------------

    def _shard(self, key: str) -> str:
        return f"records/{check_key(key)}"

    @staticmethod
    def _extended(payload: Optional[str], lines: Sequence[str]) -> str:
        """The shard body with ``lines`` appended, sealing any torn
        trailer first (an injected fault may have left a partial
        line)."""
        payload = payload or ""
        if payload and not payload.endswith("\n"):
            payload += "\n"
        return payload + "".join(line + "\n" for line in lines)

    def _append_lines(self, key: str, lines: Sequence[str]) -> None:
        """Read-modify-conditional-put append; retries lost races.

        The retry loop is what an S3 "append" actually is: read the
        shard (noting its etag), add the lines, put back with
        ``If-Match``.  A concurrent appender changes the etag and this
        writer simply re-reads — no line is ever lost or doubled.
        """
        path = self._shard(key)
        while True:
            current = self.objects.get(path)
            try:
                if current is None:
                    self.objects.put(
                        path, self._extended(None, lines), if_none_match=True
                    )
                else:
                    etag, payload = current
                    self.objects.put(
                        path, self._extended(payload, lines), if_match=etag
                    )
            except PreconditionFailed:
                continue
            return

    def append_record(self, key: str, line: str) -> None:
        self._append_lines(key, [line])

    def append_batch(self, items: Sequence[Tuple[str, str]]) -> None:
        """One conditional put per shard instead of one per record."""
        grouped: Dict[str, List[str]] = {}
        for key, line in items:
            grouped.setdefault(key, []).append(line)
        for key, lines in grouped.items():
            self._append_lines(key, lines)

    def read_records(self, key: str) -> List[str]:
        found = self.objects.get(self._shard(key))
        if found is None:
            return []
        _, payload = found
        lines: List[str] = []
        for raw in payload.splitlines(keepends=True):
            if not raw.endswith("\n"):
                break  # torn trailer: the write never completed
            raw = raw.strip()
            if raw:
                lines.append(raw)
        return lines

    def record_keys(self) -> List[str]:
        prefix = "records/"
        return [p[len(prefix):] for p in self.objects.list_prefix(prefix)]

    # -- documents ---------------------------------------------------------

    def put_doc(self, name: str, payload: str) -> None:
        # An unconditional put is already atomic whole-object
        # replacement — the manifest save's temp+rename, for free.
        self.objects.put(f"docs/{check_name(name)}", payload)

    def get_doc(self, name: str) -> Optional[str]:
        found = self.objects.get(f"docs/{check_name(name)}")
        return None if found is None else found[1]

    def list_docs(self) -> List[str]:
        prefix = "docs/"
        return [p[len(prefix):] for p in self.objects.list_prefix(prefix)]

    # -- leases ------------------------------------------------------------

    @property
    def leases(self) -> "MemoryLeaseBackend":
        return self._leases


class MemoryLeaseBackend(LeaseBackend):
    """Leases as etag-versioned objects; every mutation is a CAS."""

    def __init__(self, objects: MemoryObjectStore) -> None:
        self.objects = objects

    def _path(self, namespace: str, key: str) -> str:
        return f"leases/{check_name(namespace)}/{check_key(key)}"

    def _payload(self, owner: str) -> str:
        return json.dumps(
            {"owner": owner, "heartbeat": self.objects.now()},
            separators=(",", ":"),
        )

    def _parse(self, payload: str) -> LeaseView:
        try:
            data = json.loads(payload)
            return LeaseView(
                owner=str(data["owner"]), heartbeat=float(data["heartbeat"])
            )
        except (ValueError, KeyError, TypeError):
            # Unreadable lease (fault-injected garbage): held by an
            # unknown peer as of "now" — never treated as free.
            return LeaseView(owner=None, heartbeat=self.objects.now())

    def now(self) -> float:
        return self.objects.now()

    def acquire(self, namespace: str, key: str, owner: str) -> bool:
        try:
            self.objects.put(
                self._path(namespace, key),
                self._payload(owner),
                if_none_match=True,
            )
        except PreconditionFailed:
            return False
        return True

    def get(self, namespace: str, key: str) -> Optional[LeaseView]:
        found = self.objects.get(self._path(namespace, key))
        return None if found is None else self._parse(found[1])

    def heartbeat(self, namespace: str, key: str, owner: str) -> bool:
        path = self._path(namespace, key)
        found = self.objects.get(path)
        if found is None:
            return False
        etag, payload = found
        if self._parse(payload).owner != owner:
            return False
        try:
            self.objects.put(path, self._payload(owner), if_match=etag)
        except PreconditionFailed:
            return False  # broken and possibly re-claimed under us
        return True

    def release(self, namespace: str, key: str, owner: str) -> bool:
        path = self._path(namespace, key)
        found = self.objects.get(path)
        if found is None:
            return False
        etag, payload = found
        if self._parse(payload).owner != owner:
            return False
        try:
            return self.objects.delete(path, if_match=etag)
        except PreconditionFailed:
            return False

    def break_expired(self, namespace: str, key: str, timeout: float) -> bool:
        path = self._path(namespace, key)
        found = self.objects.get(path)
        if found is None:
            return False
        etag, payload = found
        if self.objects.now() - self._parse(payload).heartbeat < timeout:
            return False
        try:
            # Conditional on the etag whose age was judged: a heartbeat
            # landing in between gives the lease a new etag and this
            # delete fails instead of killing a live lease.
            return self.objects.delete(path, if_match=etag)
        except PreconditionFailed:
            return False

    def age_lease(self, namespace: str, key: str, seconds: float) -> bool:
        path = self._path(namespace, key)
        while True:
            found = self.objects.get(path)
            if found is None:
                return False
            etag, payload = found
            view = self._parse(payload)
            if view.owner is None:
                return False
            aged = json.dumps(
                {"owner": view.owner, "heartbeat": view.heartbeat - seconds},
                separators=(",", ":"),
            )
            try:
                self.objects.put(path, aged, if_match=etag)
            except PreconditionFailed:
                continue  # concurrent heartbeat: re-read and re-age
            return True
