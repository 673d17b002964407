"""The filesystem backend: PR 4/5's shared-directory mechanics, extracted.

Layout (byte-identical to what :class:`~repro.store.store.CampaignStore`
wrote before backends existed — existing stores open unchanged):

.. code-block:: text

    store-root/
        3f9c2a41d0b8e7665f21.jsonl     # one shard per record key
        nightly-ref.manifest.json      # documents (sweep manifests)
        leases/
            .clock.<worker-token>      # clock-domain probe files
            <namespace>/
                <key>.lease            # O_EXCL claim, mtime = heartbeat
                <key>.lease.break      # transient breaker lock

Records are fsynced JSONL appends with torn-trailer sealing; documents
are same-directory temp + fsync + :func:`os.replace`; leases are
``O_CREAT | O_EXCL`` files whose mtime is the heartbeat, aged against
the *filesystem's* clock via a freshly touched probe file (mtimes are
stamped by the filesystem host — think NFS server — so expiry judged
against this worker's wall clock would mis-age leases under skew).
The rationale for each mechanism lives with the contract it satisfies:
:mod:`repro.store.store` (write/read path), :mod:`repro.store.queue`
(claim/break lifecycle), :mod:`repro.store.manifest` (atomic docs).
"""

from __future__ import annotations

import json
import os
import re
import socket
import time
import uuid
from pathlib import Path
from typing import IO, Dict, List, Optional, Sequence, Tuple, Union

from repro.store.backend import (
    LeaseBackend,
    LeaseView,
    StoreBackend,
    check_key,
    check_name,
)

__all__ = ["FilesystemLeaseBackend", "FilesystemStoreBackend"]


def _worker_token() -> str:
    """A filename-safe unique token for this backend instance's probe.

    Mirrors :func:`repro.store.queue.default_owner` (host, pid, nonce —
    the nonce so a reborn worker never adopts its predecessor's probe),
    sanitised to the portable filename alphabet.
    """
    raw = f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"
    return re.sub(r"[^A-Za-z0-9._-]", "-", raw)


class FilesystemLeaseBackend(LeaseBackend):
    """``O_EXCL`` lease files with heartbeat mtimes under ``leases/``.

    The lease tree is advisory state: deleting it entirely merely
    forgets in-flight claims (finished work lives in the shards), so no
    fsync discipline is needed here — only atomicity of creation
    (``O_EXCL``) and of the breaker dance.
    """

    _PROBE_PREFIX = ".clock."
    _BREAK_SUFFIX = ".break"

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._probe_name = f"{self._PROBE_PREFIX}{_worker_token()}"

    # -- paths -------------------------------------------------------------

    def lease_path(self, namespace: str, key: str) -> Path:
        return self.root / check_name(namespace) / f"{check_key(key)}.lease"

    def _read_owner(self, path: Path) -> Optional[str]:
        """The lease's owner, or None when unreadable (torn mid-write)."""
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            return str(data["owner"])
        except (OSError, ValueError, KeyError):
            return None

    # -- clock domain ------------------------------------------------------

    def now(self) -> float:
        """'Now' in the clock domain that stamps lease mtimes.

        Lease age is mtime arithmetic, and mtimes are set by the
        filesystem host — on a shared filesystem, *its* clock, not this
        worker's.  Touching a probe file and reading its mtime back
        yields a "now" in that same domain, so expiry judgements are
        immune to skew between the worker's wall clock and the
        filesystem's (and the worker's wall clock never enters
        duration math at all).

        When the probe cannot be written (a read-only status view of a
        foreign store, or a lease tree that does not exist yet), the
        host wall clock is the best remaining approximation; a
        mis-judged expiry there is harmless because breaking re-verifies
        under the breaker lock and completion is idempotent.
        """
        probe = self.root / self._probe_name
        try:
            fd = os.open(probe, os.O_CREAT | os.O_WRONLY, 0o644)
            os.close(fd)
            os.utime(probe)
            return probe.stat().st_mtime
        except OSError:
            return time.time()

    # -- claim / heartbeat / release ---------------------------------------

    def acquire(self, namespace: str, key: str, owner: str) -> bool:
        path = self.lease_path(namespace, key)
        # Created on first claim, not at construction: read-only views
        # (status reports on a finished or foreign store) must never
        # mutate the store directory.
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            # claimed_at is wall-clock *metadata* for humans reading the
            # lease file; expiry arithmetic only ever uses the mtime.
            {"owner": owner, "claimed_at": time.time()},
            separators=(",", ":"),
        ).encode("utf-8")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        return True

    def get(self, namespace: str, key: str) -> Optional[LeaseView]:
        path = self.lease_path(namespace, key)
        try:
            st = path.stat()
        except FileNotFoundError:
            return None
        return LeaseView(owner=self._read_owner(path), heartbeat=st.st_mtime)

    def heartbeat(self, namespace: str, key: str, owner: str) -> bool:
        path = self.lease_path(namespace, key)
        if self._read_owner(path) != owner:
            return False
        try:
            os.utime(path)
        except FileNotFoundError:
            return False
        return True

    def release(self, namespace: str, key: str, owner: str) -> bool:
        path = self.lease_path(namespace, key)
        if self._read_owner(path) != owner:
            return False
        path.unlink(missing_ok=True)
        return True

    # -- expiry ------------------------------------------------------------

    def _expired(self, st: os.stat_result, timeout: float) -> bool:
        return self.now() - st.st_mtime >= timeout

    def break_expired(self, namespace: str, key: str, timeout: float) -> bool:
        """Unlink an expired lease under the key's breaker lock.

        The lock closes the ordinary stat-then-act race: between
        *observing* an expired lease and *removing* it, another racer
        may have already broken it and a third may hold a fresh claim
        at the same path — so expiry is re-verified while holding the
        ``O_EXCL`` breaker lock, and a fresh lease is left alone.

        A breaker lock whose holder died mid-break is itself expired
        state; it is swept after a fresh re-stat immediately before the
        unlink.  That sweep is advisory, not watertight: filesystem
        path locks cannot compare-and-swap on identity, so a sweeper
        stalled between its stat and its unlink can, in a pathological
        interleaving, remove a just-created breaker and briefly let two
        breakers coexist.  The system's *correctness* never rests on
        breaker exclusivity — the worst outcome is a duplicated,
        idempotent item run (see :mod:`repro.store.queue`) —
        exclusivity here only keeps the common paths from duplicating
        work.
        """
        path = self.lease_path(namespace, key)
        brk = path.with_name(f"{path.name}{self._BREAK_SUFFIX}")
        try:
            fd = os.open(brk, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            try:
                # An orphan is at least lease_timeout old, a live
                # breaker microseconds old — stat right before acting.
                if self._expired(brk.stat(), timeout):
                    brk.unlink(missing_ok=True)
            except FileNotFoundError:
                pass
            return False
        except FileNotFoundError:
            return False  # namespace dir gone: nothing left to break
        os.close(fd)
        try:
            try:
                st = path.stat()
            except FileNotFoundError:
                return False  # released or already broken
            if self._expired(st, timeout):
                path.unlink(missing_ok=True)
                return True
            return False
        finally:
            brk.unlink(missing_ok=True)

    def age_lease(self, namespace: str, key: str, seconds: float) -> bool:
        path = self.lease_path(namespace, key)
        try:
            st = path.stat()
            os.utime(path, (st.st_atime, st.st_mtime - seconds))
        except FileNotFoundError:
            return False
        return True

    # -- cleanup -----------------------------------------------------------

    def cleanup(self, namespace: str, timeout: float) -> None:
        """Sweep this worker's probe and any stale breaker debris.

        A drained sweep should leave ``leases/`` *empty*: leases were
        all released, but clock probes (one per worker) and orphaned
        breaker locks (a breaker SIGKILLed mid-dance) otherwise linger
        forever.  Own probe goes unconditionally; foreign probes and
        breaker locks only once older than ``timeout`` (a younger one
        may belong to a live worker mid-operation).  Empty directories
        are pruned last; every step tolerates concurrent peers doing
        the same sweep.
        """
        now = self.now()

        def stale(p: Path) -> bool:
            try:
                return now - p.stat().st_mtime >= timeout
            except OSError:
                return False  # vanished under us: a peer's sweep won

        ns_dir = self.root / check_name(namespace)
        try:
            entries = list(ns_dir.iterdir())
        except OSError:
            entries = []
        for p in entries:
            name = p.name
            if name.endswith(self._BREAK_SUFFIX) and stale(p):
                p.unlink(missing_ok=True)
            elif name.startswith(self._PROBE_PREFIX) and stale(p):
                p.unlink(missing_ok=True)
        try:
            own = self.root / self._probe_name
            own.unlink(missing_ok=True)
        except OSError:
            pass
        for p in self.root.glob(f"{self._PROBE_PREFIX}*"):
            if stale(p):
                p.unlink(missing_ok=True)
        for d in (ns_dir, self.root):
            try:
                d.rmdir()  # only succeeds once genuinely empty
            except OSError:
                pass


class FilesystemStoreBackend(StoreBackend):
    """One directory of record shards, manifest documents, and leases.

    Every shard is a ``<key>.jsonl`` file of fsynced lines.  A directory
    holding binary-framed ``*.rbin`` shards (a record layout older
    versions could write) is refused at open with a
    :class:`ValueError` naming one of them, rather than reading as
    partly empty.
    """

    scheme = "file"

    def __init__(
        self,
        root: Union[str, "os.PathLike[str]"],
        create: bool = True,
    ) -> None:
        self.root = Path(root)
        if create:
            # Eagerly, so ``--store DIR`` fails fast on an unwritable
            # path rather than mid-campaign.
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise FileNotFoundError(f"no store directory at {self.root}")
        legacy = next(self.root.glob("*.rbin"), None)
        if legacy is not None:
            raise ValueError(
                f"store {self.root} holds binary-framed shards ({legacy.name}"
                " and maybe more), a layout this version no longer reads; "
                "transcode the store to JSONL with repro.store.copy_store "
                "at commit 713d5a7, then reopen the copy"
            )
        self._leases = FilesystemLeaseBackend(self.root / "leases")

    @property
    def uri(self) -> str:
        return f"file:{self.root}"

    # -- records -----------------------------------------------------------

    def shard_path(self, key: str) -> Path:
        """The key's shard file, ``root/<key>.jsonl``."""
        return self.root / f"{check_key(key)}.jsonl"

    @staticmethod
    def _write_lines(f: IO[bytes], lines: Sequence[str]) -> None:
        """Seal a torn trailer, then buffer ``lines`` newline-terminated.

        A previous crash may have left an unterminated fragment; sealed
        with ``\\n`` it parses as one dead line instead of swallowing
        the record about to be appended.
        """
        if f.tell() > 0:
            f.seek(-1, os.SEEK_END)
            if f.read(1) != b"\n":
                f.write(b"\n")
        f.write(b"".join(line.encode("utf-8") + b"\n" for line in lines))

    def append_record(self, key: str, line: str) -> None:
        path = self.shard_path(key)
        try:
            f = open(path, "a+b")
        except FileNotFoundError:
            # The shard directory was removed between sweep definition
            # and this write (an operator pruned a store mid-campaign);
            # losing an acknowledged record to that would break the
            # resume contract, so recreate and retry once.
            self.root.mkdir(parents=True, exist_ok=True)
            f = open(path, "a+b")
        with f:
            self._write_lines(f, [line])
            f.flush()
            os.fsync(f.fileno())

    def append_batch(self, items: Sequence[Tuple[str, str]]) -> None:
        """Batched appends: buffered writes, then **one** ``os.sync``.

        Per-record ``fsync`` dominates campaign persistence (one disk
        round-trip per cell); a flush of G records pays it once.
        ``os.sync`` commits *every* dirty buffer on the host — on
        Linux it returns only after the writeback completes — so when
        this returns, the whole batch is as durable as G fsynced
        appends, at roughly 1/G of the sync cost.  A crash mid-batch
        leaves torn trailers the readers and sealers already handle.
        """
        grouped: Dict[str, List[str]] = {}
        for key, line in items:
            grouped.setdefault(key, []).append(line)
        if not grouped:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        for key, lines in grouped.items():
            with open(self.shard_path(key), "a+b") as f:
                self._write_lines(f, lines)
                f.flush()
        os.sync()

    def read_records(self, key: str) -> List[str]:
        """The shard's complete record lines, torn trailer excluded.

        A record only counts once its write completed — an
        unterminated trailing line (the crash signature) ends the
        scan, so a torn write surfaces as *no* line, never a mangled
        one.
        """
        lines: List[str] = []
        try:
            f = open(self.shard_path(key), "r", encoding="utf-8")
        except FileNotFoundError:
            return lines
        with f:
            for raw in f:
                if not raw.endswith("\n"):
                    break  # torn trailer: the write never completed
                raw = raw.strip()
                if raw:
                    lines.append(raw)
        return lines

    def record_keys(self) -> List[str]:
        return sorted(p.stem for p in self.root.glob("*.jsonl"))

    # -- documents ---------------------------------------------------------

    def put_doc(self, name: str, payload: str) -> None:
        path = self.root / check_name(name)
        tmp = self.root / f".{name}.tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(payload.encode("utf-8"))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        # Durably record the rename itself (the document is already
        # durable; this pins the directory entry).
        dir_fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def get_doc(self, name: str) -> Optional[str]:
        path = self.root / check_name(name)
        try:
            return path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def list_docs(self) -> List[str]:
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_file()
            and not p.name.startswith(".")
            and not p.name.endswith(".jsonl")
        )

    # -- leases ------------------------------------------------------------

    @property
    def leases(self) -> FilesystemLeaseBackend:
        return self._leases
