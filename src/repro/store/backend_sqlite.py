"""The sqlite backend: one transactional database file per store.

Where the filesystem backend needs three mechanisms (fsynced appends,
temp+rename documents, ``O_EXCL`` + breaker-lock leases), sqlite gives
all three as transactions:

* **Records** are rows in an append-only table ordered by a rowid
  sequence; a committed ``INSERT`` is the completion marker, so a torn
  write is literally impossible to observe — the transaction either
  committed (line present, whole) or it didn't (no line).  With
  ``synchronous=FULL`` a commit is fsynced before it returns, matching
  the filesystem backend's durability contract.
* **Documents** are single-row upserts — readers see the old payload or
  the new one, never a half-replaced hybrid.
* **Leases** are rows under a ``(namespace, key)`` primary key.
  Claiming is ``INSERT OR IGNORE`` (the database serialises racers —
  exactly one insert wins); heartbeat/release are owner-guarded
  ``UPDATE``/``DELETE``; and breaking an expired lease is one
  conditional ``DELETE`` whose WHERE clause re-judges the age *inside*
  the statement — the compare-and-swap the filesystem needed a breaker
  lock to approximate.

**Clock domain.**  Heartbeats are stamped with sqlite's own clock
(``julianday('now')``, converted to Unix seconds) and expiry is decided
by the same expression inside the conditional ``DELETE`` — worker wall
clocks never enter the arithmetic, so a worker with a skewed clock can
neither hold a lease immortal nor break a live peer's.  (For a local
database file that clock *is* the host's, but the discipline keeps the
judgement in one domain, same as the filesystem backend's mtime probe.)

**Process/thread hygiene.**  sqlite connections must not cross ``fork``
boundaries and are single-thread by default, while ``drain_manifest``
heartbeats from a background thread and the fault suite forks workers —
so connections are made lazily per (pid, thread) and never shared.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.store.backend import (
    LeaseBackend,
    LeaseView,
    StoreBackend,
    check_key,
    check_name,
)

__all__ = ["SqliteLeaseBackend", "SqliteStoreBackend"]

#: sqlite's clock in Unix seconds: julianday('now') is days since the
#: Julian epoch; 2440587.5 is the Unix epoch in those days.
_SQL_NOW = "(julianday('now') - 2440587.5) * 86400.0"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    seq  INTEGER PRIMARY KEY AUTOINCREMENT,
    key  TEXT NOT NULL,
    line TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS records_by_key ON records (key, seq);
CREATE TABLE IF NOT EXISTS docs (
    name    TEXT PRIMARY KEY,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS leases (
    ns           TEXT NOT NULL,
    key          TEXT NOT NULL,
    owner        TEXT NOT NULL,
    heartbeat_at REAL NOT NULL,
    claimed_at   REAL NOT NULL,
    PRIMARY KEY (ns, key)
);
"""


class SqliteStoreBackend(StoreBackend):
    """Records, documents, and leases in one sqlite database file.

    Record lines rest as TEXT in the ``records`` table.  Older versions
    could also store them as UTF-8 BLOBs; sqlite is dynamically typed,
    so reads decode such rows per row and those databases still open.
    """

    scheme = "sqlite"

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        create: bool = True,
    ) -> None:
        self.path = Path(path)
        if not create and not self.path.is_file():
            raise FileNotFoundError(f"no store database at {self.path}")
        if create:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tlocal = threading.local()
        # Eagerly, so ``--store sqlite:PATH`` fails fast on an
        # unwritable path rather than mid-campaign.
        self._conn().execute("SELECT 1")
        self._leases = SqliteLeaseBackend(self)

    @property
    def uri(self) -> str:
        return f"sqlite:{self.path}"

    # -- connections -------------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        """This (pid, thread)'s connection, created on first use.

        A connection inherited across ``fork`` shares file descriptors
        and in-flight state with the parent — corruption territory — and
        sqlite objects are not thread-safe by default, so each process
        *and* each thread (``drain_manifest``'s heartbeat thread!) gets
        its own.
        """
        pid = os.getpid()
        cached: Optional[Tuple[int, sqlite3.Connection]] = getattr(
            self._tlocal, "conn", None
        )
        if cached is not None and cached[0] == pid:
            return cached[1]
        conn = sqlite3.connect(self.path, isolation_level=None, timeout=30.0)
        # FULL, not the WAL default NORMAL: append_record must be as
        # durable on return as the filesystem backend's fsync.
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=FULL")
        conn.execute("PRAGMA busy_timeout=30000")
        conn.executescript(_SCHEMA)
        self._tlocal.conn = (pid, conn)
        return conn

    def _one(self, sql: str, params: Tuple[Any, ...] = ()) -> Optional[Tuple[Any, ...]]:
        cur = self._conn().execute(sql, params)
        row: Optional[Tuple[Any, ...]] = cur.fetchone()
        return row

    # -- records -----------------------------------------------------------

    def append_record(self, key: str, line: str) -> None:
        self._conn().execute(
            "INSERT INTO records (key, line) VALUES (?, ?)",
            (check_key(key), line),
        )

    def append_batch(self, items: Sequence[Tuple[str, str]]) -> None:
        """All lines in one transaction: one COMMIT, hence one fsync.

        ``synchronous=FULL`` syncs per COMMIT, so per-record appends
        pay one disk round-trip each; a batch inside ``BEGIN
        IMMEDIATE`` pays it once and is exactly as durable — the
        transaction either committed whole or never happened.
        """
        if not items:
            return
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "INSERT INTO records (key, line) VALUES (?, ?)",
                [(check_key(key), line) for key, line in items],
            )
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    def read_records(self, key: str) -> List[str]:
        cur = self._conn().execute(
            "SELECT line FROM records WHERE key = ? ORDER BY seq",
            (check_key(key),),
        )
        return [
            row[0].decode("utf-8") if isinstance(row[0], bytes) else str(row[0])
            for row in cur
        ]

    def record_keys(self) -> List[str]:
        cur = self._conn().execute(
            "SELECT DISTINCT key FROM records ORDER BY key"
        )
        return [row[0] for row in cur]

    def count_keys(self) -> int:
        row = self._one("SELECT COUNT(DISTINCT key) FROM records")
        assert row is not None
        return int(row[0])

    # -- documents ---------------------------------------------------------

    def put_doc(self, name: str, payload: str) -> None:
        self._conn().execute(
            "INSERT INTO docs (name, payload) VALUES (?, ?) "
            "ON CONFLICT (name) DO UPDATE SET payload = excluded.payload",
            (check_name(name), payload),
        )

    def get_doc(self, name: str) -> Optional[str]:
        row = self._one(
            "SELECT payload FROM docs WHERE name = ?", (check_name(name),)
        )
        return None if row is None else str(row[0])

    def list_docs(self) -> List[str]:
        cur = self._conn().execute("SELECT name FROM docs ORDER BY name")
        return [row[0] for row in cur]

    # -- leases ------------------------------------------------------------

    @property
    def leases(self) -> "SqliteLeaseBackend":
        return self._leases


class SqliteLeaseBackend(LeaseBackend):
    """Compare-and-swap lease rows; expiry judged inside the statement."""

    def __init__(self, store: SqliteStoreBackend) -> None:
        self._store = store

    def now(self) -> float:
        row = self._store._one(f"SELECT {_SQL_NOW}")
        assert row is not None
        return float(row[0])

    def acquire(self, namespace: str, key: str, owner: str) -> bool:
        cur = self._store._conn().execute(
            "INSERT OR IGNORE INTO leases "
            "(ns, key, owner, heartbeat_at, claimed_at) "
            f"VALUES (?, ?, ?, {_SQL_NOW}, {_SQL_NOW})",
            (check_name(namespace), check_key(key), owner),
        )
        return cur.rowcount == 1

    def get(self, namespace: str, key: str) -> Optional[LeaseView]:
        row = self._store._one(
            "SELECT owner, heartbeat_at FROM leases WHERE ns = ? AND key = ?",
            (check_name(namespace), check_key(key)),
        )
        if row is None:
            return None
        return LeaseView(owner=str(row[0]), heartbeat=float(row[1]))

    def heartbeat(self, namespace: str, key: str, owner: str) -> bool:
        cur = self._store._conn().execute(
            f"UPDATE leases SET heartbeat_at = {_SQL_NOW} "
            "WHERE ns = ? AND key = ? AND owner = ?",
            (check_name(namespace), check_key(key), owner),
        )
        return cur.rowcount == 1

    def release(self, namespace: str, key: str, owner: str) -> bool:
        cur = self._store._conn().execute(
            "DELETE FROM leases WHERE ns = ? AND key = ? AND owner = ?",
            (check_name(namespace), check_key(key), owner),
        )
        return cur.rowcount == 1

    def break_expired(self, namespace: str, key: str, timeout: float) -> bool:
        # Expiry is re-judged by the database, atomically with the
        # removal: a lease heartbeated after any earlier observation
        # simply fails the WHERE clause and survives.
        cur = self._store._conn().execute(
            "DELETE FROM leases WHERE ns = ? AND key = ? "
            f"AND {_SQL_NOW} - heartbeat_at >= ?",
            (check_name(namespace), check_key(key), float(timeout)),
        )
        return cur.rowcount == 1

    def age_lease(self, namespace: str, key: str, seconds: float) -> bool:
        cur = self._store._conn().execute(
            "UPDATE leases SET heartbeat_at = heartbeat_at - ? "
            "WHERE ns = ? AND key = ?",
            (float(seconds), check_name(namespace), check_key(key)),
        )
        return cur.rowcount == 1
