"""Async drivers: pump frames between transports and session engines.

The engines (:mod:`repro.service.engine`) are sans-io; this module is
the io.  Each driver is a small pump — receive a frame, feed the engine,
send whatever it returns — wrapped in the session deadline and the
fail-closed abort protocol (any :class:`ServiceError` is translated to
an ABORT frame for the peer before re-raising locally).  Because the
pumps only await on transport operations, one event loop multiplexes as
many concurrent sessions as memory allows; the load generator below
routinely runs thousands.

Entry points:

* :func:`run_leader` / :func:`run_follower` — one session over caller-
  provided transports.
* :func:`run_memory_group` — a full in-process session over
  :class:`~repro.service.transport.MemoryTransport` pairs, optionally
  perturbed by :class:`~repro.service.transport.FlakyTransport`.
* :class:`TcpLeader` / :func:`connect_follower_tcp` — the same over
  real loopback/remote TCP streams.
* :func:`run_load` — the concurrent-session load generator backing the
  ``service_*`` benchmarks.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.service.config import ServiceConfig
from repro.service.derive import DerivedKeys
from repro.service.engine import FollowerEngine, LeaderEngine
from repro.service.errors import (
    ProtocolViolation,
    ServiceError,
    SessionTimeout,
    TransportClosed,
    abort_code_for,
)
from repro.service.frames import (
    Frame,
    FrameError,
    FrameType,
    WireAbort,
    WireHello,
)
from repro.service.transport import (
    FaultSpec,
    FlakyTransport,
    FrameTransport,
    MemoryTransport,
    StreamFrameTransport,
)

__all__ = [
    "run_leader",
    "run_follower",
    "run_memory_group",
    "SessionOutcome",
    "run_memory_group_outcome",
    "TcpLeader",
    "connect_follower_tcp",
    "LoadReport",
    "run_load",
]


def _abort_frame(exc: BaseException) -> Frame:
    return WireAbort(int(abort_code_for(exc)), str(exc)[:200]).pack()


async def _notify_abort(transport: FrameTransport, exc: BaseException) -> None:
    """Best-effort ABORT to the peer; never masks the original error."""
    try:
        await transport.send(_abort_frame(exc))
    except Exception:
        pass


async def _recv(transport: FrameTransport) -> Frame:
    """Receive one frame, folding codec failures into the taxonomy."""
    try:
        return await transport.recv()
    except FrameError as exc:
        raise ProtocolViolation(f"frame codec failure: {exc}") from None


async def _read_peer(
    peer: str, transport: FrameTransport, queue: asyncio.Queue
) -> None:
    """Queue ``peer``'s frames as ``(peer, frame, None)`` for the leader
    loop; the first failure ends the read as ``(peer, None, error)``.

    A failure outside the taxonomy becomes a :class:`ProtocolViolation`,
    so the session aborts at once instead of waiting out its deadline.
    """
    try:
        while True:
            frame = await _recv(transport)
            await queue.put((peer, frame, None))
    except ServiceError as exc:
        await queue.put((peer, None, exc))
    except Exception as exc:  # defensive: surface, don't hang the session
        await queue.put((peer, None, ProtocolViolation(f"reader failed: {exc}")))


async def _lead(
    engine: LeaderEngine,
    transports: Dict[str, FrameTransport],
    queue: asyncio.Queue,
) -> DerivedKeys:
    """Feed queued frames to ``engine`` and route its replies until it
    establishes, within the session deadline.

    ``transports`` may still grow while the loop runs (TCP followers
    connect as they come).  Any failure is sent as an ABORT to every
    transport before it is raised.
    """
    try:
        async with asyncio.timeout(engine.config.handshake_timeout):
            while not engine.established:
                peer, frame, exc = await queue.get()
                if exc is not None:
                    raise exc
                for dst, out in engine.on_frame(peer, frame):
                    await transports[dst].send(out)
    except TimeoutError:
        exc = SessionTimeout(
            f"leader {engine.name} timed out in {engine.phase.value}"
        )
        for transport in transports.values():
            await _notify_abort(transport, exc)
        raise exc from None
    except ServiceError as exc:
        for transport in transports.values():
            await _notify_abort(transport, exc)
        raise
    keys = engine.derived_keys
    assert keys is not None  # established implies keys, by construction
    return keys


# ---------------------------------------------------------------------------
# Single-session drivers
# ---------------------------------------------------------------------------


async def run_follower(
    config: ServiceConfig,
    name: str,
    leader: str,
    transport: FrameTransport,
) -> DerivedKeys:
    """Run one follower session to completion; returns confirmed keys.

    Raises a typed :class:`ServiceError` on any failure, after sending
    an ABORT to the leader; no key material survives a raise.
    """
    engine = FollowerEngine(config, name, leader)
    try:
        async with asyncio.timeout(config.handshake_timeout):
            for frame in engine.start():
                await transport.send(frame)
            while not engine.established:
                for out in engine.on_frame(await _recv(transport)):
                    await transport.send(out)
    except TimeoutError:
        exc = SessionTimeout(f"follower {name} timed out in {engine.phase.value}")
        await _notify_abort(transport, exc)
        raise exc from None
    except ServiceError as exc:
        await _notify_abort(transport, exc)
        raise
    keys = engine.derived_keys
    assert keys is not None  # established implies keys, by construction
    return keys


async def run_leader(
    config: ServiceConfig,
    name: str,
    transports: Dict[str, FrameTransport],
    nonce: int = 0,
) -> DerivedKeys:
    """Run one leader session over per-follower transports.

    ``transports`` maps follower name -> its channel; the session spans
    all of them and establishes only when every follower confirmed.
    """
    engine = LeaderEngine(config, name, tuple(transports), nonce)
    queue: asyncio.Queue = asyncio.Queue()
    readers = [
        asyncio.create_task(_read_peer(peer, transport, queue))
        for peer, transport in transports.items()
    ]
    try:
        return await _lead(engine, transports, queue)
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)


# ---------------------------------------------------------------------------
# In-memory groups (the deterministic test backbone)
# ---------------------------------------------------------------------------


async def run_memory_group(
    config: ServiceConfig,
    leader: str = "alice",
    followers: Tuple[str, ...] = ("bob",),
    nonce: int = 0,
    fault_spec: Optional[FaultSpec] = None,
    fault_seed: int = 0,
) -> Dict[str, DerivedKeys]:
    """One full in-process session; returns every party's keys by name.

    ``fault_spec`` (if given) perturbs the leader->follower direction of
    each pair through :class:`FlakyTransport`, with a per-pair seed of
    ``fault_seed + index`` — fully reproducible chaos.  Any party's
    failure propagates (after the abort protocol ran), so callers see
    either a complete key map or a typed error — never a partial success.
    """
    leader_ends: Dict[str, FrameTransport] = {}
    follower_ends: Dict[str, FrameTransport] = {}
    for index, follower in enumerate(followers):
        a_end, b_end = MemoryTransport.pair()
        if fault_spec is not None:
            a_end = FlakyTransport(a_end, fault_spec, seed=fault_seed + index)
        leader_ends[follower] = a_end
        follower_ends[follower] = b_end
    try:
        results = await asyncio.gather(
            run_leader(config, leader, leader_ends, nonce),
            *(
                run_follower(config, name, leader, follower_ends[name])
                for name in followers
            ),
        )
    finally:
        for transport in (*leader_ends.values(), *follower_ends.values()):
            await transport.aclose()
    return {leader: results[0], **dict(zip(followers, results[1:]))}


@dataclass
class SessionOutcome:
    """One session's result for fault-injection sweeps and load runs."""

    ok: bool
    keys: Optional[Dict[str, DerivedKeys]]
    error_type: Optional[str]
    error: Optional[str]
    duration_s: float

    @property
    def keys_agree(self) -> bool:
        """True when established *and* every party holds identical material."""
        if not self.ok or not self.keys:
            return False
        materials = {k.material for k in self.keys.values()}
        return len(materials) == 1


async def run_memory_group_outcome(
    config: ServiceConfig,
    leader: str = "alice",
    followers: Tuple[str, ...] = ("bob",),
    nonce: int = 0,
    fault_spec: Optional[FaultSpec] = None,
    fault_seed: int = 0,
) -> SessionOutcome:
    """Like :func:`run_memory_group`, but capture failure instead of raising."""
    loop = asyncio.get_running_loop()
    started = loop.time()
    try:
        keys = await run_memory_group(
            config, leader, followers, nonce, fault_spec, fault_seed
        )
        # Key confirmation makes a mismatched-keys success structurally
        # impossible; verify anyway so a confirmation bug shows up as a
        # loud failure here instead of a silent agreement-rate lie.
        if len({k.material for k in keys.values()}) != 1:
            return SessionOutcome(
                ok=False,
                keys=None,
                error_type="KeyMismatch",
                error="established session holds non-identical key material",
                duration_s=loop.time() - started,
            )
        return SessionOutcome(
            ok=True,
            keys=keys,
            error_type=None,
            error=None,
            duration_s=loop.time() - started,
        )
    except ServiceError as exc:
        return SessionOutcome(
            ok=False,
            keys=None,
            error_type=type(exc).__name__,
            error=str(exc),
            duration_s=loop.time() - started,
        )


# ---------------------------------------------------------------------------
# TCP
# ---------------------------------------------------------------------------


class TcpLeader:
    """A leader listening on TCP for its followers, then running the session.

    Usage::

        leader = TcpLeader(config, "alice", ("bob", "carol"))
        port = await leader.start()        # followers connect to it
        keys = await leader.run()          # blocks until established
        await leader.aclose()

    Followers are identified by their HELLO frame; connections from
    names outside the follower set are refused with an ABORT.
    """

    def __init__(
        self,
        config: ServiceConfig,
        name: str,
        followers: Tuple[str, ...],
        host: str = "127.0.0.1",
        port: int = 0,
        nonce: int = 0,
    ) -> None:
        self.config = config
        self.name = name
        self.followers = tuple(followers)
        self.host = host
        self.port = port
        self.nonce = nonce
        self._server: Optional[asyncio.base_events.Server] = None
        self._transports: Dict[str, FrameTransport] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._conn_tasks: List[asyncio.Task] = []

    async def start(self) -> int:
        """Start listening; returns the bound port."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.append(task)
        transport = StreamFrameTransport(reader, writer, self.config.max_frame_bytes)
        # aclose cancels this task, and asyncio's done-callback on it
        # calls task.exception(), which raises on a cancelled task.
        with contextlib.suppress(asyncio.CancelledError):
            await self._serve(transport)

    async def _serve(self, transport: FrameTransport) -> None:
        """Identify a connection's follower by its HELLO, then queue its
        frames for the session loop; a refused connection gets an ABORT."""
        try:
            hello = await _recv(transport)
            if hello.type is not FrameType.HELLO:
                raise ProtocolViolation("connection must open with HELLO")
            peer = WireHello.unpack(hello).name
            if peer not in self.followers:
                raise ProtocolViolation(f"{peer!r} is not part of this session")
            if peer in self._transports:
                raise ProtocolViolation(f"duplicate connection for {peer!r}")
        except ServiceError as exc:
            await _notify_abort(transport, exc)
            await transport.aclose()
            return
        self._transports[peer] = transport
        await self._queue.put((peer, hello, None))
        await _read_peer(peer, transport, self._queue)

    async def run(self) -> DerivedKeys:
        """Run the session to establishment; returns the leader's keys."""
        engine = LeaderEngine(self.config, self.name, self.followers, self.nonce)
        return await _lead(engine, self._transports, self._queue)

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._conn_tasks:
            task.cancel()
        await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for transport in self._transports.values():
            await transport.aclose()


async def connect_follower_tcp(
    config: ServiceConfig,
    name: str,
    leader: str,
    host: str,
    port: int,
) -> DerivedKeys:
    """Connect to a :class:`TcpLeader` and run the follower session."""
    reader, writer = await asyncio.open_connection(host, port)
    transport = StreamFrameTransport(reader, writer, config.max_frame_bytes)
    try:
        return await run_follower(config, name, leader, transport)
    finally:
        await transport.aclose()


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


def nearest_rank_ms(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over an ascending sample list.

    An exact order statistic with the index clamped into ``[0, n-1]``:
    well defined for any ``n >= 1`` and any ``q`` in ``[0, 100]``.
    Interpolating percentiles (``np.percentile`` default) invent values
    between the two largest samples on small runs — a "p99" latency no
    session actually exhibited, which then jitters the bench trend gate.
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0
    idx = min(n - 1, max(0, math.ceil(q / 100.0 * n) - 1))
    return float(sorted_values[idx])


@dataclass
class LoadReport:
    """Throughput/latency summary of a concurrent-session load run.

    ``n_samples`` is the size of the latency population behind the
    percentiles (established sessions only) — always reported, so a
    reader can tell a p99 over 1000 samples from one over 3.
    """

    sessions: int
    established: int
    failed: int
    elapsed_s: float
    sessions_per_sec: float
    p50_ms: float
    p99_ms: float
    n_samples: int = 0
    failure_types: Dict[str, int] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {
            "sessions": self.sessions,
            "established": self.established,
            "failed": self.failed,
            "elapsed_s": self.elapsed_s,
            "sessions_per_sec": self.sessions_per_sec,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "n_samples": self.n_samples,
            "failure_types": dict(self.failure_types),
        }


async def run_load(
    config: ServiceConfig,
    n_sessions: int,
    concurrency: int = 64,
    fault_spec: Optional[FaultSpec] = None,
) -> LoadReport:
    """Run ``n_sessions`` concurrent in-process sessions; measure.

    Each session is an independent leader/follower pair distinguished by
    its nonce (distinct session ids, hence distinct derived keys) over a
    :class:`MemoryTransport` pair, at most ``concurrency`` in flight.
    Handshake latency is per-session wall time from spawn to confirmed
    keys.  This is an in-process load report; the live-service measure
    of record is perfbench's ``service_keys`` workload.
    """
    if n_sessions < 1:
        raise ValueError("need at least one session")
    gate = asyncio.Semaphore(concurrency)
    loop = asyncio.get_running_loop()

    async def one(nonce: int) -> SessionOutcome:
        async with gate:
            return await run_memory_group_outcome(
                config,
                leader="alice",
                followers=("bob",),
                nonce=nonce,
                fault_spec=fault_spec,
                fault_seed=nonce,
            )

    started = loop.time()
    outcomes = await asyncio.gather(*(one(n) for n in range(n_sessions)))
    elapsed = loop.time() - started

    latencies = sorted(o.duration_s * 1e3 for o in outcomes if o.ok)
    failure_types: Dict[str, int] = {}
    for outcome in outcomes:
        if not outcome.ok and outcome.error_type:
            failure_types[outcome.error_type] = (
                failure_types.get(outcome.error_type, 0) + 1
            )
    established = sum(1 for o in outcomes if o.ok)
    return LoadReport(
        sessions=n_sessions,
        established=established,
        failed=n_sessions - established,
        elapsed_s=elapsed,
        sessions_per_sec=established / elapsed if elapsed > 0 else 0.0,
        p50_ms=nearest_rank_ms(latencies, 50),
        p99_ms=nearest_rank_ms(latencies, 99),
        n_samples=len(latencies),
        failure_types=failure_types,
        latencies_ms=list(latencies),
    )
