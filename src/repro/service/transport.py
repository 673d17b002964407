"""Frame transports: real sockets, in-memory pairs, and fault injection.

Three implementations of one tiny interface (:class:`FrameTransport`):

* :class:`StreamFrameTransport` — asyncio ``StreamReader``/``Writer``
  (TCP, unix sockets) through the length-prefixed codec.
* :class:`MemoryTransport` — a connected in-process pair over asyncio
  queues; no sockets, no ports, runs thousands per event loop.  The
  deterministic backbone of the network-test harness.
* :class:`FlakyTransport` — a wrapper injecting seeded per-frame faults
  (drop / duplicate / reorder / delay) on the send side, in the same
  spirit as the store layer's fault-injection suite: every network
  behaviour a test wants is reproducible from a seed.

Sessions built on these fail closed by construction: data-plane frames
(X_PACKET) tolerate loss — that *is* the protocol's channel model —
while control-plane faults surface as MAC-sequence failures or
timeouts, never as mismatched keys.
"""

from __future__ import annotations

import abc
import asyncio
import random
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from repro.service.errors import TransportClosed
from repro.service.frames import (
    MAX_FRAME_BYTES,
    Frame,
    FrameDecoder,
    FrameType,
    encode_frame,
)

__all__ = [
    "FrameTransport",
    "StreamFrameTransport",
    "MemoryTransport",
    "FaultSpec",
    "FlakyTransport",
]


class FrameTransport(abc.ABC):
    """A bidirectional, ordered, frame-oriented channel endpoint."""

    @abc.abstractmethod
    async def send(self, frame: Frame) -> None:
        """Transmit one frame (raises :class:`TransportClosed` if dead)."""

    @abc.abstractmethod
    async def recv(self) -> Frame:
        """Await the next frame (raises :class:`TransportClosed` on EOF)."""

    @abc.abstractmethod
    async def aclose(self) -> None:
        """Close the endpoint; idempotent."""


class StreamFrameTransport(FrameTransport):
    """Frames over an asyncio stream (TCP / unix socket).

    A socket error on either side (a reset connection, a broken pipe)
    raises :class:`TransportClosed`, with the ``OSError`` chained as
    its cause, like a clean end of stream.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder(max_frame_bytes)
        self._max_frame_bytes = max_frame_bytes
        self._pending: List[Frame] = []
        self._closed = False

    async def send(self, frame: Frame) -> None:
        if self._closed:
            raise TransportClosed("send on a closed stream transport")
        try:
            self._writer.write(encode_frame(frame, self._max_frame_bytes))
            await self._writer.drain()
        except OSError as exc:
            raise TransportClosed(f"stream send failed: {exc!r}") from exc

    async def recv(self) -> Frame:
        while not self._pending:
            if self._closed:
                raise TransportClosed("recv on a closed stream transport")
            try:
                chunk = await self._reader.read(65536)
            except OSError as exc:
                raise TransportClosed(f"stream recv failed: {exc!r}") from exc
            if not chunk:
                self._decoder.eof()  # raises FrameTruncated on torn frame
                raise TransportClosed("peer closed the stream")
            self._pending.extend(self._decoder.feed(chunk))
        return self._pending.pop(0)

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass


class MemoryTransport(FrameTransport):
    """One endpoint of an in-process connected pair.

    Frames pass as objects (the codec has its own exhaustive tests);
    ordering is FIFO per direction, like a TCP stream.  ``close`` wakes
    the peer's pending ``recv`` with :class:`TransportClosed`.
    """

    _CLOSE = object()

    def __init__(self, inbox: asyncio.Queue, outbox: asyncio.Queue) -> None:
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False
        self._peer_closed = False

    @classmethod
    def pair(cls) -> Tuple["MemoryTransport", "MemoryTransport"]:
        """A connected (a, b) endpoint pair."""
        ab: asyncio.Queue = asyncio.Queue()
        ba: asyncio.Queue = asyncio.Queue()
        return cls(inbox=ba, outbox=ab), cls(inbox=ab, outbox=ba)

    async def send(self, frame: Frame) -> None:
        if self._closed:
            raise TransportClosed("send on a closed memory transport")
        await self._outbox.put(frame)

    async def recv(self) -> Frame:
        if self._closed or self._peer_closed:
            raise TransportClosed("recv on a closed memory transport")
        item = await self._inbox.get()
        if item is MemoryTransport._CLOSE:
            self._peer_closed = True
            raise TransportClosed("peer closed the memory transport")
        return item

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        await self._outbox.put(MemoryTransport._CLOSE)


@dataclass(frozen=True)
class FaultSpec:
    """Seeded per-frame fault probabilities for :class:`FlakyTransport`.

    Attributes:
        drop: probability a frame silently vanishes.
        duplicate: probability a frame is delivered twice.
        reorder: probability a frame is held back and delivered after
            the next frame (adjacent swap — repeated swaps compose into
            arbitrary bounded reordering).
        delay: probability a frame's delivery is delayed in wall time
            (ordering preserved; exercises timeout paths).
        delay_s: maximum injected delay in seconds.
        kinds: frame types the faults apply to, or None for all frames.
            Restricting to ``{FrameType.X_PACKET}`` models a lossy data
            plane over a reliable control plane.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    delay_s: float = 0.0
    kinds: Optional[FrozenSet[int]] = None

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder", "delay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1]")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")

    @classmethod
    def data_plane(cls, drop: float, duplicate: float = 0.0, reorder: float = 0.0) -> "FaultSpec":
        """Faults confined to X_PACKET frames (the lossy broadcast)."""
        return cls(
            drop=drop,
            duplicate=duplicate,
            reorder=reorder,
            kinds=frozenset({FrameType.X_PACKET}),
        )


class FlakyTransport(FrameTransport):
    """Fault-injecting wrapper around any :class:`FrameTransport`.

    Faults are decided by a private ``random.Random(seed)`` stream in
    send order, so a given (seed, frame sequence) always produces the
    identical fault pattern — CI-runnable network chaos.  Faults apply
    to the *send* side only; wrap both endpoints (with distinct seeds)
    to perturb both directions.
    """

    def __init__(self, inner: FrameTransport, spec: FaultSpec, seed: int = 0) -> None:
        self._inner = inner
        self._spec = spec
        self._rng = random.Random(seed)
        self._held: List[Frame] = []
        #: Counters by fate, for test assertions and load-report stats.
        self.injected = {"drop": 0, "duplicate": 0, "reorder": 0, "delay": 0}

    def _applies(self, frame: Frame) -> bool:
        return self._spec.kinds is None or frame.type in self._spec.kinds

    async def _flush_held(self) -> None:
        while self._held:
            await self._inner.send(self._held.pop(0))

    async def send(self, frame: Frame) -> None:
        if not self._applies(frame):
            await self._inner.send(frame)
            await self._flush_held()
            return
        spec = self._spec
        roll = self._rng.random()
        if roll < spec.drop:
            self.injected["drop"] += 1
            return
        roll -= spec.drop
        if roll < spec.duplicate:
            self.injected["duplicate"] += 1
            await self._inner.send(frame)
            await self._inner.send(frame)
            await self._flush_held()
            return
        roll -= spec.duplicate
        if roll < spec.reorder:
            self.injected["reorder"] += 1
            self._held.append(frame)
            return
        roll -= spec.reorder
        if roll < spec.delay and spec.delay_s > 0:
            self.injected["delay"] += 1
            await asyncio.sleep(self._rng.random() * spec.delay_s)
        await self._inner.send(frame)
        await self._flush_held()

    async def recv(self) -> Frame:
        return await self._inner.recv()

    async def aclose(self) -> None:
        # Held frames die with the connection: a reorder at stream end
        # becomes a tail drop, which sessions already tolerate/abort on.
        self._held.clear()
        await self._inner.aclose()
