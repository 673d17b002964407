"""Socket failures end a live session with a typed error, promptly.

A reset connection or a broken pipe surfaces from asyncio streams as an
``OSError``.  :class:`StreamFrameTransport` folds it into
:class:`TransportClosed` (the ``OSError`` chained as its cause), so
:func:`run_follower` keeps its contract of a typed ``ServiceError``
after an ABORT, and a :class:`TcpLeader` whose follower dies mid-session
aborts at once instead of waiting out ``handshake_timeout``.  The
leader's per-follower reader is the one :func:`run_leader` uses: a
read that fails outside the taxonomy aborts the session with
:class:`ProtocolViolation`.

No pytest-asyncio in the environment: every test drives its event loop
with ``asyncio.run``.
"""

import asyncio
import socket
import struct

import pytest

from repro.service import (
    FollowerEngine,
    ProtocolViolation,
    ServiceConfig,
    TcpLeader,
    TransportClosed,
    run_follower,
)
from repro.service import peer
from repro.service.frames import FrameDecoder, FrameType, encode_frame
from repro.service.transport import StreamFrameTransport

FAST = ServiceConfig(n_x_packets=16, payload_bytes=8)

#: Long enough that "promptly" and "after the deadline" cannot be
#: confused on a loaded host.
DEADLINE = ServiceConfig(n_x_packets=16, payload_bytes=8, handshake_timeout=3.0)


class _Reader:
    """A stream reader whose every read fails with ``error``."""

    def __init__(self, error: OSError) -> None:
        self.error = error

    async def read(self, n: int) -> bytes:
        raise self.error


class _Writer:
    """A stream writer that records what it is given; ``drain`` raises
    ``error`` when one is set."""

    def __init__(self, error: OSError = None) -> None:
        self.error = error
        self.written = bytearray()

    def write(self, data: bytes) -> None:
        self.written += data

    async def drain(self) -> None:
        if self.error is not None:
            raise self.error

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def _frame_types(data: bytes) -> list:
    return [frame.type for frame in FrameDecoder().feed(bytes(data))]


class TestStreamFrameTransport:
    def test_a_reset_read_is_transport_closed(self):
        transport = StreamFrameTransport(
            _Reader(ConnectionResetError("reset by peer")), _Writer()
        )
        with pytest.raises(TransportClosed) as excinfo:
            asyncio.run(transport.recv())
        assert isinstance(excinfo.value.__cause__, ConnectionResetError)

    def test_a_broken_pipe_on_send_is_transport_closed(self):
        transport = StreamFrameTransport(
            _Reader(ConnectionResetError()), _Writer(BrokenPipeError("gone"))
        )
        (hello,) = FollowerEngine(FAST, "bob", "alice").start()
        with pytest.raises(TransportClosed) as excinfo:
            asyncio.run(transport.send(hello))
        assert isinstance(excinfo.value.__cause__, BrokenPipeError)


class TestFollowerOverFailingStreams:
    def test_a_reset_stream_aborts_with_transport_closed(self):
        writer = _Writer()
        transport = StreamFrameTransport(
            _Reader(ConnectionResetError("reset by peer")), writer
        )
        with pytest.raises(TransportClosed) as excinfo:
            asyncio.run(run_follower(FAST, "bob", "alice", transport))
        assert isinstance(excinfo.value.__cause__, ConnectionResetError)
        # The HELLO went out, and the ABORT followed it.
        assert _frame_types(writer.written) == [FrameType.HELLO, FrameType.ABORT]

    def test_a_broken_writer_raises_transport_closed(self):
        transport = StreamFrameTransport(
            _Reader(ConnectionResetError()), _Writer(BrokenPipeError("gone"))
        )
        with pytest.raises(TransportClosed) as excinfo:
            asyncio.run(run_follower(FAST, "bob", "alice", transport))
        assert isinstance(excinfo.value.__cause__, BrokenPipeError)


async def _hello_follower(port: int):
    """Connect as "bob", send a valid HELLO and wait for the leader's
    first bytes, so the leader has admitted the connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    (hello,) = FollowerEngine(DEADLINE, "bob", "alice").start()
    writer.write(encode_frame(hello))
    await writer.drain()
    first = await reader.read(65536)
    assert first
    return reader, writer, first


async def _lead_against(follower) -> tuple:
    """Run a one-follower TcpLeader against ``follower(port)``; return
    the leader's error, the seconds it took and what asyncio logged."""
    loop = asyncio.get_running_loop()
    logged: list = []
    loop.set_exception_handler(lambda _, context: logged.append(context))
    leader = TcpLeader(DEADLINE, "alice", ("bob",))
    port = await leader.start()
    started = loop.time()
    try:
        result, _ = await asyncio.gather(
            leader.run(), follower(port), return_exceptions=True
        )
        elapsed = loop.time() - started
    finally:
        await leader.aclose()
    return result, elapsed, logged


class TestTcpLeaderOnFailingFollowers:
    def test_a_reset_after_hello_is_transport_closed_within_the_deadline(self):
        async def reset_after_hello(port: int) -> None:
            _, writer, _ = await _hello_follower(port)
            sock = writer.get_extra_info("socket")
            # SO_LINGER 0: close with a RST instead of a FIN.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            writer.transport.abort()

        error, elapsed, logged = asyncio.run(_lead_against(reset_after_hello))
        assert isinstance(error, TransportClosed), repr(error)
        assert elapsed < DEADLINE.handshake_timeout / 3
        assert logged == []

    def test_a_failing_read_after_hello_aborts_with_protocol_violation(
        self, monkeypatch
    ):
        class FailsAfterHello(StreamFrameTransport):
            async def recv(self):
                if getattr(self, "_hello_read", False):
                    raise RuntimeError("injected read failure")
                self._hello_read = True
                return await super().recv()

        # Only the leader's side builds its transport through peer.
        monkeypatch.setattr(peer, "StreamFrameTransport", FailsAfterHello)
        types: list = []

        async def hello_then_listen(port: int) -> None:
            reader, writer, data = await _hello_follower(port)
            decoder = FrameDecoder()
            try:
                while data:
                    types.extend(frame.type for frame in decoder.feed(data))
                    if FrameType.ABORT in types:
                        break
                    data = await reader.read(65536)
            finally:
                writer.close()

        error, elapsed, _ = asyncio.run(_lead_against(hello_then_listen))
        assert isinstance(error, ProtocolViolation), repr(error)
        assert "reader failed" in str(error)
        assert elapsed < DEADLINE.handshake_timeout / 3
        # The follower was told: the leader's last frame is an ABORT.
        assert types[-1] is FrameType.ABORT
