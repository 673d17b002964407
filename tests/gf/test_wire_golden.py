"""Golden fixture: the wire transcript of seeded live sessions.

Every frame a live session puts on the wire is a pure function of the
GF(256) kernels: the one-time-MAC tags, the y/phase-2 descriptors and
the z-contents (Cauchy combinations of the round's payloads).  The
kernels are exact table arithmetic, so any rewrite of them must leave
these bytes untouched.  This module pins, for 24 seeded 2-3-party
:class:`~repro.service.transport.MemoryTransport` sessions with
N in {24, 48, 96}:

* the sha256 over every frame's type and body bytes, per directed link
  and in send order;
* each party's per-round leakage tuples
  ``(secret_dims, hidden_dims, eve_missed)``.

Only wire bytes are hashed; they are public by construction.  Key
material is never stored or hashed.

The digests in ``golden/wire_transcript.json`` were recorded before
the table-driven field kernels replaced the log/antilog ones.  They
must never be regenerated to make a kernel change pass; run this file
as a script (``PYTHONPATH=src python tests/gf/test_wire_golden.py``)
only to print what the current code produces.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.service import peer
from repro.service.config import ServiceConfig
from repro.service.transport import FrameTransport, MemoryTransport

pytestmark = pytest.mark.gf

GOLDEN = Path(__file__).with_name("golden") / "wire_transcript.json"

#: Seed and size of the session generator the fixture was built from.
SESSION_SEED = 2012
SESSION_COUNT = 24

NAMES = ("ana", "ben", "cai", "dee", "eli")


class RecordingTransport(FrameTransport):
    """Wraps one endpoint and hashes every frame it sends, in order."""

    def __init__(self, inner: FrameTransport) -> None:
        self.inner = inner
        self.digest = hashlib.sha256()
        self.frames = 0

    async def send(self, frame) -> None:
        self.digest.update(int(frame.type).to_bytes(1, "big"))
        self.digest.update(len(frame.body).to_bytes(4, "big"))
        self.digest.update(frame.body)
        self.frames += 1
        await self.inner.send(frame)

    async def recv(self):
        return await self.inner.recv()

    async def aclose(self) -> None:
        await self.inner.aclose()


def session_specs(seed: int = SESSION_SEED, count: int = SESSION_COUNT) -> list:
    """Seeded ``(config, leader, followers)`` triples: 2-3 parties,
    N cycling through 24/48/96, one or two rounds, and a secrecy slack
    now and then.

    Two-party sessions draw the fraction or the oracle estimator;
    three-party sessions use the fraction estimator, whose allocations
    never trim rows.  Oracle-estimated allocations with two or more
    followers can trim a block.  Which Cauchy rows a trimmed block
    carries is a wire contract of its own (followers rebuild the matrix
    from the descriptor), so trimming is pinned by the allocation tests
    in ``tests/coding/test_privacy.py`` and the four-party sessions in
    ``tests/service/test_four_party.py``, not by this fixture.
    """
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        size = int(rng.integers(2, 4))
        names = [NAMES[j] for j in rng.choice(len(NAMES), size=size, replace=False)]
        config = ServiceConfig(
            n_x_packets=(24, 48, 96)[i % 3],
            payload_bytes=int(rng.choice((8, 32, 100))),
            n_rounds=int(rng.integers(1, 3)),
            secrecy_slack=int(rng.random() < 0.25),
            estimator_kind="oracle" if size == 2 and rng.random() < 0.6 else "fraction",
            loss_prob=round(float(rng.uniform(0.2, 0.4)), 3),
            loss_seed=int(rng.integers(2**31)),
            payload_seed=int(rng.integers(2**31)),
        )
        specs.append((config, names[0], tuple(names[1:])))
    return specs


async def _run_recorded(config, leader, followers, engines) -> dict:
    """One session over recording memory pairs; returns its transcript."""
    leader_ends = {}
    follower_ends = {}
    for name in followers:
        a_end, b_end = MemoryTransport.pair()
        leader_ends[name] = RecordingTransport(a_end)
        follower_ends[name] = RecordingTransport(b_end)
    try:
        await asyncio.gather(
            peer.run_leader(config, leader, leader_ends),
            *(peer.run_follower(config, n, leader, follower_ends[n]) for n in followers),
        )
    finally:
        for transport in (*leader_ends.values(), *follower_ends.values()):
            await transport.aclose()
    links = {}
    for name in followers:
        links[f"{leader}->{name}"] = leader_ends[name].digest.hexdigest()
        links[f"{name}->{leader}"] = follower_ends[name].digest.hexdigest()
    leakage = {
        engine.name: [
            [r.secret_dims, r.hidden_dims, r.eve_missed] for r in engine._leakage
        ]
        for engine in engines
    }
    return {"links": links, "leakage": leakage}


def transcripts() -> list:
    """The recorded transcript of every seeded session, in order."""
    engines: list = []

    class Leader(peer.LeaderEngine):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            engines.append(self)

    class Follower(peer.FollowerEngine):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            engines.append(self)

    saved = (peer.LeaderEngine, peer.FollowerEngine)
    peer.LeaderEngine, peer.FollowerEngine = Leader, Follower
    try:
        out = []
        for config, leader, followers in session_specs():
            engines.clear()
            out.append(asyncio.run(_run_recorded(config, leader, followers, engines)))
        return out
    finally:
        peer.LeaderEngine, peer.FollowerEngine = saved


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_generator_covers_the_edge_cases():
    specs = session_specs()
    assert len(specs) == SESSION_COUNT
    assert {c.n_x_packets for c, _, _ in specs} == {24, 48, 96}
    assert {1 + len(f) for _, _, f in specs} == {2, 3}
    assert {c.estimator_kind for c, _, _ in specs} == {"fraction", "oracle"}
    assert all(c.estimator_kind == "fraction" for c, _, f in specs if len(f) > 1)
    assert {c.n_rounds for c, _, _ in specs} == {1, 2}
    assert {c.secrecy_slack for c, _, _ in specs} == {0, 1}


def test_wire_transcript_unchanged(golden):
    assert golden["session_seed"] == SESSION_SEED
    got = transcripts()
    assert len(got) == len(golden["sessions"])
    for i, (want, have) in enumerate(zip(golden["sessions"], got)):
        assert have == want, f"session {i} forked from the golden transcript"


if __name__ == "__main__":  # print what the current code produces
    doc = {
        "session_seed": SESSION_SEED,
        "session_count": SESSION_COUNT,
        "sessions": transcripts(),
    }
    json.dump(doc, sys.stdout, indent=1)
    print()
