"""The benchmark's three workloads, driven through public entry points.

* ``fig2_testbed`` — the Figure-2 reference campaign of
  ``scripts/run_reference_campaign.py --engine batched``, trimmed to a
  few sampled placements per n: both estimator variants, every
  experiment appended to a fresh ``file:`` store, then the streamed
  per-n summaries (:func:`repro.analysis.run_campaign`).
* ``sim_grid`` — a :class:`repro.sim.CampaignRunner` grid through the
  stacked kernels, one runner call per stack signature, each flushed
  with ``append_batch`` into a fresh ``file:`` store.
* ``service_keys`` — a closed loop of two clients, each running
  key-agreement sessions back to back over ``MemoryTransport``
  (:func:`repro.service.peer.run_memory_group_outcome`).

Every input comes from the seed.  Every pass of a campaign repeats the
same seeded work with the memo caches cleared, as a fresh campaign
process would, so its stored shard bytes must repeat exactly.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import re
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import SessionConfig, Testbed, TestbedConfig
from repro.analysis import (
    CampaignConfig,
    campaign_work_items,
    experiment_store_key,
    placement_label,
    run_campaign,
    summarize_reliability,
)
from repro.service.config import ServiceConfig
from repro.service.errors import ABORT_CODE_OF, AbortCode
from repro.service.peer import run_memory_group_outcome
from repro.service.reference import reference_keys
from repro.sim import (
    CampaignRunner,
    CombinedEstimatorSpec,
    FixedFractionEstimatorSpec,
    GilbertElliottLossSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    ScenarioGrid,
    group_cells,
)
from repro.store import aggregate, open_store
from repro.testbed.estimator import calibrate_min_jam_loss
from repro.theory import (
    clear_efficiency_cache,
    clear_realised_flow_cache,
    efficiency_cache_info,
    realised_flow_cache_info,
)

from hostclock import HostClock
from tracing import CURRENT_KEY


@dataclass(frozen=True)
class Sizes:
    """How much work one run does (the smoke test shrinks these)."""

    setup_repeats: int = 3
    calibration_trials: int = 250
    min_passes: int = 2
    fig2_placements_per_n: int = 6
    fig2_group_sizes: tuple = (3, 4, 5, 6, 7, 8)
    grid_group_sizes: tuple = (3, 4, 5, 6)
    grid_rounds: int = 100
    service_pool: int = 4096
    service_min_sessions: int = 1000  # established, so p99 has 10 beyond it
    service_reference_checks: int = 6
    service_trace_sessions: int = 300
    service_warmup_sessions: int = 24
    service_window: int = 100


@dataclass
class Measurement:
    """What one measured segment did, and what its output checks found."""

    rounds: int = 0
    started: float = 0.0  # perf_counter reading
    elapsed_s: float = 0.0  # wall clock
    # Campaigns, in reference seconds: each item's time in every pass,
    # and each pass's time in its summaries.
    item_s: List[List[float]] = field(default_factory=list)
    item_rounds: List[int] = field(default_factory=list)
    rest_s: List[float] = field(default_factory=list)
    # Sessions: (start, end) perf_counter readings of established ones.
    sessions: List[Tuple[float, float]] = field(default_factory=list)
    session_s: float = 0.0  # summed wall time of every session
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    bytes_written: int = 0
    flow_memo: List[int] = field(default_factory=lambda: [0, 0])  # hits, misses
    lp_memo: List[int] = field(default_factory=lambda: [0, 0])
    aborts: Counter = field(default_factory=Counter)  # AbortCode name -> sessions
    disagreed: int = 0  # established sessions whose parties' keys differ

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def _reset_memos() -> None:
    clear_realised_flow_cache()
    clear_efficiency_cache()


def _shard_digest(root: Path) -> Tuple[str, int]:
    """sha256 over every shard's name and bytes, and the bytes stored."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(root.glob("*.jsonl")):
        data = path.read_bytes()
        total += len(data)
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), total


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-9)


def _summaries_agree(streamed: Dict, reliabilities: Dict, efficiencies: Dict) -> bool:
    """Streamed store aggregates against the in-memory populations."""
    if set(streamed) != set(efficiencies):
        return False
    for n, agg in streamed.items():
        if agg.efficiency.total != len(efficiencies[n]) or not _same(
            agg.efficiency.mean, statistics.fmean(efficiencies[n])
        ):
            return False
        if not reliabilities[n]:
            if agg.reliability:
                return False
            continue
        got = agg.reliability_summary()
        want = summarize_reliability(n, reliabilities[n])
        if (got.n_experiments, got.minimum, got.p95, got.median) != (
            want.n_experiments, want.minimum, want.p95, want.median
        ) or not _same(got.mean, want.mean):
            return False
    return True


def _reliability_ok(reliability: float) -> bool:
    return math.isnan(reliability) or 0.0 <= reliability <= 1.0


def _entropy_ok(min_entropy_bits: float, secret_bits: float) -> bool:
    return min_entropy_bits <= secret_bits * (1 + 1e-12)


class _Campaign:
    """A campaign workload: the same seeded pass, repeated."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, clock: HostClock) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.clock = clock
        self._stores = 0

    def warm_up(self) -> None:
        self._pass(Measurement(), warm_up=True)

    def measure(self, seconds: Optional[float] = None) -> Measurement:
        """Repeat the pass for ``seconds`` and at least ``min_passes``
        times; without ``seconds``, run it once."""
        m = Measurement()
        start = m.started = time.perf_counter()
        passes = 0
        while passes < (1 if seconds is None else self.sizes.min_passes) or (
            seconds is not None and time.perf_counter() - start < seconds
        ):
            self._pass(m)
            passes += 1
        m.elapsed_s = time.perf_counter() - start
        if not m.rest_s:
            raise RuntimeError(f"every {self.name} pass crashed")
        if len(set(m.digests)) > 1:
            m.fail(1, f"stored shard bytes differ between passes: {sorted(set(m.digests))}")
        return m

    def end_to_end(self, m: Measurement) -> Tuple[float, List[float]]:
        """Rounds per second of one pass, and each item's time per round
        in ms.

        Every pass repeats the same work, so each item is timed by its
        median over the passes, in reference seconds (see hostclock).
        """
        medians = [statistics.median(times) for times in m.item_s]
        pass_s = sum(medians) + statistics.median(m.rest_s)
        per_round = [1e3 * t / r for t, r in zip(medians, m.item_rounds)]
        return m.rounds / len(m.rest_s) / pass_s, per_round

    @staticmethod
    def tail_q(n: int) -> float:
        """p90: a pass runs few items (72 experiments, 12 signatures)."""
        return 90.0

    def _pass(self, m: Measurement, warm_up: bool = False) -> None:
        _reset_memos()
        self._stores += 1
        root = self.workdir / f"store-{self._stores}"
        store = open_store(f"file:{root}")
        try:
            item_rounds, item_spans, other_spans, check = self._run(store, warm_up)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            m.attempted += self.items_per_pass
            m.fail(self.items_per_pass, "a pass crashed")
            return
        finally:
            CURRENT_KEY.set("-")
        flow, lp = realised_flow_cache_info(), efficiency_cache_info()
        digest, nbytes = _shard_digest(root)
        shutil.rmtree(root, ignore_errors=True)
        if warm_up:
            return
        m.rounds += sum(item_rounds)
        m.item_rounds = item_rounds
        if not m.item_s:
            m.item_s = [[] for _ in item_spans]
        for times, span in zip(m.item_s, item_spans):
            times.append(self.clock.reference_s(*span))
        m.rest_s.append(sum(self.clock.reference_s(*span) for span in other_spans))
        m.digests.append(digest)
        m.bytes_written += nbytes
        m.flow_memo[0] += flow.hits
        m.flow_memo[1] += flow.misses
        m.lp_memo[0] += lp.hits
        m.lp_memo[1] += lp.misses
        check(m)


class Fig2Testbed(_Campaign):
    """Trimmed Figure-2 reference campaign on the testbed path."""

    name = "fig2_testbed"
    rounds_per_leader = 8

    def setup(self) -> None:
        self.testbed = Testbed(TestbedConfig(interferer_power_dbm=10.0))
        pmin = calibrate_min_jam_loss(
            self.testbed,
            np.random.default_rng(self.seed),
            trials=self.sizes.calibration_trials,
        )
        session = SessionConfig(
            n_x_packets=270, payload_bytes=100, secrecy_slack=1, z_cost_factor=2.5
        )
        self.config, self.warm_config = (
            CampaignConfig(
                session=session,
                seed=seed,
                max_placements_per_n=per_n,
                group_sizes=self.sizes.fig2_group_sizes,
            )
            for seed, per_n in (
                (self.seed, self.sizes.fig2_placements_per_n),
                (self.seed + 1, 1),
            )
        )
        self.variants = (
            (
                "combined",
                CombinedEstimatorSpec(
                    children=(
                        FixedFractionEstimatorSpec(fraction=pmin),
                        LeaveOneOutEstimatorSpec(rate_margin=0.02),
                    )
                ),
            ),
            ("loo", LeaveOneOutEstimatorSpec(rate_margin=0.05)),
        )
        self.items_per_pass = len(campaign_work_items(self.config)) * len(self.variants)

    def _run(self, store, warm_up: bool):
        config = self.warm_config if warm_up else self.config
        spans: List[Tuple[float, float]] = []  # one per experiment
        other: List[Tuple[float, float]] = []  # the summaries
        outputs = []
        for label, spec in self.variants:
            mark: List[float] = []

            def progress(n, placement, label=label, mark=mark) -> None:
                if mark:
                    spans.append((mark[0], time.perf_counter()))
                self.clock.probe()
                CURRENT_KEY.set(f"{label} {placement_label(placement)}")
                mark[:] = [time.perf_counter()]

            result = run_campaign(
                self.testbed,
                config=config,
                engine="batched",
                estimator_spec=spec,
                store=store,
                resume=False,
                rounds_per_leader=self.rounds_per_leader,
                progress=progress,
            )
            if mark:
                spans.append((mark[0], time.perf_counter()))
            self.clock.probe()
            CURRENT_KEY.set(f"{label} summary")
            started = time.perf_counter()
            keys = [
                experiment_store_key(
                    self.testbed, config, "batched", spec, r.placement,
                    self.rounds_per_leader,
                )
                for r in result.records
            ]
            outputs.append((label, result, aggregate.stream_aggregates(store, keys)))
            other.append((started, time.perf_counter()))
            self.clock.probe()
        rounds = [
            r.n_terminals * self.rounds_per_leader
            for _, result, _ in outputs
            for r in result.records
        ]

        def check(m: Measurement) -> None:
            for label, result, streamed in outputs:
                m.attempted += len(result.records)
                bad = sum(
                    not _reliability_ok(r.reliability)
                    or not _entropy_ok(r.min_entropy_bits, r.secret_bits)
                    for r in result.records
                )
                if bad:
                    m.fail(bad, f"{label}: {bad} record(s) out of range")
                sizes = result.group_sizes()
                if not _summaries_agree(
                    streamed,
                    {n: result.reliabilities(n) for n in sizes},
                    {n: result.efficiencies(n) for n in sizes},
                ):
                    m.fail(1, f"{label}: streamed summaries differ from memory")

        return rounds, spans, other, check


class SimGrid(_Campaign):
    """A stacked-kernel scenario grid, one runner call per signature."""

    name = "sim_grid"

    def setup(self) -> None:
        estimators = (
            OracleEstimatorSpec(),
            FixedFractionEstimatorSpec(fraction=0.25),
            LeaveOneOutEstimatorSpec(rate_margin=0.05),
            CombinedEstimatorSpec(
                children=(
                    FixedFractionEstimatorSpec(fraction=0.3),
                    LeaveOneOutEstimatorSpec(rate_margin=0.02),
                )
            ),
        )
        self.slices, self.warm_slices = (
            self._slices(
                ScenarioGrid(
                    group_sizes=self.sizes.grid_group_sizes,
                    loss_models=(
                        IIDLossSpec(0.3),
                        IIDLossSpec(0.5),
                        GilbertElliottLossSpec(p_g2b=0.1, p_b2g=0.3),
                    ),
                    estimators=estimators,
                    rounds=rounds,
                    n_x_packets=90,
                    z_cost_factor=2.5,
                    secrecy_slack=1,
                )
            )
            for rounds in (self.sizes.grid_rounds, 4)
        )
        self.items_per_pass = sum(len(cells) for _, cells in self.slices)

    @staticmethod
    def _slices(grid: ScenarioGrid) -> List[Tuple[str, list]]:
        cells = grid.scenarios()
        out = []
        for indices in group_cells(cells):
            first = cells[indices[0]]
            out.append(
                (f"n={first.n_terminals} {first.loss!r}", [cells[i] for i in indices])
            )
        return out

    def _run(self, store, warm_up: bool):
        runner = CampaignRunner(seed=self.seed, store=store, resume=False)
        spans: List[Tuple[float, float]] = []
        rounds: List[int] = []
        outcomes = []
        self.clock.probe()
        for label, cells in self.warm_slices if warm_up else self.slices:
            CURRENT_KEY.set(label)
            started = time.perf_counter()
            outcomes.extend(runner.run(cells).outcomes)
            spans.append((started, time.perf_counter()))
            rounds.append(sum(cell.rounds for cell in cells))
            self.clock.probe()
        CURRENT_KEY.set("summary")
        started = time.perf_counter()
        streamed = aggregate.stream_aggregates(store)
        other = [(started, time.perf_counter())]
        self.clock.probe()

        def check(m: Measurement) -> None:
            m.attempted += len(outcomes)
            bad = sum(
                not all(map(_reliability_ok, o.result.reliabilities()))
                or not _entropy_ok(o.result.total_min_entropy_bits, o.result.secret_bits)
                for o in outcomes
            )
            if bad:
                m.fail(bad, f"{bad} cell(s) out of range")
            reliabilities: Dict[int, list] = {}
            efficiencies: Dict[int, list] = {}
            for o in outcomes:
                reliabilities.setdefault(o.n_terminals, []).extend(
                    r for r in o.result.reliabilities() if not math.isnan(r)
                )
                efficiencies.setdefault(o.n_terminals, []).extend(
                    o.result.efficiencies()
                )
            if not _summaries_agree(streamed, reliabilities, efficiencies):
                m.fail(1, "streamed summaries differ from memory")

        return rounds, spans, other, check


@dataclass(frozen=True)
class SessionSpec:
    config: ServiceConfig
    leader: str
    followers: Tuple[str, ...]


#: Exception class name -> AbortCode name, for locally raised failures.
_ABORT_BY_TYPE = {cls.__name__: code.name for cls, code in ABORT_CODE_OF.items()}
_PEER_ABORT = re.compile(r"peer aborted \((\w+)\)")

#: How often the closed loop probes the host's speed (see hostclock).
PROBE_EVERY_S = 0.2


def abort_code(error_type: Optional[str], error: Optional[str]) -> str:
    """The AbortCode name a failed session ended with."""
    match = _PEER_ABORT.match(error or "")
    if match:
        return match.group(1)
    return _ABORT_BY_TYPE.get(error_type or "", AbortCode.INTERNAL.name)


def keys_agree(spec: SessionSpec, keys: Optional[Dict]) -> bool:
    """Every party of the group holds a key, and all hold the same one."""
    return (
        keys is not None
        and set(keys) == {spec.leader, *spec.followers}
        and len({k.material for k in keys.values()}) == 1
    )


class ServiceKeys:
    """Closed-loop key agreement: two clients, sessions back to back."""

    name = "service_keys"
    clients = 2
    population = tuple(f"node-{i:02d}" for i in range(12))

    @staticmethod
    def tail_q(n: int) -> float:
        """p99 from 1,000 sessions on; below that, the highest
        percentile that still has 10 sessions beyond it."""
        return 99.0 if n >= 1000 else max(0.0, 100.0 * (n - 10) / n)

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, clock: HostClock) -> None:
        self.seed = seed
        self.sizes = sizes
        self.clock = clock

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        sessions = []
        for _ in range(self.sizes.service_pool):
            # Groups of 2-3: four-party groups at N >= 48 fail key
            # confirmation in roughly one session in six (see README).
            names = rng.choice(len(self.population), size=int(rng.integers(2, 4)), replace=False)
            config = ServiceConfig(
                n_x_packets=int(rng.choice((24, 48, 96))),
                loss_prob=round(float(rng.uniform(0.2, 0.4)), 3),
                loss_seed=int(rng.integers(2**31)),
                payload_seed=int(rng.integers(2**31)),
            )
            sessions.append(
                SessionSpec(
                    config,
                    self.population[names[0]],
                    tuple(self.population[j] for j in names[1:]),
                )
            )
        self.sessions = sessions
        self.reference_sample = frozenset(
            int(i)
            for i in rng.choice(
                self.sizes.service_min_sessions,
                size=self.sizes.service_reference_checks,
                replace=False,
            )
        )

    def warm_up(self) -> None:
        asyncio.run(
            self._closed_loop(
                Measurement(),
                lambda i: i >= self.sizes.service_warmup_sessions,
                nonce_base=1 << 40,
            )
        )

    def measure(self, seconds: Optional[float] = None) -> Measurement:
        """Sessions for ``seconds`` and at least ``service_min_sessions``,
        or exactly the first ``service_trace_sessions`` of the mix."""
        sizes = self.sizes
        m = Measurement()
        if seconds is None:
            def done(i):
                return i >= sizes.service_trace_sessions
        else:
            def done(i):
                return (
                    i >= sizes.service_min_sessions
                    and time.perf_counter() - m.started >= seconds
                )
        kept: Dict[int, dict] = {}
        asyncio.run(self._closed_loop(m, done, nonce_base=0, kept=kept))
        for i, keys in sorted(kept.items()):
            spec = self.sessions[i % len(self.sessions)]
            want = reference_keys(spec.config, spec.leader, spec.followers, nonce=i)
            if any(k.material != want.material for k in keys.values()):
                m.fail(1, f"session {i}: keys differ from the reference run")
        return m

    async def _closed_loop(self, m: Measurement, done, nonce_base: int, kept=None) -> None:
        self.clock.probe()
        started = m.started = time.perf_counter()
        next_index = 0

        async def prober() -> None:
            while True:
                await asyncio.sleep(PROBE_EVERY_S)
                self.clock.probe()

        async def client() -> None:
            nonlocal next_index
            while not done(next_index):
                i = next_index
                next_index += 1
                spec = self.sessions[i % len(self.sessions)]
                CURRENT_KEY.set(f"session {nonce_base + i}")
                begun = time.perf_counter()
                m.attempted += 1
                try:
                    outcome = await run_memory_group_outcome(
                        spec.config, spec.leader, spec.followers, nonce=nonce_base + i
                    )
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    m.session_s += time.perf_counter() - begun
                    m.aborts[AbortCode.INTERNAL.name] += 1
                    m.fail(1, f"session {i} crashed")
                    continue
                m.session_s += outcome.duration_s
                if outcome.ok and keys_agree(spec, outcome.keys):
                    m.rounds += spec.config.n_rounds
                    m.sessions.append((begun, time.perf_counter()))
                    if kept is not None and i in self.reference_sample:
                        kept[i] = outcome.keys
                elif outcome.ok or outcome.error_type == "KeyMismatch":
                    m.disagreed += 1
                    m.fail(1, f"session {i}: keys disagree or miss a party")
                else:
                    code = abort_code(outcome.error_type, outcome.error)
                    m.aborts[code] += 1
                    m.fail(1, f"session {i} aborted: {code}")

        probing = asyncio.create_task(prober())
        await asyncio.gather(*(client() for _ in range(self.clients)))
        m.elapsed_s = time.perf_counter() - started
        probing.cancel()
        await asyncio.gather(probing, return_exceptions=True)
        self.clock.probe()

    def end_to_end(self, m: Measurement) -> Tuple[float, List[float]]:
        """Median session throughput over windows of consecutive
        sessions, and every established session's latency in ms, both
        in reference seconds (see hostclock).  Every session runs
        ``n_rounds = 1``, so sessions per second are rounds per second."""
        window = min(self.sizes.service_window, len(m.sessions))
        marks = [m.started] + sorted(end for _, end in m.sessions)[window - 1 :: window]
        rates = [window / self.clock.reference_s(a, b) for a, b in zip(marks, marks[1:])]
        return statistics.median(rates), [1e3 * self.clock.reference_s(*s) for s in m.sessions]


WORKLOADS = {w.name: w for w in (Fig2Testbed, SimGrid, ServiceKeys)}


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: a value some item actually took."""
    ordered = sorted(values)
    # The tolerance keeps float error in q * n from moving up one rank.
    rank = math.ceil(q / 100.0 * len(ordered) - 1e-9)
    index = min(len(ordered) - 1, max(0, rank - 1))
    return float(ordered[index])
