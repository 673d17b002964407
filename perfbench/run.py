#!/usr/bin/env python3
"""End-to-end benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2_testbed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, in
reference seconds (see ``hostclock.py``).  ``--trace 1`` runs a fixed
segment of the same work in up to ``TRACE_PAIRS`` alternating pairs,
untraced then traced, and reports the median over the pairs of the traced
segments' per-layer metrics and of the tracing overhead; the last
traced segment's spans are written to
``perfbench/out/trace-<workload>-seed<seed>.json``.  The last line of
standard output is the result object; the lines before it carry the
shard digest, abort counts by ``AbortCode``, the percentile and sample
count behind the tail and the wall-clock throughput.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Untraced/traced segment pairs of a traced run.  Every per-layer
#: metric is the median over the pairs, so one slow spell of the host
#: cannot make up the tracing overhead.
TRACE_PAIRS = 3

#: A traced run starts another pair only if, at the pace of the pairs
#: so far, it would end within this many seconds; on a slow host it
#: makes fewer pairs rather than run past its time limit.
TRACE_BUDGET_S = 100.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, traced, untraced, clock) -> dict:
    """Per-layer counts and self-time shares of the traced segment."""
    totals = tracer.totals()

    def reference_s(m):
        return clock.reference_s(m.started, m.started + m.elapsed_s)

    def calls(*names):
        return int(sum(totals[n][0] for n in names))

    def share(*names):
        """Self time as a percentage of the traced segment's wall time."""
        return 100.0 * sum(totals[n][1] for n in names) / traced.elapsed_s

    flow_hits, flow_plans = traced.flow_memo
    lp_hits, lp_solves = traced.lp_memo
    flow_solves = calls("coding.flow_solve")
    return {
        "coding.flow_solves": flow_solves,
        "coding.flow_solve_pct": share("coding.flow_solve"),
        "coding.solves_per_plan": _ratio(flow_solves, flow_plans),
        "coding.alloc_lp_calls": calls("coding.alloc_lp"),
        "coding.alloc_lp_pct": share("coding.alloc_lp"),
        "theory.flow_plans": flow_plans,
        "theory.flow_memo_hit_ratio": _ratio(flow_hits, flow_hits + flow_plans),
        "theory.flow_pct": share("theory.flow"),
        "theory.lp_solves": lp_solves,
        "theory.lp_memo_hit_ratio": _ratio(lp_hits, lp_hits + lp_solves),
        "theory.lp_pct": share("theory.lp"),
        "testbed.pertable_calls": calls("testbed.pertable"),
        "testbed.pertable_pct": share("testbed.pertable"),
        "sim.engine_pct": share("sim.engine"),
        "sim.stack_pct": share("sim.stack"),
        "sim.reception_calls": calls("sim.reception"),
        "sim.reception_pct": share("sim.reception"),
        "store.appends": calls("store.append"),
        "store.append_pct": share("store.append"),
        "store.batches": calls("store.append_batch"),
        "store.append_batch_pct": share("store.append_batch"),
        "store.records_read": calls("store.read"),
        "store.read_pct": share("store.read"),
        "store.bytes_written": traced.bytes_written,
        "analysis.summary_pct": share("analysis.summary"),
        "gf.rank_calls": calls("gf.rank"),
        "gf.rank_pct": share("gf.rank"),
        "gf.matmul_calls": calls("gf.matmul"),
        "gf.matmul_pct": share("gf.matmul"),
        "auth.mac_tags": calls("auth.mac_tag"),
        "auth.mac_verifies": calls("auth.mac_verify"),
        "auth.mac_pct": share("auth.mac_tag", "auth.mac_verify"),
        "core.leakage_calls": calls("core.leakage"),
        "core.leakage_pct": share("core.leakage"),
        "service.hkdf_expands": calls("service.hkdf"),
        "service.pair_pool_pct": share("service.pair_pool"),
        "service.derive_pct": share("service.derive"),
        "service.engine_pct": share("service.engine", "service.engine_start"),
        "service.frames": calls("service.engine"),
        # Session wall time outside the session's own spans: transport
        # hops, the event loop, and the other client's turn.
        "service.peer_wait_pct": 100.0 * _ratio(
            traced.session_s
            - sum(busy for key, busy in tracer.busy.items() if key.startswith("session ")),
            traced.session_s,
        ),
        "trace.outside_spans_pct": 100.0 * (1.0 - sum(tracer.busy.values()) / traced.elapsed_s),
        "trace.overhead_pct": 100.0 * (reference_s(traced) / reference_s(untraced) - 1.0),
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes=None, out_dir=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    started = time.perf_counter()
    import hostclock
    import tracing
    import workloads  # numpy, scipy and the whole program

    imported = time.perf_counter()
    clock = hostclock.HostClock()
    clock.probe()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = sizes or workloads.Sizes()
    out_dir = Path(out_dir or HERE / "out")
    workdir = out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir, clock)
        setup_times = []
        for _ in range(1 if args.trace else sizes.setup_repeats):
            t0 = time.perf_counter()
            workload.setup()
            t1 = time.perf_counter()
            clock.probe()
            setup_times.append(clock.reference_s(t0, t1))
        setup_s = clock.reference_s(started, imported) + statistics.median(setup_times)
        workload.warm_up()
        if args.trace:
            pairs = []
            traced_from = time.perf_counter()
            while len(pairs) < TRACE_PAIRS:
                spent = time.perf_counter() - traced_from
                if pairs and spent * (len(pairs) + 1) / len(pairs) > TRACE_BUDGET_S:
                    break
                untraced = workload.measure()
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    traced = workload.measure()
                pairs.append((tracer, traced, untraced))
            print(f"{args.workload} seed={args.seed}: {len(pairs)} untraced/traced pair(s)")
            runs = [m for _, traced, untraced in pairs for m in (untraced, traced)]
            if len({tuple(m.digests) for m in runs}) > 1:
                traced.fail(1, "tracing changed the stored shard bytes")
            per_pair = [layer_metrics(*pair, clock) for pair in pairs]
            values = {
                name: statistics.median(v[name] for v in per_pair) for name in per_pair[0]
            }
            tracer.write(
                str(out_dir / f"trace-{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed, "layers": values},
            )
        else:
            measured = workload.measure(seconds=args.seconds)
            rate, latencies = workload.end_to_end(measured)
            tail_q = workload.tail_q(len(latencies))
            values = {
                "rounds_per_s": rate,
                "round_p50_ms": statistics.median(latencies),
                "round_tail_ms": workloads.nearest_rank(latencies, tail_q),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            runs = (measured,)
            print(
                f"{args.workload} seed={args.seed}: {measured.attempted} attempted in "
                f"{measured.elapsed_s:.1f} s, {len(measured.rest_s)} pass(es); "
                f"tail = p{tail_q:.4g} of {len(latencies)} items; "
                f"wall clock {measured.rounds / measured.elapsed_s:.1f} rounds/s; "
                f"probe median {1e3 * statistics.median(clock.durations):.2f} ms "
                f"(reference {1e3 * hostclock.NOMINAL_PROBE_S:.2f} ms)"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for digest in sorted({d for r in runs for d in r.digests}):
        print(f"shard digest: {digest}")
    for problem in [p for r in runs for p in r.problems][:20]:
        print(f"check failed: {problem}")
    aborts = sum((r.aborts for r in runs), Counter())
    print(
        f"failed_frac: {failed / attempted:.6f} ({failed}/{attempted}); "
        f"aborts by AbortCode: {dict(aborts)}; "
        f"sessions with disagreeing keys: {sum(r.disagreed for r in runs)}"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
