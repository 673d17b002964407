#!/usr/bin/env python3
"""Compare two checkouts on perfbench in alternating parent/change pairs.

Usage::

    python scripts/perf_compare.py PARENT_DIR CHANGE_DIR --pairs 3 --seconds 10

Each checkout runs its own ``perfbench/run.py --trace 0`` on every
workload of the change's ``BENCHMARK.json``, which gives the bounds.
Prints a markdown table and exits 1 on a failed run, differing shard
digests or a ``REGRESSION``; docs/architecture.md ("The
benchmark-regression gate") has the rules.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HEADER = (
    "| workload | metric | parent median | change median | delta "
    "| change wins | parent IQR | verdict |\n"
    "|---|---|---|---|---|---|---|---|"
)


def read_run(returncode: int, stdout: str) -> dict:
    """The result object of one perfbench run, its exit status and its
    shard digests."""
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "failed": None, "metrics": {}}
    result["exit"] = returncode
    result["digests"] = sorted(
        line.split(":", 1)[1].strip() for line in lines if line.startswith("shard digest:")
    )
    return result


def iqr(values: list) -> float:
    """Distance between the quartiles (numpy's default interpolation)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def judge(workload: str, metrics: list, pairs: list) -> tuple:
    """Table rows and failure lines for one workload.

    ``metrics`` are BENCHMARK.json's ``end_to_end`` entries and
    ``pairs`` the ``(parent, change)`` results of :func:`read_run`.
    Metrics are judged only when every run is sound.  A move past the
    bound that stays inside the parent's IQR, or any move of a metric
    whose IQR is wider than its bound, cannot be told from noise and
    reads ``unresolved``, unless every change run beats every parent run.
    A metric that would read ``ok`` reads ``gain`` when it would pass a
    claim: at least ten pairs, the change better in at least nine of
    every ten, and the medians apart by more than the parent's IQR.
    """
    failures = []
    for k, (parent, change) in enumerate(pairs, 1):
        for side, run in (("parent", parent), ("change", change)):
            if run["exit"] != 0 or run["correct"] is not True:
                failures.append(
                    f"FAILED {workload} pair {k}: the {side} run exited "
                    f"{run['exit']} with correct={run['correct']}"
                )
        if (change["failed"] or 0) > (parent["failed"] or 0):
            failures.append(
                f"FAILED {workload} pair {k}: {change['failed']} failed, "
                f"{parent['failed']} at the parent"
            )
    digests = {tuple(run["digests"]) for pair in pairs for run in pair}
    if len(digests) > 1:
        failures.append(f"FAILED {workload}: shard digests differ: {sorted(digests)}")
    if failures:
        return [], failures
    rows = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        before = [parent["metrics"][name]["value"] for parent, _ in pairs]
        after = [change["metrics"][name]["value"] for _, change in pairs]
        p_med, c_med = statistics.median(before), statistics.median(after)
        spread = iqr(before)
        worse = sign * (p_med - c_med)
        limit = bound * abs(p_med)
        wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        if worse > limit and worse > spread:
            verdict = "REGRESSION"
            failures.append(
                f"REGRESSION {workload} {name}: {p_med:.4g} -> {c_med:.4g}, "
                f"past the {bound:.0%} bound and the parent IQR {spread:.4g}"
            )
        elif worse > limit or (
            spread > limit and min(sign * a for a in after) <= max(sign * b for b in before)
        ):
            verdict = "unresolved"
        elif len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and -worse > spread:
            verdict = "gain"
        else:
            verdict = "ok"
        delta = (c_med - p_med) / p_med if p_med else 0.0
        rows.append(
            f"| {workload} | {name} | {p_med:.4g} | {c_med:.4g} | {delta:+.1%} "
            f"| {wins}/{len(pairs)} | {spread:.4g} | {verdict} |"
        )
    return rows, failures


def perfbench(checkout: Path, workload: str, args) -> dict:
    """Run one checkout's own perfbench on one workload, untraced."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return read_run(proc.returncode, proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    at_parent = json.loads((args.parent / "BENCHMARK.json").read_text())
    known = {workload["name"] for workload in at_parent["workloads"]}
    checkouts = (args.parent, args.change)
    table, failures = [HEADER], []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in known:
            table.append(f"| {workload} | not in the parent's BENCHMARK.json | | | | | | new |")
            continue
        pairs = []
        for k in range(args.pairs):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            results = [None, None]
            for side in order:
                print(f"{workload} pair {k + 1}/{args.pairs}: "
                      f"{('parent', 'change')[side]}", file=sys.stderr)
                results[side] = perfbench(checkouts[side], workload, args)
            pairs.append(tuple(results))
        rows, problems = judge(workload, spec["end_to_end"], pairs)
        table += rows
        failures += problems
    table += [""] + [f"- {line}" for line in failures] + ([""] if failures else [])
    table.append(f"perf compare {'failed' if failures else 'passed'}: "
                 f"{args.pairs} pair(s) x {args.seconds:g} s, seed {args.seed}")
    print("\n".join(table))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
