#!/usr/bin/env python3
"""Profile the campaign + store hot-path benchmarks under cProfile.

The CI bench job runs this after the timing pass and uploads the
reports as an artifact, so the next kernel PR starts from measured
call trees — which loop actually dominates the stacked campaign, where
the store round-trip spends its syscalls — instead of guesses.

One report per benchmark: the top ``--top`` (default 25) functions by
cumulative time, written to ``<out-dir>/<benchmark>.txt`` and echoed
to stdout.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "scripts"))

from run_benchmarks import BENCHMARKS  # noqa: E402

#: The hot paths worth a call tree: the batched and cross-cell
#: campaigns, and the store round-trip.
DEFAULT_PROFILED = (
    "batched_campaign",
    "campaign_cross_cell",
    "store_roundtrip",
)


def profile_one(name: str, top: int) -> str:
    fn = BENCHMARKS[name]
    cleanup = fn()  # untimed warmup, same as the timing harness
    if callable(cleanup):
        cleanup()
    profiler = cProfile.Profile()
    profiler.enable()
    cleanup = fn()
    profiler.disable()
    if callable(cleanup):
        cleanup()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "names",
        nargs="*",
        default=None,
        help=f"benchmarks to profile (default: {', '.join(DEFAULT_PROFILED)})",
    )
    parser.add_argument(
        "--out-dir",
        default=os.path.join(REPO, "benchmarks", "out", "profiles"),
        help="directory for the per-benchmark reports",
    )
    parser.add_argument(
        "--top", type=int, default=25, help="rows per report (cumulative)"
    )
    args = parser.parse_args()

    names = args.names or list(DEFAULT_PROFILED)
    unknown = sorted(set(names) - set(BENCHMARKS))
    if unknown:
        parser.error(f"unknown benchmarks: {', '.join(unknown)}")

    os.makedirs(args.out_dir, exist_ok=True)
    for name in names:
        report = profile_one(name, args.top)
        path = os.path.join(args.out_dir, f"{name}.txt")
        with open(path, "w") as f:
            f.write(report)
        print(f"== {name} -> {path}")
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
