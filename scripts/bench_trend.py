#!/usr/bin/env python3
"""Merge ``BENCH_*.json`` artifacts into a benchmark trajectory table.

Every bench run (CI uploads one per push, labelled with the commit
SHA; ``benchmarks/history/`` holds the committed milestones) is a
point on each hot path's trajectory.  This script merges any number of
those artifacts — files or directories of them — into one
chronological markdown table, one row per benchmark, one column per
run, plus each row's delta between the *newest* run and the committed
``benchmarks/baseline.json``.

Deltas are calibration-normalised exactly like the regression gate in
``scripts/run_benchmarks.py``: each run's times are scaled by its own
``calibration`` row before comparison, so runs from differently-sized
machines line up on one axis.

CI appends the output to the job summary::

    python scripts/bench_trend.py benchmarks/history benchmarks/out \\
        --baseline benchmarks/baseline.json >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from datetime import datetime, timezone
from typing import List, Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO, "benchmarks", "baseline.json")
DEFAULT_HISTORY = os.path.join(REPO, "benchmarks", "history")


def collect(paths: List[str]) -> List[dict]:
    """Load every ``BENCH_*.json`` under the given files/directories.

    Returns payloads sorted oldest-first by their ``recorded_unix``
    stamp (file mtime when a pre-stamp artifact lacks it), each with
    its source path attached for error messages.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(glob.glob(os.path.join(path, "BENCH_*.json"))))
        else:
            files.append(path)
    entries = []
    for path in files:
        try:
            with open(path) as f:
                payload = json.load(f)
        except (OSError, ValueError) as exc:
            print(f"skipping unreadable {path}: {exc}", file=sys.stderr)
            continue
        if "results" not in payload:
            print(f"skipping {path}: no results mapping", file=sys.stderr)
            continue
        payload.setdefault("label", os.path.basename(path))
        payload.setdefault("recorded_unix", os.path.getmtime(path))
        payload["path"] = path
        entries.append(payload)
    entries.sort(key=lambda e: (e["recorded_unix"], e["label"]))
    return entries


def _col_label(entry: dict) -> str:
    stamp = datetime.fromtimestamp(
        entry["recorded_unix"], tz=timezone.utc
    ).strftime("%Y-%m-%d")
    label = str(entry["label"])
    if len(label) > 10:  # a full commit SHA; keep the short form
        label = label[:10]
    return f"{label}<br>{stamp}"


def _normalised(entry: dict, name: str) -> Optional[float]:
    """best_s scaled to the run's own calibration speed (or raw when
    the run has no calibration row)."""
    row = entry["results"].get(name)
    if row is None or "best_s" not in row:
        return None
    cal = entry["results"].get("calibration", {}).get("best_s")
    if not cal:
        return row["best_s"]
    return row["best_s"] / cal


def _cell(entry: dict, name: str) -> str:
    row = entry["results"].get(name)
    if row is None:
        return "—"
    if "error" in row:
        return "error"
    return f"{row['best_s'] * 1e3:.1f} ms"


def render(entries: List[dict], baseline: Optional[dict]) -> str:
    names: List[str] = []
    for entry in entries:
        for name in entry["results"]:
            if name not in names:
                names.append(name)
    if baseline:
        for name in baseline:
            if name not in names:
                names.append(name)

    newest = entries[-1]
    header = ["benchmark", *(_col_label(e) for e in entries)]
    if baseline:
        header.append("Δ newest vs baseline")
    lines = [
        "### Benchmark trajectory",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for name in names:
        cells = [f"`{name}`", *(_cell(e, name) for e in entries)]
        if baseline:
            cells.append(_delta(newest, name, baseline))
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    lines.append(
        f"{len(entries)} run(s); times are each run's best wall time, "
        "deltas calibration-normalised."
    )
    return "\n".join(lines)


def _delta(newest: dict, name: str, baseline: dict) -> str:
    """The delta cell of row ``name``: ``new`` when only the newest run
    has it, ``retired`` when older runs had it but neither the newest
    run nor the baseline does."""
    if name == "calibration":
        return "—"
    base_row = baseline.get(name)
    if base_row is None or "best_s" not in base_row:
        return "new" if name in newest["results"] else "retired"
    now = _normalised(newest, name)
    if now is None:
        row = newest["results"].get(name)
        return "error" if row and "error" in row else "not measured"
    base_cal = baseline.get("calibration", {}).get("best_s")
    base = base_row["best_s"] / base_cal if base_cal else base_row["best_s"]
    ratio = now / base
    sign = "+" if ratio >= 1.0 else ""
    return f"{sign}{(ratio - 1.0) * 100:.0f}% ({ratio:.2f}x)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="BENCH_*.json files or directories holding them "
        f"(default: {os.path.relpath(DEFAULT_HISTORY, REPO)})",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help="baseline JSON for the per-row delta column "
        "(pass an empty string to omit the column)",
    )
    args = parser.parse_args()

    entries = collect(args.paths or [DEFAULT_HISTORY])
    if not entries:
        print("no BENCH_*.json artifacts found", file=sys.stderr)
        return 1

    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
        baseline = baseline.get("results", baseline)

    print(render(entries, baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
