"""The delta column of ``scripts/bench_trend.py``'s trajectory table."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_trend.py"


@pytest.fixture(scope="module")
def bench_trend():
    spec = importlib.util.spec_from_file_location("bench_trend", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(label: str, stamp: int, **rows) -> dict:
    results = {"calibration": {"best_s": 1.0}}
    results.update({name: {"best_s": s} for name, s in rows.items()})
    return {"label": label, "recorded_unix": stamp, "results": results}


def delta_column(table: str) -> dict:
    """Row name -> its last cell, from a rendered markdown table."""
    out = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            out[cells[0].strip("`")] = cells[-1]
    return out


def test_rows_are_labelled_new_retired_or_measured(bench_trend):
    baseline = {"calibration": {"best_s": 1.0}, "kept": {"best_s": 0.010},
                "dropped": {"best_s": 0.010}}
    old = run("old", 1, kept=0.010, dropped=0.010, retired=0.020)
    newest = run("new", 2, kept=0.012, added=0.030)
    deltas = delta_column(bench_trend.render([old, newest], baseline))
    assert deltas == {
        "calibration": "—",
        "kept": "+20% (1.20x)",
        "dropped": "not measured",
        "retired": "retired",
        "added": "new",
    }
