"""The verdicts of ``scripts/perf_compare.py`` on synthetic result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perf_compare.py"

METRICS = [
    {"name": "rounds_per_s", "better": "higher", "bound": 0.25},
    {"name": "round_p50_ms", "better": "lower", "bound": 0.25},
]


@pytest.fixture(scope="module")
def perf_compare():
    spec = importlib.util.spec_from_file_location("perf_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def output(rate=100.0, p50=10.0, digest="8c725f7b", failed=0, correct=None) -> str:
    """The last lines of one ``perfbench/run.py --trace 0`` run."""
    result = {
        "correct": failed == 0 if correct is None else correct,
        "attempted": 500,
        "failed": failed,
        "metrics": {
            "rounds_per_s": {"value": rate, "unit": "rounds/s"},
            "round_p50_ms": {"value": p50, "unit": "ms"},
        },
    }
    return f"shard digest: {digest}\nfailed_frac: 0.0\n{json.dumps(result)}"


TIGHT = [{"rate": 100.0}, {"rate": 101.0}, {"rate": 99.0}]
WIDE = [{"rate": 100.0}, {"rate": 40.0}, {"rate": 160.0}]
SLOWER = [{"rate": 0.6 * run["rate"]} for run in TIGHT]
OK = {"rounds_per_s": "ok", "round_p50_ms": "ok"}
TEN = [{"rate": 100.0 + k % 3 - 1} for k in range(10)]
#: 8% faster in 9 of 10 pairs; the first pair loses.
FASTER = [{"rate": 98.0}] + [{"rate": 108.0}] * 9

#: parent runs, change runs, verdict per metric, failure-line prefixes.
CASES = {
    "a-a": (TIGHT, TIGHT, OK, []),
    "higher-is-better-down-40%-tight-iqr": (
        TIGHT, SLOWER, dict(OK, rounds_per_s="REGRESSION"),
        ["REGRESSION sim_grid rounds_per_s: 100 -> 60"],
    ),
    "same-move-inside-a-wide-parent-iqr": (
        WIDE, SLOWER, dict(OK, rounds_per_s="unresolved"), [],
    ),
    "lower-is-better-falling": (TIGHT, [dict(r, p50=5.0) for r in TIGHT], OK, []),
    "claim-met-in-9-of-10-pairs": (TEN, FASTER, dict(OK, rounds_per_s="gain"), []),
    "claim-not-met-in-8-of-10-pairs": (
        TEN, [{"rate": 98.0}] * 2 + FASTER[2:], OK, [],
    ),
    "claim-not-met-with-fewer-than-10-pairs": (TEN[:9], FASTER[1:], OK, []),
    "claim-not-met-inside-the-parent-iqr": (
        [{"rate": 100.0 + 10 * (k % 3 - 1)} for k in range(10)], FASTER, OK, [],
    ),
    "differing-digests": (
        TIGHT, [dict(r, digest="e81ef5e7") for r in TIGHT], {},
        ["FAILED sim_grid: shard digests differ"],
    ),
    "more-failed-on-the-change-side": (
        TIGHT, [dict(r, failed=2, correct=True) for r in TIGHT], {},
        [f"FAILED sim_grid pair {k}: 2 failed, 0 at the parent" for k in (1, 2, 3)],
    ),
}


@pytest.mark.parametrize("parent, change, verdicts, failures", CASES.values(), ids=CASES)
def test_verdicts(perf_compare, parent, change, verdicts, failures):
    pairs = [
        (perf_compare.read_run(0, output(**p)), perf_compare.read_run(0, output(**c)))
        for p, c in zip(parent, change)
    ]
    rows, problems = perf_compare.judge("sim_grid", METRICS, pairs)
    assert {row.split("|")[2].strip(): row.split("|")[-2].strip() for row in rows} == verdicts
    assert len(problems) == len(failures)
    assert all(map(str.startswith, problems, failures)), problems


def test_a_run_that_exits_non_zero_or_is_incorrect_fails(perf_compare):
    crashed = perf_compare.read_run(1, "Traceback (most recent call last):")
    incorrect = perf_compare.read_run(0, output(correct=False))
    sound = perf_compare.read_run(0, output())
    _, failures = perf_compare.judge(
        "sim_grid", METRICS, [(sound, crashed), (incorrect, sound)]
    )
    # A crashed run prints no digest either.
    assert failures == [
        "FAILED sim_grid pair 1: the change run exited 1 with correct=False",
        "FAILED sim_grid pair 2: the parent run exited 0 with correct=False",
        "FAILED sim_grid: shard digests differ: [(), ('8c725f7b',)]",
    ]
