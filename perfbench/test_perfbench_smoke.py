"""Smoke test of the benchmark itself: every workload at tiny sizes,
timed and traced, printing the result line its contract asks for."""

import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def tiny_sizes():
    import workloads

    return workloads.Sizes(
        setup_repeats=1,
        calibration_trials=2,
        min_passes=2,
        fig2_placements_per_n=1,
        fig2_group_sizes=(3,),
        grid_group_sizes=(3,),
        grid_rounds=4,
        service_pool=16,
        service_min_sessions=6,
        service_reference_checks=1,
        service_trace_sessions=4,
        service_warmup_sessions=1,
        service_window=3,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_schema(workload, trace, tmp_path, capsys):
    assert run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        sizes=tiny_sizes(),
        out_dir=tmp_path,
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("failed_frac: 0.000000") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / f"trace-{workload}-seed3.json").is_file()


def test_key_tail_keeps_ten_sessions_beyond_it():
    import workloads

    assert workloads.ServiceKeys.tail_q(1000) == 99.0
    for n in (11, 200, 624, 999):
        latencies = list(range(n))
        tail = workloads.nearest_rank(latencies, workloads.ServiceKeys.tail_q(n))
        assert sum(x > tail for x in latencies) == 10


def test_refuses_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "sim_grid", "--seed", "1", "--seconds", "1"]) != 0
