"""The aggregation of tools/bench_pairs.py on canned benchmark output; no
benchmark process is started (the timing test runs a stand-in script)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "ops_per_s": {"better": "higher", "bound": 0.25},
    "latency_p50_ms": {"better": "lower", "bound": 0.25},
}


def canned(ops_per_s, p50_ms, failed=0, defect="no longer reproduces"):
    result = {
        "correct": True, "attempted": 80, "failed": failed,
        "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                    "latency_p50_ms": {"value": p50_ms, "unit": "ms"}},
    }
    return "\n".join([
        "samples 80, beyond p90 8, loop 18.01 s",
        f"known defect some_op: {defect}",
        "workload slicing seed 1 trace 0: attempted 80, failed 0, fail_frac 0.0000",
        f"  ops_per_s {ops_per_s} 1/s",
        'machine {"nproc": 2, "cpu": "test cpu"}',
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_result_machine_and_defects():
    run = bench_pairs.parse_run(canned(25.0, 9.0, defect="reproduces: exit 3"))
    assert run["result"]["metrics"]["ops_per_s"]["value"] == 25.0
    assert run["machine"] == {"nproc": 2, "cpu": "test cpu"}
    assert run["known_defects"] == {"some_op": "reproduces: exit 3"}


def test_parse_run_rejects_empty_output():
    with pytest.raises(ValueError):
        bench_pairs.parse_run("\n")


def _run(ops_per_s, p50_ms, wall_s=40.0):
    return {**bench_pairs.parse_run(canned(ops_per_s, p50_ms)), "wall_s": wall_s}


def _pairs(parent_ops, change_ops, parent_p50, change_p50):
    return [(_run(po, pl), _run(co, cl))
            for po, co, pl, cl in zip(parent_ops, change_ops, parent_p50, change_p50)]


def test_aggregate_medians_quartiles_and_wins():
    parent_ops = [20.0, 22.0, 24.0, 26.0, 28.0]
    change_ops = [80.0, 85.0, 90.0, 21.0, 95.0]  # the fourth pair is lost
    out = bench_pairs.aggregate(_pairs(parent_ops, change_ops, [9.0] * 5, [9.0] * 5), SPEC)
    ops = out["metrics"]["ops_per_s"]
    assert out["pairs"] == 5
    assert ops["parent"]["median"] == 24.0
    assert (ops["parent"]["q1"], ops["parent"]["q3"]) == (22.0, 26.0)
    assert ops["change"]["median"] == 85.0
    assert ops["change_wins"] == 4 and ops["parent_wins"] == 1
    assert ops["median_gap"] == 61.0 and ops["parent_iqr"] == 4.0
    assert not ops["gain_shown"]  # 4 of 5 is below nine tenths
    assert ops["within_bound"]
    p50 = out["metrics"]["latency_p50_ms"]
    assert p50["change_wins"] == 0 and p50["parent_wins"] == 0  # ties count for neither
    assert not p50["gain_shown"] and p50["within_bound"]
    assert out["parent"] == {"attempted": 400, "failed": 0, "correct": True,
                             "known_defects": {"some_op": "no longer reproduces"},
                             "wall_s": {"values": [40.0] * 5, "median": 40.0, "max": 40.0}}


def test_aggregate_reports_each_sides_whole_run_wall_time():
    pairs = [(_run(20.0, 9.0, wall_s=pw), _run(50.0, 9.0, wall_s=cw))
             for pw, cw in ((81.0, 40.0), (79.0, 44.0), (95.0, 41.0))]
    out = bench_pairs.aggregate(pairs, SPEC)
    assert out["parent"]["wall_s"] == {"values": [81.0, 79.0, 95.0], "median": 81.0,
                                       "max": 95.0}
    assert out["change"]["wall_s"] == {"values": [40.0, 44.0, 41.0], "median": 41.0,
                                       "max": 44.0}


def test_run_tree_times_the_whole_process(tmp_path):
    script = tmp_path / "fake_bench.py"
    script.write_text("import sys, time\n"
                      "time.sleep(0.2)\n"
                      f"sys.stdout.write({canned(30.0, 8.0)!r})\n")
    run = bench_pairs.run_tree(tmp_path, [sys.executable, str(script)], "slicing", 1, 18.0)
    assert run["result"]["metrics"]["ops_per_s"]["value"] == 30.0
    assert 0.2 <= run["wall_s"] < 30.0


def test_aggregate_shows_a_gain_and_a_lower_is_better_regression():
    n = 10
    parent_ops = [25.0 + 0.1 * i for i in range(n)]
    change_ops = [80.0 + 0.1 * i for i in range(n)]
    parent_p50 = [8.0 + 0.01 * i for i in range(n)]
    change_p50 = [11.0 + 0.01 * i for i in range(n)]  # about 37% slower
    out = bench_pairs.aggregate(_pairs(parent_ops, change_ops, parent_p50, change_p50), SPEC)
    assert out["metrics"]["ops_per_s"]["gain_shown"]
    p50 = out["metrics"]["latency_p50_ms"]
    assert p50["parent_wins"] == n and not p50["gain_shown"]
    assert not p50["within_bound"]


def test_metric_spec_reads_the_benchmark_file():
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    spec = bench_pairs.metric_spec(json.loads(path.read_text()))
    assert spec["ops_per_s"] == {"better": "higher", "bound": 0.25}
    assert spec["peak_rss_mb"]["better"] == "lower"
