"""Tests of the benchmark itself: run with ``python -m pytest perfbench -q``.

They check that a seed fixes the op list, and that the counts a traced run
computes (array bytes, slices, CLI output bytes, call counts) repeat
exactly when the same ops run twice, so later changes may claim changes
in them.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_op_list(workload):
    cycle = sum(c for _, _, c in workloads.CYCLES[workload])
    first = workloads.first_ops(workload, 7, 3 * cycle)
    assert first == workloads.first_ops(workload, 7, 3 * cycle)
    assert first != workloads.first_ops(workload, 8, 3 * cycle)
    # every cycle holds the same multiset of op classes
    def classes(ops):
        return Counter((op["kind"], op.get("n")) for op in ops)
    assert classes(first[:cycle]) == classes(first[cycle:2 * cycle])


def test_known_defects_stay_out_of_timed_ops():
    defect_argv = [op["argv"] for op in workloads.KNOWN_DEFECTS["cli_cold"]]
    ops = workloads.first_ops("cli_cold", 7, 200)
    assert {op["invalid"] for op in ops if "invalid" in op} == set(workloads.INVALID_KINDS)
    assert not any(op["argv"] in defect_argv for op in ops)


# ops per traced run: one full cycle, or a few CLI processes
_OPS = {"closed_forms": 20, "dense_refs": 20, "slicing": 15, "cli_cold": 6}


def _traced_counts(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
         "--seconds", "600", "--max-ops", str(_OPS[workload]), "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    res = json.loads(proc.stdout.splitlines()[-1])
    acc = res["trace"]["acc"]
    covered = sum(v for k, v in acc.items() if k.endswith(".self_s"))
    assert 0.0 <= res["trace"]["wall_s"] - covered <= 0.2 * res["trace"]["wall_s"]
    return {k: v for k, v in acc.items()
            if k.endswith((".calls", ".failed", ".rejected"))
            or k in ("grid.dense_mb", "oracle.slices_evaluated", "oracle.useful_slices",
                     "cli.stdout_bytes")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = _traced_counts(workload)
    assert first == _traced_counts(workload)
    expected = {"closed_forms": "grid.dense_mb", "dense_refs": "grid.dense_mb",
                "slicing": "oracle.slices_evaluated", "cli_cold": "cli.stdout_bytes"}
    assert first[expected[workload]] > 0
