"""magprop benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 18 --trace 0

Workloads: closed_forms, dense_refs, slicing, cli_cold (see README.md).

With ``--trace 0`` the run measures the end-to-end metrics: it sets up
SETUP_REPS times, each in a fresh interpreter (the last one is the workload
process itself), drives the workload for ``--seconds`` in a closed loop and
reports ``setup_s``, ``ops_per_s``, ``latency_p50_ms``, ``latency_p90_ms``
and ``peak_rss_mb``. With ``--trace 1`` it runs the workload untraced and
then traced, ``--seconds``/2 each, and reports the per-layer metrics, the
tracing overhead and the share of traced wall time no layer covers.

Every op's output is checked against a reference after the workload process
has exited. The workload's known defects (``workloads.KNOWN_DEFECTS``) are
kept out of the timed ops and run once after them; each run prints whether
they still reproduce. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the same numbers for a reader, ``fail_frac``, the known defects and the
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
WORKER_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LAYER_METRICS = {
    "grid": ("calls", "self_s", "discretize_s", "apply_s", "dense_s", "block_invert_s",
             "dense_mb"),
    "magnetic": ("calls", "self_s", "build_cp_operators_s", "n_inverse_closed_s",
                 "solve_preimage_s", "spectrum_idlk_s", "det_idlk_s", "failed"),
    "gaussians": ("calls", "self_s", "tt_pinned_gauss_s", "tt_nexp_product_s", "failed"),
    "oracle": ("calls", "self_s", "time_sliced_propagator_s", "adjudicate_s",
               "slices_evaluated", "useful_slice_frac", "failed"),
    "cli": ("self_s", "import_s", "process_s", "run_s", "rejected", "stdout_bytes"),
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def cap_blas_threads(nproc: int) -> dict:
    """Cap BLAS/OpenMP threads at nproc for this process and its children."""
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def machine(threads: dict) -> dict:
    import numpy as np
    import scipy

    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas_threads": threads}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), platform.processor())
    except OSError:
        info["cpu"] = platform.processor()
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    info["caches"] = caches
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                    if blas.get(k)}
    return info


def run_worker(workload, seed, seconds, *flags) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_runs(workload, seed, runs) -> tuple:
    """Check every op of the runs; returns (correct, attempted, failed)."""
    import magprop as mp
    import workloads

    correct, attempted, failed = True, 0, 0
    for run in runs:
        ops = workloads.first_ops(workload, seed, len(run["records"]))
        attempted += len(ops)
        for op, rec in zip(ops, run["records"]):
            why = workloads.check(mp, op, rec["out"])
            if why is None:
                continue
            failed += 1
            # Every op that does not succeed counts in `failed`. A result
            # handed back outside its tolerance is a wrong answer and makes
            # the run incorrect; an op that raised, crashed or exited with
            # the wrong code is a failure only.
            correct = correct and not workloads.returned_result(op, rec["out"])
            print(f"FAIL op {op['kind']} {op.get('invalid') or op.get('argv') or ''}: {why}")
    return correct, attempted, failed


def probe_defects(workload) -> None:
    """Run the workload's known-defect ops once and print, for each,
    whether it still reproduces. They do not count in attempted/failed."""
    import magprop as mp
    import workloads

    ops = workloads.KNOWN_DEFECTS.get(workload, [])
    if not ops:
        return
    outs = run_worker(workload, 0, 0.0, "--defects")["defects"]
    for op, out in zip(ops, outs):
        why = workloads.check(mp, op, out)
        state = f"reproduces: {why}" if why else "no longer reproduces"
        print(f"known defect {op['label']}: {state}")


def latency_stats(records) -> dict:
    lat = sorted(rec["latency_s"] for rec in records)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return {"p50_ms": statistics.median(lat) * 1e3, "p90_ms": p90 * 1e3,
            "beyond_p90": sum(x > p90 for x in lat)}


def layer_metrics(res, plain_ops_per_s) -> dict:
    tr = res["trace"]
    acc, wall = tr["acc"], tr["wall_s"]
    out = {}
    for layer, names in LAYER_METRICS.items():
        for name in names:
            key = f"{layer}.{name}"
            if key == "oracle.useful_slice_frac":
                done = acc.get("oracle.slices_evaluated", 0.0)
                value = acc.get("oracle.useful_slices", 0.0) / done if done else 0.0
            else:
                value = acc.get(key, 0.0)
            out[key] = (value, _unit(name))
    covered = sum(acc.get(f"{layer}.self_s", 0.0) for layer in LAYER_METRICS)
    traced_ops_per_s = len(res["records"]) / res["loop_s"]
    out["trace.wall_s"] = (wall, "s")
    out["trace.remainder_s"] = (wall - covered, "s")
    out["trace.remainder_frac"] = ((wall - covered) / wall, "ratio")
    out["trace.ops_per_s"] = (traced_ops_per_s, "1/s")
    out["trace.untraced_ops_per_s"] = (plain_ops_per_s, "1/s")
    out["trace.overhead_ops_per_s"] = (plain_ops_per_s - traced_ops_per_s, "1/s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="magprop benchmark, one workload per run")
    ap.add_argument("--workload", required=True,
                    choices=("closed_forms", "dense_refs", "slicing", "cli_cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "magprop" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: magprop sources not found under {SRC}\n")
        return 2
    threads = cap_blas_threads(len(os.sched_getaffinity(0)))
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)] + inherited)
    sys.path[:0] = [str(SRC), str(HERE)]

    wl, seed = args.workload, args.seed
    if args.trace:
        plain = run_worker(wl, seed, args.seconds / 2)
        res = run_worker(wl, seed, args.seconds / 2, "--trace")
        runs = [plain, res]
    else:
        setups = [run_worker(wl, seed, 0.0, "--setup-only")["setup"]
                  for _ in range(SETUP_REPS - 1)]
        res = run_worker(wl, seed, args.seconds)
        setups.append(res["setup"])
        runs = [res]

    correct, attempted, failed = check_runs(wl, seed, runs)
    probe_defects(wl)
    ops_per_s = len(runs[0]["records"]) / runs[0]["loop_s"]
    if args.trace:
        metrics = layer_metrics(res, ops_per_s)
    else:
        stats = latency_stats(res["records"])
        metrics = {
            "setup_s": (statistics.median(s["total_s"] for s in setups), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (stats["p50_ms"], "ms"),
            "latency_p90_ms": (stats["p90_ms"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        print(f"samples {len(res['records'])}, beyond p90 {stats['beyond_p90']}, "
              f"loop {res['loop_s']:.2f} s")
    print(f"workload {wl} seed {seed} trace {args.trace}: attempted {attempted}, "
          f"failed {failed}, fail_frac {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print("machine " + json.dumps(machine(threads), sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
