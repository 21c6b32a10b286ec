"""Paired benchmark runs of two source trees, written to BENCH_<label>.json.

Usage:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload slicing --first-seed 2001 --pairs 10 --label my_change

For each seed it runs the command ``BENCHMARK.json`` names (``python3
perfbench/run.py``) with ``--workload W --seed S --seconds X --trace 0``,
X being the file's ``run_seconds``, once in each tree (each tree's own
benchmark, with the tree as working directory), one after the other,
alternating which side runs first. Both the command and the metric rules
come from the ``BENCHMARK.json`` of the change tree.

From every run it keeps the last stdout line (the result JSON), the
``machine`` line and the ``known defect`` lines, and times the whole
process: set-up, the timed loop, the post-run checks and the defect probe.
The output file, written to the current directory, holds per workload and
per end-to-end metric each side's values, median and quartiles, the pairs
each side won, the median gap against the parent's interquartile range,
and whether the change's median stays within the bound ``BENCHMARK.json``
fixes for it; and per side the median and the largest whole-run wall time,
which shows how close a workload comes to a timeout on its runs.

A gain counts as shown (``gain_shown``) when the change wins at least nine
tenths of the pairs, ties counting for neither side, and the medians differ
by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

KNOWN_DEFECT_PREFIX = "known defect "
MACHINE_PREFIX = "machine "
SIDES = ("parent", "change")
WIN_SHARE = 0.9


def parse_run(stdout: str) -> dict:
    """The result JSON, the machine block and the known-defect states of
    one ``perfbench/run.py`` run."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("benchmark run printed nothing")
    machine, defects = None, {}
    for ln in lines:
        if ln.startswith(MACHINE_PREFIX):
            machine = json.loads(ln[len(MACHINE_PREFIX):])
        elif ln.startswith(KNOWN_DEFECT_PREFIX):
            label, _, state = ln[len(KNOWN_DEFECT_PREFIX):].partition(": ")
            defects[label] = state
    return {"result": json.loads(lines[-1]), "machine": machine, "known_defects": defects}


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def aggregate(pairs: list, spec: dict) -> dict:
    """Per-metric comparison over (parent_run, change_run) pairs of parsed
    runs, each with its whole-run ``wall_s``; ``spec`` maps metric name to
    {"better": "higher"|"lower", "bound": relative bound or None}."""
    metrics = {}
    for name, rule in spec.items():
        sides = {side: [run["result"]["metrics"][name]["value"] for run in col]
                 for side, col in zip(SIDES, zip(*pairs))}
        sign = 1.0 if rule["better"] == "higher" else -1.0
        gains = [sign * (c - p) for p, c in zip(sides["parent"], sides["change"])]
        par, chg = _summary(sides["parent"]), _summary(sides["change"])
        gap = chg["median"] - par["median"]
        iqr = par["q3"] - par["q1"]
        wins = sum(g > 0 for g in gains)
        entry = {
            "unit": pairs[0][0]["result"]["metrics"][name]["unit"],
            "better": rule["better"],
            "parent": par,
            "change": chg,
            "change_wins": wins,
            "parent_wins": sum(g < 0 for g in gains),
            "median_gap": gap,
            "parent_iqr": iqr,
            "gain_shown": wins >= WIN_SHARE * len(pairs) and sign * gap > iqr,
        }
        if rule.get("bound") is not None:
            worse_by = -sign * gap / abs(par["median"]) if par["median"] else 0.0
            entry["bound"] = rule["bound"]
            entry["within_bound"] = worse_by <= rule["bound"]
        metrics[name] = entry
    out = {"pairs": len(pairs), "metrics": metrics}
    for side, col in zip(SIDES, zip(*pairs)):
        walls = [run["wall_s"] for run in col]
        out[side] = {
            "attempted": sum(run["result"]["attempted"] for run in col),
            "failed": sum(run["result"]["failed"] for run in col),
            "correct": all(run["result"]["correct"] for run in col),
            "known_defects": col[-1]["known_defects"],
            "wall_s": {"values": walls, "median": statistics.median(walls), "max": max(walls)},
        }
    return out


def metric_spec(benchmark: dict) -> dict:
    return {m["name"]: {"better": m["better"], "bound": m.get("bound")}
            for m in benchmark["end_to_end"]}


def revision(tree: Path) -> dict:
    """The tree's git commit and whether it has uncommitted changes."""
    def git(*cmd):
        proc = subprocess.run(["git", "-C", str(tree), *cmd], capture_output=True, text=True,
                              check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def run_tree(tree: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One parsed benchmark run in ``tree``, with the process's wall time."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}")
    return {**parse_run(proc.stdout), "wall_s": wall}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paired perfbench runs of two source trees")
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    spec, seconds = metric_spec(benchmark), benchmark["run_seconds"]

    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    report = {"label": args.label, "seconds": seconds, "seeds": seeds,
              "revisions": {side: revision(path) for side, path in trees.items()},
              "machine": None, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs = {side: run_tree(trees[side], benchmark["command"], workload, seed, seconds)
                    for side in order}
            pairs.append((runs["parent"], runs["change"]))
            report["machine"] = report["machine"] or runs["change"]["machine"]
            print(f"{workload} seed {seed} ({order[0]} first): " + ", ".join(
                f"{side} ops_per_s {runs[side]['result']['metrics']['ops_per_s']['value']:.2f}"
                f" in {runs[side]['wall_s']:.1f} s" for side in SIDES), flush=True)
        report["workloads"][workload] = aggregate(pairs, spec)

    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
