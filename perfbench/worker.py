"""Workload process: one closed-loop client driving one workload.

Run by ``run.py``; prints one JSON document on stdout. The process is the
"workload process" of the benchmark: its cold import of magprop, input
generation and warm-up are its set-up, its peak RSS is the reported
``peak_rss_mb``, and each op starts when the previous one has ended.

Usage: python perfbench/worker.py --workload W --seed N --seconds S
       [--trace] [--setup-only] [--max-ops M] [--defects]

With ``--defects`` it runs the workload's known-defect ops
(``workloads.KNOWN_DEFECTS``) once each instead, untimed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


class Client:
    def __init__(self, mp, workloads, tracer):
        self.mp = mp
        self.wl = workloads
        self.tracer = tracer

    def run_op(self, op) -> tuple:
        """Run one op; returns (latency seconds, output for the check)."""
        if "argv" in op:
            return self._run_cli(op)
        call, payload = self.wl.prepare(self.mp, op)
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the client records the failure and goes on
            return time.perf_counter() - start, {"error": f"{type(exc).__name__}: {exc}"}
        latency = time.perf_counter() - start
        out = payload(result)
        if self.tracer is not None and op["kind"] == "ladder" and out["value"] is not None:
            self.tracer.add("oracle.useful_slices", out["levels"][-1])
        return latency, out

    def _run_cli(self, op) -> tuple:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "magprop", *op["argv"]]
            rfd = wfd = None
        else:
            rfd, wfd = os.pipe()
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(wfd), *op["argv"]]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                pass_fds=() if wfd is None else (wfd,))
        try:
            stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        latency = time.perf_counter() - start
        if wfd is not None:
            os.close(wfd)
            with os.fdopen(rfd, "r") as fh:
                child = fh.read()
            self._account_process(latency, json.loads(child) if child else None)
            self.tracer.add("cli.rejected", proc.returncode in (1, 2, 3))
            self.tracer.add("cli.stdout_bytes", len(stdout))
        return latency, {"code": proc.returncode,
                         "stdout": stdout.decode("utf-8", "replace"),
                         "stderr": stderr.decode("utf-8", "replace")[-4000:]}

    def _account_process(self, wall, child) -> None:
        """A CLI process is one top-level cli span. The child's own layer
        self times are summed in; the time they leave uncovered is cli self
        time, split into the cold import and the process remainder
        (interpreter start-up and shut-down)."""
        tr = self.tracer
        acc = child["acc"] if child else {}
        import_s = child["import_s"] if child else 0.0
        covered = sum(v for k, v in acc.items() if k.endswith(".self_s"))
        tr.merge(acc)
        tr.add("cli.import_s", import_s)
        tr.add("cli.process_s", wall - covered - import_s)
        tr.add("cli.self_s", wall - covered)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--defects", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import magprop as mp  # the cold import is part of set-up
    import magprop.cli  # noqa: F401  (what `python -m magprop` loads)
    import_s = time.perf_counter() - t0

    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.add("cli.import_s", import_s)
        tracer.add("cli.self_s", import_s)
    client = Client(mp, workloads, tracer)
    if args.defects:
        ops = workloads.KNOWN_DEFECTS.get(args.workload, [])
        print(json.dumps({"defects": [client.run_op(op)[1] for op in ops]}))
        return 0

    t0 = time.perf_counter()
    stream = workloads.op_stream(args.workload, args.seed)
    cycle_len = sum(c for _, _, c in workloads.CYCLES[args.workload])
    ops = itertools.chain([next(stream) for _ in range(cycle_len)], stream)
    gen_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = [client.run_op(op)[1] for op in workloads.WARMUP[args.workload]]
    warm_s = time.perf_counter() - t0
    setup = {"import_s": import_s, "gen_s": gen_s, "warm_s": warm_s,
             "total_s": import_s + gen_s + warm_s}
    if args.setup_only:
        print(json.dumps({"setup": setup, "warm": warm}))
        return 0

    # The loop ends at the first cycle boundary after the deadline, so every
    # run holds whole cycles and each op class keeps its exact share.
    records = []
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    while time.perf_counter() < deadline or len(records) % cycle_len:
        if args.max_ops is not None and len(records) >= args.max_ops:
            break
        latency, out = client.run_op(next(ops))
        records.append({"latency_s": latency, "out": out})
    loop_s = time.perf_counter() - loop_start

    result = {"setup": setup, "warm": warm, "loop_s": loop_s, "records": records,
              "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {"wall_s": time.perf_counter() - t_start, "acc": dict(tracer.acc)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
