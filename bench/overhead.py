"""Tracing overhead: traced against untraced op_s, same workload and seed.

    python3 bench/overhead.py --seconds 20 --pairs 3 [--workload NAME ...]

Runs ``bench/run.py`` with ``--trace 0`` and ``--trace 1`` in pairs per
workload, alternating which runs first, and prints each pair's
``trace.op_s / op_s - 1`` and their median.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cli_estimate", "consistency_cell", "exact_oracle"]


def op_seconds(workload: str, seed: int, seconds: float, trace: int) -> float:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=os.path.dirname(BENCH_DIR), capture_output=True, text=True,
                          timeout=600, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return metrics["trace.op_s" if trace else "op_s"]["value"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", nargs="*", default=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--pairs", type=int, default=3)
    args = p.parse_args()
    for name in args.workload:
        ratios = []
        for k in range(args.pairs):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            op_s = {t: op_seconds(name, args.seed + k, args.seconds, t) for t in order}
            ratios.append(op_s[1] / op_s[0] - 1)
        shown = ", ".join(f"{r:+.1%}" for r in ratios)
        print(f"{name}: overhead per pair {shown}; median {statistics.median(ratios):+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
