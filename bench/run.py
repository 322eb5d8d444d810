"""Benchmark for hcolor: one workload per process, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload cli_estimate --seed 1 --seconds 15 --trace 0

The workload's inputs are made from ``--seed``. Whole rounds of operations
run until their summed wall time reaches ``--seconds``; every output is
checked, outside the timed part, against the reference computations in
``bench/oracles.py``. With ``--trace 0`` the result carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics derived from spans (see
``bench/spans.py``). The last line of standard output is the result object.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # first statement: set-up time counts from here


def _process_age() -> float:
    """Seconds between process start and ``_T0`` (interpreter start-up)."""
    import os

    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started - (time.perf_counter() - _T0))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE = _process_age()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import zlib  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "hcolor")):
        print(f"hcolor sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    import numpy as np

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    tracer = Tracer().install() if args.trace else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([abs(args.seed), zlib.crc32(args.workload.encode())])
    wl = workloads.WORKLOADS[args.workload](rng, workdir)
    problems: list[str] = []
    attempted = failed = 0
    timed = 0.0
    rounds: list[float] = []  # timed seconds of each round
    setup_s = float("nan")
    try:
        with span("bench.setup"):
            wl.setup()
        setup_s = _AGE + time.perf_counter() - _T0
        while timed < args.seconds:
            before = timed
            for op in wl.round():
                attempted += 1
                t = time.perf_counter()
                try:
                    with span("bench.op"):
                        out = op.run()
                except Exception:  # one failed operation: record it and go on
                    timed += time.perf_counter() - t
                    failed += 1
                    print(f"operation {op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
                    continue
                timed += time.perf_counter() - t
                try:
                    op.check(out)
                except workloads.CheckError as exc:
                    problems.append(f"{op.label}: {exc}")
            rounds.append(timed - before)
            if tracer and len(rounds) == 1:
                tracer.upto = len(tracer.spans)  # layer metrics: set-up and the first round
        wl.finish()
    except (workloads.CheckError, workloads.OperationFailed) as exc:
        problems.append(str(exc))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    completed = attempted - failed
    op_s = timed / completed if completed else timed
    if setup_s != setup_s:  # set-up itself failed a check
        setup_s = _AGE + time.perf_counter() - _T0
    if tracer:
        metrics = tracer.metrics(op_s)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    result = {"correct": not problems and completed > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(dict(result, round_s=rounds), fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
