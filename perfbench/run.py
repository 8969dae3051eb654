"""Pipeline benchmark of imuclr: pretrain, ingest and zero_shot_eval.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

Without --workload the three workloads run one after another. Each
workload runs in processes of its own: one writes its inputs from the
seed, a second measures it. Both get BLAS pinned to one thread before
numpy loads. The measuring process prints a table and, as its last line,
one JSON object with correct, attempted, failed and metrics. --trace 1
runs the traced variant, which reports the per-layer metrics and writes
its spans to perfbench/_out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pretrain", "ingest", "zero_shot_eval")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
TIMEOUT_S = 170


def child_env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({name: "1" for name in BLAS_THREADS})
    return env


def worker(args, deadline):
    """Run worker.py to completion; passing the deadline kills it and waits for it."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    timeout = max(deadline - time.monotonic(), 1.0)
    return subprocess.run(cmd, env=child_env(), timeout=timeout, check=False).returncode


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + TIMEOUT_S
    work = os.path.join(HERE, "_work", f"{name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        # the traced run replays every stage, so it needs every stage's inputs
        stages = ",".join(WORKLOADS) if trace else name
        code = worker(["gen", "--dir", work, "--seed", str(seed), "--workloads", stages], deadline)
        if code != 0:
            return code
        trace_out = os.path.join(HERE, "_out", f"trace-{name}-seed{seed}.json")
        return worker(
            ["run", "--dir", work, "--seed", str(seed), "--workload", name, "--seconds", str(seconds),
             "--trace", str(trace), "--trace-out", trace_out],
            deadline,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload; all three when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "imuclr", "__init__.py")):
        print(f"no imuclr sources under {os.path.join(ROOT, 'src')}; run from a checkout", file=sys.stderr)
        return 2
    for name in [args.workload] if args.workload else WORKLOADS:
        try:
            code = run_workload(name, args.seed, args.seconds, args.trace)
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out after {TIMEOUT_S} s", file=sys.stderr)
            return 3
        if code != 0:
            print(f"{name}: worker exited with {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
