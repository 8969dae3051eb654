"""One benchmark process: generate a workload's inputs, or measure it.

    worker.py gen --dir D --seed N --workloads pretrain,ingest,...
    worker.py run --dir D --seed N --workload W --seconds S --trace 0|1 --trace-out PATH

`run` prints a table for people and, as its last line, the JSON result.
It is started by run.py, which pins BLAS to one thread before numpy loads
and puts the repository's src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from spans import Tracer
from workloads import WORKLOADS

SETUP_FIRST = 3
SETUP_SHARE = 0.1
TAIL_QUANTILES = (99.9, 99.0, 90.0)


def tail(values):
    """(quantile, value) of the highest of TAIL_QUANTILES with >= 10 samples beyond it, or None."""
    n = len(values)
    if n < 40:
        return None
    for q in TAIL_QUANTILES:
        if n * (100.0 - q) / 100.0 >= 10:
            return q, statistics.quantiles(values, n=1000, method="inclusive")[int(q * 10) - 1]
    return None


def run_rounds(wl, seconds, tracer, alternate):
    """Set-ups and whole rounds until `seconds` have passed.

    SETUP_FIRST set-ups and one untimed warm-up round come first. Later
    rounds are preceded by one more set-up while set-ups have taken less
    than SETUP_SHARE of the loop's time, so set-up samples spread over the
    run like the others without crowding out the rounds. With
    alternate=True every other round runs traced; the busy time of each
    round is kept per mode so their medians give the tracing overhead.
    """
    setup = [wl.setup() for _ in range(SETUP_FIRST)]
    tracer.enabled = False
    _, checks = wl.round(tracer)  # warm-up: its checks count, its times do not
    times = {}
    busy = {True: [], False: []}
    start = time.perf_counter()
    setup_wall = 0.0
    traced = False
    # a traced run needs at least one untraced round to compare against
    while time.perf_counter() - start < seconds or (alternate and not busy[False]):
        if setup_wall < SETUP_SHARE * (time.perf_counter() - start):
            before = time.perf_counter()
            setup.append(wl.setup())
            setup_wall += time.perf_counter() - before
        traced = alternate and not traced
        tracer.enabled = traced
        round_times, round_checks = wl.round(tracer)
        for key, values in round_times.items():
            times.setdefault(key, []).extend(values)
        checks += round_checks
        busy[traced].append(sum(sum(v) for v in round_times.values()))
    tracer.enabled = True
    return setup, times, checks, busy


def report_failures(checks):
    failed = [detail for ok, detail in checks if not ok]
    for detail in sorted(set(failed)):
        print(f"  FAILED ({failed.count(detail)}x): {detail}")
    return len(failed)


def cmd_run(args):
    wl = WORKLOADS[args.workload](os.path.join(args.dir, args.workload), args.seed)
    tracer = Tracer(enabled=False)
    setup, times, checks, busy = run_rounds(wl, args.seconds, tracer, alternate=bool(args.trace))
    if getattr(wl, "setup_check", (True, ""))[0] is False:
        print(f"  set-up check: {wl.setup_check[1]}")
    failed = report_failures(checks)
    print(f"workload {args.workload}  seed {args.seed}  attempted {len(checks)}  failed {failed}")

    if args.trace:
        import replay

        layers = replay.replay_all(args.dir, args.seed, tracer)
        overhead = 100.0 * (statistics.median(busy[True]) / statistics.median(busy[False]) - 1.0)
        layers["trace.overhead_pct"] = overhead
        metrics = {}
        for name, value in layers.items():
            unit = "%" if name.endswith("_pct") else "GFLOP/s" if name.endswith("gflops") else "ms"
            if value is None:
                print(f"  {name:34s} absent (the encoder no longer calls it)")
                continue
            print(f"  {name:34s} {value:12.4f} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        print("  self time per span name (s, count):")
        for name, (total, count) in sorted(tracer.self_time_table().items(), key=lambda kv: -kv[1][0]):
            print(f"    {name:40s} {total:10.4f} {count:6d}")
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        tracer.write(args.trace_out)
        print(f"  {len(tracer.spans)} spans written to {args.trace_out}")
    else:
        items_key, call_key = wl.items_key, wl.call_key
        per_call = times[call_key]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "items_per_s": {"value": wl.items_per_call / statistics.median(times[items_key]), "unit": "1/s"},
            "call_ms_p50": {"value": 1e3 * statistics.median(per_call), "unit": "ms"},
        }
        for name, m in metrics.items():
            print(f"  {name:14s} {m['value']:14.6f} {m['unit']}")
        q = statistics.quantiles(setup, n=4)
        print(f"  setup_s from the median of {len(setup)} set-ups; quartiles {q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f} s")
        q = statistics.quantiles(times[items_key], n=4)
        print(f"  items_per_s from the median of {len(times[items_key])} '{items_key}' calls;"
              f" quartiles {1e3 * q[0]:.2f} / {1e3 * q[1]:.2f} / {1e3 * q[2]:.2f} ms")
        t = tail(per_call)
        tail_text = f"p{t[0]:g} {1e3 * t[1]:.4f} ms" if t else "no tail percentile (under 40 samples)"
        print(f"  call_ms_p50 over {len(per_call)} '{call_key}' calls; {tail_text}")

    correct = bool(checks) and all(v["value"] == v["value"] for v in metrics.values())
    result = {"correct": correct, "attempted": len(checks), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def cmd_gen(args):
    for name in args.workloads.split(","):
        root = os.path.join(args.dir, name)
        os.makedirs(root)
        WORKLOADS[name].generate(root, args.seed)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("gen")
    gen.add_argument("--dir", required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--workloads", required=True)
    run = sub.add_parser("run")
    run.add_argument("--dir", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    try:
        return cmd_gen(args) if args.command == "gen" else cmd_run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
