#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs each workload --runs times, each with another --seed, from the
repository root, and prints for every metric the median and the spread
(third minus first quartile of statistics.quantiles(values, n=4), over
the median). Every raw result line is appended to --log.

    python3 ttvbench/noise.py --runs 10 --log noise.jsonl
    python3 ttvbench/noise.py --workloads graph-depth --runs 5 \
        --binary .bench_build/release/ttvbench
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--binary", help="run this built binary instead of the command")
    ap.add_argument("--log", help="append each run's result line here")
    args = ap.parse_args()
    command = [args.binary] if args.binary else bench["command"]
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}..")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            print(f"  {name:<28} median {med:<14.6g} spread {spread:.4f}  "
                  f"min {min(vs):.6g} max {max(vs):.6g}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
