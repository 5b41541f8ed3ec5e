#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's median, quartiles and spread next to its bound.

    python3 perfbench/steady.py --workloads exact,redeploy --seeds 1-10 [--json PATH]

Spread is the distance between the first and third quartile as a share of
the median, with quartiles from statistics.quantiles(values, n=4). Runs
are sequential, from the current directory, through perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(out)
    return result


def main():
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--seconds", default=spec["run_seconds"], type=int)
    parser.add_argument("--json", help="write the summary here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            result = run(workload, seed, args.seconds)
            print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "runs": len(vals)}
            flag = "" if bounds.get(name) is None or spread <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {workload:<10} {name:<12} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:.4f}  bound {bounds.get(name)}{flag}", flush=True)
        summary[workload] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
