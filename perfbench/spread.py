#!/usr/bin/env python3
"""Run the benchmark several times per workload and report each end-to-end
metric's median and interquartile spread (IQR as a share of the median), the
way the acceptance check computes it.

    python3 perfbench/spread.py --runs 10 [--workloads cold_ladder,...]
                                [--first-seed 1]

Run from the repository root. The benchmark is run through the command in
BENCHMARK.json, untraced. Exits nonzero when a run fails or a metric's
spread reaches its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.time()
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            wall = time.time() - start
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f}s wall", file=sys.stderr)
        print(f"== {workload} ({args.runs} runs)")
        for name, vs in sorted(values.items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds[name]
            flag = "  OK" if spread < bound / 3 else ("  WITHIN BOUND" if spread < bound else "  TOO WIDE")
            ok &= spread < bound
            print(f"  {name:40s} median {med:12.5g}  spread {spread:7.3f}{flag}")
            print("      " + " ".join(f"{v:.4g}" for v in vs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
