#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median and quartile spread (IQR over median) against its bound.

    python3 perfbench/spread.py --workload feed --runs 10
    python3 perfbench/spread.py --workload feed --workload wire --runs 5 --seed0 100

Run from the root of the repository. A spread above a third of the metric's
bound is flagged, since run-to-run noise that large hides a real change.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    ok = True
    for w in args.workload:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            start = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - start)
            if out.returncode != 0:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: incorrect: {out.stdout}", file=sys.stderr)
                ok = False
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"== {w}: {args.runs} runs, wall {statistics.median(walls):.1f}s median, {max(walls):.1f}s max")
        for m in metrics:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = m["bound"]
            flag = ""
            if spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {m['name']:<40} median {med:14.4f} {m['unit']:<6} spread {spread:6.3f} bound {bound:.2f}{flag}")
            print("      " + " ".join(f"{x:.4g}" for x in xs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
