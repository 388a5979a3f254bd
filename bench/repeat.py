"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --workloads suite solve pointwise \
        --seeds 1 2 3 4 5 6 7 8 9 10

Runs ``bench/run.py`` once per (seed, workload), taking the workloads in
turn for each seed so that slow and fast stretches of a shared machine fall
on every workload, and prints for every metric its median, first and third
quartile and spread (the distance between the quartiles, as a share of the
median, from ``statistics.quantiles(values, n=4)``) next to the metric's
bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return 1
            results[workload].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for workload, rs in results.items():
        print(f"{workload}: seeds {args.seeds}, attempted "
              f"{[r['attempted'] for r in rs]}, failed {[r['failed'] for r in rs]}")
        for name in rs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in rs])
            bound = bounds.get(name)
            print(f"  {name:24s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    ok = all(r["correct"] for rs in results.values() for r in rs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
