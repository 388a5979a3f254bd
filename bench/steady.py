"""Steadiness check of the traced run.

    python3 bench/steady.py [--seed 1] [--held-out 7000003]

For each workload, runs ``bench/run.py --trace 1`` twice with one seed and
requires every work count (``.calls``, ``.nodes``, ``.points``,
``.distances``, ``solver.iterations``) to repeat exactly; then runs the
held-out seed, which was not used while the benchmark was built, and
requires the same workload shape (the digest of the design rows).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT = re.compile(r"\.(calls|nodes|points|distances)$|^solver\.iterations$")


def traced(workload, seed):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    shape = next(line.split("shape ")[1].split(":")[0] for line in out
                 if " shape " in line)
    metrics = json.loads(out[-1])["metrics"]
    counts = {k: v["value"] for k, v in metrics.items() if COUNT.search(k)}
    return shape, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out", type=int, default=7000003)
    parser.add_argument("--workloads", nargs="+",
                        default=["suite", "solve", "pointwise"])
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads:
        shape_a, counts_a = traced(workload, args.seed)
        shape_b, counts_b = traced(workload, args.seed)
        shape_h, counts_h = traced(workload, args.held_out)
        differ = sorted(k for k in counts_a if counts_a[k] != counts_b[k])
        same_shape = shape_a == shape_b == shape_h
        ok &= not differ and same_shape
        print(f"{workload}: {len(counts_a)} counts, "
              f"{'all repeat' if not differ else 'DIFFER: ' + ', '.join(differ)}; "
              f"shape seed {args.seed} {shape_a}, held-out seed {args.held_out} "
              f"{shape_h} ({'same' if same_shape else 'DIFFERENT'})")
        for k in sorted(counts_a):
            print(f"  {k:42s} {counts_a[k]:>12} {counts_h[k]:>12}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
