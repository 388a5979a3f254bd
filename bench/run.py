"""wolfflab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {suite,solve,pointwise} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; wolfflab is imported from ./src.  With
--trace 0 the run measures the end-to-end metrics: set-up time over fresh
interpreters, then rounds of the workload's op block in a closed loop (one
client, the next op starts when the last one ends) for about S seconds of
op time, every output of every round checked against its oracle.  Each
op's latency is scaled to a reference machine speed by a calibration
kernel timed next to it, and its median over the rounds is its sample.
With --trace 1 it runs the block twice, untraced and then with every
layer wrapped (tracer.py), and reports the per-layer metrics; the block
does not depend on S, so its counts repeat exactly.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_SPAWNS = 9        # fresh interpreters per run; the first one is a warm-up
MIN_ROUNDS = 2          # timed rounds of the block, however long it takes
# Other tenants of the host slow this process by up to 1.4x, in stretches
# of tens of seconds that often cover a whole run, and its CPU time slows
# as much as its wall time (steal time does not grow).  So every op latency is
# scaled by the speed of a fixed calibration kernel timed next to it: the
# time metrics read as on a machine where the kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.0025
CALIBRATION_WINDOW = 9  # kernel samples, centred on the op, per scale factor


def measure_setup(config_paths) -> float:
    """Median wall time of a fresh interpreter importing wolfflab and
    loading the workload's configs."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import wolfflab; "
            "from wolfflab.config import load_config; "
            "[load_config(p) for p in sys.argv[2:]]")
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, SRC, *config_paths],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


class Tally:
    """Op outcomes of one pass: latencies, instances, failures by kind."""

    def __init__(self):
        self.latencies = []
        self.labels = []
        self.op_time = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.known = Counter()
        self.digests = []
        self.rounds = 0
        self.kernel = []        # calibration kernel time after each op

    def run(self, wl, op):
        wl.before(op)
        t0 = time.perf_counter()
        raw = wl.run(op)
        dt = time.perf_counter() - t0
        instances, failed, kinds = wl.check(op, raw)
        self.latencies.append(dt)
        self.labels.append(op.get("label", op.get("i")))
        self.op_time += dt
        self.attempted += instances
        self.failed += failed
        for kind, known in kinds:
            (self.known if known else self.failures)[kind] += 1
        if "digest" in op and not self.rounds:
            self.digests.append(op["digest"])


def calibration_kernel():
    """A fixed mix of interpreter and small-array numpy work, like
    wolfflab's own: about 2.5 ms on a quiet core of a 2 GHz Xeon."""
    x = np.linspace(0.1, 10.0, 2048)
    s = 0.0
    for i in range(15000):
        s += i * 0.5
    for _ in range(60):
        s += float(np.sum(np.exp(-x) * np.log1p(x)))
    return s


def timed_pass(wl, seconds):
    """Whole rounds of the block until about `seconds` of op time (a round
    is not started when half of it would fall past `seconds`), so that
    every run times the same mix of ops whatever the speed; the
    calibration kernel is timed after every op."""
    block = wl.block_ops()
    tally = Tally()
    while True:
        start = tally.op_time
        for op in block:
            tally.run(wl, op)
            t0 = time.perf_counter()
            calibration_kernel()
            tally.kernel.append(time.perf_counter() - t0)
        tally.rounds += 1
        if (tally.rounds >= MIN_ROUNDS
                and tally.op_time + (tally.op_time - start) / 2 > seconds):
            return tally, len(block)


def scaled_latencies(tally, n_ops):
    """Each op's latency at reference machine speed, its median over the
    rounds: a latency is scaled by CALIBRATION_REF_S over the median of
    the CALIBRATION_WINDOW kernel times nearest to it."""
    half = CALIBRATION_WINDOW // 2
    kernel = tally.kernel
    scaled = [dt * CALIBRATION_REF_S
              / statistics.median(kernel[max(0, j - half):j + half + 1])
              for j, dt in enumerate(tally.latencies)]
    return [statistics.median(scaled[i::n_ops]) for i in range(n_ops)]


def list_pass(wl, ops):
    tally = Tally()
    t0 = time.perf_counter()
    wl.load()
    for op in ops:
        tally.run(wl, op)
    return tally, time.perf_counter() - t0


def percentile_ms(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3 \
        if len(values) > 1 else values[0] * 1e3


def end_to_end(wl, args, print_line):
    import workloads
    setup_s = measure_setup(wl.setup_configs())
    wl.load()
    tally, n_ops = timed_pass(wl, args.seconds)
    good_per_round = (tally.attempted - tally.failed) / tally.rounds
    latencies = scaled_latencies(tally, n_ops)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (good_per_round / sum(latencies), "1/s"),
        "op_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "op_p90_ms": (percentile_ms(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    unit = (f"wolfflab suite invocation (one check, {workloads.SUITE_INSTANCES} "
            f"instances)" if wl.name == "suite" else "op")
    raw = [statistics.median(tally.latencies[i::n_ops]) for i in range(n_ops)]
    kernel = statistics.median(tally.kernel)
    print_line(f"timed region: {tally.op_time:.3f} s of op time, {tally.rounds} "
               f"rounds of {n_ops} ops, one latency sample per {unit} "
               f"(its median over the rounds); {tally.attempted} ops attempted")
    print_line(f"calibration kernel: median {kernel * 1e3:.3f} ms (reference "
               f"{CALIBRATION_REF_S * 1e3:g} ms); unscaled ops_per_s "
               f"{good_per_round / sum(raw):.4f}, op_p50_ms {percentile_ms(raw, 50):.3f}, "
               f"op_p90_ms {percentile_ms(raw, 90):.3f}")
    return tally, metrics


def per_layer(wl, args, print_line):
    import tracer as tr
    import workloads
    ops = wl.block_ops()
    _, untraced_wall = list_pass(wl, ops)
    t = tr.Tracer()
    t.install()
    try:
        tally, traced_wall = list_pass(wl, ops)
    finally:
        t.uninstall()
    t.write(os.path.join(wl.out_dir, "spans.npz"))
    stats = tr.layer_stats(t)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def busy(span):
        return stats[span]["busy_ns"] * 1e-9

    def self_s(span):
        return stats[span]["self_ns"] * 1e-9

    for name, span, stat, unit in LAYER_METRICS:
        st = stats[span]
        value = {"calls": st["calls"], "count": st["count"],
                 "busy_s": busy(span), "self_s": self_s(span)}[stat]
        put(name, value, unit)
    main_wall = busy("cli.main")
    threads = workloads.SUITE_THREADS if wl.name == "suite" else 1
    put("cli.workers_busy_frac",
        busy("cli.run_check_instance") / (main_wall * threads) if main_wall else 0.0,
        "fraction")
    solves = tr.direct_children(t, "solver.solve",
                                "radial_pde.solve_radial_p_laplace")
    iterations = sum(k for _, k in solves)
    wasted = sum(k for raised, k in solves if raised)
    put("solver.iterations", iterations, "count")
    put("solver.ms_per_iteration",
        busy("solver.solve") * 1e3 / iterations if iterations else 0.0, "ms")
    put("solver.wasted_iter_frac", wasted / iterations if iterations else 0.0,
        "fraction")
    put("trace.overhead_frac", traced_wall / untraced_wall - 1.0, "fraction")
    print_line(f"trace: {len(ops)} ops, {len(t.spans)} spans, untraced "
               f"{untraced_wall:.3f} s, traced {traced_wall:.3f} s")
    return tally, metrics


# (metric, span name, statistic, unit); derived metrics are added in per_layer
LAYER_METRICS = [
    ("cli.run_check_instance.calls", "cli.run_check_instance", "calls", "count"),
    ("cli.run_check_instance.busy_s", "cli.run_check_instance", "busy_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("config.load_config.calls", "config.load_config", "calls", "count"),
    ("config.load_config.busy_s", "config.load_config", "busy_s", "s"),
    ("families.random_density.calls", "families.random_density", "calls", "count"),
    ("families.random_density.busy_s", "families.random_density", "busy_s", "s"),
    ("quadrature.panelize.calls", "quadrature.panelize", "calls", "count"),
    ("quadrature.panelize.busy_s", "quadrature.panelize", "busy_s", "s"),
    ("quadrature.panel_nodes.calls", "quadrature.panel_nodes", "calls", "count"),
    ("quadrature.panel_nodes.nodes", "quadrature.panel_nodes", "count", "count"),
    ("quadrature.panel_nodes.busy_s", "quadrature.panel_nodes", "busy_s", "s"),
    ("measure.RadialDensity.init.calls", "measure.RadialDensity.init", "calls", "count"),
    ("measure.RadialDensity.init.busy_s", "measure.RadialDensity.init", "busy_s", "s"),
    ("measure.multiply_radial.calls", "measure.multiply_radial", "calls", "count"),
    ("measure.multiply_radial.self_s", "measure.multiply_radial", "self_s", "s"),
    ("measure.integrate_against.calls", "measure.integrate_against", "calls", "count"),
    ("measure.integrate_against.self_s", "measure.integrate_against", "self_s", "s"),
    ("measure.centered_mass.calls", "measure.centered_mass", "calls", "count"),
    ("measure.centered_mass.points", "measure.centered_mass", "count", "count"),
    ("measure.centered_mass.busy_s", "measure.centered_mass", "busy_s", "s"),
    ("wolff.wolff_profile.calls", "wolff.wolff_profile", "calls", "count"),
    ("wolff.wolff_profile.distances", "wolff.wolff_profile", "count", "count"),
    ("wolff.wolff_profile.self_s", "wolff.wolff_profile", "self_s", "s"),
    ("wolff.wolff.calls", "wolff.wolff", "calls", "count"),
    ("wolff.wolff.self_s", "wolff.wolff", "self_s", "s"),
    ("wolff.wolff_sup_on_support.calls", "wolff.wolff_sup_on_support", "calls", "count"),
    ("wolff.wolff_sup_on_support.self_s", "wolff.wolff_sup_on_support", "self_s", "s"),
    ("radial_pde.solve_radial_p_laplace.calls", "radial_pde.solve_radial_p_laplace",
     "calls", "count"),
    ("radial_pde.solve_radial_p_laplace.self_s", "radial_pde.solve_radial_p_laplace",
     "self_s", "s"),
    ("radial_pde.RadialFunction.eval.calls", "radial_pde.RadialFunction.eval",
     "calls", "count"),
    ("radial_pde.RadialFunction.eval.points", "radial_pde.RadialFunction.eval",
     "count", "count"),
    ("radial_pde.RadialFunction.eval.busy_s", "radial_pde.RadialFunction.eval",
     "busy_s", "s"),
    ("radial_pde.dirichlet_energy.calls", "radial_pde.dirichlet_energy", "calls", "count"),
    ("radial_pde.dirichlet_energy.self_s", "radial_pde.dirichlet_energy", "self_s", "s"),
    ("radial_pde.riesz_ball_mass.calls", "radial_pde.riesz_ball_mass", "calls", "count"),
    ("energy.wolff_energy.calls", "energy.wolff_energy", "calls", "count"),
    ("energy.wolff_energy.self_s", "energy.wolff_energy", "self_s", "s"),
    ("energy.sigma_energy.calls", "energy.sigma_energy", "calls", "count"),
    ("energy.sigma_energy.self_s", "energy.sigma_energy", "self_s", "s"),
    ("energy.mutual_energy.calls", "energy.mutual_energy", "calls", "count"),
    ("energy.mutual_energy.self_s", "energy.mutual_energy", "self_s", "s"),
    ("energy.generalized_energy.calls", "energy.generalized_energy", "calls", "count"),
    ("energy.generalized_energy.self_s", "energy.generalized_energy", "self_s", "s"),
    ("energy.checks.self_s", "energy.checks", "self_s", "s"),
    ("lorentz.lorentz_norm.calls", "lorentz.lorentz_norm", "calls", "count"),
    ("lorentz.lorentz_norm.self_s", "lorentz.lorentz_norm", "self_s", "s"),
    ("lorentz.checks.self_s", "lorentz.checks", "self_s", "s"),
    ("solver.solve.calls", "solver.solve", "calls", "count"),
    ("solver.solve.self_s", "solver.solve", "self_s", "s"),
    ("solver.initial_subsolution.calls", "solver.initial_subsolution", "calls", "count"),
    ("solver.initial_subsolution.self_s", "solver.initial_subsolution", "self_s", "s"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wolfflab", "__init__.py")):
        sys.stderr.write(f"bench: no wolfflab sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import oracles
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}\n")
        return 2
    oracles.selftest()

    out_dir = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    wl.out_dir = out_dir
    wl.prepare()

    def print_line(text):
        print(f"[{args.workload} seed={args.seed}] {text}", flush=True)

    shape = wl.shape()
    print_line(f"shape {oracles.digest(repr(shape).encode())}: {len(shape)} "
               f"design rows, {', '.join(shape[:3])}, ...")
    tally, metrics = (per_layer if args.trace else end_to_end)(wl, args, print_line)

    for name, (value, unit) in metrics.items():
        print_line(f"{name} = {value!r} {unit}")
    if tally.digests:
        print_line(f"reports.jsonl digests: {' '.join(tally.digests)}")
    print_line(f"oracle: {tally.attempted - tally.failed}/{tally.attempted} ok")
    for kind, n in sorted(tally.failures.items()):
        print_line(f"FAILED {n}x {kind}")
    for kind, n in sorted(tally.known.items()):
        print_line(f"known defect {n}x {kind}")
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"failures": tally.failures, "known_defects": tally.known,
                   "digests": tally.digests,
                   "kernel_s": tally.kernel,
                   "ops": [[label, dt] for label, dt in zip(tally.labels, tally.latencies)]},
                  fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
