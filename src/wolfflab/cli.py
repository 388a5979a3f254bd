"""Command-line front end: wolff / solve / verify / suite / report.

One JSON config per run; outputs are CSV and JSON-lines files written to
the output directory.  Identical config and seed give byte-identical
outputs regardless of the worker count: instances are generated from
(seed, check, index) and results are assembled in index order.  ``--threads
N`` runs verify/suite instances on N processes, this one included, capped
at the instance count and usable CPUs.  The config's command section is
checked when it loads (``config.parse_config``); this module reads it.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 not converged (files still written), 5 verification failure (summary
still written).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import pickle
import sys

import numpy as np

from .config import CHECK_NAMES, RunConfig, load_config
from .energy import (InequalityReport, check_mutual_energy_estimate,
                     check_picone_caccioppoli, check_quasi_triangle,
                     check_weighted_norm)
from .errors import (ConfigError, NotConverged, UnboundedCondition,
                     WolffLabError, ZeroMeasure)
from .families import (family_profile, random_density, random_pair,
                       random_test_profile)
from .lorentz import check_density_conditions, check_lorentz_embedding, \
    density_condition_exponents
from .measure import zero_measure
from .params import Mode, ProblemParams, params as make_params
from .radial_pde import solve_radial_p_laplace
from .solver import (energy_identity_report, intrinsic_fixed_point,
                     km_sandwich_ratio, solve_bounded_endpoint, solve_minimal)
from .wolff import truncated_wolff, wolff

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NOT_CONVERGED = 4
EXIT_CHECK_FAILED = 5


# the command names and, by name, the functions they run: looked up per
# call, so a function patched on this module is the one called
_COMMANDS = {"wolff": "cmd_wolff", "solve": "cmd_solve", "verify": "cmd_checks",
             "suite": "cmd_checks", "report": "cmd_report"}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[_COMMANDS[args.cmd]](args)
    except (ConfigError, ZeroMeasure, UnboundedCondition) as e:
        _emit_error(args, type(e).__name__, str(e))
        return EXIT_CONFIG
    except NotConverged as e:
        _emit_error(args, "NotConverged", str(e))
        return EXIT_NOT_CONVERGED
    except WolffLabError as e:
        _emit_error(args, type(e).__name__, str(e))
        return EXIT_NUMERICAL


@functools.cache
def _parser():
    """The argument parser, built once a process."""
    parser = argparse.ArgumentParser(
        prog="wolfflab",
        description="Nonlinear-potential laboratory: Wolff potentials, radial "
                    "p-Laplace solves and inequality verification.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=(name != "report"))
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=".")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--json-errors", action="store_true")
        if name == "report":
            sp.add_argument("inputs", nargs="*")
    return parser


def _emit_error(args, kind, message):
    if getattr(args, "json_errors", False):
        sys.stderr.write(json.dumps({"error": kind, "message": message},
                                    sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"wolfflab: {kind}: {message}\n")


def _workers(args, ntasks) -> int:
    """--threads, capped at the number of tasks and at the CPUs this
    process may run on."""
    return min(args.threads, ntasks, _usable_cpus())


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# -- wolff ----------------------------------------------------------------

def cmd_wolff(args) -> int:
    cfg = _load(args)
    cmd = cfg.command
    mu = cfg.measure(cmd.get("measure"))
    truncs = cmd.get("truncations", [])
    rows = []
    for pt in cmd.get("points", []):
        listed = isinstance(pt, list)
        coords = pt if listed else [pt]
        # zeros pad a point to R^n; one with more coordinates makes wolff raise BadPoint
        x = np.array(coords + [0.0] * (cfg.params.n - len(coords)))
        label = "(" + " ".join(map(repr, coords)) + ")" if listed else repr(pt)
        try:
            pv = wolff(mu, x, cfg.params, cfg.quad)
            row = [label, repr(pv.value), repr(pv.quad_error_estimate), str(pv.converged)]
            for R in truncs:
                row.append(repr(truncated_wolff(mu, x, R, cfg.params, cfg.quad).value))
        except WolffLabError:
            raise
        except Exception as e:  # genuine numerical failure
            _emit_error(args, "NumericalFailure", f"{e}")
            return EXIT_NUMERICAL
        rows.append(row)
    path = _outpath(args, cmd.get("output", "wolff.csv"))
    header = ["point", "value", "error_estimate", "converged"] + [f"trunc_{R:g}" for R in truncs]
    _write_csv(path, header, rows)
    return EXIT_OK


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


# -- solve ----------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = _load(args)
    terms = cfg.command.get("sigma", [])
    sigmas, qs = [cfg.measure(name) for name, _ in terms], [q for _, q in terms]
    mu = cfg.measure(cfg.command.get("mu"))
    mode = cfg.params.mode
    status = EXIT_OK
    try:
        if mode is Mode.FINITE_GAMMA:
            sol = solve_minimal(sigmas, qs, mu, cfg.params, cfg.quad)
        elif mode is Mode.GAMMA_INFINITY:
            sol = solve_bounded_endpoint(sigmas, qs, mu, cfg.params, cfg.quad)
        else:
            sol = intrinsic_fixed_point(
                sigmas[0] if sigmas else zero_measure(cfg.params.n),
                qs[0] if qs else cfg.params.q_list[0], mu, cfg.params, cfg.quad)
    except NotConverged as e:
        sol = e.solution
        status = EXIT_NOT_CONVERGED
    _write_solution(args, cfg, sol)
    return status


def _write_solution(args, cfg, sol):
    prefix = cfg.command.get("output", "solution")
    rows = [[repr(float(r)), repr(float(v))]
            for r, v in zip(sol.u.grid, sol.u.values)]
    _write_csv(_outpath(args, f"{prefix}.csv"), ["r", "u"], rows)
    diag = {
        "params": {"n": cfg.params.n, "p": cfg.params.p,
                   "q": list(cfg.params.q_list),
                   "gamma": _jsonable(cfg.params.gamma)},
        "converged": sol.converged,
        "iterations_used": sol.iterations_used,
        "residual_final": sol.residual_final,
        "generalized_energy": sol.generalized_energy,
        "lorentz_norm": sol.lorentz_norm,
        "lower_bound_ratio": sol.lower_bound_ratio,
        "sup_norm": sol.sup_norm,
        "mode": sol.mode.value,
        "tail_coeff": sol.u.tail_coeff,
        "tail_exp": sol.u.tail_exp,
        "center_value": sol.u.center_value,
        "extras": _jsonable(sol.extras),
        "trace": [{"j": st.j, "residual": st.residual,
                   "mass_residual": st.mass_residual,
                   "sup_norm": st.sup_norm,
                   "energies": _jsonable(st.energies)} for st in sol.trace],
    }
    ref = cfg.command.get("reference")
    if ref:
        rs = np.geomspace(*ref["window"], 400)
        u_ref = ref["a"] * (1.0 + (rs / ref["b"]) ** 2) ** (-ref["c"])
        got = sol.u.eval(rs)
        diag["reference_sup_rel_err"] = float(np.max(np.abs(got - u_ref) / u_ref))
    with open(_outpath(args, f"{prefix}.json"), "w", encoding="utf-8") as fh:
        json.dump(diag, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


# -- verify / suite --------------------------------------------------------

def cmd_checks(args) -> int:
    """verify and suite: seeded check instances, 16 and 100 per check by
    default."""
    cfg = _load(args)
    checks = cfg.command.get("checks", CHECK_NAMES)
    instances = cfg.command.get("instances", 16 if args.cmd == "verify" else 100)
    bound = cfg.command.get("bound", 1e3)
    tasks = [(name, idx) for name in checks for idx in range(instances)]
    def run(task):  # ((check, index), report dicts)
        reports = run_check_instance(*task, cfg.seed, cfg.params, cfg.quad,
                                     float(bound))
        return task, [r.as_dict() for r in reports]

    results = _run_striped(run, tasks, _workers(args, len(tasks)))
    results.sort(key=lambda kv: (checks.index(kv[0][0]), kv[0][1]))

    report_path = _outpath(args, cfg.command.get("output", "reports.jsonl"))
    summary = {}
    with open(report_path, "w", encoding="utf-8") as fh:
        for (name, idx), reports in results:
            for rep in reports:
                rep["check"] = name
                rep["index"] = idx
                rep["params"] = {"n": cfg.params.n, "p": cfg.params.p,
                                 "gamma": _jsonable(cfg.params.gamma),
                                 "q": list(cfg.params.q_list)}
                fh.write(json.dumps(_jsonable(rep), sort_keys=True) + "\n")
                _tally(summary, name, rep)
    rows = [[name, str(s["count"]), str(s["failed"]), str(s["vacuous"]),
             "" if s["max_ratio"] is None else repr(s["max_ratio"])]
            for name, s in sorted(summary.items())]
    _write_csv(_outpath(args, "summary.csv"),
               ["name", "count", "failed", "vacuous", "max_ratio"], rows)
    failed = sum(s["failed"] for s in summary.values())
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _tally(cells, key, rep):
    """Count one report into cells[key]: count, failed, vacuous, max_ratio."""
    cell = cells.setdefault(key, {"count": 0, "failed": 0, "vacuous": 0,
                                  "max_ratio": None})
    cell["count"] += 1
    cell["failed"] += 0 if rep.get("passed") else 1
    cell["vacuous"] += 1 if rep.get("vacuous") else 0
    r = rep.get("ratio")
    if r is not None:
        cur = cell["max_ratio"]
        cell["max_ratio"] = r if cur is None else max(cur, r)


def _run_striped(run, tasks, workers):
    """[run(t) for t in tasks] on `workers` processes.  The instances hold
    the GIL, so this one runs tasks[0::workers] and forks a child (which has
    the imports) per other stripe.  The lowest failing index's error wins."""
    workers, kids = max(workers, 1), {}
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # a child never returns into the caller's code
                try:
                    for fd in [r, *kids.values()]:
                        os.close(fd)
                    out = _stripe(run, tasks, k, workers)
                    try:
                        pickle.loads(pickle.dumps(out[-1:]))
                    except Exception:
                        out[-1] = out[-1][0], RuntimeError(repr(out[-1][1]))
                    with open(w, "wb") as fh:
                        pickle.dump(out, fh)
                finally:
                    os._exit(0)
            os.close(w)
            kids[pid] = r
        out = _stripe(run, tasks, 0, workers)
        for fd in kids.values():
            with open(fd, "rb", closefd=False) as fh:
                out += pickle.load(fh)  # EOFError if the child died
    finally:
        for pid, fd in kids.items():
            os.close(fd)  # before the wait: a child blocked on a full pipe
            os.waitpid(pid, 0)  # gets EPIPE and exits
    out.sort(key=lambda kv: kv[0])
    for _, result in out:
        if isinstance(result, Exception):
            raise result
    return [result for _, result in out]


def _stripe(run, tasks, k, step):
    """(i, run(tasks[i])) for i = k, k + step, ..., to the first (i, error)."""
    out = []
    for i in range(k, len(tasks), step):
        try:
            out.append((i, run(tasks[i])))
        except Exception as e:
            return out + [(i, e)]
    return out


def run_check_instance(name, idx, seed, pp: ProblemParams, quad,
                       bound) -> list:
    """One seeded instance of a named check; pure and deterministic in
    (name, idx, seed, params, quad)."""
    rng = np.random.default_rng([seed, CHECK_NAMES.index(name), idx])
    g = pp.gamma if pp.mode is Mode.FINITE_GAMMA else 1.0
    p = pp.p

    if name == "mutual_energy":
        sigma, mu, desc = random_pair(rng, pp, quad)
        q = rng.uniform(max(-0.9 * g, -0.5), 0.9 * (p - 1.0))
        rep = check_mutual_energy_estimate(sigma, mu, g, q, pp, quad, bound,
                                           instance={"seed": idx, **desc})
        return [rep]

    if name == "quasi_triangle":
        mu, nu, desc = random_pair(rng, pp, quad)
        rep = check_quasi_triangle(mu, nu, g, pp, quad, bound,
                                   instance={"seed": idx, **desc})
        return [rep]

    if name == "picone":
        nu_v, desc = random_density(rng, pp, quad)
        v = solve_radial_p_laplace(nu_v, pp, quad)
        u = random_test_profile(rng, pp, quad)
        rep = check_picone_caccioppoli(u, v, nu_v, pp, quad,
                                       instance={"seed": idx, **desc})
        return [rep]

    if name == "weighted_norm":
        sigma, desc = random_density(rng, pp, quad)
        q = pp.q_list[0]
        a = 10.0 ** rng.uniform(-0.5, 0.5)
        b = 10.0 ** rng.uniform(-0.5, 0.5)
        f = family_profile(a, b, 0.5 + rng.uniform(0.0, 1.5), quad)
        rep = check_weighted_norm(sigma, f, g, q, pp, quad, bound,
                                  instance={"seed": idx, **desc})
        return [rep]

    if name == "lorentz_embed":
        mu, desc = random_density(rng, pp, quad)
        rep = check_lorentz_embedding(mu, g, pp, quad, bound)
        rep.instance.update({"seed": idx, **desc})
        return [rep]

    if name == "km_sandwich":
        nu, desc = random_density(rng, pp, quad)
        u = solve_radial_p_laplace(nu, pp, quad)
        samples = []
        for _ in range(10):
            d = 10.0 ** rng.uniform(-2.0, 2.0)
            samples.append((d, d * 10.0 ** rng.uniform(-1.0, 1.0)))
        worst = km_sandwich_ratio(nu, u, samples, pp, quad)
        rep = InequalityReport.build("km_sandwich", worst, 1.0, bound,
                                     instance={"seed": idx, **desc})
        return [rep]

    if name == "lower_bound":
        sigma, desc = random_density(rng, pp, quad)
        q = pp.q_list[0]
        pl = make_params(pp.n, pp.p, q, g)
        sol = solve_minimal([sigma], [q], None, pl, quad, check_conditions=False)
        ratio = sol.lower_bound_ratio or 0.0
        rep = InequalityReport.build("lower_bound", 1.0, ratio, bound=math.inf,
                                     instance={"seed": idx, **desc,
                                               "empirical_c0": 1.0 / ratio if ratio > 0 else None})
        return [rep]

    if name == "energy_identity":
        q1 = pp.q_list[0]
        q2 = float(rng.uniform(0.2, 0.8)) * (p - 1.0)
        pl = make_params(pp.n, pp.p, [q1, q2], 1.0)
        s1, d1 = random_density(rng, pl, quad)
        s2, d2 = random_density(rng, pl, quad)
        mu, d3 = random_density(rng, pl, quad)
        sol = solve_minimal([s1, s2], [q1, q2], mu, pl, quad,
                            check_conditions=False)
        rep = energy_identity_report(sol.u, sol.generalized_energy, pl, quad)
        rep.instance.update({"seed": idx, "sigma1": d1, "sigma2": d2, "mu": d3})
        return [rep]

    if name == "density_conditions":
        role = "sigma" if idx % 2 == 0 else "mu"
        s_star, t_star = density_condition_exponents(
            make_params(pp.n, pp.p, pp.q_list, g), role)
        jitter = rng.uniform(-0.2, 0.2)
        supplied = (s_star, t_star * (1.0 + jitter))
        dens, desc = random_density(rng, pp, quad)
        res = check_density_conditions(supplied, role,
                                       make_params(pp.n, pp.p, pp.q_list, g),
                                       density=dens, quad=quad)
        ok = res["implication_holds"]
        rep = InequalityReport.build("density_conditions",
                                     0.0 if ok else 1.0, 1.0, bound=0.5,
                                     instance={"seed": idx, **res, **desc})
        return [rep]


# -- report -----------------------------------------------------------------

def cmd_report(args) -> int:
    inputs = list(getattr(args, "inputs", []) or [])
    if args.config:
        cfg = _load(args)
        inputs.extend(cfg.command.get("inputs", []))
    files = []
    for item in inputs:
        if os.path.isdir(item):
            files.extend(sorted(
                os.path.join(item, f) for f in os.listdir(item)
                if f.endswith(".jsonl")))
        elif os.path.isfile(item):
            files.append(item)
    if not files:
        raise ConfigError("report: no JSON-lines inputs found")

    cells = {}
    ratios = {}
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            for num, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rep = json.loads(line)
                except ValueError:
                    rep = None
                if not isinstance(rep, dict):
                    raise ConfigError(f"report: {path} line {num}: need a JSON object")
                par = rep.get("params", {})
                key = (rep.get("check", rep.get("name")), par.get("n"),
                       par.get("p"), str(par.get("gamma")),
                       tuple(par.get("q", [])))
                _tally(cells, key, rep)
                if rep.get("ratio") is not None:
                    ratios.setdefault(key[0], []).append(rep["ratio"])

    rows = []
    for key in sorted(cells, key=lambda k: tuple(str(x) for x in k)):
        c = cells[key]
        rows.append([key[0], str(key[1]), str(key[2]), key[3],
                     ";".join(str(x) for x in key[4]), str(c["count"]),
                     str(c["failed"]), str(c["vacuous"]),
                     "" if c["max_ratio"] is None else repr(c["max_ratio"])])
    _write_csv(_outpath(args, "constants.csv"),
               ["check", "n", "p", "gamma", "q", "count", "failed", "vacuous",
                "max_ratio"], rows)

    with open(_outpath(args, "constants.md"), "w", encoding="utf-8") as fh:
        fh.write("| check | n | p | gamma | q | count | failed | vacuous | max ratio |\n")
        fh.write("|---|---|---|---|---|---|---|---|---|\n")
        for row in rows:
            fh.write("| " + " | ".join(row) + " |\n")

    hist_rows = []
    for name in sorted(ratios):
        vals = np.asarray([v for v in ratios[name] if math.isfinite(v)])
        if not len(vals):
            continue
        edges = np.histogram_bin_edges(vals, bins=20)
        counts, _ = np.histogram(vals, bins=edges)
        for lo, hi, ct in zip(edges[:-1], edges[1:], counts):
            hist_rows.append([name, repr(float(lo)), repr(float(hi)), str(int(ct))])
    _write_csv(_outpath(args, "ratio_histogram.csv"),
               ["check", "bin_lo", "bin_hi", "count"], hist_rows)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
