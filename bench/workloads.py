"""The benchmark's three workloads.

Each turns the benchmark seed into wolfflab inputs (config files, or
measures loaded through ``wolfflab.config``), runs one op at a time through
a public entry point, and checks the op's output against an oracle.  The
design of every workload (which kinds of op, in which order) is fixed;
the seed only draws the continuous parameters, so two seeds load the
same layers with the same mix.

``block_ops()`` is the workload's op list for one seed: the whole design
mix once.  A timed pass runs it in rounds; the traced run runs it once.
An op's life is ``before`` (untimed: write its config, clear old output),
``run`` (timed), ``check`` (untimed).  ``check`` returns
(instances, failed, [(failure kind, known defect?)]).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import oracles

CHECKS = ["mutual_energy", "quasi_triangle", "picone", "weighted_norm",
          "lorentz_embed", "km_sandwich", "lower_bound", "energy_identity",
          "density_conditions"]
SUITE_THREADS = 2       # this machine's nproc
SUITE_INSTANCES = 2     # per check: 18 check instances a block
# The suite's inputs do not depend on the benchmark seed: the CLI draws its
# check instances from the config seed, and their cost varies by a factor
# of more than 4 from one config seed to the next (energy_identity), which
# would make the seed, not the code, most of the run-to-run spread.
SUITE_CONFIG_SEED = 0


def _rng(*key):
    return np.random.default_rng(list(key))


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(lo, hi))


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _read(path, mode="r"):
    try:
        with open(path, mode) as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _call_main(argv):
    """Run ``wolfflab.cli.main``; returns (exit code or None, error kind)."""
    import wolfflab.cli  # looked up per call, so the traced run sees its wrapper
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = wolfflab.cli.main(argv)
    except Exception as e:  # a raw exception escaping main is a failed op
        return None, type(e).__name__
    kind = "NotConverged" if code == 4 else None  # solve exits 4 silently
    for line in err.getvalue().splitlines():
        if line.startswith("{"):
            kind = json.loads(line).get("error")
    return code, kind


class Suite:
    """``wolfflab suite`` on the canonical config, --threads 2: one
    invocation per check, all nine checks in a block."""

    name = "suite"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = os.path.join(workdir, "suite")
        os.makedirs(self.dir, exist_ok=True)
        self.reference = {}

    def config(self, i):
        return {"params": {"n": 3, "p": 2.0, "q": 0.5, "gamma": 1.0},
                "quad": {"points_per_decade": 32},
                "seed": SUITE_CONFIG_SEED,
                "measures": {},
                "command": {"checks": [CHECKS[i]], "instances": SUITE_INSTANCES}}

    def prepare(self):
        """Oracle fixed before timing: each op's reports at --threads 1."""
        for op in self.block_ops():
            self.before(op)
            code, kind = _call_main(op["argv"][:-3] + ["--threads", "1", "--json-errors"])
            if code != 0:
                raise RuntimeError(f"suite reference run {op['label']} failed: "
                                   f"exit {code} {kind}")
            self.reference[op["i"]] = _read(os.path.join(op["out"], "reports.jsonl"), "rb")

    def load(self):
        pass

    def _op(self, i):
        cfg = os.path.join(self.dir, f"config{i}.json")
        out = os.path.join(self.dir, "out")
        return {"i": i, "label": CHECKS[i], "config": cfg, "out": out,
                "argv": ["suite", "--config", cfg, "--out", out,
                         "--threads", str(SUITE_THREADS), "--json-errors"]}

    def block_ops(self):
        return [self._op(i) for i in range(len(CHECKS))]

    def shape(self):
        return [f"suite:{c}x{SUITE_INSTANCES}" for c in CHECKS]

    def setup_configs(self):
        return [self._op(0)["config"]]

    def before(self, op):
        _write_json(op["config"], self.config(op["i"]))
        for f in ("reports.jsonl", "summary.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(op["out"], f))

    def run(self, op):
        return _call_main(op["argv"])

    def check(self, op, raw):
        code, kind = raw
        summary = _read(os.path.join(op["out"], "summary.csv")) or ""
        reports = _read(os.path.join(op["out"], "reports.jsonl"), "rb") or b""
        op["digest"] = oracles.digest(reports)
        failure = oracles.suite_failure(code, kind, summary, reports,
                                        self.reference[op["i"]])
        if failure is None:
            return SUITE_INSTANCES, 0, []
        failed = SUITE_INSTANCES
        if failure == "oracle:failed_check":
            failed = oracles.summary_failed(summary)
        return SUITE_INSTANCES, failed, [(failure, False)] * failed


# -- solve -------------------------------------------------------------------

# (n, p, q/(p-1), mu present) of the non-manufactured rows: the p edges,
# then (n, p) in {(3,2), (4,3), (5,2.5)} over q/(p-1) from 0.3 to 0.999,
# mu in four of them
SOLVE_ROWS = [(3, 1.05, 0.5, False), (5, 1.05, 0.5, False), (3, 2.95, 0.5, False),
              (3, 2.0, 0.3, False), (3, 2.0, 0.9, False), (3, 2.0, 0.999, False),
              (3, 2.0, 0.999, True), (4, 3.0, 0.5, True), (4, 3.0, 0.99, False),
              (5, 2.5, 0.3, False), (5, 2.5, 0.5, True), (5, 2.5, 0.99, True)]


def _solve_design():
    """The solve rows: the manufactured rows (64 ppd, gamma 1, inf, 0),
    then SOLVE_ROWS."""
    rows = [{"manufactured": True, "n": 3, "p": 2.0, "ratio": 0.5,
             "gamma": g, "mu": False} for g in ("1", "inf", "0")]
    rows += [{"manufactured": False, "n": n, "p": p, "ratio": r, "gamma": "1",
              "mu": mu} for n, p, r, mu in SOLVE_ROWS]
    for r in rows:
        r["label"] = (f"n{r['n']}-p{r['p']:g}-" + (
            f"manufactured-g{r['gamma']}" if r["manufactured"]
            else f"ratio{r['ratio']:g}-{'mu' if r['mu'] else 'nomu'}"))
    return rows


class Solve:
    """Seeded ``wolfflab solve`` configs over a fixed design."""

    name = "solve"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = os.path.join(workdir, "solve")
        os.makedirs(self.dir, exist_ok=True)
        self.design = _solve_design()

    def prepare(self):
        pass

    def load(self):
        pass

    def config(self, k):
        row = self.design[k]
        n, p = row["n"], row["p"]
        if row["manufactured"]:
            return {"params": {"n": 3, "p": 2.0, "q": 0.5,
                               "gamma": row["gamma"] if row["gamma"] == "inf"
                               else float(row["gamma"])},
                    "quad": {"points_per_decade": 64}, "seed": 0,
                    "measures": {"sigma": {
                        "type": "radial_density",
                        "profile": {"kind": "family", "a": 3.0, "b": 1.0, "c": 2.25}}},
                    "command": {"sigma": ["sigma"], "mu": None, "output": "solution",
                                "reference": {"kind": "family", "a": 1.0,
                                              "b": 1.0, "c": 0.5}}}
        # The seed draws a dilation t and an amplitude lam of one base
        # problem per row: u_t,lam(x) = lam u(x/t) solves the row with
        # sigma -> lam^(p-1-q) t^-p sigma(./t), mu -> lam^(p-1) t^-p mu(./t),
        # so every seed runs the same Picard sequence up to scale.  Drawing
        # the shape instead flips rows between 15 and 200 steps.
        rng = _rng(self.seed, k)
        t, lam = _log_uniform(rng, -0.5, 0.5), _log_uniform(rng, -0.5, 0.5)
        q = row["ratio"] * (p - 1.0)
        measures = {"sigma": {"type": "radial_density", "profile": {
            "kind": "family", "a": lam ** (p - 1.0 - q) * t ** -p, "b": t,
            "c": n / 2.0 + 1.0}}}
        if row["mu"]:
            measures["mu"] = {"type": "radial_density", "profile": {
                "kind": "uniform_ball", "radius": t,
                "density": 0.3 * lam ** (p - 1.0) * t ** -p}}
        return {"params": {"n": n, "p": p, "q": q,
                           "gamma": 1.0},
                "quad": {"points_per_decade": 32}, "seed": 0,
                "measures": measures,
                "command": {"sigma": ["sigma"], "mu": "mu" if row["mu"] else None,
                            "output": "solution"}}

    def problem(self, k):
        """The row's (n, p, q, sigma, mu) as the Riesz oracle takes them."""
        cfg = self.config(k)
        pp, ms = cfg["params"], cfg["measures"]
        sig = ms["sigma"]["profile"]
        mu = ms.get("mu")
        return (pp["n"], pp["p"], pp["q"], (sig["a"], sig["b"], sig["c"]),
                (mu["profile"]["radius"], mu["profile"]["density"]) if mu else None)

    def _op(self, k):
        cfg = os.path.join(self.dir, "config.json")
        row = self.design[k]
        return {"k": k, "row": row, "label": row["label"], "config": cfg,
                "argv": ["solve", "--config", cfg, "--out", self.dir,
                         "--json-errors"]}

    def block_ops(self):
        return [self._op(k) for k in range(len(self.design))]

    def shape(self):
        return [r["label"] for r in self.design]

    def setup_configs(self):
        path = os.path.join(self.dir, "setup-config.json")
        _write_json(path, self.config(len(self.design) - 1))
        return [path]

    def before(self, op):
        _write_json(op["config"], self.config(op["k"]))
        for f in ("solution.json", "solution.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.dir, f))

    def run(self, op):
        return _call_main(op["argv"])

    def check(self, op, raw):
        code, kind = raw
        row = op["row"]
        diag_text = _read(os.path.join(self.dir, "solution.json"))
        diag = json.loads(diag_text) if diag_text else None
        csv_text = _read(os.path.join(self.dir, "solution.csv")) or "r,u\n"
        profile = [line.split(",") for line in csv_text.splitlines()[1:]]
        r = [float(x) for x, _ in profile]
        u = [float(v) for _, v in profile]
        failure = oracles.solve_failure(row, code, kind, diag, r, u,
                                        self.problem(op["k"]))
        if failure is None:
            return 1, 0, []
        known = oracles.known_defect(row, failure)
        return 1, 0 if known else 1, [(f"{failure} @ {row['label']}", known)]


# -- pointwise -----------------------------------------------------------------

POINT_NS = (3, 4, 5)
POINT_ATOM_PS = {3: (1.5, 2.5), 4: (1.5, 3.5), 5: (2.5, 4.0)}
POINT_SETS = 4          # measure sets per dimension: 108 ops a block
# The shapes of the measure sets and the points are drawn from this fixed
# seed; the benchmark seed draws a dilation t and an amplitude lam per set,
# and the set, its points and radii are seen at that scale.  Drawing the
# shapes from the benchmark seed instead moves the cost of a block by 15%
# from seed to seed (the n = 4 sums dominate it).
POINT_SHAPE_SEED = 0
# one design cycle per (set, n): 6 ops on sums with radial parts, 3 on atoms
POINT_DESIGN = [("mix", "wolff"), ("mix", "wolff"), ("mix", "wolff"),
                ("cut", "wolff"), ("cut", "truncated"), ("cut", "truncated"),
                ("atoms", "truncated"), ("atom_a", "wolff"),
                ("atom_b", "truncated")]


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


class Pointwise:
    """``wolff`` / ``truncated_wolff`` at seeded off-center points."""

    name = "pointwise"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = os.path.join(workdir, "pointwise")
        os.makedirs(self.dir, exist_ok=True)
        self.specs = {}      # (n, set) -> measure descriptors for the oracle
        self.scales = {}     # (n, set) -> (t, lam)
        self.configs = {}
        self.op_list = []

    # measures --------------------------------------------------------------
    def _measure_specs(self, n, s):
        rng = _rng(POINT_SHAPE_SEED, n, s)
        t, lam = self.scales[(n, s)]
        dens = lam * t ** -n     # a density of the set dilated by t, times lam
        atoms = [((_unit(rng, n) * _log_uniform(rng, -0.5, 0.5) * t).tolist(),
                  lam * _log_uniform(rng, -1.0, 0.0)) for _ in range(3)]
        shell = {"kind": "shell", "radius": t * _log_uniform(rng, -0.3, 0.3),
                 "mass": lam * _log_uniform(rng, -1.0, 0.0)}
        ball = {"kind": "ball", "radius": t * _log_uniform(rng, -0.3, 0.3),
                "density": dens * _log_uniform(rng, -1.0, 0.0)}
        a, b = dens * _log_uniform(rng, -0.5, 0.5), t * _log_uniform(rng, -0.5, 0.5)
        c = n / 2.0 + rng.uniform(0.3, 1.5)
        family = {"kind": "family", "a": a, "b": b, "c": c, "cut": None}
        cut = dict(family, cut=b * _log_uniform(rng, 0.3, 1.0))
        return {"mix": (atoms[:2], [shell, ball, family]),
                "cut": (atoms[:2], [shell, ball, cut]),
                "atoms": (atoms, []),
                "atom_a": (atoms[2:], []),
                "atom_b": (atoms[2:], [])}

    @staticmethod
    def _descriptor(atoms, radial):
        terms = [{"type": "atom", "location": loc, "weight": w} for loc, w in atoms]
        for comp in radial:
            if comp["kind"] == "shell":
                terms.append({"type": "shell", "radius": comp["radius"],
                              "mass": comp["mass"]})
            elif comp["kind"] == "ball":
                terms.append({"type": "radial_density", "profile": {
                    "kind": "uniform_ball", "radius": comp["radius"],
                    "density": comp["density"]}})
            else:
                d = {"type": "radial_density", "profile": {
                    "kind": "family", "a": comp["a"], "b": comp["b"], "c": comp["c"]}}
                if comp["cut"] is not None:
                    d["cut"] = comp["cut"]
                terms.append(d)
        return terms[0] if len(terms) == 1 else {"type": "sum", "terms": terms}

    def prepare(self):
        """Write one config per dimension and precompute every op's oracle."""
        for n in POINT_NS:
            measures = {}
            for s in range(POINT_SETS):
                rng = _rng(self.seed, n, s)
                self.scales[(n, s)] = (_log_uniform(rng, -0.5, 0.5),
                                       _log_uniform(rng, -0.5, 0.5))
                specs = self._measure_specs(n, s)
                self.specs[(n, s)] = specs
                for key, (atoms, radial) in specs.items():
                    if key != "atom_b":
                        measures[f"{key}{s}"] = self._descriptor(atoms, radial)
            path = os.path.join(self.dir, f"measures-n{n}.json")
            _write_json(path, {"params": {"n": n, "p": 2.0, "q": 0.5, "gamma": 1.0},
                               "measures": measures})
            self.configs[n] = path
        for s in range(POINT_SETS):
            for n in POINT_NS:
                for j, (key, kind) in enumerate(POINT_DESIGN):
                    self.op_list.append(self._point_op(s, n, j, key, kind))

    def load(self):
        """Parse the measure configs (the workload's config load)."""
        from wolfflab.config import load_config
        from wolfflab.params import params
        self.loaded = {n: load_config(path) for n, path in self.configs.items()}
        self.params = {(n, p): params(n, p, 0.5 * (p - 1.0), 1.0)
                       for n in POINT_NS for p in (2.0,) + POINT_ATOM_PS[n]}

    def _point_op(self, s, n, j, key, kind):
        rng = _rng(POINT_SHAPE_SEED, n, s, j)
        t = self.scales[(n, s)][0]
        atoms, radial = self.specs[(n, s)][key]
        while True:
            x = _unit(rng, n) * _log_uniform(rng, -1.0, 1.0) * t
            if all(np.linalg.norm(x - np.asarray(loc)) > 0.05 * t for loc, _ in atoms):
                break
        x = x.tolist()
        d = math.sqrt(sum(v * v for v in x))
        p = {"atom_a": POINT_ATOM_PS[n][0], "atom_b": POINT_ATOM_PS[n][1]}.get(key, 2.0)
        R = None
        if kind == "truncated":
            if radial:
                reach = max(cmp["radius"] if cmp["kind"] != "family" else cmp["cut"]
                            for cmp in radial)
                R = (d + reach) * _log_uniform(rng, 0.0, 0.3)
            elif key == "atoms":
                R = t * _log_uniform(rng, -0.5, 0.7)
            else:
                R = math.dist(x, atoms[0][0]) * _log_uniform(rng, 0.05, 0.5)
        if p == 2.0:
            expected = oracles.newton_wolff(n, atoms, radial, x, R)
        else:
            loc, w = atoms[0]
            expected = oracles.dirac_wolff(n, p, w, math.dist(x, loc), R)
        measure = f"atom_a{s}" if key == "atom_b" else f"{key}{s}"
        return {"n": n, "p": p, "measure": measure, "x": np.asarray(x), "R": R,
                "expected": expected, "label": f"n{n}-{key}-{kind}"}

    def block_ops(self):
        return self.op_list

    def shape(self):
        return [f"n{n}-{key}-{kind}" for n in POINT_NS for key, kind in POINT_DESIGN]

    def setup_configs(self):
        return list(self.configs.values())

    def before(self, op):
        pass

    def run(self, op):
        import wolfflab  # looked up per call, so the traced run sees its wrapper
        mu = self.loaded[op["n"]].measures[op["measure"]]
        pp = self.params[(op["n"], op["p"])]
        quad = self.loaded[op["n"]].quad
        try:
            if op["R"] is None:
                return wolfflab.wolff(mu, op["x"], pp, quad).value, None
            return wolfflab.truncated_wolff(mu, op["x"], op["R"], pp, quad).value, None
        except wolfflab.WolffLabError as e:
            return None, type(e).__name__
        except Exception as e:  # a raw exception is a failed op of its own kind
            return None, f"raw:{type(e).__name__}"

    def check(self, op, raw):
        value, error = raw
        failure = error or oracles.point_failure(value, op["expected"])
        if failure is None:
            return 1, 0, []
        return 1, 1, [(f"{failure} @ {op['label']}", False)]


WORKLOADS = {w.name: w for w in (Suite, Solve, Pointwise)}
