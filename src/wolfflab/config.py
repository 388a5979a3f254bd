"""Run configuration: one self-contained JSON document per run with
sections {params, quad, measures, command}, every field checked when it
loads, before any work (ConfigError).

Radial density profiles may be given inline (family coefficients or
tables) or loaded from two-column CSV (s, f(s)).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ExponentError, WolffLabError
from .families import family_density_fn
from .measure import (Atom, RadialDensity, RadonMeasure, SphericalShell, Sum,
                      zero_measure)
from .params import Mode, ProblemParams, QuadratureConfig, validate

# verify/suite check names; the index seeds each check's instances
CHECK_NAMES = ("mutual_energy", "quasi_triangle", "picone", "weighted_norm",
               "lorentz_embed", "km_sandwich", "lower_bound",
               "energy_identity", "density_conditions")
CHECK_ALIASES = {"thm31": "mutual_energy"}


@dataclass
class RunConfig:
    params: ProblemParams
    quad: QuadratureConfig
    measures: dict
    command: dict = field(default_factory=dict)
    seed: int = 0

    def measure(self, name: str) -> RadonMeasure:
        """The measure a checked command field names; None is zero."""
        return zero_measure(self.params.n) if name is None else self.measures[name]


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    return parse_config(doc)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    params = _parse_params(doc.get("params"))
    quad = _parse_quad(doc.get("quad", {}))
    measures = {}
    for name, desc in (doc.get("measures") or {}).items():
        measures[name] = parse_measure(desc, params.n, quad, f"measures.{name}")
    command = _parse_command(doc.get("command", {}), params, measures)
    return RunConfig(params=params, quad=quad, measures=measures, command=command,
                     seed=_integer(doc.get("seed", 0), "seed"))


def _integer(value, where: str) -> int:
    return _need(type(value) is int, value, where, "an integer")


def _parse_params(section) -> ProblemParams:
    if not isinstance(section, dict):
        raise ConfigError("params: section is required")
    try:
        n = _integer(section["n"], "params.n")
        p = float(section["p"])
        q = section["q"]
        gamma = section["gamma"]
    except KeyError as e:
        raise ConfigError(f"params.{e.args[0]}: missing")
    except (TypeError, ValueError) as e:
        raise ConfigError(f"params: {e}")
    if isinstance(gamma, str):
        if gamma.lower() in ("inf", "infinity"):
            gamma = math.inf
        else:
            raise ConfigError(f"params.gamma: cannot parse {gamma!r}")
    q_list = tuple(float(x) for x in q) if isinstance(q, (list, tuple)) else (float(q),)
    pp = ProblemParams(n=n, p=p, q_list=q_list, gamma=float(gamma))
    try:
        return validate(pp)
    except WolffLabError as e:
        raise ConfigError(f"params: {e}")


def _parse_quad(section) -> QuadratureConfig:
    if not isinstance(section, dict):
        raise ConfigError("quad: must be an object")
    _known(section, "quad", ("r_min", "r_max", "points_per_decade", "rel_tol",
                             "max_iter", "conv_tol"))
    try:
        return QuadratureConfig(**section)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"quad: {e}")


def parse_measure(desc, dim: int, quad: QuadratureConfig,
                  where: str) -> RadonMeasure:
    if not isinstance(desc, dict) or "type" not in desc:
        raise ConfigError(f"{where}: measure descriptor needs a 'type'")
    kind = desc["type"]
    try:
        if kind == "zero":
            return zero_measure(dim)
        if kind == "atom":
            return Atom(np.asarray(desc["location"], dtype=float), float(desc["weight"]))
        if kind == "shell":
            return SphericalShell(dim, float(desc["radius"]), float(desc["mass"]))
        if kind == "sum":
            return Sum([parse_measure(t, dim, quad, f"{where}.terms[{i}]")
                        for i, t in enumerate(desc["terms"])])
        if kind == "scaled":
            inner = parse_measure(desc["term"], dim, quad, f"{where}.term")
            return inner.scale(float(desc["factor"]))
        if kind == "radial_density":
            return _parse_density(desc, dim, quad, where)
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError(f"{where}.{e.args[0]}: missing")
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}")
    raise ConfigError(f"{where}.type: unknown measure type {kind!r}")


def _parse_density(desc, dim, quad, where) -> RadialDensity:
    profile = desc.get("profile")
    if not isinstance(profile, dict) or "kind" not in profile:
        raise ConfigError(f"{where}.profile: needs a 'kind'")
    cut = desc.get("cut")
    lo_cut = float(desc.get("lo_cut", 0.0))
    if not lo_cut >= 0.0 or (cut is not None and math.isnan(float(cut))):
        raise ConfigError(f"{where}: need lo_cut >= 0 and cut not NaN, got {lo_cut}, {cut}")
    allow = bool(desc.get("allow_infinite_mass", False))
    tail = desc.get("tail")
    kind = profile["kind"]
    if kind == "family":
        a, b, c = (float(profile[k]) for k in ("a", "b", "c"))
        if not tail:  # family_density's tail, none for a cut family
            tail = None if cut is not None else (a * b ** (2.0 * c), 2.0 * c)
        return RadialDensity.from_function(dim, family_density_fn(a, b, c), quad,
                                           tail=tail, cut=None if cut is None else float(cut),
                                           lo_cut=lo_cut, allow_infinite_mass=allow)
    if kind == "uniform_ball":
        return RadialDensity.uniform_ball(dim, float(profile["radius"]),
                                          float(profile.get("density", 1.0)), quad)
    if kind in ("table", "csv"):
        s, f = _load_profile_csv(profile["path"], where) if kind == "csv" else \
            (np.asarray(profile["s"], dtype=float), np.asarray(profile["f"], dtype=float))
        return RadialDensity(dim, s, f, tail=tuple(tail) if tail else None,
                             cut=None if cut is None else float(cut),
                             lo_cut=lo_cut, allow_infinite_mass=allow,
                             window_order=quad.window_gauss_order)
    raise ConfigError(f"{where}.profile.kind: unknown kind {kind!r}")


def _load_profile_csv(path, where):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as e:
        raise ConfigError(f"{where}.profile.path: {e}")
    data = []
    for row in rows:
        if not row or row[0].strip().startswith("#"):
            continue
        try:
            data.append((float(row[0]), float(row[1])))
        except (ValueError, IndexError):
            if not data:
                continue  # header line
            raise ConfigError(f"{where}.profile.path: malformed row {row!r}")
    if len(data) < 2:
        raise ConfigError(f"{where}.profile.path: needs at least two rows")
    data.sort()
    s = np.array([d[0] for d in data])
    f = np.array([d[1] for d in data])
    return s, f


def _known(section: dict, where: str, keys):
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"{where}.{sorted(unknown)[0]}: unknown key")


def _need(ok: bool, value, where: str, what: str):
    """value when ok, else a ConfigError saying what the field needs."""
    if not ok:
        raise ConfigError(f"{where}: need {what}, got {value!r}")
    return value


def _number(value, where: str) -> float:
    """float(value); what float() refuses is a ConfigError, while NaN is
    left for the computation to refuse with its own error."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return _need(False, value, where, "a number")


def _parse_command(cmd, pp: ProblemParams, measures: dict) -> dict:
    """The command section, checked field by field before any work, each
    field in the form the subcommands read.  A key that no subcommand reads
    is refused; absent keys stay absent (their defaults differ by
    subcommand)."""
    _need(isinstance(cmd, dict), cmd, "command", "an object")

    def listed(item):
        return lambda v, w: [item(x, w) for x in _need(isinstance(v, list), v, w, "a list")]

    def string(v, w):
        return _need(isinstance(v, str), v, w, "a string")

    def name(v, w, null=True):  # a declared measure; None where null is allowed
        return None if v is None and null else \
            _need(isinstance(v, str) and v in measures, v, w, "a declared measure's name")

    def point(v, w):  # a distance, or coordinates
        return [_number(c, w) for c in v] if isinstance(v, (list, tuple)) else _number(v, w)

    def check(v, w):  # the canonical name
        v = CHECK_ALIASES.get(v, v) if isinstance(v, str) else v
        return _need(v in CHECK_NAMES, v, w, f"one of {CHECK_NAMES}")

    def sigma(v, w):
        # (measure name, q) pairs from names or {measure, q} objects, q by
        # default params' q of the term's index (the last one beyond); a
        # bare null is one zero term
        terms = []
        for i, t in enumerate(v if isinstance(v, list) else [v]):
            t = t if isinstance(t, dict) else {"measure": t}
            _known(t, f"{w}[{i}]", ("measure", "q"))
            q = t.get("q", pp.q_list[min(i, len(pp.q_list) - 1)])
            terms.append((name(t.get("measure"), f"{w}[{i}].measure", null=v is None),
                          _number(q, f"{w}[{i}].q")))
        try:  # each q in (0, p - 1) as params' own, the rule solver._inputs applies
            validate(replace(pp, q_list=pp.q_list + tuple(q for _, q in terms)))
        except ExponentError as e:
            raise ConfigError(f"{w}: {e}")
        return _need(pp.mode is not Mode.GAMMA_ZERO or len(terms) <= 1, terms, w,
                     "at most one term at gamma = 0")

    def reference(v, w):  # the family a (1 + (r/b)^2)^-c on a window of radii
        if v is None:
            return None
        _need(isinstance(v, dict) and v.get("kind") == "family", v, w,
              "null or an object of kind 'family'")
        _known(v, w, ("kind", "a", "b", "c", "window"))
        window = listed(_number)(v.get("window", [1e-2, 1e2]), f"{w}.window")
        _need(len(window) == 2 and min(window) > 0, window, f"{w}.window", "two positive radii")
        return dict({k: _number(v.get(k), f"{w}.{k}") for k in "abc"}, kind="family",
                    window=window)

    fields = {"measure": name, "mu": name, "sigma": sigma, "points": listed(point),
              "truncations": listed(_number), "checks": listed(check),
              "inputs": listed(string), "reference": reference,
              "output": lambda v, w: _need(string(v, w) not in ("", ".", "..") and "/" not in v,
                                           v, w, "a plain file name"),
              "instances": lambda v, w: _need(type(v) is int and v >= 0, v, w,
                                              "a non-negative integer"),
              "bound": lambda v, w: _need(type(v) in (int, float) and v > 0, v, w,
                                          "a positive number")}
    _known(cmd, "command", fields)
    return {key: fields[key](value, f"command.{key}") for key, value in cmd.items()}
