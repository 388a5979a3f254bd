"""Run configuration: one self-contained JSON document per run with
sections {params, quad, measures, command}.

Radial density profiles may be given inline (family coefficients or
tables) or loaded from two-column CSV (s, f(s)).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .families import family_density
from .measure import (Atom, RadialDensity, RadonMeasure, SphericalShell, Sum,
                      zero_measure)
from .params import ProblemParams, QuadratureConfig, validate


@dataclass
class RunConfig:
    params: ProblemParams
    quad: QuadratureConfig
    measures: dict
    command: dict = field(default_factory=dict)
    seed: int = 0
    raw: dict = field(default_factory=dict)

    def measure(self, name: str) -> RadonMeasure:
        if name is None:
            return zero_measure(self.params.n)
        if name not in self.measures:
            raise ConfigError(f"measures.{name}: no such measure")
        return self.measures[name]


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
    command = doc.get("command", {})
    if not isinstance(command, dict):
        raise ConfigError("command: must be an object")
    seed = doc.get("seed", 0)
    cfg = RunConfig(params=params, quad=quad, measures=measures,
                    command=command, seed=int(seed), raw=doc)
    _check_references(cfg)
    return cfg


def _parse_params(section) -> ProblemParams:
    if not isinstance(section, dict):
        raise ConfigError("params: section is required")
    try:
        n = int(section["n"])
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
    from .errors import WolffLabError
    try:
        return validate(pp)
    except WolffLabError as e:
        raise ConfigError(f"params: {e}")


def _parse_quad(section) -> QuadratureConfig:
    if not isinstance(section, dict):
        raise ConfigError("quad: must be an object")
    known = {"r_min", "r_max", "points_per_decade", "rel_tol", "max_iter",
             "conv_tol"}
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"quad.{sorted(unknown)[0]}: unknown key")
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
    allow = bool(desc.get("allow_infinite_mass", False))
    tail = desc.get("tail")
    kind = profile["kind"]
    if kind == "family":
        a, b, c = (float(profile[k]) for k in ("a", "b", "c"))
        dens = family_density(dim, a, b, c, quad,
                              cut=None if cut is None else float(cut))
        if lo_cut or allow or tail is not None:
            dens = RadialDensity(dim, dens.grid, dens.values,
                                 density_fn=dens.density_fn,
                                 tail=tuple(tail) if tail else dens.tail,
                                 cut=dens.cut, lo_cut=lo_cut,
                                 allow_infinite_mass=allow,
                                 window_order=quad.window_gauss_order)
        return dens
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


def _check_references(cfg: RunConfig):
    cmd = cfg.command
    for key in ("measure", "mu"):
        name = cmd.get(key)
        if name is not None and name not in cfg.measures:
            raise ConfigError(f"command.{key}: unknown measure {name!r}")
    sig = cmd.get("sigma")
    if sig is not None:
        names = sig if isinstance(sig, list) else [sig]
        for nm in names:
            label = nm.get("measure") if isinstance(nm, dict) else nm
            if label not in cfg.measures:
                raise ConfigError(f"command.sigma: unknown measure {label!r}")
