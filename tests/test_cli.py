import csv
import json
import math

import numpy as np
import pytest

from wolfflab import Atom, ConfigError, RadialDensity, SphericalShell, Sum
from wolfflab.cli import main
from wolfflab.config import load_config


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE_PARAMS = {"n": 3, "p": 2.0, "q": 0.5, "gamma": 1.0}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_wolff_dirac_csv(tmp_path):
    cfg = write_config(tmp_path, {
        "params": BASE_PARAMS,
        "measures": {"d0": {"type": "atom", "location": [0, 0, 0], "weight": 1.0}},
        "command": {"measure": "d0", "points": [0.5, 1.0, 2.0],
                    "output": "wolff.csv"},
    })
    assert main(["wolff", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "wolff.csv")
    assert rows[0][:3] == ["point", "value", "error_estimate"]
    vals = [float(r[1]) for r in rows[1:]]
    assert vals == pytest.approx([2.0, 1.0, 0.5], rel=1e-9)


def test_parser_built_once_and_commands_dispatched_by_name(tmp_path, monkeypatch):
    # one parser a process; main looks the command's function up when it
    # runs, so a function patched on the module is the one called
    from wolfflab import cli
    parser = cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_checks", lambda args: seen.append(args.cmd) or 0)
    cfg = write_config(tmp_path, {"params": BASE_PARAMS})
    for name in ("verify", "suite"):
        assert main([name, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert seen == ["verify", "suite"]
    assert cli._parser() is parser


def test_wolff_empty_points(tmp_path):
    cfg = write_config(tmp_path, {
        "params": BASE_PARAMS,
        "measures": {"d0": {"type": "atom", "location": [0, 0, 0], "weight": 1.0}},
        "command": {"measure": "d0", "points": [], "output": "wolff.csv"},
    })
    assert main(["wolff", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "wolff.csv")
    assert len(rows) == 1  # header only


def test_wolff_without_measure_writes_zeros(tmp_path):
    cfg = write_config(tmp_path, {
        "params": BASE_PARAMS, "measures": {},
        "command": {"points": [0.5, [0.0, 1.0, 0.0]], "truncations": [1.0],
                    "output": "wolff.csv"},
    })
    assert main(["wolff", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "wolff.csv")
    assert rows[0] == ["point", "value", "error_estimate", "converged", "trunc_1"]
    assert [r[1:] for r in rows[1:]] == [["0.0", "0.0", "True", "0.0"]] * 2


@pytest.mark.parametrize("field, literal, error", [
    ("truncations", "[NaN]", "NonpositiveR"), ("points", "[[0.5, NaN, 0.0]]", "BadPoint"),
    ("points", "[[1, 2, 3, 4]]", "BadPoint"), ("points", '["abc"]', "ConfigError"),
    ("points", "[null]", "ConfigError"), ("truncations", '["x"]', "ConfigError"),
    ("points", "5", "ConfigError"), ("truncations", "5", "ConfigError"),
    ("measure", '{"x": 1}', "ConfigError"), ("output", "5", "ConfigError"),
    ("output", '""', "ConfigError"), ("output", '"sub/w.csv"', "ConfigError"),
])
def test_wolff_nonfinite_input_typed_error(tmp_path, capsys, field, literal, error):
    # a NaN truncation radius gave 0.0 and a NaN coordinate a silent value;
    # a point of too many coordinates is numerical (exit 3), and an entry
    # that is not a number, a field that is not a list, a measure that is
    # not a name or an output that is not a plain file name a configuration
    # error (exit 2), the last after every point had run (an empty output
    # with an IsADirectoryError, one in a missing directory with a
    # FileNotFoundError)
    doc = {"params": BASE_PARAMS,
           "measures": {"d0": {"type": "atom", "location": [0, 0, 0], "weight": 1.0}},
           "command": {"measure": "d0", "points": [0.5], "truncations": [1.0],
                       "output": "wolff.csv"}}
    doc["command"][field] = "@"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc).replace('"@"', literal))
    assert main(["wolff", "--config", str(cfg), "--out", str(tmp_path),
                 "--json-errors"]) == (2 if error == "ConfigError" else 3)
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == error
    assert not (tmp_path / "wolff.csv").exists()


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"params": {"n": 3,,}')
    code = main(["wolff", "--config", str(path), "--out", str(tmp_path),
                 "--json-errors"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_missing_key_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "params": BASE_PARAMS,
        "measures": {"m": {"type": "radial_density",
                           "profile": {"kind": "family", "a": 1.0}}},
        "command": {"measure": "m", "points": [1.0]},
    })
    code = main(["wolff", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2


def test_unknown_measure_reference(tmp_path):
    cfg = write_config(tmp_path, {
        "params": BASE_PARAMS,
        "measures": {},
        "command": {"measure": "ghost", "points": [1.0]},
    })
    assert main(["wolff", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_solve_manufactured(tmp_path):
    cfg = write_config(tmp_path, {
        "params": BASE_PARAMS,
        "measures": {"sigma": {"type": "radial_density",
                               "profile": {"kind": "family", "a": 3.0,
                                           "b": 1.0, "c": 2.25}}},
        "command": {"sigma": ["sigma"], "mu": None,
                    "reference": {"kind": "family", "a": 1.0, "b": 1.0,
                                  "c": 0.5},
                    "output": "sol"},
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    diag = json.loads((tmp_path / "sol.json").read_text())
    assert diag["converged"]
    assert diag["reference_sup_rel_err"] < 1e-4
    rows = read_csv(tmp_path / "sol.csv")
    assert rows[0] == ["r", "u"]
    assert len(rows) > 100


def test_solve_builds_one_profile_per_live_term(tmp_path, monkeypatch):
    # the condition energies and the lower-bound ratio share one profile
    # for each sigma term with mass and one for mu
    import wolfflab.energy
    import wolfflab.solver
    built = []
    for mod in (wolfflab.solver, wolfflab.energy):
        monkeypatch.setattr(mod, "wolff_profile",
                            lambda m, *a, _real=mod.wolff_profile, **k:
                            built.append(m) or _real(m, *a, **k))
    cfg = write_config(tmp_path, {
        "params": dict(BASE_PARAMS, q=[0.5, 0.35]),
        "measures": {"s1": {"type": "radial_density",
                            "profile": {"kind": "family", "a": 1.0, "b": 1.0, "c": 2.5}},
                     "s2": {"type": "radial_density",
                            "profile": {"kind": "family", "a": 0.5, "b": 2.0, "c": 2.0}},
                     "mu": {"type": "radial_density",
                            "profile": {"kind": "uniform_ball", "radius": 1.0,
                                        "density": 0.3}}},
        "command": {"sigma": ["s1", "s2"], "mu": "mu", "output": "sol"},
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    diag = json.loads((tmp_path / "sol.json").read_text())
    assert len(built) == 3 and len({id(m) for m in built}) == 3
    assert diag["lower_bound_ratio"] > 0
    assert sorted(diag["extras"]["condition_energies"]) == ["mu_energy", "sigma0_energy",
                                                            "sigma1_energy"]


def test_solve_gamma_zero_manufactured(tmp_path):
    # the intrinsic endpoint on the manufactured sigma: with mu = 0 its
    # fixed point is the same (1 + r^2)^(-1/2), whose Riesz measure carries
    # the mass 4 pi of its 1/r tail
    cfg = write_config(tmp_path, {
        "params": dict(BASE_PARAMS, gamma=0.0),
        "measures": {"sigma": {"type": "radial_density",
                               "profile": {"kind": "family", "a": 3.0,
                                           "b": 1.0, "c": 2.25}}},
        "command": {"sigma": ["sigma"], "mu": None,
                    "reference": {"kind": "family", "a": 1.0, "b": 1.0,
                                  "c": 0.5},
                    "output": "sol"},
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    diag = json.loads((tmp_path / "sol.json").read_text())
    assert diag["converged"] and diag["mode"] == "gamma_zero"
    assert diag["params"]["gamma"] == 0.0 and diag["generalized_energy"] is None
    assert diag["reference_sup_rel_err"] < 1e-4
    assert diag["extras"]["riesz_mass"] == pytest.approx(4.0 * math.pi, rel=1e-6)
    rows = np.array(read_csv(tmp_path / "sol.csv")[1:], dtype=float)
    assert len(rows) > 100
    np.testing.assert_allclose(rows[:, 1], (1.0 + rows[:, 0] ** 2) ** -0.5, rtol=1e-4)


def test_config_measure_types_match_direct_builds(tmp_path):
    # shell, sum, scaled, an inline table and a uniform ball with lo_cut (an
    # annulus) load to the measures built from the same numbers directly; a
    # uniform_ball refuses the density keys it would otherwise drop
    s, f = [0.1, 0.5, 1.0, 2.0], [2.0, 1.5, 1.0, 0.25]
    shell = {"type": "shell", "radius": 0.7, "mass": 0.45}
    table = {"type": "radial_density", "profile": {"kind": "table", "s": s, "f": f},
             "tail": [2.0, 3.5]}
    ball = {"type": "radial_density", "lo_cut": 0.5,
            "profile": {"kind": "uniform_ball", "radius": 1.2, "density": 0.8}}
    cfg = load_config(write_config(tmp_path, {
        "params": BASE_PARAMS,
        "measures": {"shell": shell, "table": table, "annulus": ball,
                     "sum": {"type": "sum", "terms": [
                         shell, {"type": "atom", "location": [0.2, 0.0, 0.0], "weight": 0.3}]},
                     "scaled": {"type": "scaled", "factor": 2.5, "term": table}}}))
    density = RadialDensity(3, s, f, tail=(2.0, 3.5),
                            window_order=cfg.quad.window_gauss_order)
    direct = {"shell": SphericalShell(3, 0.7, 0.45), "table": density,
              "sum": Sum([SphericalShell(3, 0.7, 0.45), Atom([0.2, 0.0, 0.0], 0.3)]),
              "scaled": density.scale(2.5),
              "annulus": RadialDensity.uniform_ball(3, 1.2, 0.8, cfg.quad).restricted(0.5, 1.2)}
    r = np.array([0.05, 0.3, 0.7, 0.71, 1.5, 3.0, 40.0])
    for name, want in direct.items():
        got = cfg.measures[name]
        assert type(got) is type(want), name
        assert got.total_mass() == want.total_mass() > 0.0
        assert np.array_equal(got.centered_mass(r), want.centered_mass(r))
        assert np.array_equal(got.ball_mass([0.4, 0.1, 0.0], r),
                              want.ball_mass([0.4, 0.1, 0.0], r))
    assert cfg.measures["annulus"].total_mass() == pytest.approx(
        0.8 * 4.0 * math.pi / 3.0 * (1.2 ** 3 - 0.5 ** 3), rel=1e-14)
    for key, value in [("cut", 1.0), ("tail", [1.0, 4.0]), ("allow_infinite_mass", True)]:
        with pytest.raises(ConfigError, match=f"measures.ball.{key}"):
            load_config(write_config(tmp_path, {"params": BASE_PARAMS,
                                                "measures": {"ball": dict(ball, **{key: value})}}))


def test_solve_zero_data_exit_2(tmp_path):
    cfg = write_config(tmp_path, {
        "params": BASE_PARAMS,
        "measures": {"z": {"type": "zero"}},
        "command": {"sigma": ["z"], "mu": "z", "output": "sol"},
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_solve_gamma_zero_two_sigma_terms_exit_2(tmp_path, capsys):
    # the gamma = 0 endpoint solves one sigma term; a second one was dropped
    ball = {"type": "radial_density", "profile": {"kind": "uniform_ball", "radius": 1.0}}
    cfg = write_config(tmp_path, {
        "params": {"n": 3, "p": 2.0, "q": [0.5, 0.35], "gamma": 0.0},
        "measures": {"s1": ball, "s2": ball},
        "command": {"sigma": ["s1", "s2"], "mu": None, "output": "sol"},
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--json-errors"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "sol.csv").exists()


def test_solve_gamma_inf_atom_exit_2(tmp_path):
    cfg = write_config(tmp_path, {
        "params": {"n": 3, "p": 2.0, "q": 0.5, "gamma": "inf"},
        "measures": {"sigma": {"type": "radial_density",
                               "profile": {"kind": "uniform_ball", "radius": 1.0}},
                     "mu": {"type": "atom", "location": [0, 0, 0], "weight": 1.0}},
        "command": {"sigma": ["sigma"], "mu": "mu", "output": "sol"},
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("section, field, literal", [
    ("params", "gamma", "NaN"), ("quad", "max_iter", "200.5"),
    ("quad", "points_per_decade", "1e400"), ("quad", "r_max", "1e400"),
])
def test_solve_malformed_number_exit_2(tmp_path, capsys, section, field, literal):
    doc = {"params": dict(BASE_PARAMS), "quad": {"points_per_decade": 32},
           "measures": {"sigma": {"type": "radial_density",
                                  "profile": {"kind": "family", "a": 3.0,
                                              "b": 1.0, "c": 2.25}}},
           "command": {"sigma": ["sigma"], "mu": None, "output": "sol"}}
    doc[section][field] = "@"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc).replace('"@"', literal))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path),
                 "--json-errors"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert field in err["message"]
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("literal", ['"abc"', "null", "5", "-1", "0", "1.0"])
def test_solve_bad_term_q_exit_2(tmp_path, capsys, literal):
    # a per-term q must be a number in (0, p - 1) = (0, 1), as params' own
    doc = {"params": dict(BASE_PARAMS), "quad": {"points_per_decade": 16},
           "measures": {"s": {"type": "radial_density",
                              "profile": {"kind": "family", "a": 1.0, "b": 1.0, "c": 2.5}}},
           "command": {"sigma": [{"measure": "s", "q": "@"}], "output": "sol"}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc).replace('"@"', literal))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path),
                 "--json-errors"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "command.sigma" in err["message"]
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("field, literal", [
    ("reference", '{"kind": "family", "a": 1}'), ("reference", "5"),
    ("reference", '{"kind": "family", "a": 1, "b": 1, "c": 0.5, "window": [1]}'),
    ("mu", '["sigma"]'), ("sigma", '[["sigma"]]'), ("sigma", '{"measure": ["s"]}'),
    ("sigmas", '["sigma"]'),
])
def test_solve_bad_command_field_exit_2(tmp_path, capsys, field, literal):
    # the config load refuses each before the solve: a malformed reference
    # failed after it, with sol.csv written, a list as a measure name with
    # "unhashable type", and a key no subcommand reads is refused
    doc = {"params": dict(BASE_PARAMS), "quad": {"points_per_decade": 16},
           "measures": {"sigma": {"type": "radial_density",
                                  "profile": {"kind": "family", "a": 3.0,
                                              "b": 1.0, "c": 2.25}}},
           "command": {"sigma": ["sigma"], "mu": None, "output": "sol"}}
    doc["command"][field] = "@"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc).replace('"@"', literal))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path),
                 "--json-errors"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "ConfigError"
    assert f"command.{field}" in err["message"]
    assert not (tmp_path / "sol.csv").exists()
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("where, literal", [
    ("params.n", "3.7"), ("params.n", "true"), ("seed", "2.5"), ("seed", "true"),
    ("sigma.lo_cut", "NaN"), ("sigma.lo_cut", "-0.5"), ("sigma.cut", "NaN"),
])
def test_solve_bad_integer_or_cut_exit_2(tmp_path, capsys, where, literal):
    # integer fields take integers only, and cuts are numbers (lo_cut >= 0)
    doc = {"params": dict(BASE_PARAMS), "quad": {"points_per_decade": 16}, "seed": 0,
           "measures": {"sigma": {"type": "radial_density",
                                  "profile": {"kind": "family", "a": 3.0,
                                              "b": 1.0, "c": 2.25}}},
           "command": {"sigma": ["sigma"], "mu": None, "output": "sol"}}
    section, field = where.split(".") if "." in where else (None, where)
    target = doc if section is None else \
        doc["params"] if section == "params" else doc["measures"][section]
    target[field] = "@"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc).replace('"@"', literal))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path),
                 "--json-errors"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert field.split("_")[-1] in err["message"]
    assert not (tmp_path / "sol.json").exists()


def test_solve_not_converged_exit_4_writes_files(tmp_path):
    cfg = write_config(tmp_path, {
        "params": BASE_PARAMS,
        "quad": {"points_per_decade": 32, "max_iter": 3},
        "measures": {"sigma": {"type": "radial_density",
                               "profile": {"kind": "family", "a": 3.0,
                                           "b": 1.0, "c": 2.25}}},
        "command": {"sigma": ["sigma"], "mu": None, "output": "sol"},
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 4
    diag = json.loads((tmp_path / "sol.json").read_text())
    assert not diag["converged"]
    assert (tmp_path / "sol.csv").exists()


def test_corrupted_exponent_exit_2(tmp_path):
    bad = dict(BASE_PARAMS)
    bad["q"] = 1.0 - 1e-12
    cfg = write_config(tmp_path, {
        "params": bad,
        "measures": {},
        "command": {"checks": ["quasi_triangle"], "instances": 1},
    })
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2


VERIFY_DOC = {
    "params": BASE_PARAMS,
    "quad": {"points_per_decade": 32},
    "seed": 42,
    "measures": {},
    "command": {"checks": ["thm31", "quasi_triangle", "lorentz_embed",
                           "density_conditions"],
                "instances": 3},
}


def test_verify_runs_and_alias_accepted(tmp_path):
    cfg = write_config(tmp_path, VERIFY_DOC)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "reports.jsonl").read_text().strip().splitlines()
    assert len(lines) == 12
    names = {json.loads(ln)["check"] for ln in lines}
    assert "mutual_energy" in names  # thm31 alias resolves
    rows = read_csv(tmp_path / "summary.csv")
    assert rows[0] == ["name", "count", "failed", "vacuous", "max_ratio"]


def test_verify_deterministic_across_threads(tmp_path):
    cfg = write_config(tmp_path, VERIFY_DOC)
    out1 = tmp_path / "t1"
    out8 = tmp_path / "t8"
    assert main(["verify", "--config", cfg, "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out8),
                 "--threads", "8"]) == 0
    assert (out1 / "reports.jsonl").read_bytes() == \
        (out8 / "reports.jsonl").read_bytes()


def test_verify_seed_changes_output(tmp_path):
    cfg = write_config(tmp_path, VERIFY_DOC)
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    main(["verify", "--config", cfg, "--out", str(out1)])
    main(["verify", "--config", cfg, "--out", str(out2), "--seed", "7"])
    assert (out1 / "reports.jsonl").read_bytes() != \
        (out2 / "reports.jsonl").read_bytes()


def test_verify_module_run_deterministic_across_workers(tmp_path):
    # under ``python -m`` the task function lives in __main__
    import os
    import subprocess
    import sys

    import wolfflab
    src = os.path.dirname(os.path.dirname(os.path.abspath(wolfflab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    doc = dict(VERIFY_DOC)
    doc["command"] = {"checks": ["picone", "density_conditions"],
                      "instances": 2}
    cfg = write_config(tmp_path, doc)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"w{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "wolfflab.cli", "verify", "--config", cfg,
             "--out", str(out), "--threads", threads],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "reports.jsonl").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("field, command", [
    ("instances", {"checks": ["picone"], "instances": "two"}),
    ("bound", {"checks": ["picone"], "instances": 1, "bound": "x"}),
    ("checks", {"checks": 5, "instances": 1}),
    ("inputs", {"inputs": 5}),
    ("checks", {"checks": [["picone"]], "instances": 1}),
    ("output", {"checks": ["picone"], "instances": 1, "output": ["x"]}),
    ("inputs", {"inputs": [None]}),
])
def test_verify_bad_command_field_exit_2(tmp_path, capsys, field, command):
    # inputs is the report command's field; a nested check name failed with
    # "unhashable type", and a list as output or a null input with a
    # TypeError, the output after every instance had run
    doc = dict(VERIFY_DOC)
    doc["command"] = command
    cfg = write_config(tmp_path, doc)
    assert main(["report" if field == "inputs" else "verify", "--config", cfg,
                 "--out", str(tmp_path), "--json-errors"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "ConfigError"
    assert f"command.{field}" in err["message"]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json"]


def test_verify_zero_instances_writes_empty_outputs(tmp_path):
    doc = dict(VERIFY_DOC)
    doc["command"] = {"checks": ["picone"], "instances": 0}
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path),
                 "--threads", "2"]) == 0
    assert (tmp_path / "reports.jsonl").read_bytes() == b""
    assert read_csv(tmp_path / "summary.csv") == [
        ["name", "count", "failed", "vacuous", "max_ratio"]]


@pytest.mark.parametrize("instances, cpus, expected", [(2, 64, 2), (4, 3, 3)])
def test_worker_count_capped(tmp_path, monkeypatch, instances, cpus, expected):
    # N working processes are this one and N - 1 forked children
    import os

    import wolfflab.cli as cli
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    doc = dict(VERIFY_DOC)
    doc["command"] = {"checks": ["picone"], "instances": instances}
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path),
                 "--threads", "64"]) == 0
    assert len(forks) == expected - 1


def test_worker_errors_match_serial(tmp_path, monkeypatch, capsys):
    # The error of the lowest failing index wins, whether it comes from a
    # child's stripe or from this process's stripe 0, and no child is left
    import os

    import wolfflab.cli as cli
    from wolfflab.errors import NotConverged, SubsolutionSearchFailed

    def not_converged(msg):  # the solution does not pickle
        return NotConverged(msg, solution=lambda: None)

    # (failing index -> error, code, kind).  This process runs indices 0
    # and 2 at --threads 2 and indices 0 and 3 at --threads 3, children the
    # rest: the first case fails first in a child, the second one here
    cases = (({1: not_converged, 2: SubsolutionSearchFailed,
               3: SubsolutionSearchFailed}, 4, "NotConverged"),
             ({0: SubsolutionSearchFailed, 1: not_converged,
               2: not_converged}, 3, "SubsolutionSearchFailed"))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    doc = dict(VERIFY_DOC)
    doc["command"] = {"checks": ["picone"], "instances": 4}
    cfg = write_config(tmp_path, doc)
    for failing, code, kind in cases:
        def fake(name, idx, *args):
            if idx in failing:
                raise failing[idx](f"instance {idx} failed")
            return []

        # forked children inherit the patch
        monkeypatch.setattr(cli, "run_check_instance", fake)
        lines = []
        for threads in ("1", "2", "3"):
            assert main(["verify", "--config", cfg, "--out", str(tmp_path),
                         "--threads", threads, "--json-errors"]) == code
            lines.append(capsys.readouterr().err)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert lines[0] == lines[1] == lines[2]
        assert json.loads(lines[0])["error"] == kind


def test_worker_error_that_does_not_pickle(tmp_path, monkeypatch):
    import wolfflab.cli as cli
    from wolfflab.errors import WolffLabError

    class LocalError(WolffLabError):  # a local class does not pickle
        pass

    def fake(name, idx, *args):
        if idx == 1:
            raise LocalError("from a child")
        return []

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "run_check_instance", fake)
    doc = dict(VERIFY_DOC)
    doc["command"] = {"checks": ["picone"], "instances": 2}
    cfg = write_config(tmp_path, doc)
    with pytest.raises(RuntimeError, match="LocalError.*from a child"):
        main(["verify", "--config", cfg, "--out", str(tmp_path),
              "--threads", "2"])


_CALLER_FAILS = """
import os, sys
import wolfflab.cli as cli
from wolfflab.errors import SubsolutionSearchFailed

caller = os.getpid()


class Big:  # one report larger than a pipe buffer
    def as_dict(self):
        return {"blob": "x" * 300_000}


def fake(name, idx, *args):
    if os.getpid() == caller:
        raise failure
    return [Big()]


cli.run_check_instance = fake
cli._usable_cpus = lambda: 2
argv = ["verify", "--config", sys.argv[1], "--out", sys.argv[2], "--threads", "2"]
failure = SubsolutionSearchFailed("stripe 0")
assert cli.main(argv) == 3
failure = KeyboardInterrupt()  # escapes before the child's pipe is read
try:
    cli.main(argv)
    raise AssertionError("no interrupt")
except KeyboardInterrupt:
    pass
try:
    os.waitpid(-1, os.WNOHANG)
    raise AssertionError("a child is left")
except ChildProcessError:
    pass
"""


def test_caller_stripe_failure_ends_with_a_full_child_pipe(tmp_path):
    import os
    import subprocess
    import sys

    import wolfflab
    src = os.path.dirname(os.path.dirname(os.path.abspath(wolfflab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    doc = dict(VERIFY_DOC)
    doc["command"] = {"checks": ["picone"], "instances": 2}
    cfg = write_config(tmp_path, doc)
    proc = subprocess.run([sys.executable, "-c", _CALLER_FAILS, cfg, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_suite_command(tmp_path):
    doc = dict(VERIFY_DOC)
    doc["command"] = {"checks": ["quasi_triangle"], "instances": 2}
    cfg = write_config(tmp_path, doc)
    assert main(["suite", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_report_aggregates(tmp_path):
    cfg = write_config(tmp_path, VERIFY_DOC)
    out = tmp_path / "run"
    main(["verify", "--config", cfg, "--out", str(out)])
    rep = tmp_path / "rep"
    assert main(["report", "--out", str(rep), str(out)]) == 0
    rows = read_csv(rep / "constants.csv")
    assert rows[0][0] == "check"
    assert (rep / "constants.md").exists()
    assert (rep / "ratio_histogram.csv").exists()


def test_report_merges_max(tmp_path):
    cfg = write_config(tmp_path, VERIFY_DOC)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    main(["verify", "--config", cfg, "--out", str(out1)])
    main(["verify", "--config", cfg, "--out", str(out2), "--seed", "7"])
    rep = tmp_path / "rep"
    assert main(["report", "--out", str(rep), str(out1), str(out2)]) == 0
    merged = {r[0]: r for r in read_csv(rep / "constants.csv")[1:]}
    single = {}
    for src in (out1, out2):
        for ln in (src / "reports.jsonl").read_text().splitlines():
            d = json.loads(ln)
            if d["ratio"] is not None:
                single[d["check"]] = max(single.get(d["check"], 0.0), d["ratio"])
    for name, row in merged.items():
        if row[8]:
            assert float(row[8]) == pytest.approx(single[name], rel=1e-12)


def test_report_empty_inputs_exit_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--out", str(tmp_path), str(empty)]) == 2


@pytest.mark.parametrize("bad", ["not json", "[1, 2]"])
def test_report_bad_line_exit_2(tmp_path, capsys, bad):
    # a line that is not JSON ended in a JSONDecodeError, and one that is
    # not an object in an AttributeError
    src = tmp_path / "in.jsonl"
    src.write_text('{"check": "picone", "ratio": 0.5}\n\n' + bad + "\n")
    out = tmp_path / "rep"
    assert main(["report", "--out", str(out), "--json-errors", str(src)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "ConfigError"
    assert f"{src} line 3" in err["message"]
    assert not out.exists()


def test_csv_profile_loading(tmp_path):
    import numpy as np
    s = np.geomspace(1e-3, 10.0, 300)
    f = (1.0 + s ** 2) ** (-2.0)
    prof = tmp_path / "prof.csv"
    with open(prof, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "f"])
        w.writerows(zip(s, f))
    cfg = write_config(tmp_path, {
        "params": BASE_PARAMS,
        "measures": {"m": {"type": "radial_density",
                           "profile": {"kind": "csv", "path": str(prof)}}},
        "command": {"measure": "m", "points": [1.0], "output": "w.csv"},
    })
    assert main(["wolff", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "w.csv")
    assert float(rows[1][1]) > 0


def test_console_script_entry_point(tmp_path):
    import os
    import subprocess
    import sys

    import wolfflab
    # the subprocess imports the same wolfflab as this test
    src = os.path.dirname(os.path.dirname(os.path.abspath(wolfflab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_config(tmp_path, {
        "params": BASE_PARAMS,
        "measures": {"d0": {"type": "atom", "location": [0, 0, 0], "weight": 1.0}},
        "command": {"measure": "d0", "points": [1.0], "output": "w.csv"},
    })
    proc = subprocess.run(
        [sys.executable, "-m", "wolfflab.cli", "wolff", "--config", cfg,
         "--out", str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    rows = read_csv(tmp_path / "w.csv")
    assert float(rows[1][1]) == pytest.approx(1.0, rel=1e-9)


_SCIPY_FREE = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import numpy as np
from wolfflab import QuadratureConfig, RadialDensity, params, solve_minimal, wolff_profile
from wolfflab.cli import main
from wolfflab.measure import cap_fraction

quad, pp = QuadratureConfig(), params(3, 2.0, 0.5, 1.0)
sigma = RadialDensity.from_function(
    3, lambda s: 3.0 * (1.0 + np.asarray(s, float) ** 2) ** -2.25, quad, tail=(3.0, 4.5))
prof = wolff_profile(sigma, pp, quad)
assert prof.deriv is not None and np.isfinite(prof.eval(0.37))
r = np.geomspace(0.1, 10.0, 5)
u = solve_minimal([sigma], [0.5], None, pp, quad).u.eval(r)
assert np.allclose(u, (1.0 + r * r) ** -0.5, rtol=1e-4)
assert 0.0 < cap_fraction(7, 1.0, 1.0, 0.8) < 1.0
assert main(["suite", "--config", sys.argv[1], "--out", sys.argv[2], "--threads", "1"]) == 0
"""


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is a test dependency only: profiles, the solver, n >= 6 caps
    # and the suite run with every scipy import blocked
    import os
    import subprocess
    import sys

    import wolfflab
    src = os.path.dirname(os.path.dirname(os.path.abspath(wolfflab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    doc = dict(VERIFY_DOC)
    doc["command"] = {"checks": ["quasi_triangle"], "instances": 1}
    cfg = write_config(tmp_path, doc)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE, cfg, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "reports.jsonl").read_text().strip()
