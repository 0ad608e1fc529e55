"""Command-line behavior driven in process: golden delimited output,
JSON variants, and the exit-code contract."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from zcrit import cli, extension, surface
from zcrit.exactlp import LinearProgramError
from zcrit.surface import read_field_dump

DHYM_CFG = "configs/p2_extension_dhym.json"
TODD_CFG = "configs/p2_extension_todd.json"
TAU_CFG = "configs/tau_chain.json"
TORUS_CFG = "configs/torus_dhym.json"
TWO_MODE_CFG = "configs/torus_two_mode.json"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def rows_of(out):
    return [line.split("\t") for line in out.splitlines()]


def write_cfg(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_charge_tsv_golden(capsys):
    rc, out, _ = run(capsys, "charge", "--config", DHYM_CFG)
    assert rc == 0
    assert rows_of(out) == [["k^2", "3/2"], ["k^1", "-i"], ["k^0", "11/6"]]


def test_charge_sheaf_flag(capsys):
    rc, out, _ = run(capsys, "charge", "--config", DHYM_CFG, "--sheaf", "F")
    assert rc == 0
    assert rows_of(out) == [["k^2", "1"], ["k^1", "-2/3i"], ["k^0", "17/9"]]


def test_charge_json(capsys):
    rc, out, _ = run(capsys, "charge", "--config", DHYM_CFG, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["sheaf"] == "E"
    assert doc["coefficients"] == {
        "k^2": "3/2",
        "k^1": {"re": "0", "im": "-1"},
        "k^0": "11/6",
    }


def test_charge_requires_an_object(capsys):
    # this config has no charge.object and no --sheaf was given
    rc, _, err = run(capsys, "charge", "--config", TAU_CFG)
    assert rc == 64
    assert "config error" in err


def test_stability_unstable_exit(capsys):
    rc, out, _ = run(capsys, "stability", "--config", DHYM_CFG)
    assert rc == 2
    rows = rows_of(out)
    assert rows[0] == ["status", "unstable"]
    assert rows[1] == ["witness", "F"]
    assert rows[2] == ["order", "3"]
    assert rows[3] == ["candidate", "F", "subbundle", "Greater", "3", "2/3"]


def test_stability_semistable_exit(tmp_path, capsys):
    raw = json.load(open(DHYM_CFG))
    del raw["charge"]["bfield"]
    rc, out, _ = run(capsys, "stability", "--config", write_cfg(tmp_path, raw))
    assert rc == 3
    rows = rows_of(out)
    assert rows[0] == ["status", "semistable"]
    assert ["candidate", "F", "subbundle", "Equal", "-", "-"] in rows


def test_stability_json(capsys):
    rc, out, _ = run(capsys, "stability", "--config", DHYM_CFG, "--format", "json")
    assert rc == 2
    doc = json.loads(out)
    assert doc["status"] == "unstable"
    assert doc["witness"] == "F"
    assert doc["order"] == 3
    assert doc["candidates"] == [
        {"name": "F", "kind": "subbundle", "relation": "Greater",
         "order": 3, "leading": "2/3"}
    ]


def test_walls_tsv_golden(capsys):
    rc, out, _ = run(capsys, "walls", "--config", DHYM_CFG)
    assert rc == 0
    assert rows_of(out) == [
        ["range", "-1", "1"],
        ["preset", "dhym"],
        ["cell", "-1", "0", "-1/2", "stable"],
        ["cell", "0", "1", "1/2", "unstable"],
        ["wall", "0", "0", "0", "stable", "semistable", "unstable"],
    ]


def test_walls_todd_location(capsys):
    rc, out, _ = run(capsys, "walls", "--config", TODD_CFG)
    assert rc == 0
    rows = rows_of(out)
    assert ["preset", "todd"] in rows
    assert ["wall", "3/4", "3/4", "3/4", "stable", "semistable", "unstable"] in rows


def test_walls_json(capsys):
    rc, out, _ = run(capsys, "walls", "--config", DHYM_CFG, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["range"] == ["-1", "1"]
    assert [c["status"] for c in doc["cells"]] == ["stable", "unstable"]
    wall = doc["walls"][0]
    assert wall["location"] == "0"
    assert wall["exact"] == "0"
    assert wall["enclosure"] == ["0", "0"]
    assert (wall["status_left"], wall["status"], wall["status_right"]) == (
        "stable", "semistable", "unstable")


def test_walls_on_the_rescaled_pair(tmp_path, capsys):
    # the pair whose comparison polynomial 11t^2 - 28t - 20 crashed the
    # former sympy-based isolator with exit 1
    raw = {"manifold": {"preset": "projective_space", "dimension": 2},
           "charge": {"preset": "dhym"},
           "sheaves": {"E": {"ch": {"1": "3", "h": "1", "h^2": "4"}},
                       "F": {"ch": {"1": "2", "h": "-3", "h^2": "-2"}}},
           "walls": {"object": "E", "candidates": [{"name": "F"}],
                     "direction": {"h": "1"}, "range": ["-3", "3"]}}
    rc, out, err = run(capsys, "walls", "--config", write_cfg(tmp_path, raw))
    assert rc == 0, err
    rows = rows_of(out)
    assert [r[4] for r in rows if r[0] == "cell"] == ["stable", "stable"]
    (wall,) = [r for r in rows if r[0] == "wall"]
    assert wall[1].startswith("[") and wall[4:] == ["stable", "stable", "stable"]


def test_walls_json_on_the_rescaled_pair(tmp_path, capsys):
    # an irrational wall has no exact value and is located by its enclosure
    raw = {"manifold": {"preset": "projective_space", "dimension": 2},
           "charge": {"preset": "dhym"},
           "sheaves": {"E": {"ch": {"1": "3", "h": "1", "h^2": "4"}},
                       "F": {"ch": {"1": "2", "h": "-3", "h^2": "-2"}}},
           "walls": {"object": "E", "candidates": [{"name": "F"}],
                     "direction": {"h": "1"}, "range": ["-3", "3"]}}
    rc, out, err = run(capsys, "walls", "--config", write_cfg(tmp_path, raw),
                       "--format", "json")
    assert rc == 0, err
    (wall,) = json.loads(out)["walls"]
    assert wall["exact"] is None
    lo, hi = wall["enclosure"]
    assert wall["location"] == f"[{lo}, {hi}]"


def test_stability_json_without_a_bfield(tmp_path, capsys):
    raw = json.load(open(DHYM_CFG))
    del raw["charge"]["bfield"]
    rc, out, _ = run(capsys, "stability", "--config", write_cfg(tmp_path, raw),
                     "--format", "json")
    assert rc == 3
    doc = json.loads(out)
    assert doc["order"] is None
    assert doc["candidates"] == [
        {"name": "F", "kind": "subbundle", "relation": "Equal",
         "order": None, "leading": None}
    ]


def run_fresh_python(code):
    """stdout of code run in a new interpreter from the repository root"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.parametrize("modules, absent", [
    ("zcrit.cli", "sympy"),
    ("zcrit, zcrit.charge, zcrit.stability, zcrit.extension, zcrit.config", "numpy"),
], ids=["cli-sympy", "exact-numpy"])
def test_cli_import_leaves_sympy_out(modules, absent):
    code = f"import sys, {modules}; print({absent!r} in sys.modules)"
    assert run_fresh_python(code) == "False"


@pytest.mark.parametrize("command, config, code", [
    ("charge", DHYM_CFG, 0),
    ("stability", DHYM_CFG, 2),
    ("walls", DHYM_CFG, 0),
    ("walls", TODD_CFG, 0),
    ("tau", TAU_CFG, 0),
])
def test_exact_subcommands_leave_numpy_out(command, config, code):
    # the solver's exceptions, which main catches, come without numpy
    script = ("import contextlib, io, sys\n"
              "from zcrit import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    rc = cli.main([{command!r}, '--config', {config!r}])\n"
              "print(rc, 'numpy' in sys.modules)")
    assert run_fresh_python(script) == f"{code} False"


def test_tau_feasible_golden(capsys):
    rc, out, _ = run(capsys, "tau", "--config", TAU_CFG)
    assert rc == 0
    assert rows_of(out) == [
        ["order", "3"],
        ["profile", "Q", "-8/27"],
        ["profile", "F", "8/27"],
        ["feasible", "true"],
        ["margin", "8/27"],
        ["tau", "0", "0->1", "8/27"],
        ["certificate", "primal"],
    ]


def test_tau_infeasible_orientation(tmp_path, capsys):
    raw = json.load(open(TAU_CFG))
    raw["tau"]["quotients"] = ["F", "Q"]
    rc, out, _ = run(capsys, "tau", "--config", write_cfg(tmp_path, raw))
    assert rc == 2
    rows = rows_of(out)
    assert ["feasible", "false"] in rows
    assert ["margin", "-8/27"] in rows
    assert ["certificate", "dual"] in rows


def test_tau_json(capsys):
    rc, out, _ = run(capsys, "tau", "--config", TAU_CFG, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["order"] == 3
    assert doc["profile"] == {"Q": "-8/27", "F": "8/27"}
    assert doc["feasible"] is True
    assert doc["margin"] == "8/27"
    assert doc["tau"] == ["8/27"]
    assert doc["certificate"] == "primal"


def test_tau_without_edges(tmp_path, capsys):
    # no edge can carry the profile: no margin, no tau, and the
    # inconsistency certificate
    cfg = write_cfg(tmp_path, tau_raw(edges=[]))
    rc, out, _ = run(capsys, "tau", "--config", cfg)
    assert rc == 2
    assert rows_of(out) == [
        ["order", "3"],
        ["profile", "Q", "-8/27"],
        ["profile", "F", "8/27"],
        ["feasible", "false"],
        ["margin", "-"],
        ["certificate", "inconsistent"],
    ]
    rc, out, _ = run(capsys, "tau", "--config", cfg, "--format", "json")
    assert rc == 2
    assert json.loads(out) == {
        "order": 3, "profile": {"Q": "-8/27", "F": "8/27"}, "feasible": False,
        "margin": None, "tau": None, "certificate": "inconsistent"}


def test_tau_margin_is_capped_on_a_cycle(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tau_raw(edges=[[0, 1], [1, 0]]))
    rc, out, _ = run(capsys, "tau", "--config", cfg)
    assert rc == 0
    assert rows_of(out)[4:] == [
        ["margin", "1"],
        ["tau", "0", "0->1", "35/27"],
        ["tau", "1", "1->0", "1"],
        ["certificate", "primal"],
    ]
    rc, out, _ = run(capsys, "tau", "--config", cfg, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["margin"], doc["tau"], doc["certificate"]) == ("1", ["35/27", "1"], "primal")


def cell(value):
    """The documented TSV rule for one JSON value."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("config", sorted(os.listdir("configs")))
@pytest.mark.parametrize("command", ["charge", "stability", "walls", "tau", "solve-surface"])
def test_tsv_head_rows_match_json(capsys, command, config):
    # a TSV head row is named after a scalar JSON field and carries its
    # value; the walls range is the one list, spread over its cells
    path = os.path.join("configs", config)
    rc, out, err = run(capsys, command, "--config", path)
    rc_json, out_json, err_json = run(capsys, command, "--config", path, "--format", "json")
    assert (rc, err) == (rc_json, err_json)
    if rc not in (0, 2, 3):
        return
    doc = json.loads(out_json)
    head = {k: [cell(v)] for k, v in doc.items() if not isinstance(v, (dict, list))}
    if "range" in doc:
        head["range"] = [cell(v) for v in doc["range"]]
    rows = [row for row in rows_of(out) if row[0] in head]
    assert rows or command == "charge"
    for row in rows:
        assert row[1:] == head[row[0]]


def test_solve_surface_tsv(capsys):
    rc, out, _ = run(capsys, "solve-surface", "--config", TORUS_CFG)
    assert rc == 0
    rows = {r[0]: r[1:] for r in rows_of(out) if r[0] not in ("stage", "largevolume")}
    assert rows["N"] == ["16"]
    assert float(rows["phi"][0]) == pytest.approx(-math.pi / 4, rel=1e-12)
    assert float(rows["residual_sup"][0]) < 1e-11
    assert float(rows["positivity_margin"][0]) > 0.9
    # the twist has a potential, so the solve starts at u = -potential
    assert rows["harmonic_start"] == ["true"]
    stages = [r for r in rows_of(out) if r[0] == "stage"]
    assert len(stages) == 1 and float(stages[0][1]) == 1.0
    lv = [r for r in rows_of(out) if r[0] == "largevolume"]
    assert [float(r[1]) for r in lv] == [10.0, 100.0]
    for r in lv:
        assert float(r[4]) < 1e-9


def test_solve_surface_overrides_and_dump(tmp_path, capsys):
    raw = json.load(open(TORUS_CFG))
    dump = tmp_path / "fields.zfd"
    raw["surface"]["dump"] = str(dump)
    raw["surface"]["k_values"] = []
    cfg = write_cfg(tmp_path, raw)
    rc, out, _ = run(capsys, "solve-surface", "--config", cfg,
                     "--N", "8", "--tol", "1e-9")
    assert rc == 0
    rows = {r[0]: r[1:] for r in rows_of(out)}
    assert rows["N"] == ["8"]
    assert float(rows["residual_sup"][0]) < 1e-9
    assert rows["dump"] == [str(dump)]
    size, fields = read_field_dump(str(dump))
    assert size == 8
    assert sorted(fields) == ["u", "z_residual"]
    assert fields["u"].shape == (8, 8, 8, 8)


def test_dump_holds_the_reported_residual(tmp_path, capsys):
    raw = torus_raw(dump=str(tmp_path / "fields.zfd"))
    rc, out, _ = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, raw))
    assert rc == 0
    rows = {r[0]: r[1:] for r in rows_of(out)}
    _, fields = read_field_dump(raw["surface"]["dump"])
    assert float(np.max(np.abs(fields["z_residual"]))) == float(rows["z_residual_sup"][0])
    assert float(np.mean(fields["z_residual"])) == float(rows["z_residual_mean"][0])


def test_solve_surface_json(capsys):
    rc, out, _ = run(capsys, "solve-surface", "--config", TORUS_CFG,
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["N"] == 16
    assert doc["phi"] == pytest.approx(-math.pi / 4, rel=1e-12)
    assert doc["residual_sup"] < 1e-11
    assert len(doc["stages"]) == 1
    assert [row["k"] for row in doc["large_volume"]] == [10.0, 100.0]
    assert doc["dump"] is None


def test_solve_surface_json_reports_the_residual_path(capsys):
    rc, out, err = run(capsys, "solve-surface", "--config", TWO_MODE_CFG,
                       "--format", "json")
    assert rc == 0, err
    doc = json.loads(out)
    (path,) = doc["stage_residuals"]
    (stage,) = doc["stages"]
    assert len(path) == doc["newton_iterations"] + 1 == stage["newton"] + 1
    assert path == sorted(path, reverse=True) and path[0] > 1.0
    assert path[-1] == stage["residual"] <= 1e-11
    # the TSV rows stay those of the documented format
    rc, out, _ = run(capsys, "solve-surface", "--config", TWO_MODE_CFG)
    assert rc == 0
    assert [r[0] for r in rows_of(out)] == [
        "N", "phi", "residual_sup", "z_residual_sup", "z_residual_mean", "shift",
        "positivity_margin", "newton_iterations", "cg_iterations",
        "harmonic_start", "stage"]


def test_stages_key_is_optional(tmp_path, capsys):
    # without the key the solve is the one Newton solve that stages: 1 asks for
    raw = json.load(open(TWO_MODE_CFG))
    raw["surface"].pop("stages", None)
    rc, out, err = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, raw))
    assert rc == 0, err
    raw["surface"]["stages"] = 1
    rc_one, out_one, _ = run(capsys, "solve-surface", "--config",
                             write_cfg(tmp_path, raw, "one.json"))
    assert rc_one == 0
    assert out_one == out


def test_obstruction_exit(tmp_path, capsys):
    raw = {"surface": {"N": 8, "preset": "dhym",
                       "metric": {"a11": "1", "a22": "1"},
                       "alpha0": {"a11": "-5", "a22": "-1"}}}
    rc, _, err = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, raw))
    assert rc == 66
    assert "no solution" in err


def test_numerical_failure_exit(tmp_path, capsys):
    raw = {"surface": {"N": 8, "preset": "dhym",
                       "metric": {"a11": "1", "a22": "1"},
                       "alpha0": {"a11": "2", "a22": "3"},
                       "u1_potential": [
                           {"mode": [1, 0, 0, 0], "amplitude": 0.1,
                            "phase": "cos"},
                           {"mode": [0, 0, 1, 0], "amplitude": 0.08,
                            "phase": "cos"}],
                       "max_newton": 0}}
    rc, _, err = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, raw))
    assert rc == 65
    assert "numerical failure" in err


def test_roundoff_floor_is_named(tmp_path, capsys):
    # at metric 256 I the equation's scale |8 det a0| is about 1.4e9, so
    # its roundoff floor lies far above tol 1e-11: the solve stops there
    # and says so, not that the line search lost positivity or decrease
    raw = json.load(open(TWO_MODE_CFG))
    raw["surface"]["metric"] = {"a11": "256", "a12": "0", "a22": "256"}
    rc, _, err = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, raw))
    assert rc == 65
    assert "roundoff floor" in err and "tol 1.000e-11" in err
    assert "line search exhausted" not in err


def torus_raw(**changes):
    raw = {"surface": {"N": 8, "preset": "dhym",
                       "metric": {"a11": "1", "a22": "1"},
                       "alpha0": {"a11": "2", "a22": "3"},
                       "u1_potential": [
                           {"mode": [1, 0, 0, 0], "amplitude": 0.1, "phase": "cos"}],
                       "tol": 1e-10, "stages": 1}}
    raw["surface"].update(changes)
    return raw


def tau_raw(**changes):
    raw = json.load(open(TAU_CFG))
    raw["tau"].update(changes)
    return raw


def dhym_raw(section, **changes):
    raw = json.load(open(DHYM_CFG))
    raw[section].update(changes)
    return raw


F_CH = {"1": "2", "h^2": "-2"}


@pytest.mark.parametrize("command, raw, path", [
    (["charge", "--sheaf", "E"],
     {"manifold": {"preset": "projective_space", "dimension": "two"},
      "charge": {"preset": "dhym"}, "sheaves": {"E": {"ch": {"1": "1"}}}},
     "manifold.dimension"),
    (["solve-surface"], torus_raw(N="abc"), "surface.N"),
    (["solve-surface"], torus_raw(stages=0), "surface.stages"),
    (["solve-surface"], torus_raw(stages=2), "surface.stages"),
    (["solve-surface"], torus_raw(max_newton=-1), "surface.max_newton"),
    (["solve-surface"], torus_raw(u1_potential=[{"mode": [0, 0, 0, 0]}, {"mode": [5, 0, 0, 0]}]),
     r"surface.u1_potential\[1\].mode"),
    (["solve-surface"], torus_raw(u1_potential=[{"mode": [0, 1.5, 0, 0]}]),
     r"surface.u1_potential\[0\].mode\[1\]"),
    (["solve-surface"], torus_raw(u1_potential=[{"mode": [1, 0, 0, 0], "amplitude": "nan"}]),
     r"surface.u1_potential\[0\].amplitude"),
    (["solve-surface"], torus_raw(u1_potential=[{"mode": [1, 0, 0, 0], "amplitude": "inf"}]),
     r"surface.u1_potential\[0\].amplitude"),
    (["solve-surface"], torus_raw(u2=[{"mode": [0, 0, 0, 0]}, {"mode": [0, 1, 0, 0],
                                                              "amplitude": math.nan}]),
     r"surface.u2\[1\].amplitude"),
    (["solve-surface"], torus_raw(tol=0), "surface.tol"),
    (["solve-surface"], torus_raw(tol=-1), "surface.tol"),
    (["solve-surface"], torus_raw(tol="nan"), "surface.tol"),
    (["solve-surface"], torus_raw(tol=math.inf), "surface.tol"),
    (["solve-surface", "--tol", "-1"], torus_raw(), "--tol"),
    (["solve-surface", "--tol", "0"], torus_raw(), "--tol"),
    (["solve-surface", "--tol", "nan"], torus_raw(), "--tol"),
    (["solve-surface", "--tol", "inf"], torus_raw(), "--tol"),
    (["solve-surface"], torus_raw(k_values="10"), r"surface.k_values: "),
    (["solve-surface"], torus_raw(k_values=[0]), r"surface.k_values\[0\]"),
    (["solve-surface"], torus_raw(k_values=[10, "nan"]), r"surface.k_values\[1\]"),
    (["solve-surface"], torus_raw(k_values=["inf"]), r"surface.k_values\[0\]"),
    (["tau"], tau_raw(edges=[[0, 1], [1, 0]], cap=0), "tau.cap"),
    (["tau"], tau_raw(edges=[[0, 1], [1, 0]], cap="-1"), "tau.cap"),
    (["tau"], tau_raw(quotients=[{"name": 5, "ch": {"1": "1"}}, "F"]),
     r"tau.quotients\[0\].name: expected a non-empty string"),
    (["tau"], tau_raw(quotients=[{"name": ["Q"], "ch": {"1": "1"}}, "F"]),
     r"tau.quotients\[0\].name: expected a non-empty string"),
    (["walls"], dhym_raw("walls", range=["1", "-1"]), "walls.range: expected t_min < t_max"),
    (["walls"], dhym_raw("walls", range=["0", "0"]), "walls.range: expected t_min < t_max"),
    (["solve-surface", "--N", "12"], torus_raw(), "--N: grid size"),
    (["charge"], dhym_raw("charge", object=["E"]), "charge.object: expected a non-empty string"),
    (["stability"], dhym_raw("stability", object=["E"]),
     "stability.object: expected a non-empty string"),
    (["stability"], dhym_raw("stability", candidates=[{"name": ["F"]}]),
     r"stability.candidates\[0\].name: expected a non-empty string"),
    (["stability"], dhym_raw("stability", candidates=[{"name": 5, "ch": F_CH}]),
     r"stability.candidates\[0\].name: expected a non-empty string"),
    (["solve-surface"], torus_raw(metric={"a11": "1e400", "a22": "1"}),
     "surface.metric.a11: too large for a float"),
    (["solve-surface"], torus_raw(alpha0={"a11": "2", "a22": "9" * 400}),
     "surface.alpha0.a22: too large for a float"),
    (["solve-surface"], torus_raw(metric={"a11": "1", "a12": {"im": "-1e400"}, "a22": "1"}),
     "surface.metric.a12: too large for a float"),
    (["solve-surface"], torus_raw(preset=None, rho=["-1", {"im": "1e400"}, "1/2"]),
     r"surface.rho\[1\]: too large for a float"),
], ids=["dimension", "N", "stages", "stages-two", "max_newton", "aliased-mode", "float-mode",
        "amplitude-nan", "amplitude-inf", "u2-amplitude-json-nan",
        "tol-zero", "tol-negative", "tol-nan", "tol-inf",
        "flag-tol-negative", "flag-tol-zero", "flag-tol-nan", "flag-tol-inf",
        "k-values-string", "k-values-zero", "k-values-nan", "k-values-inf",
        "tau-cap-zero", "tau-cap-negative", "tau-name-int", "tau-name-list",
        "walls-range-reversed", "walls-range-empty", "flag-N",
        "charge-object-list", "stability-object-list", "candidate-name-list",
        "candidate-name-int", "metric-a11-huge", "alpha0-a22-400-digits",
        "metric-a12-huge-imaginary", "surface-rho-huge"])
def test_bad_integer_knobs_exit_64(tmp_path, capsys, command, raw, path):
    rc, _, err = run(capsys, *command, "--config", write_cfg(tmp_path, raw))
    assert rc == 64
    assert "config error" in err
    assert re.search(path, err)


@pytest.mark.parametrize("binary", [False, True], ids=["directory", "not-utf8"])
def test_unreadable_config_exits_64(tmp_path, capsys, binary):
    path = tmp_path
    if binary:
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff{}")
    rc, out, err = run(capsys, "charge", "--config", str(path))
    assert rc == 64 and out == ""
    assert err.startswith(f"config error: {path}: ")


def forbid_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran before the configuration was checked")

    monkeypatch.setattr(surface, "solve_critical_equation", no_solve)


def test_unwritable_dump_exits_64(tmp_path, capsys, monkeypatch):
    forbid_solve(monkeypatch)
    raw = torus_raw(dump=str(tmp_path / "missing" / "fields.zfd"))
    rc, out, err = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, raw))
    assert rc == 64 and out == ""
    assert err.startswith("config error: surface.dump: cannot write")


def test_dump_path_that_is_a_directory_exits_64(tmp_path, capsys, monkeypatch):
    forbid_solve(monkeypatch)
    raw = torus_raw(dump=str(tmp_path))
    rc, out, err = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, raw))
    assert rc == 64 and out == ""
    assert err.startswith("config error: surface.dump: cannot write")


@pytest.mark.parametrize("k", [1e200, 1e100, -1e100, 1e-300])
def test_k_out_of_float_range_exits_64(tmp_path, capsys, monkeypatch, k):
    # a large-volume row out of float range is a config error, found
    # before the solve and without a numpy warning
    forbid_solve(monkeypatch)
    raw = torus_raw(k_values=[10, k])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, raw))
    assert rc == 64 and out == ""
    assert err == (f"config error: surface.k_values[1]: the large-volume row at "
                   f"k = {k!r} leaves float range\n")


@pytest.mark.parametrize("command", ["charge", "stability", "walls", "tau"])
def test_invalid_explicit_rho_names_its_path(tmp_path, capsys, command):
    # rho_2 = -1/2 leaves the upper half-plane; walls brings its own
    # preset and still rejects the configuration at load
    raw = json.load(open(DHYM_CFG))
    raw["charge"] = {"rho": ["-1", {"im": "1"}, "-1/2"], "object": "E"}
    raw["walls"]["preset"] = "dhym"
    raw["tau"] = {"object": "E", "quotients": ["F", {"name": "Q", "ch": {"1": "1"}}]}
    rc, out, err = run(capsys, command, "--config", write_cfg(tmp_path, raw))
    assert rc == 64 and out == ""
    assert err.startswith("config error: charge.rho: invalid stability vector at index 2: ")


def test_aliased_mode_checked_after_the_grid_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, torus_raw(N=16, u1_potential=[{"mode": [0, 0, 4, 0]}]))
    rc, _, err = run(capsys, "solve-surface", "--config", cfg, "--N", "8")
    assert rc == 64 and "surface.u1_potential[0].mode" in err


def test_residual_above_tol_exits_65(tmp_path, capsys, monkeypatch):
    real = surface.solve_critical_equation

    def loose(data, **kwargs):
        return dataclasses.replace(real(data, **kwargs), residual_sup=1e-3)

    monkeypatch.setattr(surface, "solve_critical_equation", loose)
    rc, out, err = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, torus_raw()))
    assert rc == 65 and out == ""
    assert "numerical failure" in err and "exceeds tol" in err


def test_unexpected_exception_exits_70(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("handler broke")

    monkeypatch.setattr(cli, "cmd_charge", broken)
    rc, out, err = run(capsys, "charge", "--config", DHYM_CFG)
    assert rc == 70 and out == ""
    assert err == "internal error: handler broke\n"


def test_linear_program_error_exits_70(monkeypatch, capsys):
    def broken(*args):
        raise LinearProgramError("phase 1 cannot be unbounded")

    monkeypatch.setattr(extension, "simplex_solve", broken)
    rc, _, err = run(capsys, "tau", "--config", TAU_CFG)
    assert rc == 70
    assert err == "internal error: phase 1 cannot be unbounded\n"


def test_failed_certificate_exits_70(monkeypatch, capsys):
    # a primal solution that does not balance the loads
    real = extension.simplex_solve

    def off_by_one(*args):
        res = real(*args)
        return dataclasses.replace(res, x=[v + 1 for v in res.x])

    monkeypatch.setattr(extension, "simplex_solve", off_by_one)
    rc, out, err = run(capsys, "tau", "--config", TAU_CFG)
    assert rc == 70 and out == ""
    assert err.startswith("internal error: certificate check failed")
    assert "Traceback" not in err


def test_usage_errors_exit_64(capsys):
    assert run(capsys, )[0] == 64                          # no subcommand
    assert run(capsys, "paint")[0] == 64                   # unknown subcommand
    assert run(capsys, "walls")[0] == 64                   # missing --config
    assert run(capsys, "charge", "--config", DHYM_CFG,
               "--format", "yaml")[0] == 64                # bad choice
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "charge", "--help")[0] == 0


def test_config_errors_exit_64(capsys):
    rc, _, err = run(capsys, "charge", "--config", "configs/absent.json")
    assert rc == 64
    assert "config error" in err
    # a config without the requested section
    rc, _, err = run(capsys, "stability", "--config", TODD_CFG)
    assert rc == 64
    assert "stability" in err


def test_selftest_single_criterion(capsys):
    rc, out, _ = run(capsys, "selftest", "--only", "1", "--seed", "0")
    assert rc == 0
    assert out.startswith("PASS")
    assert "graded square root" in out
