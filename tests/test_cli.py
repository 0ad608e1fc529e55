"""Command-line behavior driven in process: golden delimited output,
JSON variants, and the exit-code contract."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import pytest

from zcrit import cli, surface
from zcrit.surface import read_field_dump

DHYM_CFG = "configs/p2_extension_dhym.json"
TODD_CFG = "configs/p2_extension_todd.json"
TAU_CFG = "configs/tau_chain.json"
TORUS_CFG = "configs/torus_dhym.json"


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


@pytest.mark.parametrize("modules, absent", [
    ("zcrit.cli", "sympy"),
    ("zcrit, zcrit.charge, zcrit.stability, zcrit.extension, zcrit.config", "numpy"),
], ids=["cli-sympy", "exact-numpy"])
def test_cli_import_leaves_sympy_out(modules, absent):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = f"import sys, {modules}; print({absent!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


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


def test_solve_surface_tsv(capsys):
    rc, out, _ = run(capsys, "solve-surface", "--config", TORUS_CFG)
    assert rc == 0
    rows = {r[0]: r[1:] for r in rows_of(out) if r[0] not in ("stage", "largevolume")}
    assert rows["N"] == ["16"]
    assert float(rows["phi"][0]) == pytest.approx(-math.pi / 4, rel=1e-12)
    assert float(rows["residual_sup"][0]) < 1e-11
    assert float(rows["positivity_margin"][0]) > 0.9
    assert rows["harmonic_start"] == ["false"]
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
                            "phase": "cos"}],
                       "max_newton": 0}}
    rc, _, err = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, raw))
    assert rc == 65
    assert "numerical failure" in err


def torus_raw(**changes):
    raw = {"surface": {"N": 8, "preset": "dhym",
                       "metric": {"a11": "1", "a22": "1"},
                       "alpha0": {"a11": "2", "a22": "3"},
                       "u1_potential": [
                           {"mode": [1, 0, 0, 0], "amplitude": 0.1, "phase": "cos"}],
                       "tol": 1e-10, "stages": 1}}
    raw["surface"].update(changes)
    return raw


@pytest.mark.parametrize("command, raw, path", [
    (["charge", "--sheaf", "E"],
     {"manifold": {"preset": "projective_space", "dimension": "two"},
      "charge": {"preset": "dhym"}, "sheaves": {"E": {"ch": {"1": "1"}}}},
     "manifold.dimension"),
    (["solve-surface"], torus_raw(N="abc"), "surface.N"),
    (["solve-surface"], torus_raw(stages=0), "surface.stages"),
    (["solve-surface"], torus_raw(max_newton=-1), "surface.max_newton"),
    (["solve-surface"], torus_raw(u1_potential=[{"mode": [0, 0, 0, 0]}, {"mode": [5, 0, 0, 0]}]),
     r"surface.u1_potential\[1\].mode"),
    (["solve-surface"], torus_raw(u1_potential=[{"mode": [0, 1.5, 0, 0]}]),
     r"surface.u1_potential\[0\].mode\[1\]"),
    (["solve-surface"], torus_raw(tol=0), "surface.tol"),
    (["solve-surface"], torus_raw(tol=-1), "surface.tol"),
    (["solve-surface"], torus_raw(tol="nan"), "surface.tol"),
    (["solve-surface"], torus_raw(tol=math.inf), "surface.tol"),
    (["solve-surface", "--tol", "-1"], torus_raw(), "--tol"),
    (["solve-surface", "--tol", "0"], torus_raw(), "--tol"),
    (["solve-surface", "--tol", "nan"], torus_raw(), "--tol"),
    (["solve-surface", "--tol", "inf"], torus_raw(), "--tol"),
], ids=["dimension", "N", "stages", "max_newton", "aliased-mode", "float-mode",
        "tol-zero", "tol-negative", "tol-nan", "tol-inf",
        "flag-tol-negative", "flag-tol-zero", "flag-tol-nan", "flag-tol-inf"])
def test_bad_integer_knobs_exit_64(tmp_path, capsys, command, raw, path):
    rc, _, err = run(capsys, *command, "--config", write_cfg(tmp_path, raw))
    assert rc == 64
    assert "config error" in err
    assert re.search(path, err)


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
