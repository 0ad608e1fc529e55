"""Command-line behavior driven in process: golden delimited output,
JSON variants, and the exit-code contract."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zcrit import cli, extension, surface
from zcrit.charge import dhym_stability_vector
from zcrit.exactlp import LinearProgramError

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


@pytest.mark.parametrize("config, tail", [
    ("configs/tau_dual.json", [["feasible", "false"], ["margin", "-8/27"],
                               ["tau", "0", "1->0", "-8/27"], ["certificate", "dual"]]),
    ("configs/tau_inconsistent.json", [["feasible", "false"], ["margin", "-"],
                                       ["certificate", "inconsistent"]]),
])
def test_shipped_tau_outcomes(capsys, config, tail):
    # the two infeasible outcomes of the README, each exiting 2
    rc, out, _ = run(capsys, "tau", "--config", config)
    assert rc == 2
    rows = rows_of(out)
    assert rows[:3] == [["order", "3"], ["profile", "Q", "-8/27"], ["profile", "F", "8/27"]]
    assert rows[3:] == tail


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
    # a TSV head row is named after a JSON field and carries its value,
    # a list spread over its cells; the tau profile and weights are
    # per-quotient and per-edge records instead
    path = os.path.join("configs", config)
    rc, out, err = run(capsys, command, "--config", path)
    rc_json, out_json, err_json = run(capsys, command, "--config", path, "--format", "json")
    assert (rc, err) == (rc_json, err_json)
    if rc not in (0, 2, 3):
        return
    doc = json.loads(out_json)
    head = {k: [cell(x) for x in v] if isinstance(v, list) else [cell(v)]
            for k, v in doc.items() if k not in ("profile", "tau")}
    rows = [row for row in rows_of(out) if row[0] in head]
    assert rows or command == "charge"
    # the list-valued head fields are among the rows compared
    assert {"range", "residual_path"} & set(doc) <= {row[0] for row in rows}
    for row in rows:
        assert row[1:] == head[row[0]]


@pytest.mark.parametrize("config", sorted(os.listdir("configs")))
def test_shipped_configs_exit_with_the_readme_codes(capsys, config):
    # every shipped config runs each subcommand whose section it holds
    # (charge needs charge.object) with the README's exit code for the
    # printed outcome, and every other subcommand exits 64
    path = os.path.join("configs", config)
    raw = json.load(open(path))
    holds = {"charge": "object" in raw.get("charge", {}), "stability": "stability" in raw,
             "walls": "walls" in raw, "tau": "tau" in raw, "solve-surface": "surface" in raw}
    assert any(holds.values())
    for command, held in holds.items():
        rc, out, err = run(capsys, command, "--config", path, "--format", "json")
        if not held:
            assert (rc, out) == (64, "") and err.startswith("config error: ")
            continue
        doc = json.loads(out)
        if command == "stability":
            expected = {"stable": 0, "unstable": 2, "semistable": 3}[doc["status"]]
        elif command == "tau":
            expected = 0 if doc["feasible"] else 2
        else:
            expected = 0
        assert (rc, err) == (expected, "")


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("command", ["charge", "walls"])
def test_explicit_ring_config_matches_the_preset(capsys, command, fmt):
    # configs/p2_explicit_ring.json writes the ring of P2, Todd class
    # included, as a table; config.py reads it into the preset's ring
    preset = run(capsys, command, "--config", TODD_CFG, "--format", fmt)
    table = run(capsys, command, "--config", "configs/p2_explicit_ring.json", "--format", fmt)
    assert table == preset and preset[0] == 0


def test_solve_surface_tsv(capsys):
    rc, out, _ = run(capsys, "solve-surface", "--config", TORUS_CFG)
    assert rc == 0
    rows = {r[0]: r[1:] for r in rows_of(out) if r[0] != "largevolume"}
    assert rows["N"] == ["16"]
    assert float(rows["phi"][0]) == pytest.approx(-math.pi / 4, rel=1e-12)
    assert float(rows["residual_sup"][0]) < 1e-11
    assert float(rows["positivity_margin"][0]) > 0.9
    # the twist has a potential, so the solve starts at u = -potential
    assert rows["harmonic_start"] == ["true"]
    # exact at the start: the residual path is the start residual alone
    assert rows["newton_iterations"] == ["0"]
    assert len(rows["residual_path"]) == 1 and float(rows["residual_path"][0]) < 1e-11
    lv = [r for r in rows_of(out) if r[0] == "largevolume"]
    assert [float(r[1]) for r in lv] == [10.0, 100.0]
    for r in lv:
        assert float(r[4]) < 1e-9


def test_solve_surface_overrides_and_dump(tmp_path, capsys):
    raw = json.load(open(TORUS_CFG))
    dump = tmp_path / "fields.zfd"
    raw["surface"]["dump"] = str(dump)
    raw["surface"]["k_values"] = []
    raw["surface"]["tol"] = 1e-9
    cfg = write_cfg(tmp_path, raw)
    rc, out, _ = run(capsys, "solve-surface", "--config", cfg, "--N", "8")
    assert rc == 0
    rows = {r[0]: r[1:] for r in rows_of(out)}
    assert rows["N"] == ["8"]
    assert float(rows["residual_sup"][0]) < 1e-9
    assert rows["dump"] == [str(dump)]
    with np.load(dump) as fields:
        assert fields.files == ["u", "z_residual"]
        assert fields["u"].shape == (8, 8, 8, 8)
        assert fields["z_residual"].shape == (8, 8, 8, 8)


def test_dump_holds_the_reported_residual(tmp_path, capsys):
    raw = torus_raw(dump=str(tmp_path / "fields.zfd"))
    rc, out, _ = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, raw))
    assert rc == 0
    rows = {r[0]: r[1:] for r in rows_of(out)}
    with np.load(raw["surface"]["dump"]) as fields:
        z = fields["z_residual"]
    assert float(np.max(np.abs(z))) == float(rows["z_residual_sup"][0])
    assert float(np.mean(z)) == float(rows["z_residual_mean"][0])


def test_solve_surface_json(capsys):
    rc, out, _ = run(capsys, "solve-surface", "--config", TORUS_CFG,
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["N"] == 16
    assert doc["phi"] == pytest.approx(-math.pi / 4, rel=1e-12)
    assert doc["residual_sup"] < 1e-11
    assert len(doc["residual_path"]) == doc["newton_iterations"] + 1 == 1
    assert [row["k"] for row in doc["large_volume"]] == [10.0, 100.0]
    assert doc["dump"] is None


def test_solve_surface_json_reports_the_residual_path(capsys):
    rc, out, err = run(capsys, "solve-surface", "--config", TWO_MODE_CFG,
                       "--format", "json")
    assert rc == 0, err
    doc = json.loads(out)
    path = doc["residual_path"]
    assert len(path) == doc["newton_iterations"] + 1 >= 2
    assert path == sorted(path, reverse=True) and path[0] > 1.0
    assert path[-1] <= 1e-11
    # the TSV rows stay those of the documented format, the path last
    rc, out, _ = run(capsys, "solve-surface", "--config", TWO_MODE_CFG)
    assert rc == 0
    rows = rows_of(out)
    assert [r[0] for r in rows] == [
        "N", "phi", "residual_sup", "z_residual_sup", "z_residual_mean", "shift",
        "positivity_margin", "newton_iterations", "cg_iterations",
        "harmonic_start", "residual_path"]
    assert rows[-1][1:] == [repr(r) for r in path]


def test_obstruction_exit(tmp_path, capsys):
    raw = {"surface": {"N": 8, "preset": "dhym",
                       "metric": {"a11": "1", "a22": "1"},
                       "alpha0": {"a11": "-5", "a22": "-1"}}}
    rc, _, err = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, raw))
    assert rc == 66
    assert "no solution" in err


def test_numerical_failure_exit(tmp_path, capsys, monkeypatch):
    # a Newton budget of 0: the solve needs a step, so it fails
    monkeypatch.setattr(surface, "NEWTON_MAX", 0)
    raw = {"surface": {"N": 8, "preset": "dhym",
                       "metric": {"a11": "1", "a22": "1"},
                       "alpha0": {"a11": "2", "a22": "3"},
                       "u1_potential": [
                           {"mode": [1, 0, 0, 0], "amplitude": 0.1,
                            "phase": "cos"},
                           {"mode": [0, 0, 1, 0], "amplitude": 0.08,
                            "phase": "cos"}]}}
    rc, _, err = run(capsys, "solve-surface", "--config", write_cfg(tmp_path, raw))
    assert rc == 65
    assert "numerical failure" in err


def test_stalled_conjugate_gradients_say_where_they_stopped(capsys):
    # on an even grid the skew config's Nyquist modes stall conjugate
    # gradients; the failure names the Newton step and its residual, the
    # relative CG residual reached against eta, N and the lattice rank
    rc, _, err = run(capsys, "solve-surface", "--config", "configs/torus_skew.json",
                     "--N", "8")
    assert rc == 65
    assert re.fullmatch(
        r"numerical failure: conjugate gradients stalled above tolerance: relative "
        r"residual (\S+) against eta (\S+); Newton step [1-9]\d* \(residual \S+\), "
        r"N=8, lattice rank 2\n", err)
    reached, eta = (float(v) for v in re.findall(r"residual (\S+) against eta (\S+);",
                                                 err)[0])
    assert reached > eta


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
                       "tol": 1e-10}}
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


def ring_raw(**changes):
    # the ring of P2 given as an explicit table
    ring = {"name": "p2", "complex_dimension": 2,
            "generators": [{"name": "1", "degree": 0}, {"name": "h", "degree": 2},
                           {"name": "h^2", "degree": 4}],
            "products": [["h", "h", {"h^2": "1"}]], "integration": {"h^2": "1"}}
    ring.update(changes)
    return {"manifold": {"ring": ring}, "charge": {"preset": "dhym"},
            "sheaves": {"E": {"ch": {"1": "1"}}}}


@pytest.mark.parametrize("command, raw, path", [
    (["charge", "--sheaf", "E"],
     {"manifold": {"preset": "projective_space", "dimension": "two"},
      "charge": {"preset": "dhym"}, "sheaves": {"E": {"ch": {"1": "1"}}}},
     "manifold.dimension"),
    (["solve-surface"], torus_raw(N="abc"), "surface.N"),
    (["solve-surface"], torus_raw(stages=1), r"surface: unexpected keys \['stages'\]"),
    (["solve-surface"], torus_raw(stages=2, Tol=1), r"surface: unexpected keys \['Tol', 'stages'\]"),
    (["solve-surface"], torus_raw(max_newton=50), r"surface: unexpected keys \['max_newton'\]"),
    # an empty path names no file: it is refused, not read as "no dump"
    (["solve-surface"], torus_raw(dump=""), "surface.dump: dump must be a non-empty file path"),
    # an empty --sheaf names no sheaf: it does not fall back to charge.object
    (["charge", "--sheaf", ""], dhym_raw("charge"), "--sheaf: expected a non-empty string"),
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
    (["solve-surface", "--tol", "-1"], torus_raw(), "unrecognized arguments: --tol -1"),
    (["solve-surface", "--tol", "0"], torus_raw(), "unrecognized arguments: --tol 0"),
    (["solve-surface", "--tol", "nan"], torus_raw(), "unrecognized arguments: --tol nan"),
    (["solve-surface", "--tol", "inf"], torus_raw(), "unrecognized arguments: --tol inf"),
    (["solve-surface"], torus_raw(k_values="10"), r"surface.k_values: "),
    (["solve-surface"], torus_raw(k_values=[0]), r"surface.k_values\[0\]"),
    (["solve-surface"], torus_raw(k_values=[10, "nan"]), r"surface.k_values\[1\]"),
    (["solve-surface"], torus_raw(k_values=["inf"]), r"surface.k_values\[0\]"),
    (["solve-surface"], torus_raw(k_values=[10, 1e-300]), r"surface.k_values\[1\]: k must"),
    (["solve-surface"], torus_raw(k_values=[10, 1e-8]), r"surface.k_values\[1\]: k must"),
    (["solve-surface"], torus_raw(k_values=[-0.5]), r"surface.k_values\[0\]: k must"),
    # the margin cap is a library constant, not a key
    (["tau"], tau_raw(edges=[[0, 1], [1, 0]], cap=0), r"tau: unexpected keys \['cap'\]"),
    (["tau"], tau_raw(edges=[[0, 1], [1, 0]], cap="-1"), r"tau: unexpected keys \['cap'\]"),
    (["tau"], tau_raw(cap="1"), r"^config error: tau: unexpected keys \['cap'\]\n$"),
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
    (["charge", "--sheaf", "E"],
     ring_raw(generators=[{"name": "1", "degree": 0}, {"name": "h", "degree": 2.9},
                          {"name": "h^2", "degree": 4}]),
     r"manifold.ring.generators\[1\].degree: expected an integer, got 2.9"),
    (["charge", "--sheaf", "E"], ring_raw(complex_dimension=2.5),
     "manifold.ring.complex_dimension: expected an integer, got 2.5"),
    (["charge", "--sheaf", "E"], ring_raw(integration={"h^2": True}),
     r"manifold.ring.integration.h\^2: rationals must be strings or integers, not booleans"),
    (["walls"], dhym_raw("walls", direction={"h": "0"}),
     "walls.direction: twist direction must be nonzero"),
    (["stability"], dhym_raw("sheaves", E={"ch": {"h^2": "-2"}}),
     "stability.object: ambient object must have positive rank"),
    (["walls"], dhym_raw("sheaves", E={"ch": {"h^2": "-2"}}),
     "walls.object: ambient object must have positive rank"),
    (["tau"], {**tau_raw(), "sheaves": {**tau_raw()["sheaves"], "E": {"ch": {"h^2": "-2"}}}},
     "tau.object: ambient object must have positive rank"),
    (["stability"], dhym_raw("sheaves", F={"ch": {"1": "3"}}),
     r"stability.candidates\[0\]: candidate 'F' must have rank between 1 and 2, got 3"),
    (["walls"], dhym_raw("walls", candidates=[{"name": "F"}, {"name": "G", "ch": {"1": "0"}}]),
     r"walls.candidates\[1\]: candidate 'G' must have rank between 1 and 2, got 0"),
    (["stability"], dhym_raw("sheaves", F={"ch": {"1": "1/2"}}),
     "sheaves.F.ch: rank must be an integer, got 1/2"),
    # library input errors that reach the subcommand are checked at load
    (["charge"], dhym_raw("manifold", omega={"h": "0"}),
     "^config error: manifold.omega: polarisation must be a nonzero degree-2 class"),
    (["charge"], dhym_raw("manifold", omega={"h^2": "1"}),
     "^config error: manifold.omega: polarisation must be a nonzero degree-2 class"),
    (["charge"], dhym_raw("manifold", dimension=3, omega={"h": "-1"}),
     r"^config error: manifold.omega: integrate\(omega\^n\) = -1 must be positive"),
    (["charge"], dhym_raw("charge", bfield={"1": "1"}),
     "^config error: charge.bfield: B-field must be purely of degree 2"),
    (["walls"], dhym_raw("walls", direction={"h": "1", "h^2": "1"}),
     "^config error: walls.direction: twist direction must be purely of degree 2"),
    (["walls"], dhym_raw("walls", base={"1": "1"}),
     "^config error: walls.base: base twist must be purely of degree 2"),
    (["walls"], dhym_raw("walls", preset="foo"),
     "^config error: walls.preset: unknown charge preset 'foo'"),
    (["tau"], tau_raw(quotients=[{"name": "Q", "ch": {"h^2": "1"}}, "F"]),
     r"^config error: tau.quotients\[0\]: quotient 'Q' must have positive rank, got 0"),
    (["tau"], tau_raw(quotients=["Q", {"name": "G", "ch": {"1": "2"}}]),
     "^config error: tau.quotients: quotient characters must sum to the character of "
     "tau.object"),
    (["charge", "--sheaf", "E"],
     {"manifold": {"preset": "torus_line", "volume": "0"}, "charge": {"preset": "dhym"},
      "sheaves": {"E": {"ch": {"1": "1"}}}},
     "^config error: manifold.volume: torus_line volume must be positive, got 0"),
    # a ring table whose degrees do not fit is refused at the entry
    (["charge", "--sheaf", "E"], ring_raw(products=[["h", "h", {"h": "1"}]]),
     r"^config error: manifold.ring.products\[0\]\[2\].h: expected a generator of degree 4, "
     "'h' has degree 2"),
    (["charge", "--sheaf", "E"],
     ring_raw(products=[["h", "h", {"h^2": "1"}], ["h^2", "h^2", {}]]),
     r"^config error: manifold.ring.products\[1\]: the product has degree 8, above the top"),
    (["charge", "--sheaf", "E"],
     ring_raw(generators=[{"name": "1", "degree": 0}, {"name": "h", "degree": 3},
                          {"name": "h^2", "degree": 4}]),
     r"^config error: manifold.ring.generators\[1\].degree: expected an even degree in 0..4, "
     "got 3"),
    (["charge", "--sheaf", "E"],
     ring_raw(generators=[{"name": "1", "degree": 0}, {"name": "h", "degree": 2},
                          {"name": "h", "degree": 4}]),
     r"^config error: manifold.ring.generators\[2\].name: duplicate generator name 'h'"),
    (["charge", "--sheaf", "E"],
     ring_raw(generators=[{"name": "1", "degree": 0}, {"name": "h", "degree": 0},
                          {"name": "h^2", "degree": 4}], products=[]),
     "^config error: manifold.ring.generators: ring needs exactly one degree-0 generator"),
    (["charge", "--sheaf", "E"], ring_raw(integration={"h": "1"}),
     "^config error: manifold.ring.integration.h: expected a generator of degree 4"),
    (["charge", "--sheaf", "E"], ring_raw(integration={"h^2": "-1"}),
     r"^config error: manifold.ring: integrate\(omega\^n\) = -1 must be positive"),
    # a JSON value of the wrong type is named by its JSON type
    (["charge"], dhym_raw("charge", bfield={"h": None}),
     "^config error: charge.bfield.h: cannot read a rational from null$"),
    (["walls"], dhym_raw("walls", range=[[0], "1"]),
     r"^config error: walls.range\[0\]: cannot read a rational from an array$"),
    (["solve-surface"], torus_raw(tol={"value": 1e-9}),
     "^config error: surface.tol: cannot read a number from an object$"),
    # a Todd class is refused at its degree-0 entry, not where a preset uses it
    (["charge", "--sheaf", "E"],
     {**ring_raw(todd={"1": "2", "h": "3/2", "h^2": "1"}), "charge": {"preset": "todd"}},
     "^config error: manifold.ring.todd.1: the Todd class needs degree-0 part 1, got 2$"),
    # a B-field beside an explicit rho would be parsed and then ignored
    (["stability"], {**json.load(open(DHYM_CFG)),
                     "charge": {"rho": ["-1", {"im": "1"}, "1/2"], "bfield": {"h": "5"},
                                "object": "E"}},
     "^config error: charge.bfield: a B-field twists a charge preset only"),
], ids=["dimension", "N", "stages", "stages-two", "max_newton", "dump-empty", "sheaf-flag-empty",
        "aliased-mode", "float-mode", "amplitude-nan", "amplitude-inf", "u2-amplitude-json-nan",
        "tol-zero", "tol-negative", "tol-nan", "tol-inf",
        "flag-tol-negative", "flag-tol-zero", "flag-tol-nan", "flag-tol-inf",
        "k-values-string", "k-values-zero", "k-values-nan", "k-values-inf",
        "k-values-1e-300", "k-values-1e-8", "k-values-negative-half",
        "tau-cap-zero", "tau-cap-negative", "tau-cap-one", "tau-name-int", "tau-name-list",
        "walls-range-reversed", "walls-range-empty", "flag-N",
        "charge-object-list", "stability-object-list", "candidate-name-list",
        "candidate-name-int", "metric-a11-huge", "alpha0-a22-400-digits",
        "metric-a12-huge-imaginary", "surface-rho-huge",
        "ring-degree-float", "ring-dimension-float", "ring-weight-bool",
        "walls-direction-zero", "stability-object-rank-0", "walls-object-rank-0",
        "tau-object-rank-0", "stability-candidate-rank-3", "walls-candidate-rank-0",
        "sheaf-rank-half", "omega-zero", "omega-degree-4", "omega-negative-volume",
        "bfield-degree-0", "walls-direction-degree-4", "walls-base-degree-0", "walls-preset-foo",
        "tau-quotient-rank-0", "tau-quotients-wrong-total", "torus-line-volume-zero",
        "ring-product-not-homogeneous",
        "ring-product-above-top", "ring-generator-odd-degree", "ring-generator-duplicate",
        "ring-two-units", "ring-integration-off-top", "ring-negative-volume",
        "bfield-null", "walls-range-array", "surface-tol-object", "ring-todd-degree-0",
        "bfield-beside-rho"])
def test_bad_integer_knobs_exit_64(tmp_path, capsys, command, raw, path):
    rc, _, err = run(capsys, *command, "--config", write_cfg(tmp_path, raw))
    assert rc == 64
    # argparse refuses an unknown flag as a usage error before any config is read
    assert ("usage: " if "--tol" in command else "config error: ") in err
    assert re.search(path, err)


TAU_INLINE = tau_raw(quotients=[{"name": "Q", "ch": {"1": "1"}}, "F"])


@pytest.mark.parametrize("command, raw, where, key", [
    (["stability"], dhym_raw("manifold"), ["manifold"], "omgea"),
    (["stability"], dhym_raw("charge"), ["charge"], "bfeild"),
    (["stability"], dhym_raw("sheaves"), ["sheaves", "E"], "hc"),
    (["stability"], dhym_raw("stability"), ["stability"], "candidate"),
    (["stability"], dhym_raw("stability"), ["stability", "candidates", 0], "knid"),
    (["walls"], dhym_raw("walls"), ["walls"], "bsae"),
    (["tau"], TAU_INLINE, ["tau"], "egdes"),
    (["tau"], TAU_INLINE, ["tau", "quotients", 0], "cha"),
    (["solve-surface"], torus_raw(), ["surface", "u1_potential", 0], "amplitdue"),
    (["charge", "--sheaf", "E"], ring_raw(), ["manifold", "ring"], "intergation"),
    (["charge", "--sheaf", "E"], ring_raw(), ["manifold", "ring", "generators", 1], "degere"),
], ids=["manifold", "charge", "sheaf", "stability", "candidate", "walls", "tau", "quotient",
        "mode-term", "ring-table", "ring-generator"])
def test_misspelt_key_exits_64(tmp_path, capsys, command, raw, where, key):
    # a key outside the documented set is refused with its JSON path,
    # never ignored
    raw = json.loads(json.dumps(raw))
    obj, path = raw, where[0]
    for step in where:
        obj = obj[step]
    for step in where[1:]:
        path += f"[{step}]" if isinstance(step, int) else f".{step}"
    obj[key] = "1"
    rc, out, err = run(capsys, *command, "--config", write_cfg(tmp_path, raw))
    assert (rc, out) == (64, "")
    assert err == f"config error: {path}: unexpected keys ['{key}']\n"


@pytest.mark.parametrize("command, raw, section, key", [
    (["stability"], dhym_raw("stability"), "stability", "object"),
    (["walls"], dhym_raw("walls"), "walls", "object"),
    (["walls"], dhym_raw("walls"), "walls", "direction"),
    (["tau"], tau_raw(), "tau", "object"),
    (["solve-surface"], torus_raw(), "surface", "metric"),
    (["solve-surface"], torus_raw(), "surface", "alpha0"),
], ids=["stability-object", "walls-object", "walls-direction", "tau-object", "surface-metric",
        "surface-alpha0"])
def test_required_key_missing_exits_64(tmp_path, capsys, command, raw, section, key):
    # a required key is reported at its own path, not at its object's
    raw = json.loads(json.dumps(raw))
    del raw[section][key]
    rc, out, err = run(capsys, *command, "--config", write_cfg(tmp_path, raw))
    assert (rc, out, err) == (64, "", f"config error: {section}.{key}: required key missing\n")


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


@pytest.mark.parametrize("k", [1e200, 1e100, -1e100])
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


def tenths(lo, hi):
    return st.integers(lo, hi).map(lambda p: f"{p}/10")


def hermitian(diag, off):
    return st.fixed_dictionaries({"a11": diag, "a22": diag,
                                  "a12": st.fixed_dictionaries({"re": off, "im": off})})


# diagonal entries of at least 1/2 and off-diagonal ones of at most
# 3/10 in each part make a positive matrix; the wide range is often
# indefinite
POSITIVE = hermitian(tenths(5, 30), tenths(-3, 3))
ANY_HERMITIAN = hermitian(tenths(-20, 30), tenths(-10, 10))


def mode_terms(max_size, amplitude):
    term = st.fixed_dictionaries({"mode": st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                                  "amplitude": st.floats(-amplitude, amplitude),
                                  "phase": st.sampled_from(["cos", "sin"])})
    return st.lists(term, max_size=max_size)


@st.composite
def surface_sections(draw):
    """N=8 surface sections: positive or indefinite metric and alpha0, an
    optional twist constant, 0-3 twist modes, 0-2 u2 modes, the dhym
    preset or an explicit rho, and optional k_values."""
    sec = {"N": 8,
           "metric": draw(st.one_of(POSITIVE, ANY_HERMITIAN)),
           "alpha0": draw(st.one_of(POSITIVE, ANY_HERMITIAN))}
    if draw(st.booleans()):
        sec["preset"] = "dhym"
    else:
        sec["rho"] = draw(st.lists(st.fixed_dictionaries({"re": tenths(-20, 20),
                                                          "im": tenths(-20, 20)}),
                                   min_size=3, max_size=3))
    if draw(st.booleans()):
        sec["u1_const"] = draw(hermitian(tenths(-5, 5), tenths(-5, 5)))
    for key, size, amplitude in (("u1_potential", 3, 0.3), ("u2", 2, 2.0)):
        terms = draw(mode_terms(size, amplitude))
        if terms:
            sec[key] = terms
    if draw(st.booleans()):
        sec["k_values"] = draw(st.lists(st.floats(-1e3, 1e3), max_size=2))
    return sec


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(surface_sections())
def test_fuzzed_surface_configs_exit_with_a_documented_code(sec):
    # every drawn section solves (0) or is refused as a config error (64),
    # a numerical failure (65) or an obstruction (66), without a numpy
    # warning on the way
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump({"surface": sec}, fh)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = cli.main(["solve-surface", "--config", path])
    assert rc in (0, 64, 65, 66), err.getvalue()
    assert not caught, [str(w.message) for w in caught]


# a config error of the exact subcommands starts with the JSON path of
# the field at fault
PATH_ERROR = re.compile(r"config error: (manifold|charge|sheaves|stability|walls|tau)[.\[\]\w^ -]*"
                        r": |config error: --sheaf: ")


P2_CHARACTERS = st.fixed_dictionaries({
    "1": st.integers(1, 3).map(str),
    "h": st.sampled_from(["0", "1", "-1", "1/2", "-3/2"]),
    "h^2": st.sampled_from(["0", "-1", "1/2", "-2", "5/6"]),
})
# at most one fault per config, none in about half of them
TAU_FAULTS = ["none"] * 7 + ["repeated name", "rank 0", "rank -1", "wrong total", "loop",
                             "vertex -1", "vertex m"]


@st.composite
def tau_configs(draw):
    """tau runs on P2 with 1-4 quotients, named by sheaf or inline, E
    their sum, and edges that may repeat, form cycles or be empty; one
    drawn fault may repeat a name, give a quotient rank 0 or -1, add a
    unit of rank to E, or add a loop or an edge leaving the vertex
    range."""
    fault = draw(st.sampled_from(TAU_FAULTS))
    count = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from("ABCDFG"), min_size=count, max_size=count, unique=True))
    chars = [draw(P2_CHARACTERS) for _ in range(count)]
    if fault == "repeated name" and count > 1:
        names[-1] = names[0]
    if fault.startswith("rank"):
        chars[-1]["1"] = fault.split()[1]
    sheaves, quotients = {}, []
    for name, ch in zip(names, chars):
        if draw(st.booleans()):
            quotients.append({"name": name, "ch": ch})
        else:
            sheaves.setdefault(name, {"ch": ch})
            quotients.append(name)
    used = [sheaves[q]["ch"] if isinstance(q, str) else q["ch"] for q in quotients]
    total = {key: sum(Fraction(ch[key]) for ch in used) for key in ("1", "h", "h^2")}
    if fault == "wrong total":
        total["1"] += 1
    sheaves["E"] = {"ch": {key: str(v) for key, v in total.items()}}
    vertex = st.integers(0, count - 1)
    edges = draw(st.lists(st.lists(vertex, min_size=2, max_size=2).filter(lambda e: e[0] != e[1]),
                          max_size=6)) if count > 1 else []
    bad_edge = {"loop": [0, 0], "vertex -1": [-1, 0], "vertex m": [0, count]}.get(fault)
    if bad_edge is not None:
        edges.insert(draw(st.integers(0, len(edges))), bad_edge)
    tau = {"object": "E", "quotients": quotients, "edges": edges}
    bfield = {"h": draw(st.sampled_from(["0", "1/3", "-2"]))}
    return {"manifold": {"preset": "projective_space", "dimension": 2},
            "charge": {"preset": "dhym", "bfield": bfield}, "sheaves": sheaves, "tau": tau}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tau_configs())
def test_fuzzed_tau_configs_exit_with_a_documented_code(raw):
    # every drawn config is decided (0 feasible, 2 infeasible) or refused
    # as a config error (64) at its path: never a crash (1) or a failed
    # certificate (70)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = cli.main(["tau", "--config", path])
    assert rc in (0, 2, 64), err.getvalue()
    assert rc != 64 or PATH_ERROR.match(err.getvalue()), err.getvalue()
    assert not caught, [str(w.message) for w in caught]


DELETE = object()
RATIONALS = st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "2/3", "5/6", "-2"])
# one fault is a value set at a path; SEC stands for the section of the
# drawn subcommand
EXACT_FAULTS = [
    (("manifold", "dimension"), 0), (("manifold", "dimension"), "two"),
    (("manifold", "dimension"), 2.5), (("manifold", "preset"), "sphere"),
    (("manifold", "omega"), {"h": "0"}), (("manifold", "omega"), {"h^2": "1"}),
    (("manifold", "omega"), {"h": "-1"}), (("charge", "bfield"), {"1": "1"}),
    (("charge", "bfield", "h"), None),
    (("charge", "preset"), "zeta"), (("charge", "rho"), ["-1", {"im": "1"}]),
    (("charge", "rho"), ["-1", {"im": "1"}, "-1/2", "1"]), (("charge", "bfield"), {"k": "1"}),
    (("charge", "bfield"), {"h": "1/0"}), (("charge", "bfield"), {"h": 1.5}),
    (("charge", "object"), ""), (("charge", "object"), ["E"]), (("charge", "object"), "Z"),
    (("sheaves", "E"), []), (("sheaves", "E", "ch"), {"q": "1"}),
    (("sheaves", "E", "ch", "1"), "x"), (("sheaves", "E", "ch", "1"), "0"),
    (("sheaves", "F", "ch", "1"), "-1"),
    (("SEC",), []), (("SEC", "object"), DELETE), (("SEC", "object"), ""), (("SEC", "object"), "Z"),
    (("SEC", "candidates"), []), (("SEC", "candidates"), "F"),
    (("SEC", "candidates", 0, "name"), DELETE), (("SEC", "candidates", 0, "kind"), "sideways"),
    (("SEC", "candidates", 0, "ch"), {"1": "1", "h": "x"}),
    (("SEC", "range"), ["1", "-1"]), (("SEC", "range"), ["0"]), (("SEC", "range"), ["a", "1"]),
    (("SEC", "range"), [0.5, 1]), (("SEC", "direction"), DELETE), (("SEC", "direction"), {"h": "0"}),
    (("SEC", "direction"), "h"), (("SEC", "direction"), {"h": "1", "h^2": "1"}),
    (("SEC", "base"), {"h": "x"}), (("SEC", "base"), {"1": "1"}), (("SEC", "preset"), "zeta"),
    (("--sheaf",), ""), (("--sheaf",), "Z"),
]


@st.composite
def exact_configs(draw):
    """charge, stability or walls runs on P2 or P3: E and F with drawn
    characters, the dhym or todd preset with a B-field or an explicit
    rho, F as a subbundle or quotient candidate, by name or inline, a
    drawn B-field direction and base and a scan range in [-3, 3]. About
    half the configs carry one fault from EXACT_FAULTS. Returns argv
    and the config."""
    command = draw(st.sampled_from(["charge", "stability", "walls"]))
    n = draw(st.sampled_from([2, 3]))
    basis = ["1", "h", "h^2", "h^3"][:n + 1]
    presets = st.sampled_from(["dhym", "todd"] if n == 2 else ["dhym"])  # P3 has no Todd class

    def character(rank):
        ch = {b: draw(RATIONALS) for b in basis[1:] if draw(st.booleans())}
        ch["1"] = str(rank)
        return ch

    e_rank = draw(st.integers(2, 4))
    e_ch, f_ch = character(e_rank), character(draw(st.integers(1, e_rank - 1)))
    if draw(st.integers(0, 3)):
        charge = {"preset": draw(presets), "bfield": {"h": draw(RATIONALS)}}
    else:
        # the dhym vector scaled entrywise by positive rationals stays valid
        scales = [Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3))) for _ in range(n + 1)]
        charge = {"rho": [{"re": str(s * r.re), "im": str(s * r.im)}
                          for s, r in zip(scales, dhym_stability_vector(n).rho)]}
        if draw(st.booleans()):
            charge["unipotent"] = {"1": "1", "h": draw(RATIONALS)}
    charge["object"] = draw(st.sampled_from(["E", "F"]))
    candidate = {"name": "F", "kind": draw(st.sampled_from(["subbundle", "quotient"]))}
    if draw(st.booleans()):
        candidate["ch"] = character(draw(st.integers(1, e_rank - 1)))
    lo = Fraction(draw(st.integers(-6, 5)), 2)
    hi = lo + Fraction(draw(st.integers(1, 6)), 2)
    sec = {"object": "E", "candidates": [candidate],
           "direction": {"h": draw(RATIONALS.filter(lambda v: v != "0"))},
           "range": [str(lo), str(hi)]}
    if draw(st.booleans()):
        sec["base"] = {"h": draw(RATIONALS)}
    if "preset" not in charge or draw(st.booleans()):
        sec["preset"] = draw(presets)
    raw = {"manifold": {"preset": "projective_space", "dimension": n}, "charge": charge,
           "sheaves": {"E": {"ch": e_ch}, "F": {"ch": f_ch}}}
    argv = [command]
    if command != "charge":
        raw[command] = sec
    elif draw(st.booleans()):
        argv += ["--sheaf", draw(st.sampled_from(["E", "F"]))]
    if draw(st.booleans()):
        keys, value = draw(st.sampled_from(EXACT_FAULTS))
        if keys[0] == "--sheaf":
            argv = [command, "--sheaf", value]
        else:
            keys = tuple(command if k == "SEC" else k for k in keys)
            node = raw
            for k in keys[:-1]:
                node = node.setdefault(k, {}) if isinstance(node, dict) else node[k]
            if value is DELETE:
                node.pop(keys[-1], None)
            else:
                node[keys[-1]] = value
    return argv, raw


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(exact_configs())
def test_fuzzed_exact_configs_exit_with_a_documented_code(drawn):
    # every drawn run gives a verdict (0 stable, 2 unstable, 3
    # semistable) or is refused as a config error (64) at its path:
    # never an internal error (70), and no warning on the way
    argv, raw = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = cli.main([*argv, "--config", path])
    assert rc in (0, 2, 3, 64), (argv, raw, err.getvalue())
    assert rc != 64 or PATH_ERROR.match(err.getvalue()), (argv, raw, err.getvalue())
    assert not caught, [str(w.message) for w in caught]


JUNK = [None, True, 2.5, "x", [5], {"x": "1"}]
BAD_PRODUCTS = [["h", "h^2", {"h^2": "1"}], ["h", "h", {"h": "1"}], ["h", "x", {}], ["h"],
                ["h", "h", {"h^2": "1"}, 5], [["h"], "h", {}], ["h", "h", "h^2"]]


def nodes(node, path=()):
    """Every (path, value) under node, node itself included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from nodes(child, path + (key,))


@st.composite
def mutated_ring_tables(draw):
    """The explicit P2 ring table, Todd class included, with one fault:
    a required key of the table or of a generator dropped, any value
    (the table, generators, products and their entries included)
    replaced by a value of another JSON type or by an unknown name, a key
    of any object misspelt, or a bad product entry appended. Dropping
    products or a coefficient is not among them: that gives another
    valid table, on which the charge itself may fail."""
    raw = ring_raw(todd={"1": "1", "h": "3/2", "h^2": "1"})
    table = raw["manifold"]["ring"]
    fault = draw(st.sampled_from(["drop", "retype", "misspell", "product"]))
    if fault == "drop":
        path = draw(st.sampled_from(
            [("name",), ("complex_dimension",), ("generators",), ("integration",), ("todd",)]
            + [("generators", i, key) for i in range(3) for key in ("name", "degree")]))
    else:
        objects = [p for p, v in nodes(table) if isinstance(v, dict) and v]
        path = draw(st.sampled_from({"retype": [p for p, _ in nodes(table)], "misspell": objects,
                                     "product": [("products",)]}[fault]))
    # the empty path is the table itself, held by manifold.ring
    parent, key = (table, path[-1]) if path else (raw["manifold"], "ring")
    for step in path[:-1]:
        parent = parent[step]
    if fault == "drop":
        del parent[key]
    elif fault == "retype":
        parent[key] = draw(st.sampled_from(JUNK))
    elif fault == "misspell":
        obj = parent[key]
        old = draw(st.sampled_from(sorted(obj)))
        obj[old + draw(st.sampled_from(["_", "x", "s"]))] = obj.pop(old)
    else:
        parent[key].append(draw(st.sampled_from(BAD_PRODUCTS)))
    return raw


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_ring_tables())
def test_fuzzed_ring_tables_name_their_fault(raw):
    # a faulty ring table is refused as a config error that names the
    # table's JSON path, with no Python-internal wording; a mutation that
    # leaves a valid table (a new ring name, say) runs
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["charge", "--sheaf", "E", "--config", path])
    err = err.getvalue()
    assert rc in (0, 64), (raw, err)
    if rc == 64:
        assert err.startswith("config error: manifold.ring"), (raw, err)
        for internal in ("object is not", "integers or slices", "unhashable", "Fraction",
                         "Traceback"):
            assert internal not in err, (raw, err)
        assert not re.search(r": '[^']*'$", err.rstrip()), (raw, err)
