"""Configuration parsing: exact rational fields, JSON error paths with
positions, and the section builders used by the command line."""

import json
from fractions import Fraction

import numpy as np
import pytest

from zcrit.charge import charge_preset
from zcrit.config import (
    ConfigError,
    candidates_from_section,
    config_from_dict,
    graph_from_section,
    load_config,
    load_raw,
    parse_fraction,
    parse_gaussian,
    parse_float,
    surface_from_section,
)
from zcrit.gaussian import GaussianRational
from zcrit.numring import class_from_dict

F = Fraction


def base_raw():
    return {
        "manifold": {"preset": "projective_space", "dimension": 2},
        "charge": {"preset": "dhym", "bfield": {"h": "1/3"}},
        "sheaves": {
            "E": {"ch": {"1": "3", "h^2": "-2"}},
            "F": {"ch": {"1": "2", "h^2": "-2"}},
        },
    }


def test_parse_fraction_accepts_strings_and_ints():
    assert parse_fraction("7/3", "x") == F(7, 3)
    assert parse_fraction("-2", "x") == F(-2)
    assert parse_fraction(5, "x") == F(5)
    assert parse_fraction(" 1/2 ", "x") == F(1, 2)


def test_parse_fraction_rejects_floats_and_garbage():
    with pytest.raises(ConfigError, match="not floats"):
        parse_fraction(0.5, "charge.bfield.h")
    with pytest.raises(ConfigError, match="not floats"):
        parse_fraction(True, "x")
    with pytest.raises(ConfigError, match="zebra"):
        parse_fraction("zebra", "x")
    with pytest.raises(ConfigError, match="1/0"):
        parse_fraction("1/0", "x")
    # the JSON path is part of the message
    with pytest.raises(ConfigError, match="charge.bfield.h"):
        parse_fraction(0.5, "charge.bfield.h")


def test_parse_gaussian_forms():
    assert parse_gaussian("3/2", "x") == GaussianRational(F(3, 2))
    assert parse_gaussian({"re": "1", "im": "-1/2"}, "x") == GaussianRational(
        F(1), F(-1, 2)
    )
    assert parse_gaussian({"im": 2}, "x") == GaussianRational(F(0), F(2))
    with pytest.raises(ConfigError, match="unexpected keys"):
        parse_gaussian({"re": "1", "imag": "2"}, "x")


def test_parse_float_knobs():
    assert parse_float(1e-8, "tol") == 1e-8
    assert parse_float(3, "tol") == 3.0
    assert parse_float("2.5e-3", "tol") == 2.5e-3
    with pytest.raises(ConfigError, match="expected a number"):
        parse_float(False, "tol")
    with pytest.raises(ConfigError, match="invalid number"):
        parse_float("fast", "tol")


def test_load_raw_reports_syntax_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "manifold": {,}\n}\n')
    with pytest.raises(ConfigError, match=r"bad\.json:2:16"):
        load_raw(str(bad))
    with pytest.raises(ConfigError, match="file not found"):
        load_raw(str(tmp_path / "missing.json"))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]\n")
    with pytest.raises(ConfigError, match="top level"):
        load_raw(str(arr))


def test_shipped_configs_load(shipped=("p2_extension_dhym", "p2_extension_todd", "tau_chain",
                                        "tau_dual", "tau_inconsistent")):
    for name in shipped:
        cfg = load_config(f"configs/{name}.json")
        assert cfg.ring.complex_dimension == 2
        assert cfg.charge_preset_name in ("dhym", "todd")
        bfield = class_from_dict(cfg.ring, {"h": F(1, 3)})
        assert cfg.unipotent == charge_preset(cfg.charge_preset_name, cfg.ring, bfield)[1]
        assert sorted(cfg.sheaves) >= ["E", "F"]
    # the torus config carries only a surface section
    raw = load_raw("configs/torus_dhym.json")
    data, params = surface_from_section(raw["surface"])
    assert data.geom.size == 16
    assert params["k_values"] == [10.0, 100.0]


def test_config_resolves_ring_and_omega():
    cfg = config_from_dict(base_raw())
    assert cfg.ring.basis_names() == ["1", "h", "h^2"]
    # omega defaults to the unique degree-2 generator
    assert cfg.omega.coefficient("h") == 1
    assert cfg.rho.rho[0] == GaussianRational(F(-1))
    ch = cfg.sheaf("E")
    assert ch.rank == 3
    with pytest.raises(ConfigError, match="unknown sheaf"):
        cfg.sheaf("G")
    with pytest.raises(ConfigError, match="section missing"):
        cfg.section("walls")


def test_manifold_variants_and_errors():
    raw = base_raw()
    raw["manifold"] = {"preset": "torus_line", "volume": "5/2"}
    raw["charge"] = {"preset": "dhym"}
    raw["sheaves"] = {}
    cfg = config_from_dict(raw)
    assert cfg.ring.name == "T(vol=5/2)"
    assert cfg.omega.coefficient("w") == 1

    raw["manifold"] = {"preset": "banana"}
    with pytest.raises(ConfigError, match="manifold"):
        config_from_dict(raw)

    del raw["manifold"]
    with pytest.raises(ConfigError, match="manifold"):
        config_from_dict(raw)

    # explicit ring table with a two-dimensional degree-2 part: omega
    # can no longer default
    raw["manifold"] = {
        "ring": {
            "name": "two_factor",
            "complex_dimension": 3,
            "generators": [
                {"name": "1", "degree": 0},
                {"name": "a", "degree": 2},
                {"name": "b", "degree": 2},
                {"name": "ab", "degree": 4},
                {"name": "b^2", "degree": 4},
                {"name": "ab^2", "degree": 6},
            ],
            "products": [
                ["a", "b", {"ab": "1"}],
                ["b", "b", {"b^2": "1"}],
                ["a", "b^2", {"ab^2": "1"}],
                ["b", "ab", {"ab^2": "1"}],
            ],
            "integration": {"ab^2": "1"},
        }
    }
    raw["charge"] = {"preset": "dhym"}
    raw["sheaves"] = {"E": {"ch": {"1": "2", "ab^2": "1/2"}}}
    with pytest.raises(ConfigError, match="omega is required"):
        config_from_dict(raw)
    raw["manifold"]["omega"] = {"a": "1", "b": "1"}
    cfg = config_from_dict(raw)
    assert cfg.omega.coefficient("a") == 1
    assert cfg.omega.coefficient("b") == 1


def test_charge_section_variants():
    raw = base_raw()
    del raw["charge"]
    with pytest.raises(ConfigError, match="charge"):
        config_from_dict(raw)

    raw["charge"] = {}
    with pytest.raises(ConfigError, match="preset or an explicit rho"):
        config_from_dict(raw)

    raw["charge"] = {"preset": "mukai"}
    with pytest.raises(ConfigError, match="charge.preset"):
        config_from_dict(raw)

    # explicit weight vector, no twist
    raw["charge"] = {"rho": ["-1", {"im": "1"}, "1/2"]}
    cfg = config_from_dict(raw)
    assert cfg.charge_preset_name is None
    assert cfg.rho.rho[1] == GaussianRational(F(0), F(1))
    assert cfg.unipotent.cls == cfg.ring.unit()

    raw["charge"] = {"rho": ["-1", "0"]}
    with pytest.raises(ConfigError, match="list of 3"):
        config_from_dict(raw)

    # unknown basis name inside a class
    raw["charge"] = {"preset": "dhym", "bfield": {"t": "1"}}
    with pytest.raises(ConfigError, match="unknown basis element"):
        config_from_dict(raw)


def test_candidates_from_section():
    cfg = config_from_dict(base_raw())
    cands = candidates_from_section(
        cfg,
        [
            {"name": "F", "kind": "subbundle"},
            {"name": "G", "kind": "quotient", "ch": {"1": "1", "h": "1"}},
        ],
        "stability.candidates",
    )
    assert cands[0].ch is cfg.sheaf("F")
    assert cands[1].kind == "quotient"
    assert cands[1].ch.rank == 1

    with pytest.raises(ConfigError, match="non-empty list"):
        candidates_from_section(cfg, [], "p")
    with pytest.raises(ConfigError, match="needs a name"):
        candidates_from_section(cfg, [{"kind": "subbundle"}], "p")
    with pytest.raises(ConfigError, match="unknown kind"):
        candidates_from_section(cfg, [{"name": "F", "kind": "ideal"}], "p")


def test_graph_from_section():
    raw = base_raw()
    raw["sheaves"]["Q"] = {"ch": {"1": "1"}}
    cfg = config_from_dict(raw)
    graph = graph_from_section(
        cfg,
        {"quotients": ["Q", {"name": "R", "ch": {"1": "2", "h^2": "-2"}}],
         "edges": [[0, 1]]},
        "tau",
    )
    assert [q.name for q in graph.quotients] == ["Q", "R"]
    assert graph.edges == ((0, 1),)

    with pytest.raises(ConfigError, match="non-empty list"):
        graph_from_section(cfg, {"quotients": []}, "tau")
    with pytest.raises(ConfigError, match="index pairs"):
        graph_from_section(cfg, {"quotients": ["Q", "F"], "edges": [[0]]}, "tau")
    with pytest.raises(ConfigError, match="must be integers"):
        graph_from_section(
            cfg, {"quotients": ["Q", "F"], "edges": [[0, "x"]]}, "tau")
    # graph-level validation is surfaced with the section path
    with pytest.raises(ConfigError, match="tau"):
        graph_from_section(cfg, {"quotients": ["Q", "F"], "edges": [[0, 0]]}, "tau")


def surface_section():
    return {
        "N": 16,
        "preset": "dhym",
        "metric": {"a11": "1", "a12": {"re": "1/4", "im": "1/8"}, "a22": "2"},
        "alpha0": {"a11": "2", "a22": "3"},
        "u1_potential": [
            {"mode": [1, 0, 0, 0], "amplitude": 0.1, "phase": "cos"},
            {"mode": [0, 1, 2, 0], "amplitude": 0.05, "phase": "sin"},
        ],
        "tol": 1e-9,
        "k_values": ["10", 100],
    }


def test_surface_section_builds_charge_data():
    sec = surface_section()
    data, params = surface_from_section(sec)
    assert data.geom.size == 16
    assert data.metric == (1.0, 0.25 + 0.125j, 2.0)
    assert data.alpha0 == (2.0, 0.0, 3.0)
    assert data.rho == (-1.0 + 0j, 1j, 0.5 + 0j)
    expected = data.geom.mode_field([1, 0, 0, 0], 0.1, "cos") + \
        data.geom.mode_field([0, 1, 2, 0], 0.05, "sin")
    assert np.allclose(data.u1_potential, expected)
    assert params == {"tol": 1e-9, "k_values": [10.0, 100.0], "dump": None}
    # negative k is a valid sample point; only 0 and non-finite k are rejected
    assert surface_from_section(dict(sec, k_values=[-10]))[1]["k_values"] == [-10.0]

    # the grid override wins over the section value
    data32, _ = surface_from_section(sec, n_override=32)
    assert data32.geom.size == 32


def test_surface_section_errors():
    sec = surface_section()
    sec["N"] = 7
    with pytest.raises(ConfigError, match="surface.N"):
        surface_from_section(sec)

    sec = surface_section()
    del sec["metric"]
    with pytest.raises(ConfigError, match="metric matrix required"):
        surface_from_section(sec)

    sec = surface_section()
    sec["metric"]["a13"] = "1"
    with pytest.raises(ConfigError, match="unexpected keys"):
        surface_from_section(sec)

    sec = surface_section()
    del sec["preset"]
    with pytest.raises(ConfigError, match="preset 'dhym' or an explicit rho"):
        surface_from_section(sec)

    sec = surface_section()
    del sec["preset"]
    sec["rho"] = ["2", {"im": "-2"}, "-1"]
    data, _ = surface_from_section(sec)
    assert data.rho == (2 + 0j, -2j, -1 + 0j)

    sec = surface_section()
    sec["u1_potential"] = [{"mode": [1, 0], "amplitude": 1}]
    with pytest.raises(ConfigError, match="four integers"):
        surface_from_section(sec)

    sec = surface_section()
    sec["u1_potential"][0]["phase"] = "tan"
    with pytest.raises(ConfigError, match="cos or sin"):
        surface_from_section(sec)

    # a key outside the documented set fails, the removed homotopy and
    # Newton budget keys included, rather than being ignored
    for key in ("stages", "max_newton", "Tol"):
        sec = dict(surface_section(), **{key: 1})
        with pytest.raises(ConfigError, match=rf"^surface: unexpected keys \['{key}'\]$"):
            surface_from_section(sec)

    for dump in (7, ""):
        sec = dict(surface_section(), dump=dump)
        with pytest.raises(ConfigError, match="surface.dump: dump must be a non-empty file path"):
            surface_from_section(sec)

    # a non-positive metric is rejected with the section path
    sec = surface_section()
    sec["metric"] = {"a11": "-1", "a22": "1"}
    with pytest.raises(ConfigError, match="positive definite"):
        surface_from_section(sec)
