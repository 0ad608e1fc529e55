"""JSON run configuration shared by every subcommand.

One structured file describes the manifold (a preset or an explicit
ring table), the charge data (a preset with a B-field, or an explicit
weight vector and twist), the named sheaves with their character
vectors, and per-task parameter blocks. All rationals are written as
strings "p/q" and parsed exactly; complex rationals are objects
{"re": "p/q", "im": "p/q"}. Floats are accepted only for purely
numerical knobs such as solver tolerances.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .gaussian import GaussianRational
from .numring import GradedClass, NumericalRing, class_from_dict, preset_ring, ring_from_dict
from .errors import SurfaceError
from .charge import (
    ChargeError,
    ChernCharacter,
    StabilityVector,
    UnipotentOperator,
    charge_preset,
)
from .stability import SubobjectCandidate
from .extension import FiltrationGraph, QuotientSpec


class ConfigError(ValueError):
    """Invalid configuration; the message carries the JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def parse_fraction(value, path: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ConfigError(path, "rationals must be strings or integers, not floats")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(path, f"invalid rational {value!r}: {exc}") from None
    raise ConfigError(path, f"cannot read a rational from {type(value).__name__}")


def parse_int(value, path: str, minimum: Optional[int] = None) -> int:
    """An integer given as a JSON integer or an integer string; floats
    and booleans are rejected, as are values below minimum."""
    if isinstance(value, str):
        try:
            value = int(value.strip())
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            path, f"expected an integer, got {value!r} (counts, sizes, modes "
            "and indices must be integers)"
        )
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be at least {minimum}, got {value}")
    return value


def parse_gaussian(value, path: str) -> GaussianRational:
    if isinstance(value, dict):
        extra = set(value) - {"re", "im"}
        if extra:
            raise ConfigError(path, f"unexpected keys {sorted(extra)}")
        re = parse_fraction(value.get("re", 0), path + ".re")
        im = parse_fraction(value.get("im", 0), path + ".im")
        return GaussianRational(re, im)
    return GaussianRational(parse_fraction(value, path), Fraction(0))


def parse_float(value, path: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(path, "expected a number")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ConfigError(path, f"invalid number {value!r}") from None
    raise ConfigError(path, f"cannot read a number from {type(value).__name__}")


def parse_class(ring: NumericalRing, data, path: str) -> GradedClass:
    if not isinstance(data, dict):
        raise ConfigError(path, "expected an object mapping basis names to rationals")
    coeffs = {}
    for name, value in data.items():
        if name not in ring.basis_names():
            raise ConfigError(
                path + "." + name,
                f"unknown basis element; ring has {sorted(ring.basis_names())}",
            )
        coeffs[name] = parse_fraction(value, path + "." + name)
    return class_from_dict(ring, coeffs)


@dataclass
class RunConfig:
    ring: NumericalRing
    omega: GradedClass
    rho: StabilityVector
    unipotent: UnipotentOperator
    charge_preset_name: Optional[str]
    sheaves: Dict[str, ChernCharacter]
    raw: dict = field(repr=False)

    def sheaf(self, name: str, path: str = "sheaves") -> ChernCharacter:
        _check_name(name, path)
        if name not in self.sheaves:
            raise ConfigError(path, f"unknown sheaf {name!r}; have {sorted(self.sheaves)}")
        return self.sheaves[name]

    def section(self, name: str) -> dict:
        sec = self.raw.get(name)
        if sec is None:
            raise ConfigError(name, "section missing from the configuration")
        if not isinstance(sec, dict):
            raise ConfigError(name, "section must be an object")
        return sec


def _check_name(name, path: str) -> None:
    if not isinstance(name, str) or not name:
        raise ConfigError(path, "expected a non-empty string")


def _named_character(cfg: RunConfig, body, path: str, what: str) -> Tuple[str, ChernCharacter]:
    """Name of a candidate or quotient entry, and its character: the
    inline 'ch' when given, else the named sheaf's."""
    if not isinstance(body, dict) or "name" not in body:
        raise ConfigError(path, f"each {what} needs a name")
    name = body["name"]
    _check_name(name, path + ".name")
    if "ch" in body:
        return name, ChernCharacter(parse_class(cfg.ring, body["ch"], path + ".ch"))
    return name, cfg.sheaf(name, path + ".name")


def _build_ring(raw: dict) -> Tuple[NumericalRing, GradedClass]:
    man = raw.get("manifold")
    if not isinstance(man, dict):
        raise ConfigError("manifold", "section missing or not an object")
    if "ring" in man:
        try:
            ring = ring_from_dict(man["ring"])
        except Exception as exc:
            raise ConfigError("manifold.ring", str(exc)) from None
    elif man.get("preset") == "projective_space":
        if "dimension" not in man:
            raise ConfigError("manifold.dimension", "projective_space needs a dimension")
        n = parse_int(man["dimension"], "manifold.dimension", minimum=1)
        ring = preset_ring("projective_space", n=n)
    elif man.get("preset") == "torus_line":
        vol = parse_fraction(man.get("volume", 1), "manifold.volume")
        ring = preset_ring("torus_line", vol=vol)
    else:
        raise ConfigError(
            "manifold", "need either a preset (projective_space, torus_line) or a ring"
        )
    if "omega" in man:
        omega = parse_class(ring, man["omega"], "manifold.omega")
    else:
        degree_two = ring.generators_of_degree(2)
        if len(degree_two) != 1:
            raise ConfigError(
                "manifold.omega",
                "omega is required when the degree-2 part is not one-dimensional",
            )
        omega = class_from_dict(ring, {degree_two[0]: Fraction(1)})
    return ring, omega


def _build_charge(
    raw: dict, ring: NumericalRing
) -> Tuple[StabilityVector, UnipotentOperator, Optional[str]]:
    sec = raw.get("charge")
    if not isinstance(sec, dict):
        raise ConfigError("charge", "section missing or not an object")
    bfield = (
        parse_class(ring, sec["bfield"], "charge.bfield")
        if "bfield" in sec
        else ring.zero()
    )
    if "preset" in sec:
        name = sec["preset"]
        try:
            rho, U = charge_preset(name, ring, bfield)
        except Exception as exc:
            raise ConfigError("charge.preset", str(exc)) from None
        return rho, U, name
    if "rho" not in sec:
        raise ConfigError("charge", "need either a preset or an explicit rho list")
    entries = sec["rho"]
    if not isinstance(entries, list) or len(entries) != ring.complex_dimension + 1:
        raise ConfigError(
            "charge.rho",
            f"expected a list of {ring.complex_dimension + 1} complex rationals",
        )
    weights = tuple(parse_gaussian(v, f"charge.rho[{i}]") for i, v in enumerate(entries))
    try:
        rho = StabilityVector(weights)
    except ChargeError as exc:
        raise ConfigError("charge.rho", str(exc)) from None
    if "unipotent" in sec:
        ucls = parse_class(ring, sec["unipotent"], "charge.unipotent")
    else:
        ucls = ring.unit()
    try:
        U = UnipotentOperator(ucls)
    except Exception as exc:
        raise ConfigError("charge.unipotent", str(exc)) from None
    return rho, U, None


def _build_sheaves(raw: dict, ring: NumericalRing) -> Dict[str, ChernCharacter]:
    sec = raw.get("sheaves", {})
    if not isinstance(sec, dict):
        raise ConfigError("sheaves", "section must be an object")
    out = {}
    for name, body in sec.items():
        path = f"sheaves.{name}"
        if not isinstance(body, dict) or "ch" not in body:
            raise ConfigError(path, "each sheaf needs a 'ch' object")
        out[name] = ChernCharacter(parse_class(ring, body["ch"], path + ".ch"))
    return out


def load_raw(path: str) -> dict:
    """Parse the JSON file, reporting position on syntax errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(path, "file not found") from None
    except OSError as exc:
        raise ConfigError(path, f"cannot read the file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(path, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top level must be an object")
    return raw


def load_config(path: str) -> RunConfig:
    return config_from_dict(load_raw(path))


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top level must be an object")
    ring, omega = _build_ring(raw)
    rho, U, preset_name = _build_charge(raw, ring)
    sheaves = _build_sheaves(raw, ring)
    return RunConfig(ring, omega, rho, U, preset_name, sheaves, raw)


def candidates_from_section(
    cfg: RunConfig, entries, path: str
) -> List[SubobjectCandidate]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(path, "expected a non-empty list of candidates")
    out = []
    for i, body in enumerate(entries):
        p = f"{path}[{i}]"
        name, ch = _named_character(cfg, body, p, "candidate")
        kind = body.get("kind", "subbundle")
        if kind not in ("subbundle", "quotient"):
            raise ConfigError(p + ".kind", f"unknown kind {kind!r}")
        out.append(SubobjectCandidate(name, ch, kind))
    return out


def graph_from_section(cfg: RunConfig, sec: dict, path: str) -> FiltrationGraph:
    entries = sec.get("quotients")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(path + ".quotients", "expected a non-empty list")
    quotients = []
    for i, body in enumerate(entries):
        p = f"{path}.quotients[{i}]"
        if isinstance(body, str):
            quotients.append(QuotientSpec(body, cfg.sheaf(body, p)))
        else:
            quotients.append(QuotientSpec(*_named_character(cfg, body, p, "quotient")))
    edges_raw = sec.get("edges", [])
    if not isinstance(edges_raw, list):
        raise ConfigError(path + ".edges", "expected a list of [from, to] pairs")
    edges = []
    for i, pair in enumerate(edges_raw):
        p = f"{path}.edges[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(p, "edges are [from, to] index pairs")
        edges.append((parse_int(pair[0], p + "[0]"), parse_int(pair[1], p + "[1]")))
    try:
        return FiltrationGraph(tuple(quotients), tuple(edges))
    except Exception as exc:
        raise ConfigError(path, str(exc)) from None


# ---------------------------------------------------------------------------
# surface solver section
# ---------------------------------------------------------------------------


def parse_hermitian(sec, path: str) -> Tuple[float, complex, float]:
    """Constant Hermitian matrix {"a11": "p/q", "a12": gaussian, "a22": "p/q"}."""
    if not isinstance(sec, dict):
        raise ConfigError(path, "expected an object with a11, a12, a22")
    extra = set(sec) - {"a11", "a12", "a22"}
    if extra:
        raise ConfigError(path, f"unexpected keys {sorted(extra)}")
    a11 = _parse_complex(parse_fraction, sec.get("a11", 0), path + ".a11").real
    a22 = _parse_complex(parse_fraction, sec.get("a22", 0), path + ".a22").real
    return a11, _parse_complex(parse_gaussian, sec.get("a12", 0), path + ".a12"), a22


def _parse_complex(parse, value, path: str) -> complex:
    """The exact number parse(value, path) as the nearest complex float."""
    try:
        return complex(GaussianRational.of(parse(value, path)))
    except OverflowError:
        raise ConfigError(path, "too large for a float") from None


def parse_mode_sum(geom, terms, path: str):
    """Scalar field given as a finite sum of cosine and sine modes."""
    import numpy as np

    if not isinstance(terms, list):
        raise ConfigError(path, "expected a list of mode terms")
    out = np.zeros(geom.shape)
    for i, term in enumerate(terms):
        p = f"{path}[{i}]"
        if not isinstance(term, dict) or "mode" not in term:
            raise ConfigError(p, "each term needs a mode [m1, m2, m3, m4]")
        mode = term["mode"]
        if not isinstance(mode, list) or len(mode) != 4:
            raise ConfigError(p + ".mode", "mode must be four integers")
        mode = [parse_int(m, f"{p}.mode[{j}]") for j, m in enumerate(mode)]
        amp = parse_float(term.get("amplitude", 1), p + ".amplitude")
        if not math.isfinite(amp):
            raise ConfigError(p + ".amplitude",
                              f"amplitude must be finite, got {term['amplitude']!r}")
        phase = term.get("phase", "cos")
        if phase not in ("cos", "sin"):
            raise ConfigError(p + ".phase", f"phase must be cos or sin, got {phase!r}")
        try:
            out = out + geom.mode_field(mode, amp, phase)
        except SurfaceError as exc:
            raise ConfigError(p + ".mode", str(exc)) from None
    return out


def _parse_k_values(value, path: str) -> List[float]:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list of numbers, got {value!r}")
    out = []
    for i, v in enumerate(value):
        k = parse_float(v, f"{path}[{i}]")
        if not (math.isfinite(k) and abs(k) >= 1):
            raise ConfigError(f"{path}[{i}]", "k must be a finite number with |k| >= 1 "
                              f"(large volume means large k), got {v!r}")
        out.append(k)
    return out


def surface_from_section(sec: dict, n_override: Optional[int] = None):
    """Build the torus charge data and solver parameters from the surface
    section; n_override stands for the --N flag."""
    from .surface import DHYM_RHO, SurfaceChargeData, TorusGeometry

    path = "surface"
    if not isinstance(sec, dict):
        raise ConfigError(path, "section must be an object")
    extra = set(sec) - {"N", "metric", "alpha0", "preset", "rho", "u1_const",
                        "u1_potential", "u2", "tol", "k_values", "dump"}
    if extra:
        raise ConfigError(path, f"unexpected keys {sorted(extra)}")
    if n_override is not None:
        size, n_path = n_override, "--N"
    else:
        n_path = path + ".N"
        size = parse_int(sec.get("N", 16), n_path)
    try:
        geom = TorusGeometry(size)
    except SurfaceError as exc:
        raise ConfigError(n_path, str(exc)) from None
    if "metric" not in sec:
        raise ConfigError(path + ".metric", "metric matrix required")
    metric = parse_hermitian(sec["metric"], path + ".metric")
    if "alpha0" not in sec:
        raise ConfigError(path + ".alpha0", "alpha0 matrix required")
    alpha0 = parse_hermitian(sec["alpha0"], path + ".alpha0")

    if sec.get("preset") == "dhym":
        rho = DHYM_RHO
    elif "rho" in sec:
        entries = sec["rho"]
        if not isinstance(entries, list) or len(entries) != 3:
            raise ConfigError(path + ".rho", "expected three complex rationals")
        rho = tuple(_parse_complex(parse_gaussian, v, f"{path}.rho[{i}]")
                    for i, v in enumerate(entries))
    else:
        raise ConfigError(path, "need either preset 'dhym' or an explicit rho")

    u1_const = (0.0, 0.0, 0.0)
    if "u1_const" in sec:
        u1_const = parse_hermitian(sec["u1_const"], path + ".u1_const")
    u1_potential = None
    if "u1_potential" in sec:
        u1_potential = parse_mode_sum(geom, sec["u1_potential"], path + ".u1_potential")
    u2 = None
    if "u2" in sec:
        u2 = parse_mode_sum(geom, sec["u2"], path + ".u2")

    try:
        data = SurfaceChargeData(geom, metric, rho, alpha0, u1_const, u1_potential, u2)
    except SurfaceError as exc:
        raise ConfigError(path, str(exc)) from None

    tol = parse_float(sec.get("tol", 1e-8), path + ".tol")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(path + ".tol",
                          f"tolerance must be a positive finite number, got {sec['tol']!r}")
    k_values = _parse_k_values(sec.get("k_values", []), path + ".k_values")
    dump = sec.get("dump")
    if dump is not None and not (isinstance(dump, str) and dump):
        raise ConfigError(path + ".dump", "dump must be a non-empty file path string")
    # checked here so that a bad path fails before the solve, not after it
    if dump and (os.path.isdir(dump) or not os.path.isdir(os.path.dirname(dump) or ".")):
        raise ConfigError(path + ".dump",
                          f"cannot write {dump!r}: not a file in an existing directory")
    return data, {"tol": tol, "k_values": k_values, "dump": dump}
