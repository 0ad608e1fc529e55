"""JSON run configuration shared by every subcommand.

This module is the only reader of the configuration format. One
structured file describes the manifold (a preset or an explicit ring
table), the charge data (a preset with a B-field, or an explicit
weight vector and twist), the named sheaves with their character
vectors, and per-task parameter blocks. All rationals are written as
strings "p/q" and parsed exactly; complex rationals are objects
{"re": "p/q", "im": "p/q"}. Floats are accepted only for purely
numerical knobs such as solver tolerances.

Each subcommand gets its inputs from one call here: charge_inputs,
stability_inputs, walls_inputs, tau_inputs or surface_inputs.

Every JSON object goes through one rule, _object, next to the code that
reads its values: it must be an object, its keys must lie in the set
listed there, and a missing required key is reported at path.key. Every
error is a ConfigError that names the JSON path of the field at fault.
Only the library's input errors (RingError, ChargeError, ExtensionError,
SurfaceError) are turned into ConfigErrors, by _at, with the path added,
so a defect elsewhere in the library stays an internal error. Inputs
that the library checks only after the command line hands them over
(the walls twists and preset, the tau quotients) are checked here too.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .gaussian import GaussianRational
from .numring import (
    BasisElement,
    GradedClass,
    NumericalRing,
    RingError,
    class_from_dict,
    preset_ring,
)
from .errors import SurfaceError
from .charge import (
    ChargeError,
    ChernCharacter,
    StabilityVector,
    UnipotentOperator,
    charge_preset,
    omega_powers,
)
from .stability import SubobjectCandidate
from .extension import ExtensionError, FiltrationGraph, QuotientSpec


class ConfigError(ValueError):
    """Invalid configuration; the message carries the JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _object(value, path: str, keys: Iterable[str], required: Tuple[str, ...] = ()) -> dict:
    """The JSON object value at path, refused unless it is an object
    whose keys all lie in keys (so that a misspelt key is an error
    rather than ignored) and that has every key of required."""
    if not isinstance(value, dict):
        raise ConfigError(path, "missing or not an object")
    extra = set(value) - set(keys)
    if extra:
        raise ConfigError(path, f"unexpected keys {sorted(extra)}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{path}.{key}", "required key missing")
    return value


def _at(path: str, build: Callable[..., Any], *args, **kwargs):
    """build(*args, **kwargs), a library input error re-raised as a
    ConfigError at path."""
    try:
        return build(*args, **kwargs)
    except (RingError, ChargeError, ExtensionError, SurfaceError) as exc:
        raise ConfigError(path, str(exc)) from None


def _json_type(value) -> str:
    """The JSON name of the type of a value that no parser here takes."""
    return {type(None): "null", dict: "an object", list: "an array"}.get(
        type(value), type(value).__name__)


def parse_fraction(value, path: str) -> Fraction:
    if isinstance(value, (bool, float)):
        kind = "booleans" if isinstance(value, bool) else "floats"
        raise ConfigError(path, f"rationals must be strings or integers, not {kind}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ConfigError(path, f"invalid rational {value!r}; expected an integer "
                              "or p/q with q nonzero") from None
    raise ConfigError(path, f"cannot read a rational from {_json_type(value)}")


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
        _object(value, path, ("re", "im"))
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
    raise ConfigError(path, f"cannot read a number from {_json_type(value)}")


def _coefficients(value, path: str, names: List[str]) -> Dict[str, Fraction]:
    """An object mapping basis names to exact rationals."""
    return {k: parse_fraction(v, f"{path}.{k}") for k, v in _object(value, path, names).items()}


def parse_class(ring: NumericalRing, data, path: str) -> GradedClass:
    return class_from_dict(ring, _coefficients(data, path, ring.basis_names()))


def _character(ring: NumericalRing, data, path: str) -> ChernCharacter:
    return _at(path, ChernCharacter, parse_class(ring, data, path))


def _twist(ring: NumericalRing, data, path: str, what: str) -> GradedClass:
    """A class that must lie purely in degree 2, as a B-field does."""
    cls = parse_class(ring, data, path)
    if cls.degrees() not in ([], [2]):
        raise ConfigError(path, f"{what} must be purely of degree 2")
    return cls


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


def _check_name(name, path: str) -> None:
    if not isinstance(name, str) or not name:
        raise ConfigError(path, "expected a non-empty string")


def _named_character(cfg: RunConfig, body, path: str,
                     keys: Tuple[str, ...]) -> Tuple[str, ChernCharacter]:
    """Name of a candidate or quotient entry, and its character: the
    inline 'ch' when given, else the named sheaf's."""
    name = _object(body, path, keys, ("name",))["name"]
    _check_name(name, path + ".name")
    if "ch" in body:
        return name, _character(cfg.ring, body["ch"], path + ".ch")
    return name, cfg.sheaf(name, path + ".name")


def _homogeneous(value, path: str, degree_of: Dict[str, int], degree: int) -> Dict[str, Fraction]:
    """An object mapping generators, all of the given degree, to exact
    rationals."""
    coeffs = _coefficients(value, path, list(degree_of))
    for k in coeffs:
        if degree_of[k] != degree:
            raise ConfigError(f"{path}.{k}", f"expected a generator of degree {degree}, "
                              f"{k!r} has degree {degree_of[k]}")
    return coeffs


def _ring_table(value, path: str) -> NumericalRing:
    """The ring of an explicit table: name, complex_dimension, generators
    [{name, degree}], products [[gen_i, gen_j, {gen_k: "p/q"}]],
    integration {gen: "p/q"} and an optional todd {gen: "p/q"}."""
    table = _object(value, path, ("name", "complex_dimension", "generators", "products",
                                  "integration", "todd"),
                    ("complex_dimension", "generators", "integration"))
    name = table.get("name", "ring")
    _check_name(name, path + ".name")
    dimension = parse_int(table["complex_dimension"], path + ".complex_dimension", minimum=1)
    top = 2 * dimension
    gens, entries = table["generators"], table.get("products", [])
    if not isinstance(gens, list):
        raise ConfigError(path + ".generators", "expected a list of {name, degree} objects")
    degree_of: Dict[str, int] = {}
    for i, gen in enumerate(gens):
        p = f"{path}.generators[{i}]"
        _object(gen, p, ("name", "degree"), ("name", "degree"))
        _check_name(gen["name"], p + ".name")
        if gen["name"] in degree_of:
            raise ConfigError(p + ".name", f"duplicate generator name {gen['name']!r}")
        degree = parse_int(gen["degree"], p + ".degree")
        if degree % 2 or not 0 <= degree <= top:
            raise ConfigError(p + ".degree", f"expected an even degree in 0..{top}, got {degree}")
        degree_of[gen["name"]] = degree
    names = list(degree_of)
    if not isinstance(entries, list):
        raise ConfigError(path + ".products", "expected a list of [gen_i, gen_j, {...}] entries")
    products = {}
    for i, entry in enumerate(entries):
        p = f"{path}.products[{i}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise ConfigError(p, 'expected [gen_i, gen_j, {gen_k: "p/q"}]')
        for j in (0, 1):
            if entry[j] not in names:
                raise ConfigError(f"{p}[{j}]", f"unknown generator {entry[j]!r}; ring has {names}")
        degree = degree_of[entry[0]] + degree_of[entry[1]]
        if degree > top:
            raise ConfigError(p, f"the product has degree {degree}, above the top degree {top}")
        products[(entry[0], entry[1])] = _homogeneous(entry[2], p + "[2]", degree_of, degree)
    integration = _homogeneous(table["integration"], path + ".integration", degree_of, top)
    todd = _coefficients(table["todd"], path + ".todd", names) if "todd" in table else None
    basis = [BasisElement(k, d) for k, d in degree_of.items()]
    # what the entries leave to check is the one generator of degree 0
    return _at(path + ".generators", NumericalRing, name, dimension, basis, products,
               integration, todd)


def _build_ring(raw: dict) -> Tuple[NumericalRing, GradedClass]:
    man = _object(raw.get("manifold"), "manifold",
                  ("preset", "dimension", "volume", "ring", "omega"))
    if "ring" in man:
        ring = _ring_table(man["ring"], "manifold.ring")
    elif man.get("preset") == "projective_space":
        if "dimension" not in man:
            raise ConfigError("manifold.dimension", "projective_space needs a dimension")
        n = parse_int(man["dimension"], "manifold.dimension", minimum=1)
        ring = preset_ring("projective_space", n=n)
    elif man.get("preset") == "torus_line":
        vol = parse_fraction(man.get("volume", 1), "manifold.volume")
        ring = _at("manifold.volume", preset_ring, "torus_line", vol=vol)
    else:
        raise ConfigError(
            "manifold", "need either a preset (projective_space, torus_line) or a ring"
        )
    path = "manifold.omega"
    if "omega" in man:
        omega = parse_class(ring, man["omega"], path)
    else:
        degree_two = ring.generators_of_degree(2)
        if len(degree_two) != 1:
            raise ConfigError(path, "omega is required when the degree-2 part is not "
                              "one-dimensional")
        # a default omega with no positive volume is the ring table's fault
        omega, path = class_from_dict(ring, {degree_two[0]: Fraction(1)}), "manifold.ring"
    _at(path, omega_powers, ring, omega)
    return ring, omega


def _build_charge(
    raw: dict, ring: NumericalRing
) -> Tuple[StabilityVector, UnipotentOperator, Optional[str]]:
    sec = _object(raw.get("charge"), "charge", ("preset", "bfield", "rho", "unipotent", "object"))
    bfield = _twist(ring, sec.get("bfield", {}), "charge.bfield", "B-field")
    if "preset" in sec:
        rho, U = _at("charge.preset", charge_preset, sec["preset"], ring, bfield)
        return rho, U, sec["preset"]
    if "rho" not in sec:
        raise ConfigError("charge", "need either a preset or an explicit rho list")
    entries = sec["rho"]
    if not isinstance(entries, list) or len(entries) != ring.complex_dimension + 1:
        raise ConfigError(
            "charge.rho",
            f"expected a list of {ring.complex_dimension + 1} complex rationals",
        )
    weights = tuple(parse_gaussian(v, f"charge.rho[{i}]") for i, v in enumerate(entries))
    rho = _at("charge.rho", StabilityVector, weights)
    ucls = (parse_class(ring, sec["unipotent"], "charge.unipotent")
            if "unipotent" in sec else ring.unit())
    return rho, _at("charge.unipotent", UnipotentOperator, ucls), None


def _build_sheaves(raw: dict, ring: NumericalRing) -> Dict[str, ChernCharacter]:
    sec = raw.get("sheaves", {})
    if not isinstance(sec, dict):
        raise ConfigError("sheaves", "section must be an object")
    out = {}
    for name, body in sec.items():
        path = f"sheaves.{name}"
        out[name] = _character(ring, _object(body, path, ("ch",), ("ch",))["ch"], path + ".ch")
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


# ---------------------------------------------------------------------------
# task sections: each subcommand's inputs come from one call
# ---------------------------------------------------------------------------


def charge_inputs(cfg: RunConfig, sheaf: Optional[str]) -> Tuple[str, ChernCharacter]:
    """The name and character of the sheaf that charge prints: the
    --sheaf flag when given, else charge.object."""
    if sheaf is not None:
        return sheaf, cfg.sheaf(sheaf, "--sheaf")
    name = cfg.raw["charge"].get("object")
    if name is None:
        raise ConfigError("charge.object", "no sheaf named; use --sheaf or charge.object")
    return name, cfg.sheaf(name, "charge.object")


def _task(cfg: RunConfig, name: str, keys: Tuple[str, ...],
          required: Tuple[str, ...] = ("object",)) -> Tuple[dict, ChernCharacter]:
    """Task section name under the object rule, and the character of the
    object E that it compares against, which must have positive rank."""
    sec = _object(cfg.raw.get(name), name, keys, required)
    ch_e = cfg.sheaf(sec["object"], name + ".object")
    if ch_e.rank < 1:
        raise ConfigError(name + ".object", "ambient object must have positive rank")
    return sec, ch_e


def candidates_from_section(cfg: RunConfig, entries, path: str,
                            ch_e: ChernCharacter) -> List[SubobjectCandidate]:
    """The candidates listed at path, each of rank between 1 and
    rank(E) - 1."""
    if not isinstance(entries, list) or not entries:
        raise ConfigError(path, "expected a non-empty list of candidates")
    out = []
    for i, body in enumerate(entries):
        p = f"{path}[{i}]"
        name, ch = _named_character(cfg, body, p, ("name", "ch", "kind"))
        kind = body.get("kind", "subbundle")
        if kind not in ("subbundle", "quotient"):
            raise ConfigError(p + ".kind", f"unknown kind {kind!r}")
        if not 1 <= ch.rank < ch_e.rank:
            raise ConfigError(p, f"candidate {name!r} must have rank between 1 and "
                              f"{ch_e.rank - 1}, got {ch.rank}")
        out.append(SubobjectCandidate(name, ch, kind))
    return out


def stability_inputs(cfg: RunConfig) -> Tuple[ChernCharacter, List[SubobjectCandidate]]:
    """E and the candidates of the stability section."""
    sec, ch_e = _task(cfg, "stability", ("object", "candidates"))
    return ch_e, candidates_from_section(cfg, sec.get("candidates"), "stability.candidates", ch_e)


def walls_inputs(cfg: RunConfig) -> dict:
    """The walls section as the arguments of stability.wall_scan after
    the ring and omega, by name."""
    sec, ch_e = _task(cfg, "walls", ("object", "candidates", "direction", "range", "base",
                                     "preset"), ("object", "direction"))
    cands = candidates_from_section(cfg, sec.get("candidates"), "walls.candidates", ch_e)
    rng = sec.get("range")
    if not isinstance(rng, list) or len(rng) != 2:
        raise ConfigError("walls.range", "expected [t_min, t_max]")
    t_min = parse_fraction(rng[0], "walls.range[0]")
    t_max = parse_fraction(rng[1], "walls.range[1]")
    if not t_min < t_max:
        raise ConfigError("walls.range", "expected t_min < t_max")
    b_dir = _twist(cfg.ring, sec["direction"], "walls.direction", "twist direction")
    if b_dir.is_zero():
        raise ConfigError("walls.direction", "twist direction must be nonzero")
    b_base = _twist(cfg.ring, sec["base"], "walls.base", "base twist") if "base" in sec else None
    preset = sec.get("preset", cfg.charge_preset_name)
    if preset is None:
        raise ConfigError("walls.preset", "scan needs a charge preset (dhym or todd)")
    _at("walls.preset", charge_preset, preset, cfg.ring, cfg.ring.zero())
    return {"ch_e": ch_e, "candidates": cands, "b_base": b_base, "b_dir": b_dir,
            "t_min": t_min, "t_max": t_max, "preset": preset}


def tau_inputs(cfg: RunConfig) -> Tuple[ChernCharacter, FiltrationGraph]:
    """E and the filtration graph of the tau section: quotients of
    positive rank, in filtration order, that sum to E, and [from, to]
    edges between their indices."""
    sec, ch_e = _task(cfg, "tau", ("object", "quotients", "edges"))
    entries = sec.get("quotients")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("tau.quotients", "expected a non-empty list")
    quotients = []
    for i, body in enumerate(entries):
        p = f"tau.quotients[{i}]"
        if isinstance(body, str):
            spec = QuotientSpec(body, cfg.sheaf(body, p))
        else:
            spec = QuotientSpec(*_named_character(cfg, body, p, ("name", "ch")))
        if spec.ch.rank < 1:
            raise ConfigError(p, f"quotient {spec.name!r} must have positive rank, "
                              f"got {spec.ch.rank}")
        quotients.append(spec)
    if sum((q.ch.cls for q in quotients[1:]), quotients[0].ch.cls) != ch_e.cls:
        raise ConfigError("tau.quotients", "quotient characters must sum to the character "
                          "of tau.object")
    edges_raw = sec.get("edges", [])
    if not isinstance(edges_raw, list):
        raise ConfigError("tau.edges", "expected a list of [from, to] pairs")
    edges = []
    for i, pair in enumerate(edges_raw):
        p = f"tau.edges[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(p, "edges are [from, to] index pairs")
        edges.append((parse_int(pair[0], p + "[0]"), parse_int(pair[1], p + "[1]")))
    return ch_e, _at("tau", FiltrationGraph, tuple(quotients), tuple(edges))


# ---------------------------------------------------------------------------
# surface solver section
# ---------------------------------------------------------------------------


def parse_hermitian(sec, path: str) -> Tuple[float, complex, float]:
    """Constant Hermitian matrix {"a11": "p/q", "a12": gaussian, "a22": "p/q"}."""
    _object(sec, path, ("a11", "a12", "a22"))
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
        _object(term, p, ("mode", "amplitude", "phase"), ("mode",))
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
        out = out + _at(p + ".mode", geom.mode_field, mode, amp, phase)
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


def surface_inputs(raw: dict, n_override: Optional[int] = None):
    """Build the torus charge data and solver parameters from the surface
    section of the document raw; n_override stands for the --N flag."""
    from .surface import DHYM_RHO, SurfaceChargeData, TorusGeometry

    path = "surface"
    sec = _object(raw.get(path), path, ("N", "metric", "alpha0", "preset", "rho", "u1_const",
                                        "u1_potential", "u2", "tol", "k_values", "dump"),
                  ("metric", "alpha0"))
    if n_override is not None:
        size, n_path = n_override, "--N"
    else:
        n_path = path + ".N"
        size = parse_int(sec.get("N", 16), n_path)
    geom = _at(n_path, TorusGeometry, size)
    metric = parse_hermitian(sec["metric"], path + ".metric")
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
    u1_potential = (parse_mode_sum(geom, sec["u1_potential"], path + ".u1_potential")
                    if "u1_potential" in sec else None)
    u2 = parse_mode_sum(geom, sec["u2"], path + ".u2") if "u2" in sec else None

    data = _at(path, SurfaceChargeData, geom, metric, rho, alpha0, u1_const, u1_potential, u2)

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
