"""Command-line front end.

Subcommands: charge, stability, walls, tau, solve-surface, selftest.
Output is TSV by default (tab separators, '.' decimal, LF endings) or
JSON with --format json. Exit codes: 0 success or stable verdict,
2 unstable or infeasible, 3 semistable, 64 configuration error,
65 numerical failure, 66 class obstruction (no solution exists),
70 internal error (a failed certificate check or any other unexpected
exception; the message is printed without a traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterable, List, Optional, Sequence

from .charge import ChargeError, central_charge
from .config import (
    ConfigError,
    charge_inputs,
    load_config,
    load_raw,
    stability_inputs,
    surface_inputs,
    tau_inputs,
    walls_inputs,
)
from .extension import (
    CertificateError,
    ExtensionError,
    assemble_tau_system,
    solve_tau_positive,
)
from .errors import ClassObstructionError, NumericalFailureError, SurfaceError
from .numring import RingError
from .stability import StabilityError, stability_verdict, wall_scan

EXIT_OK = 0
EXIT_UNSTABLE = 2
EXIT_SEMISTABLE = 3
EXIT_CONFIG = 64
EXIT_NUMERICAL = 65
EXIT_OBSTRUCTION = 66
EXIT_INTERNAL = 70   # EX_SOFTWARE

_STATUS_EXIT = {"stable": EXIT_OK, "unstable": EXIT_UNSTABLE, "semistable": EXIT_SEMISTABLE}


def _cell(v) -> str:
    """One TSV cell: None is '-', a bool is true/false, a float is its
    shortest round-trip repr (float() first, since numpy 2 scalars repr
    as np.float64(...)), and anything else is str(v)."""
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _text(v) -> Optional[str]:
    """An exact number as a JSON string, None kept."""
    return None if v is None else str(v)


def _head(fields: dict) -> List[list]:
    """One TSV row per field, a list value spread over its cells."""
    return [[k, *v] if isinstance(v, list) else [k, v] for k, v in fields.items()]


def _emit(fmt: str, doc: dict, rows: Iterable[Sequence]) -> None:
    """Write doc as a JSON document, or rows as TSV under the cell rule."""
    if fmt == "json":
        out = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        out = "".join("\t".join(map(_cell, row)) + "\n" for row in rows)
    sys.stdout.write(out)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_charge(args) -> int:
    cfg = load_config(args.config)
    sheaf, ch = charge_inputs(cfg, args.sheaf)
    z = central_charge(cfg.ring, cfg.omega, cfg.rho, cfg.unipotent, ch)
    terms = [(f"k^{d}", z[d]) for d in range(len(z) - 1, -1, -1)]
    doc = {"sheaf": sheaf, "coefficients": {k: c.to_json() for k, c in terms}}
    _emit(args.format, doc, terms)
    return EXIT_OK


def cmd_stability(args) -> int:
    cfg = load_config(args.config)
    ch_e, cands = stability_inputs(cfg)
    report = stability_verdict(cfg.ring, cfg.omega, cfg.rho, cfg.unipotent, ch_e, cands)
    head = {"status": report.status, "witness": report.witness, "order": report.order}
    details = [
        {"name": cv.name, "kind": cv.kind, "relation": cv.verdict.relation.value,
         "order": cv.verdict.order, "leading": _text(cv.verdict.leading)}
        for cv in report.details
    ]
    rows = _head(head) + [["candidate", *d.values()] for d in details]
    _emit(args.format, {**head, "candidates": details}, rows)
    return _STATUS_EXIT[report.status]


def cmd_walls(args) -> int:
    cfg = load_config(args.config)
    scan = walls_inputs(cfg)
    report = wall_scan(cfg.ring, cfg.omega, **scan)
    head = {"range": [str(report.t_min), str(report.t_max)], "preset": scan["preset"]}
    cells = [
        {"left": str(c.t_left), "right": str(c.t_right), "sample": str(c.sample),
         "status": c.report.status}
        for c in report.cells
    ]
    walls = [
        {"location": w.location_str(), "exact": _text(w.exact),
         "enclosure": [str(w.lo), str(w.hi)], "status": w.report.status,
         "status_left": w.status_left, "status_right": w.status_right}
        for w in report.walls
    ]
    rows = _head(head) + [["cell", *c.values()] for c in cells]
    # the wall row puts the enclosure after the location and has no exact
    rows += [["wall", w["location"], *w["enclosure"], w["status_left"], w["status"],
              w["status_right"]] for w in walls]
    _emit(args.format, {**head, "cells": cells, "walls": walls}, rows)
    return EXIT_OK


def cmd_tau(args) -> int:
    cfg = load_config(args.config)
    ch_e, graph = tau_inputs(cfg)
    system = assemble_tau_system(cfg.ring, cfg.omega, cfg.rho, cfg.unipotent, ch_e, graph)
    solution = solve_tau_positive(system)
    profile = [(q.name, str(b)) for q, b in zip(graph.quotients, system.b)]
    tau = None if solution.tau is None else [str(t) for t in solution.tau]
    head = {"order": system.order, "feasible": solution.feasible,
            "margin": _text(solution.margin), "certificate": solution.certificate.get("kind")}
    order, feasible, margin, certificate = _head(head)
    rows = [order, *(["profile", *p] for p in profile), feasible, margin]
    rows += [["tau", i, f"{edge[0]}->{edge[1]}", t]
             for i, (edge, t) in enumerate(zip(graph.edges, tau or []))]
    rows.append(certificate)
    _emit(args.format, {**head, "profile": dict(profile), "tau": tau}, rows)
    return EXIT_OK if solution.feasible else EXIT_UNSTABLE


def cmd_solve_surface(args) -> int:
    data, params = surface_inputs(load_raw(args.config), n_override=args.N)

    from .surface import large_volume_check, solve_critical_equation, write_field_dump

    # the large-volume rows need no solve: a k out of float range fails first
    lv_rows = large_volume_check(data, params["k_values"]) if params["k_values"] else []
    for i, row in enumerate(lv_rows):
        if math.isnan(row.measured_sup):
            raise ConfigError(f"surface.k_values[{i}]",
                              f"the large-volume row at k = {row.k!r} leaves float range")
    sol = solve_critical_equation(data, tol=params["tol"])
    if not sol.residual_sup <= params["tol"]:
        raise NumericalFailureError(
            f"final residual {sol.residual_sup:.3e} exceeds tol {params['tol']:.3e}"
        )
    if params["dump"]:
        try:
            write_field_dump(params["dump"], {"u": sol.u, "z_residual": sol.z_residual_field})
        except OSError as exc:
            raise ConfigError("surface.dump",
                              f"cannot write {params['dump']!r}: {exc.strerror or exc}") from None

    head = {
        "N": data.geom.size,
        "phi": sol.phi,
        "residual_sup": sol.residual_sup,
        "z_residual_sup": sol.z_residual_sup,
        "z_residual_mean": sol.z_residual_mean,
        "shift": sol.shift,
        "positivity_margin": sol.positivity_margin,
        "newton_iterations": sol.newton_iterations,
        "cg_iterations": sol.cg_iterations,
        "harmonic_start": sol.used_harmonic_start,
        "residual_path": sol.residual_path,
    }
    large_volume = [
        {"k": row.k, "measured_sup": row.measured_sup, "predicted_sup": row.predicted_sup,
         "relative_error": row.relative_error}
        for row in lv_rows
    ]
    dump = {"dump": params["dump"]}
    rows = _head(head) + [["largevolume", *row.values()] for row in large_volume]
    if params["dump"]:
        rows += _head(dump)
    doc = {**head, "large_volume": large_volume, **dump}
    _emit(args.format, doc, rows)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest(seed=args.seed, only=args.only)
    return EXIT_OK if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zcrit",
        description="Exact asymptotic stability checks and a torus critical-equation solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv", help="output format")

    p = sub.add_parser("charge", help="print exact central charge coefficients")
    add_common(p)
    p.add_argument("--sheaf", help="sheaf name (default: charge.object from config)")
    p.set_defaults(handler=cmd_charge)

    p = sub.add_parser("stability", help="asymptotic stability verdict")
    add_common(p)
    p.set_defaults(handler=cmd_stability)

    p = sub.add_parser("walls", help="scan a B-field pencil for verdict changes")
    add_common(p)
    p.set_defaults(handler=cmd_walls)

    p = sub.add_parser("tau", help="solve the positive extension-weight system")
    add_common(p)
    p.set_defaults(handler=cmd_tau)

    p = sub.add_parser("solve-surface", help="solve the critical equation on the torus")
    add_common(p)
    p.add_argument("--N", type=int, default=None, help="grid size override")
    p.set_defaults(handler=cmd_solve_surface)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.add_argument("--only", type=int, default=None, help="run a single criterion by number")
    p.set_defaults(handler=cmd_selftest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; exit 2 is
        # reserved for the unstable/infeasible verdict, so remap
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.handler(args)
    except CertificateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ClassObstructionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, RingError, ChargeError, StabilityError, ExtensionError,
            SurfaceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
