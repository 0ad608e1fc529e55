"""Command-line front end.

Subcommands: charge, stability, walls, tau, solve-surface, selftest.
Output is TSV by default (tab separators, '.' decimal, LF endings) or
JSON with --format json. Exit codes: 0 success or stable verdict,
2 unstable or infeasible, 3 semistable, 64 configuration error,
65 numerical failure, 66 class obstruction (no solution exists).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .charge import ChargeError, central_charge
from .config import (
    ConfigError,
    RunConfig,
    candidates_from_section,
    graph_from_section,
    load_config,
    load_raw,
    parse_fraction,
    surface_from_section,
)
from .extension import ExtensionError, assemble_tau_system, solve_tau_positive
from .numring import RingError
from .stability import StabilityError, stability_verdict, wall_scan

EXIT_OK = 0
EXIT_UNSTABLE = 2
EXIT_SEMISTABLE = 3
EXIT_CONFIG = 64
EXIT_NUMERICAL = 65
EXIT_OBSTRUCTION = 66

_STATUS_EXIT = {"stable": EXIT_OK, "unstable": EXIT_UNSTABLE, "semistable": EXIT_SEMISTABLE}


def _emit_tsv(rows: List[List[str]]) -> None:
    out = "".join("\t".join(row) + "\n" for row in rows)
    sys.stdout.write(out)


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fnum(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_charge(args) -> int:
    cfg = load_config(args.config)
    sheaf = args.sheaf or cfg.raw.get("charge", {}).get("object")
    if not sheaf:
        raise ConfigError("charge.object", "no sheaf named; use --sheaf or charge.object")
    ch = cfg.sheaf(sheaf)
    z = central_charge(cfg.ring, cfg.omega, cfg.rho, cfg.unipotent, ch)
    degrees = list(range(len(z) - 1, -1, -1))
    if args.format == "json":
        _emit_json(
            {
                "sheaf": sheaf,
                "coefficients": {f"k^{d}": z[d].to_json() for d in degrees},
            }
        )
    else:
        _emit_tsv([[f"k^{d}", str(z[d])] for d in degrees])
    return EXIT_OK


def cmd_stability(args) -> int:
    cfg = load_config(args.config)
    sec = cfg.section("stability")
    if "object" not in sec:
        raise ConfigError("stability.object", "name of the object to test is required")
    ch_e = cfg.sheaf(sec["object"], "stability.object")
    cands = candidates_from_section(cfg, sec.get("candidates"), "stability.candidates")
    report = stability_verdict(cfg.ring, cfg.omega, cfg.rho, cfg.unipotent, ch_e, cands)
    if args.format == "json":
        _emit_json(
            {
                "status": report.status,
                "witness": report.witness,
                "order": report.order,
                "candidates": [
                    {
                        "name": cv.name,
                        "kind": cv.kind,
                        "relation": cv.verdict.relation.value,
                        "order": cv.verdict.order,
                        "leading": None
                        if cv.verdict.leading is None
                        else str(cv.verdict.leading),
                    }
                    for cv in report.details
                ],
            }
        )
    else:
        rows = [
            ["status", report.status],
            ["witness", report.witness if report.witness is not None else "-"],
            ["order", str(report.order) if report.order is not None else "-"],
        ]
        for cv in report.details:
            rows.append(
                [
                    "candidate",
                    cv.name,
                    cv.kind,
                    cv.verdict.relation.value,
                    str(cv.verdict.order) if cv.verdict.order is not None else "-",
                    str(cv.verdict.leading) if cv.verdict.leading is not None else "-",
                ]
            )
        _emit_tsv(rows)
    return _STATUS_EXIT[report.status]


def cmd_walls(args) -> int:
    cfg = load_config(args.config)
    sec = cfg.section("walls")
    if "object" not in sec:
        raise ConfigError("walls.object", "name of the object to scan is required")
    ch_e = cfg.sheaf(sec["object"], "walls.object")
    cands = candidates_from_section(cfg, sec.get("candidates"), "walls.candidates")
    rng = sec.get("range")
    if not isinstance(rng, list) or len(rng) != 2:
        raise ConfigError("walls.range", "expected [t_min, t_max]")
    t_min = parse_fraction(rng[0], "walls.range[0]")
    t_max = parse_fraction(rng[1], "walls.range[1]")
    if "direction" not in sec:
        raise ConfigError("walls.direction", "B-field direction class is required")
    from .config import parse_class

    b_dir = parse_class(cfg.ring, sec["direction"], "walls.direction")
    b_base = (
        parse_class(cfg.ring, sec["base"], "walls.base") if "base" in sec else None
    )
    preset = sec.get("preset", cfg.charge_preset_name)
    if preset is None:
        raise ConfigError(
            "walls.preset", "scan needs a charge preset (dhym or todd)"
        )
    report = wall_scan(
        cfg.ring, cfg.omega, ch_e, cands, b_base, b_dir, t_min, t_max, preset
    )
    if args.format == "json":
        _emit_json(
            {
                "range": [str(report.t_min), str(report.t_max)],
                "preset": preset,
                "cells": [
                    {
                        "left": str(c.t_left),
                        "right": str(c.t_right),
                        "sample": str(c.sample),
                        "status": c.report.status,
                    }
                    for c in report.cells
                ],
                "walls": [
                    {
                        "location": w.location_str(),
                        "exact": None if w.exact is None else str(w.exact),
                        "enclosure": [str(w.lo), str(w.hi)],
                        "status": w.report.status,
                        "status_left": w.status_left,
                        "status_right": w.status_right,
                    }
                    for w in report.walls
                ],
            }
        )
    else:
        rows = [["range", str(report.t_min), str(report.t_max)], ["preset", preset]]
        for c in report.cells:
            rows.append(
                ["cell", str(c.t_left), str(c.t_right), str(c.sample), c.report.status]
            )
        for w in report.walls:
            rows.append(
                [
                    "wall",
                    w.location_str(),
                    str(w.lo),
                    str(w.hi),
                    w.status_left or "-",
                    w.report.status,
                    w.status_right or "-",
                ]
            )
        _emit_tsv(rows)
    return EXIT_OK


def cmd_tau(args) -> int:
    cfg = load_config(args.config)
    sec = cfg.section("tau")
    if "object" not in sec:
        raise ConfigError("tau.object", "name of the filtered object is required")
    ch_e = cfg.sheaf(sec["object"], "tau.object")
    graph = graph_from_section(cfg, sec, "tau")
    system = assemble_tau_system(
        cfg.ring, cfg.omega, cfg.rho, cfg.unipotent, ch_e, graph
    )
    cap = parse_fraction(sec.get("cap", 1), "tau.cap")
    solution = solve_tau_positive(system, cap=cap)
    if args.format == "json":
        _emit_json(
            {
                "order": system.order,
                "profile": {
                    q.name: str(b) for q, b in zip(graph.quotients, system.b)
                },
                "feasible": solution.feasible,
                "margin": None if solution.margin is None else str(solution.margin),
                "tau": None
                if solution.tau is None
                else [str(t) for t in solution.tau],
                "certificate": solution.certificate.get("kind"),
            }
        )
    else:
        rows = [["order", str(system.order) if system.order is not None else "-"]]
        for q, b in zip(graph.quotients, system.b):
            rows.append(["profile", q.name, str(b)])
        rows.append(["feasible", "true" if solution.feasible else "false"])
        rows.append(
            ["margin", str(solution.margin) if solution.margin is not None else "-"]
        )
        if solution.tau is not None:
            for idx, (edge, t) in enumerate(zip(graph.edges, solution.tau)):
                rows.append(["tau", str(idx), f"{edge[0]}->{edge[1]}", str(t)])
        rows.append(["certificate", solution.certificate.get("kind", "-")])
        _emit_tsv(rows)
    return EXIT_OK if solution.feasible else EXIT_UNSTABLE


def cmd_solve_surface(args) -> int:
    cfg_raw = load_raw(args.config)
    sec = cfg_raw.get("surface")
    if sec is None:
        raise ConfigError("surface", "section missing from the configuration")
    data, params = surface_from_section(sec, n_override=args.N, tol_override=args.tol)

    from .surface import (
        NumericalFailureError,
        ddc,
        large_volume_check,
        solve_critical_equation,
        write_field_dump,
        z_residual,
    )

    sol = solve_critical_equation(
        data,
        tol=params["tol"],
        stages=params["stages"],
        max_newton=params["max_newton"],
    )
    if not sol.residual_sup <= params["tol"]:
        raise NumericalFailureError(
            f"final residual {sol.residual_sup:.3e} exceeds tol {params['tol']:.3e}"
        )
    lv_rows = (
        large_volume_check(data, params["k_values"]) if params["k_values"] else []
    )
    if params["dump"]:
        alpha = data.alpha_harmonic() + ddc(data.geom, sol.u)
        zres = z_residual(data, alpha)
        write_field_dump(
            params["dump"],
            data.geom.size,
            {"u": sol.u, "z_residual": zres.field},
        )

    if args.format == "json":
        _emit_json(
            {
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
                "stages": [
                    {"s": s, "newton": n, "residual": r}
                    for s, n, r in sol.stage_history
                ],
                "large_volume": [
                    {
                        "k": row.k,
                        "measured_sup": row.measured_sup,
                        "predicted_sup": row.predicted_sup,
                        "relative_error": row.relative_error,
                    }
                    for row in lv_rows
                ],
                "dump": params["dump"],
            }
        )
    else:
        rows = [
            ["N", str(data.geom.size)],
            ["phi", _fnum(sol.phi)],
            ["residual_sup", _fnum(sol.residual_sup)],
            ["z_residual_sup", _fnum(sol.z_residual_sup)],
            ["z_residual_mean", _fnum(sol.z_residual_mean)],
            ["shift", _fnum(sol.shift)],
            ["positivity_margin", _fnum(sol.positivity_margin)],
            ["newton_iterations", str(sol.newton_iterations)],
            ["cg_iterations", str(sol.cg_iterations)],
            ["harmonic_start", "true" if sol.used_harmonic_start else "false"],
        ]
        for s, n, r in sol.stage_history:
            rows.append(["stage", _fnum(s), str(n), _fnum(r)])
        for row in lv_rows:
            rows.append(
                [
                    "largevolume",
                    _fnum(row.k),
                    _fnum(row.measured_sup),
                    _fnum(row.predicted_sup),
                    _fnum(row.relative_error),
                ]
            )
        if params["dump"]:
            rows.append(["dump", params["dump"]])
        _emit_tsv(rows)
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

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument(
            "--format", choices=("tsv", "json"), default="tsv", help="output format"
        )

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
    p.add_argument("--tol", type=float, default=None, help="residual tolerance override")
    p.set_defaults(handler=cmd_solve_surface)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.add_argument(
        "--only", type=int, default=None, help="run a single criterion by number"
    )
    p.set_defaults(handler=cmd_selftest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; exit 2 is
        # reserved for the unstable/infeasible verdict, so remap
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    from .surface import ClassObstructionError, NumericalFailureError, SurfaceError

    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RingError, ChargeError, StabilityError, ExtensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ClassObstructionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SurfaceError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
