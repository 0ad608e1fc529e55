"""Seeded workloads for the zcrit benchmark.

Each workload is built from a seed alone: the same seed gives the same
job list. A job has a kind (two per workload, reported as kind_a and
kind_b), a timed ``run`` and an untimed ``check`` that compares the
result with an oracle computed independently of the code path that
produced it. ``check`` raises OracleMismatch on a wrong answer and
otherwise returns how many comparisons it made.

Job i of a workload depends only on the seed and i, so the traced run,
which takes the first jobs of the list, sees the same inputs as the
untraced run.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class OracleMismatch(Exception):
    """A job returned an answer its oracle rejects."""


class Job:
    __slots__ = ("index", "kind", "run", "check", "facts")

    def __init__(self, index: int, kind: str, run: Callable[[], object],
                 check: Callable[[object], int],
                 facts: Optional[Callable[[object], Dict[str, int]]] = None):
        self.index = index
        self.kind = kind
        self.run = run
        self.check = check
        # counts read from a result for the per-layer metrics
        self.facts = facts


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _character(rng: random.Random, ring, rank: int):
    """Lattice-integral character: ch_j in (1/j!) Z, |j! ch_j| <= 4."""
    from zcrit.charge import ChernCharacter
    from zcrit.numring import class_from_dict

    n = ring.complex_dimension
    coeffs = {"1": Fraction(rank)}
    fact = 1
    for j in range(1, n + 1):
        fact *= j
        name = "h" if j == 1 else f"h^{j}"
        coeffs[name] = Fraction(rng.randint(-4, 4), fact)
    return ChernCharacter(class_from_dict(ring, coeffs))


def _candidate(rng: random.Random, ring, rank_e: int, name: str):
    from zcrit.stability import SubobjectCandidate

    return SubobjectCandidate(name, _character(rng, ring, rng.randint(1, rank_e - 1)),
                              rng.choice(("subbundle", "quotient")))


def _candidates(rng: random.Random, ring, rank_e: int, count: int = 8):
    return [_candidate(rng, ring, rank_e, f"F{i}") for i in range(count)]


def _projective(n: int):
    from zcrit.numring import preset_ring

    return preset_ring("projective_space", n=n)


# ---------------------------------------------------------------------------
# exact-walls
# ---------------------------------------------------------------------------

# Before isolating roots, sympy substitutes t = d*y (d > 1) into a
# polynomial whose integer coefficients allow it
# (sympy.polys.polyroots._integer_basis) and returns each irrational root
# as the product d*CRootOf(...). zcrit.realroots cannot enclose such a
# product: roots_in_range raises AttributeError ("'Mul' object has no
# attribute 'eval_rational'"). exact-walls redraws every candidate with a
# comparison polynomial of degree >= 2 that sympy would rescale, so no
# timed scan meets that crash. The redrawn share is reported, and the
# pinned pair that shows the crash runs in every measured run on its own.


def _interpolate(ts: Sequence[Fraction], ys: Sequence[Fraction]) -> List[Fraction]:
    """Ascending coefficients of the polynomial through (ts, ys)."""
    n = len(ts)
    c = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (ts[i] - ts[i - j])
    poly = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        shifted = [Fraction(0)] + poly[:-1]
        poly = [shifted[d] - ts[i] * poly[d] for d in range(n)]
        poly[0] += c[i]
    return poly


def _charge_in_t(ring, h, assignments, ch) -> List[tuple]:
    """Z_ch(k) at B = t h: per power of k, its (re, im) as polynomials in
    t. U = exp(-t h), times sqrt(Td) for todd, has t-degree <= n, so the
    charges at t = 0..n fix them."""
    from zcrit.charge import central_charge

    ts = [Fraction(j) for j in range(len(assignments))]
    zs = [central_charge(ring, h, rho, U, ch) for rho, U in assignments]
    return [(_interpolate(ts, [z[d].re for z in zs]), _interpolate(ts, [z[d].im for z in zs]))
            for d in range(len(zs[0]))]


def _comparison_in_t(z_f: List[tuple], z_e: List[tuple]) -> List[List[Fraction]]:
    """p_m(t), the k^m coefficient of Im(Z_F conj Z_E), for every m."""
    width = 2 * len(z_e[0][0]) - 1
    out = [[Fraction(0)] * width for _ in range(len(z_f) + len(z_e) - 1)]
    for d, (f_re, f_im) in enumerate(z_f):
        for e, (e_re, e_im) in enumerate(z_e):
            target = out[d + e]
            for a in range(len(f_re)):
                for b in range(len(e_re)):
                    target[a + b] += f_im[a] * e_re[b] - f_re[a] * e_im[b]
    return out


def _sympy_rescales(polys: Sequence[Sequence[Fraction]]) -> bool:
    """True if sympy's root finder would rescale some polynomial of
    degree >= 2, asked of the same sympy preprocessing step it runs."""
    import sympy
    from sympy.polys.polyroots import preprocess_roots

    for p in polys:
        if any(p[2:]):
            poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
                              sympy.Symbol("t"), domain="QQ")
            if preprocess_roots(poly)[0] != 1:
                return True
    return False


class ExactWalls:
    """wall_scan on P2 (dhym, todd) and P3 (dhym) over t in [-3, 3].

    Jobs cycle P2 dhym, P2 todd, P3 dhym so every seed gets the same mix.
    Kind a is a P2 scan, kind b a P3 scan. Candidates that sympy's
    rescaling would crash on are redrawn (see above); `screening` counts
    them. `probe` is the pinned pair E=(3, h, 4h^2), F=(2, -3h, -2h^2),
    whose comparison polynomial 11t^2 - 28t - 20 sympy rescales by t = 2y.
    """

    name = "exact-walls"
    kinds = ("p2_scan", "p3_scan")
    trace_jobs = 10
    mix = ((2, "dhym"), (2, "todd"), (3, "dhym"))
    max_draws = 100     # per candidate; reaching it is an error, not a skip

    def __init__(self, seed: int, tiny: bool = False):
        from zcrit.charge import charge_preset

        self.seed = seed
        self.tiny = tiny
        self.rings = {2: _projective(2), 3: _projective(3)}
        self.t_min, self.t_max = Fraction(-3), Fraction(3)
        self.assignments = {
            (n, preset): [charge_preset(preset, self.rings[n], self.rings[n].gen("h").scale(Fraction(t)))
                          for t in range(n + 1)]
            for n, preset in self.mix}
        self.screening = {"drawn": 0, "redrawn": 0}

    def warm_up(self) -> None:
        # the README walls example: one rational wall, a sympy warm-up
        from zcrit.charge import ChernCharacter
        from zcrit.numring import class_from_dict
        from zcrit.stability import SubobjectCandidate, wall_scan

        ring = self.rings[2]
        e = ChernCharacter(class_from_dict(ring, {"1": 3, "h^2": -2}))
        f = ChernCharacter(class_from_dict(ring, {"1": 2, "h^2": -2}))
        h = ring.gen("h")
        wall_scan(ring, h, e, [SubobjectCandidate("F", f)], None, h,
                  Fraction(-1), Fraction(1), "dhym")

    def _screened_candidates(self, rng: random.Random, ring, preset: str, ch_e,
                             rank_e: int, count: int) -> list:
        h = ring.gen("h")
        assignments = self.assignments[(ring.complex_dimension, preset)]
        z_e = _charge_in_t(ring, h, assignments, ch_e)
        cands = []
        for _ in range(self.max_draws * count):
            cand = _candidate(rng, ring, rank_e, f"F{len(cands)}")
            self.screening["drawn"] += 1
            if _sympy_rescales(_comparison_in_t(_charge_in_t(ring, h, assignments, cand.ch), z_e)):
                self.screening["redrawn"] += 1
                continue
            cands.append(cand)
            if len(cands) == count:
                return cands
        raise RuntimeError(f"no {count} screened candidates in {self.max_draws * count} draws")

    def job(self, i: int) -> Job:
        rng = _rng(self.seed, i)
        n, preset = self.mix[i % len(self.mix)]
        ring = self.rings[n]
        rank = rng.randint(2, 5)
        ch_e = _character(rng, ring, rank)
        cands = self._screened_candidates(rng, ring, preset, ch_e, rank,
                                          2 if self.tiny else 8)
        return self._scan_job(i, ring, preset, ch_e, cands)

    def probe(self) -> Job:
        from zcrit.charge import ChernCharacter
        from zcrit.numring import class_from_dict
        from zcrit.stability import SubobjectCandidate

        ring = self.rings[2]
        ch_e = ChernCharacter(class_from_dict(ring, {"1": 3, "h": 1, "h^2": 4}))
        ch_f = ChernCharacter(class_from_dict(ring, {"1": 2, "h": -3, "h^2": -2}))
        return self._scan_job(-1, ring, "dhym", ch_e, [SubobjectCandidate("F", ch_f)])

    def _scan_job(self, i: int, ring, preset: str, ch_e, cands) -> Job:
        from zcrit import stability

        h = ring.gen("h")
        kind = self.kinds[0] if ring.complex_dimension == 2 else self.kinds[1]

        def run():
            return stability.wall_scan(ring, h, ch_e, cands, None, h,
                                       self.t_min, self.t_max, preset)

        def check(report) -> int:
            from zcrit.charge import charge_preset

            def status_at(t: Fraction) -> str:
                rho, U = charge_preset(preset, ring, h.scale(t))
                return stability.stability_verdict(ring, h, rho, U, ch_e, cands).status

            if report.cells[0].t_left != self.t_min or report.cells[-1].t_right != self.t_max:
                raise OracleMismatch("cells do not cover the scan range")
            for cell in report.cells:
                if not cell.t_left < cell.sample < cell.t_right:
                    raise OracleMismatch(f"cell sample {cell.sample} outside its cell")
                if status_at(cell.sample) != cell.report.status:
                    raise OracleMismatch(f"cell at t={cell.sample}: status differs")
            exact = [w for w in report.walls if w.exact is not None]
            for wall in exact:
                if status_at(wall.exact) != wall.report.status:
                    raise OracleMismatch(f"wall at t={wall.exact}: status differs")
            return len(report.cells) + len(exact)

        def facts(report) -> Dict[str, int]:
            irrational = sum(1 for w in report.walls if w.exact is None)
            return {"walls": len(report.walls), "irrational_walls": irrational,
                    "useful_signs": irrational * len(cands)}

        return Job(i, kind, run, check, facts)


# ---------------------------------------------------------------------------
# exact-verdicts
# ---------------------------------------------------------------------------


_K_ORACLE = 2 ** 60


def _charge_at(z, k: int):
    from zcrit.gaussian import GaussianRational

    acc = GaussianRational()
    for d in range(len(z) - 1, -1, -1):
        acc = acc * GaussianRational.of(k) + z[d]
    return acc


def _expect_status(relations: Sequence[tuple]) -> tuple:
    """(status, witness) from (name, kind, sign) by the documented rule."""
    for name, kind, sign in relations:
        if (kind == "subbundle" and sign > 0) or (kind == "quotient" and sign < 0):
            return "unstable", name
    for name, _, sign in relations:
        if sign == 0:
            return "semistable", name
    return "stable", None


class ExactVerdicts:
    """Alternating stability verdicts (kind a) and tau systems (kind b).

    Verdicts run on P2..P5 with 8 candidates at a random rational B;
    tau systems on P2/P3 with 3..8 quotients, a chain plus extra forward
    edges. Both include building the dhym charge at B.
    """

    name = "exact-verdicts"
    kinds = ("verdict", "tau")
    trace_jobs = 200

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.rings = {n: _projective(n) for n in (2, 3, 4, 5)}

    def warm_up(self) -> None:
        for i in range(4):
            job = self.job(i)
            job.check(job.run())

    def _bfield(self, rng: random.Random, ring):
        return ring.gen("h").scale(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))

    def job(self, i: int) -> Job:
        rng = _rng(self.seed, i)
        if i % 2 == 0:
            return self._verdict_job(i, rng)
        return self._tau_job(i, rng)

    def _verdict_job(self, i: int, rng: random.Random) -> Job:
        from zcrit import stability
        from zcrit.charge import central_charge, charge_preset

        ring = self.rings[2 + (i // 2) % 4]
        h = ring.gen("h")
        bfield = self._bfield(rng, ring)
        rank = rng.randint(2, 5)
        ch_e = _character(rng, ring, rank)
        cands = _candidates(rng, ring, rank, 2 if self.tiny else 8)

        def run():
            rho, U = charge_preset("dhym", ring, bfield)
            return stability.stability_verdict(ring, h, rho, U, ch_e, cands)

        def check(report) -> int:
            # sign of Im(Z_F conj Z_E) at k = 2^60, far beyond every root
            # of the comparison polynomial for characters of this height
            rho, U = charge_preset("dhym", ring, bfield)
            z_e = _charge_at(central_charge(ring, h, rho, U, ch_e), _K_ORACLE)
            relations = []
            for cand, detail in zip(cands, report.details):
                z_f = _charge_at(central_charge(ring, h, rho, U, cand.ch), _K_ORACLE)
                p = z_f.im * z_e.re - z_f.re * z_e.im
                sign = (p > 0) - (p < 0)
                if detail.verdict.relation.value != ("Less", "Equal", "Greater")[sign + 1]:
                    raise OracleMismatch(f"candidate {cand.name}: relation differs")
                relations.append((cand.name, cand.kind, sign))
            status, witness = _expect_status(relations)
            if report.status != status:
                raise OracleMismatch(f"status {report.status}, oracle {status}")
            if witness is not None and report.witness != witness:
                raise OracleMismatch(f"witness {report.witness}, oracle {witness}")
            return len(relations)

        return Job(i, self.kinds[0], run, check)

    def _tau_job(self, i: int, rng: random.Random) -> Job:
        from zcrit import extension
        from zcrit.charge import charge_preset

        ring = self.rings[2 + (i // 2) % 2]
        h = ring.gen("h")
        bfield = self._bfield(rng, ring)
        m = rng.randint(3, 4 if self.tiny else 8)
        quotients = tuple(
            extension.QuotientSpec(f"Q{j}", _character(rng, ring, rng.randint(1, 2)))
            for j in range(m)
        )
        ch_e = quotients[0].ch
        for spec in quotients[1:]:
            ch_e = ch_e + spec.ch
        edges = [(j, j + 1) for j in range(m - 1)]
        for _ in range(rng.randint(0, m)):
            u = rng.randint(0, m - 3)
            v = rng.randint(u + 2, m - 1)
            if (u, v) not in edges:
                edges.append((u, v))
        graph = extension.FiltrationGraph(quotients, tuple(edges))

        def run():
            rho, U = charge_preset("dhym", ring, bfield)
            system = extension.assemble_tau_system(ring, h, rho, U, ch_e, graph)
            return system, extension.solve_tau_positive(system)

        def check(result) -> int:
            system, sol = result
            _check_tau_certificate(graph, system, sol)
            return 1

        return Job(i, self.kinds[1], run, check)


def _check_tau_certificate(graph, system, sol) -> None:
    """Re-verify the certificate from the incidence matrix and loads."""
    m, L = len(graph.quotients), len(graph.edges)
    A = [[0] * L for _ in range(m)]
    for l, (u, v) in enumerate(graph.edges):
        A[u][l] += 1
        A[v][l] -= 1
    if [list(r) for r in system.A] != A:
        raise OracleMismatch("incidence matrix differs from the graph")
    b = system.b
    if sum(b, Fraction(0)) != 0:
        raise OracleMismatch("discrepancy loads do not balance")
    cert = sol.certificate
    kind = cert.get("kind")

    def row_dot(y, col):
        return sum((y[r] * A[r][col] for r in range(m)), Fraction(0))

    if kind == "primal":
        tau = cert["tau"]
        for r in range(m):
            if sum((A[r][l] * tau[l] for l in range(L)), Fraction(0)) != -b[r]:
                raise OracleMismatch("primal weights fail A tau = -b")
        if not (sol.feasible and cert["margin"] > 0 and min(tau) == cert["margin"]):
            raise OracleMismatch("primal certificate margin inconsistent")
    elif kind == "dual":
        y = cert["y"]
        if any(row_dot(y, l) < 0 for l in range(L)):
            raise OracleMismatch("dual certificate: A^T y has a negative entry")
        if sum((y[r] * sum(A[r], 0) for r in range(m)), Fraction(0)) != 1:
            raise OracleMismatch("dual certificate: (A 1).y != 1")
        if sum((-b[r] * y[r] for r in range(m)), Fraction(0)) != cert["margin"]:
            raise OracleMismatch("dual certificate: -b.y != margin")
        if sol.feasible or cert["margin"] > 0:
            raise OracleMismatch("dual certificate with a positive margin")
    elif kind == "inconsistent":
        y = cert["y"]
        if any(row_dot(y, l) != 0 for l in range(L)):
            raise OracleMismatch("inconsistency functional: y.A != 0")
        if sum((y[r] * b[r] for r in range(m)), Fraction(0)) == 0:
            raise OracleMismatch("inconsistency functional: y.b == 0")
        if sol.feasible:
            raise OracleMismatch("inconsistent system reported feasible")
    else:
        raise OracleMismatch(f"unknown certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# torus-solve
# ---------------------------------------------------------------------------


class TorusSolve:
    """solve_critical_equation (dhym, flat metric, alpha0 = diag(2, 3)).

    Kind a: N=16, seeded 2-3-mode twist potentials with |m_i| <= 3 at
    tol 1e-10. Kind b: N=32, one seeded single-mode potential v whose
    exact solution is u = -v, at tol 1e-11. Amplitudes scale with
    1/|m|^2 so ddc v stays of order one and no solve leaves the
    positive cone. Every N=16 potential has the same strength (the sum
    of its modes' ddc amplitudes) and alternates 2 and 3 modes, so only
    the modes and phases vary between seeds: solve time follows the
    strength, and drawing it per job moved the median N=16 solve by
    15-20% between seeds. A round is one N=32 solve then eight N=16
    solves.
    """

    name = "torus-solve"
    kinds = ("n16_solve", "n32_solve")
    trace_jobs = 9
    round_jobs = 9
    strength = 1.0
    tol = {"n16_solve": 1e-10, "n32_solve": 1e-11}

    def __init__(self, seed: int, tiny: bool = False):
        import numpy as np
        from zcrit import surface

        self.seed = seed
        self.sizes = (8, 16) if tiny else (16, 32)
        self.geoms = [surface.TorusGeometry(n) for n in self.sizes]
        self.flat = [surface.SurfaceChargeData.dhym(g, (1.0, 0.0, 1.0), (2.0, 0.0, 3.0))
                     for g in self.geoms]
        rng = _rng(seed, "n32")
        mode = self._mode(rng)
        amp = rng.uniform(0.5, 1.5) / (np.pi ** 2 * sum(x * x for x in mode))
        self.v32 = self.geoms[1].mode_field(mode, amp, rng.choice(("cos", "sin")))
        self.data32 = self.flat[1].perturb_u1(self.v32)

    @staticmethod
    def _mode(rng: random.Random) -> List[int]:
        while True:
            mode = [rng.randint(-3, 3) for _ in range(4)]
            if any(mode):
                return mode

    def warm_up(self) -> None:
        import numpy as np
        from zcrit import surface

        for geom in self.geoms:
            surface.ddc(geom, np.zeros(geom.shape))

    def job(self, i: int) -> Job:
        import numpy as np
        from zcrit import surface

        if i % self.round_jobs == 0:
            data, v, kind = self.data32, self.v32, self.kinds[1]
        else:
            rng = _rng(self.seed, i)
            geom = self.geoms[0]
            modes = 2 + i % 2
            v = np.zeros(geom.shape)
            for _ in range(modes):
                mode = self._mode(rng)
                amp = self.strength / (np.pi ** 2 * sum(x * x for x in mode) * modes)
                v = v + geom.mode_field(mode, amp, rng.choice(("cos", "sin")))
            data, v, kind = self.flat[0].perturb_u1(v), None, self.kinds[0]
        tol = self.tol[kind]

        def run():
            return surface.solve_critical_equation(data, tol=tol, stages=1)

        def check(sol) -> int:
            if not sol.residual_sup <= tol:
                raise OracleMismatch(f"residual {sol.residual_sup:.3e} above tol {tol:g}")
            if v is not None:
                err = float(np.max(np.abs(sol.u + (v - np.mean(v)))))
                if err > 1e-10:
                    raise OracleMismatch(f"single-mode solve: max|u + v| = {err:.3e}")
            return 1 if v is None else 2

        def facts(sol) -> Dict[str, int]:
            return {"newton_steps": sol.newton_iterations,
                    "cg_iterations": sol.cg_iterations,
                    "harmonic_starts": int(sol.used_harmonic_start)}

        return Job(i, kind, run, check, facts)


# ---------------------------------------------------------------------------
# cli-configs
# ---------------------------------------------------------------------------

# The TSV rows README.md documents for the sample configurations; the
# walls rows for the todd config are the exact output pinned at the
# commit that introduced this benchmark.
_EXPECTED_ROWS = {
    ("charge", "p2_extension_dhym.json"): [
        "k^2\t3/2", "k^1\t-i", "k^0\t11/6"],
    ("stability", "p2_extension_dhym.json"): [
        "status\tunstable", "witness\tF", "order\t3",
        "candidate\tF\tsubbundle\tGreater\t3\t2/3"],
    ("walls", "p2_extension_dhym.json"): [
        "range\t-1\t1", "preset\tdhym",
        "cell\t-1\t0\t-1/2\tstable", "cell\t0\t1\t1/2\tunstable",
        "wall\t0\t0\t0\tstable\tsemistable\tunstable"],
    ("walls", "p2_extension_todd.json"): [
        "range\t0\t2", "preset\ttodd",
        "cell\t0\t3/4\t3/8\tstable", "cell\t3/4\t2\t11/8\tunstable",
        "wall\t3/4\t3/4\t3/4\tstable\tsemistable\tunstable"],
    ("tau", "tau_chain.json"): [
        "order\t3", "profile\tQ\t-8/27", "profile\tF\t8/27", "feasible\ttrue",
        "margin\t8/27", "tau\t0\t0->1\t8/27", "certificate\tprimal"],
}
# README exit codes: 0 success/stable/feasible, 2 unstable
_EXPECTED_EXIT = {"charge": 0, "stability": 2, "walls": 0, "tau": 0, "solve-surface": 0}
# solve-surface runs three times a cycle, so that a run takes a dozen
# samples of it rather than six
_INVOCATIONS = list(_EXPECTED_ROWS) + [("solve-surface", "torus_dhym.json")] * 3
_SURFACE_TOL = 1e-11   # configs/torus_dhym.json


def _tsv_fields(out: str) -> Dict[str, str]:
    """First column -> rest of the line, for the CLI's key/value rows."""
    return dict(line.split("\t", 1) for line in out.splitlines())


def cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliConfigs:
    """Cold `python -m zcrit.cli` runs on configs/, one at a time.

    Each cycle runs the eight invocations in a seeded order. Kind a is an
    exact subcommand (charge, stability, walls, tau), kind b
    solve-surface. A traced run goes through perfbench/cli_traced.py,
    which installs the layer wrappers before calling zcrit.cli.main.
    """

    name = "cli-configs"
    kinds = ("exact_cli", "surface_cli")
    trace_jobs = len(_INVOCATIONS)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.env = cli_env()
        self.traced_prefix = None     # argv that replaces `python -m zcrit.cli` when tracing
        self.last_stderr = ""

    def warm_up(self) -> None:
        self._invoke("charge", "p2_extension_dhym.json")

    def _invoke(self, sub: str, cfg: str, prefix: Optional[List[str]] = None):
        argv = (prefix or [sys.executable, "-m", "zcrit.cli"]) + [
            sub, "--config", os.path.join("configs", cfg)]
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=170)
        self.last_stderr = proc.stderr
        return proc.returncode, proc.stdout

    def job(self, i: int) -> Job:
        cycle, pos = divmod(i, len(_INVOCATIONS))
        order = list(_INVOCATIONS)
        _rng(self.seed, f"cycle{cycle}").shuffle(order)
        sub, cfg = order[pos]
        kind = self.kinds[1] if sub == "solve-surface" else self.kinds[0]

        def run():
            return self._invoke(sub, cfg, self.traced_prefix)

        def check(result) -> int:
            code, out = result
            if code != _EXPECTED_EXIT[sub]:
                raise OracleMismatch(f"{sub} {cfg}: exit {code}, README says {_EXPECTED_EXIT[sub]}")
            if sub == "solve-surface":
                rows = _tsv_fields(out)
                if not float(rows["residual_sup"]) <= _SURFACE_TOL:
                    raise OracleMismatch(f"solve-surface residual {rows['residual_sup']}")
            elif out.splitlines() != _EXPECTED_ROWS[(sub, cfg)]:
                raise OracleMismatch(f"{sub} {cfg}: TSV rows differ from README")
            return 2

        def facts(result) -> Dict[str, int]:
            if sub != "solve-surface":
                return {}
            rows = _tsv_fields(result[1])
            return {"newton_steps": int(rows["newton_iterations"]),
                    "cg_iterations": int(rows["cg_iterations"]),
                    "harmonic_starts": int(rows["harmonic_start"] == "true")}

        return Job(i, kind, run, check, facts)


WORKLOADS = {w.name: w for w in (ExactWalls, ExactVerdicts, TorusSolve, CliConfigs)}


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Seconds per package from `python -X importtime` output.

    sympy, numpy and mpmath are cumulative times of their top-level
    entries; zcrit sums the self time of the zcrit modules, so it
    excludes the third-party packages they pull in.
    """
    out = {"sympy": 0.0, "numpy": 0.0, "mpmath": 0.0, "zcrit": 0.0}
    pat = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")
    for line in stderr.splitlines():
        m = pat.match(line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(3)
        if name in ("sympy", "numpy", "mpmath"):
            out[name] += cum_us / 1e6
        elif name == "zcrit" or name.startswith("zcrit."):
            out["zcrit"] += self_us / 1e6
    return out
