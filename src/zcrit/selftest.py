"""Built-in acceptance checks, runnable as ``zcrit selftest``.

Each criterion exercises one load-bearing guarantee of the package end
to end: exact series arithmetic, closed-form charge values, exact wall
locations, duality flips, agreement of the exact phase order with a
high-precision floating argument comparison, additivity on short exact
sequences, the weight-system LP against an independent oracle, and the
torus solver (grid means, Newton convergence, obstruction reporting,
large-volume asymptotics). Every check has a pinned tolerance and, where
stated, a wall-clock budget; the runner prints one PASS/FAIL line per
criterion and returns the results as data.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import numpy as np

from .charge import ChernCharacter, central_charge, charge_preset
from .extension import (
    FiltrationGraph,
    QuotientSpec,
    TauSystem,
    assemble_tau_system,
    solve_tau_positive,
)
from .gaussian import GaussianRational
from .numring import NumericalRing, power_series_apply, preset_ring
from .stability import (
    Relation,
    SubobjectCandidate,
    comparison_polynomial,
    phase_compare,
    stability_verdict,
    wall_scan,
)
from .surface import (
    SurfaceChargeData,
    TorusGeometry,
    assemble_equation,
    ddc,
    large_volume_check,
    solve_critical_equation,
    z_residual,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    elapsed: float


def _p2_character(ring: NumericalRing, rank, c1, ch2) -> ChernCharacter:
    h = ring.gen("h")
    cls = ring.unit().scale(Fraction(rank)) + h.scale(Fraction(c1)) \
        + (h * h).scale(Fraction(ch2))
    return ChernCharacter(cls)


def _rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 9))


def _rand_charge(rng: random.Random, degree: int = 2) -> Tuple[GaussianRational, ...]:
    """Random charge coefficients, ascending in k, the leading one
    strictly above the real axis, as produced by any positive-rank
    object."""
    coeffs = [
        GaussianRational(_rand_fraction(rng), _rand_fraction(rng))
        for _ in range(degree)
    ]
    lead = GaussianRational(_rand_fraction(rng), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    coeffs.append(lead)
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# 1. graded square root, exact and fast
# ---------------------------------------------------------------------------

def _criterion_1(rng: random.Random) -> Tuple[bool, str]:
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    expected = ring.unit() + h.scale(Fraction(3, 4)) + (h * h).scale(Fraction(7, 32))
    result = power_series_apply("sqrt", ring.todd)   # warm-up outside the clock
    best = min(
        _timed(lambda: power_series_apply("sqrt", ring.todd))[1] for _ in range(5)
    )
    exact = result == expected and result * result == ring.todd
    passed = exact and best < 1e-3
    return passed, f"sqrt(todd) exact={exact} best={best * 1e6:.0f}us (limit 1000us)"


def _timed(fn: Callable):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 2. closed-form charge of the twisted rank-3 family on the projective plane
# ---------------------------------------------------------------------------

def _criterion_2(rng: random.Random) -> Tuple[bool, str]:
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    checked = 0
    for sigma in (Fraction(2), Fraction(5, 3), Fraction(-7, 3), Fraction(0)):
        for b in (Fraction(0), Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2)):
            ch = _p2_character(ring, 3, 0, -sigma)
            rho, U = charge_preset("dhym", ring, h.scale(b))
            z = central_charge(ring, ring.gen("h"), rho, U, ch)
            want = (
                GaussianRational(sigma - Fraction(3, 2) * b * b),
                GaussianRational(Fraction(0), -3 * b),
                GaussianRational(Fraction(3, 2)),
            )
            if z != want:
                return False, f"mismatch at sigma={sigma} b={b}: got {', '.join(map(str, z))}"
            checked += 1
    return True, f"{checked} (sigma, b) pairs match 3/2 k^2 - 3ibk + (sigma - 3b^2/2) exactly"


# ---------------------------------------------------------------------------
# 3. exact wall locations for the pinned subbundle pair
# ---------------------------------------------------------------------------

def _criterion_3(rng: random.Random) -> Tuple[bool, str]:
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    ch_e = _p2_character(ring, 3, 0, -2)
    cands = [SubobjectCandidate("F", _p2_character(ring, 2, 0, -2), "subbundle")]

    t0 = time.perf_counter()
    scan_d = wall_scan(ring, h, ch_e, cands, None, h, Fraction(-1), Fraction(1),
                       preset="dhym")
    scan_t = wall_scan(ring, h, ch_e, cands, None, h, Fraction(0), Fraction(2),
                       preset="todd")
    elapsed = time.perf_counter() - t0

    exact = all(
        len(scan.walls) == 1
        and scan.walls[0].exact == wall
        and scan.walls[0].report.status == "semistable"
        and [c.report.status for c in scan.cells] == ["stable", "unstable"]
        for scan, wall in ((scan_d, Fraction(0)), (scan_t, Fraction(3, 4))))
    passed = exact and elapsed < 1.0
    locs = f"dhym wall at {scan_d.walls[0].location_str()}, todd wall at {scan_t.walls[0].location_str()}"
    return passed, f"{locs}, both exact, {elapsed * 1e3:.0f}ms (limit 1000ms)"


# ---------------------------------------------------------------------------
# 4. dualising the pair flips the verdict on both sides of each wall
# ---------------------------------------------------------------------------

def _dual_character(ring: NumericalRing, ch: ChernCharacter) -> ChernCharacter:
    acc = ring.zero()
    for name in ring.basis_names():
        c = ch.cls.coefficient(name)
        if c == 0:
            continue
        j = ring.degree_of(name) // 2
        acc = acc + ring.gen(name).scale(c if j % 2 == 0 else -c)
    return ChernCharacter(acc)


def _criterion_4(rng: random.Random) -> Tuple[bool, str]:
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    ch_e = _p2_character(ring, 3, 0, -2)
    ch_f = _p2_character(ring, 2, 0, -2)
    ch_e_dual = _dual_character(ring, ch_e)
    ch_f_dual = _dual_character(ring, ch_f)
    flips = 0
    cases = [("dhym", Fraction(-1, 3)), ("dhym", Fraction(1, 3)),
             ("todd", Fraction(1, 2)), ("todd", Fraction(1))]
    for preset, b in cases:
        rho, U = charge_preset(preset, ring, h.scale(b))
        direct = stability_verdict(
            ring, h, rho, U, ch_e,
            [SubobjectCandidate("F", ch_f, "subbundle")])
        dual = stability_verdict(
            ring, h, rho, U, ch_e_dual,
            [SubobjectCandidate("F*", ch_f_dual, "quotient")])
        if {direct.status, dual.status} != {"stable", "unstable"}:
            return False, (f"no flip at {preset} b={b}: "
                           f"{direct.status} vs {dual.status}")
        flips += 1
    return True, f"{flips}/4 twist values flip stable <-> unstable under dualisation"


# ---------------------------------------------------------------------------
# 5. exact phase order vs floating argument comparison at k = 10^6
# ---------------------------------------------------------------------------

def _mp_eval(mp, z: Tuple[GaussianRational, ...], k):
    acc = mp.mpc(0)
    for d, c in enumerate(z):
        re = mp.mpf(c.re.numerator) / c.re.denominator
        im = mp.mpf(c.im.numerator) / c.im.denominator
        acc += mp.mpc(re, im) * k ** d
    return acc

def _criterion_5(rng: random.Random) -> Tuple[bool, str]:
    from mpmath import mp

    t0 = time.perf_counter()
    agree = 0
    total = 500
    for _ in range(total):
        z_e = _rand_charge(rng)
        if rng.random() < 0.1:
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            z_f = tuple(c.scale(lam) for c in z_e)
        else:
            z_f = _rand_charge(rng)
        verdict = phase_compare(z_f, z_e)

        sign = None
        for dps in (80, 200):
            mp.dps = dps
            k = mp.mpf(10) ** 6
            d = mp.arg(_mp_eval(mp, z_f, k)) - mp.arg(_mp_eval(mp, z_e, k))
            if abs(d) > mp.mpf(10) ** (-(dps - 25)):
                sign = 1 if d > 0 else -1
                break
            sign = 0
        expected = {Relation.GREATER: 1, Relation.LESS: -1, Relation.EQUAL: 0}
        if expected[verdict.relation] == sign:
            agree += 1
    elapsed = time.perf_counter() - t0
    passed = agree == total and elapsed < 5.0
    return passed, f"{agree}/{total} verdicts match mpmath arg at k=10^6, {elapsed:.2f}s (limit 5s)"


# ---------------------------------------------------------------------------
# 6. additivity and the see-saw rule on random short exact sequences
# ---------------------------------------------------------------------------

def _criterion_6(rng: random.Random) -> Tuple[bool, str]:
    opposite = {Relation.GREATER: Relation.LESS,
                Relation.LESS: Relation.GREATER,
                Relation.EQUAL: Relation.EQUAL}
    for trial in range(200):
        z_f = _rand_charge(rng)
        z_q = _rand_charge(rng)
        z_e = tuple(f + q for f, q in zip(z_f, z_q))
        p_f = comparison_polynomial(z_f, z_e)
        p_q = comparison_polynomial(z_q, z_e)
        if any(a + b != 0 for a, b in zip(p_f, p_q)):
            return False, f"trial {trial}: P(F,E) + P(Q,E) != 0"
        v_f = phase_compare(z_f, z_e)
        v_q = phase_compare(z_q, z_e)
        if v_q.relation is not opposite[v_f.relation] or v_f.order != v_q.order:
            return False, f"trial {trial}: see-saw verdict mismatch"
    return True, "200 random sequences: P(F,E) = -P(Q,E) exactly, verdicts mirror"


# ---------------------------------------------------------------------------
# 7. weight-system LP against closed-form oracles
# ---------------------------------------------------------------------------

def _criterion_7(rng: random.Random) -> Tuple[bool, str]:
    t0 = time.perf_counter()
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    rho, U = charge_preset("dhym", ring, h.scale(Fraction(1, 3)))

    # two-step filtrations: a strictly positive weight exists exactly when
    # the subobject has strictly greater phase
    two_step = 0
    for _ in range(30):
        ch_f = _p2_character(ring, rng.randint(1, 3), rng.randint(-2, 2),
                             _rand_fraction(rng, -4, 4))
        ch_q = _p2_character(ring, rng.randint(1, 3), rng.randint(-2, 2),
                             _rand_fraction(rng, -4, 4))
        ch_e = ch_f + ch_q
        graph = FiltrationGraph(
            (QuotientSpec("Q", ch_q), QuotientSpec("F", ch_f)), ((0, 1),))
        sol = solve_tau_positive(assemble_tau_system(ring, h, rho, U, ch_e, graph))
        z_f = central_charge(ring, h, rho, U, ch_f)
        z_e = central_charge(ring, h, rho, U, ch_e)
        destab = phase_compare(z_f, z_e).relation is Relation.GREATER
        if sol.feasible != destab:
            return False, "two-step feasibility disagrees with phase verdict"
        two_step += 1

    # chains: the balance equations have the unique solution
    # tau_l = -(b_0 + ... + b_l), so feasibility and margin follow from
    # prefix sums alone
    unit = ChernCharacter(ring.unit())
    chains = 0
    for _ in range(100):
        m = rng.randint(2, 8)
        b = [_rand_fraction(rng, -6, 6) for _ in range(m - 1)]
        b.append(-sum(b, Fraction(0)))
        specs = tuple(QuotientSpec(f"q{i}", unit) for i in range(m))
        edges = tuple((i, i + 1) for i in range(m - 1))
        A = [[Fraction(0)] * len(edges) for _ in range(m)]
        for l, (u, v) in enumerate(edges):
            A[u][l] += 1
            A[v][l] -= 1
        system = TauSystem(FiltrationGraph(specs, edges), 3, tuple(b),
                           tuple(tuple(r) for r in A))
        sol = solve_tau_positive(system)
        prefix = [sum(b[: i + 1], Fraction(0)) for i in range(m - 1)]
        tau_oracle = [-s for s in prefix]
        feas_oracle = all(t > 0 for t in tau_oracle)
        margin_oracle = min(tau_oracle)
        if sol.feasible != feas_oracle or sol.margin != margin_oracle:
            return False, f"chain m={m}: LP ({sol.feasible}, {sol.margin}) vs oracle ({feas_oracle}, {margin_oracle})"
        if feas_oracle and list(sol.tau) != tau_oracle:
            return False, f"chain m={m}: weight vector differs from prefix sums"
        chains += 1

    elapsed = time.perf_counter() - t0
    passed = elapsed < 10.0
    return passed, (f"{two_step} two-step + {chains} chain instances match oracles, "
                    f"{elapsed:.2f}s (limit 10s)")


# ---------------------------------------------------------------------------
# 8. grid mean of the critical residual vanishes on the whole twist class
# ---------------------------------------------------------------------------

def _band_limited(geom: TorusGeometry, rng: random.Random, scale: float) -> np.ndarray:
    u = np.zeros(geom.shape)
    for _ in range(10):
        mode = [rng.randint(-3, 3) for _ in range(4)]
        if all(m == 0 for m in mode):
            continue
        u = u + geom.mode_field(mode, rng.uniform(-scale, scale),
                                rng.choice(["cos", "sin"]))
    return u


def _criterion_8(rng: random.Random) -> Tuple[bool, str]:
    geom = TorusGeometry(16)
    data = SurfaceChargeData.dhym(geom, (1.0, 0.0, 1.0), (2.0, 0.0, 3.0))
    data = data.perturb_u1(_band_limited(geom, rng, 0.05))
    base = data.alpha_harmonic()
    worst = 0.0
    for _ in range(20):
        alpha = base + ddc(geom, _band_limited(geom, rng, 0.1))
        worst = max(worst, abs(z_residual(data, alpha).grid_mean))
    passed = worst <= 1e-10
    return passed, f"20 random in-class forms: max |grid mean| = {worst:.2e} (limit 1e-10)"


# ---------------------------------------------------------------------------
# 9. torus solver: exactness, quadratic tail, obstruction exit code
# ---------------------------------------------------------------------------

def _criterion_9(rng: random.Random) -> Tuple[bool, str]:
    from . import cli

    t0 = time.perf_counter()
    geom = TorusGeometry(16)
    x = geom.coordinates()

    flat = SurfaceChargeData.dhym(geom, (1.0, 0.0, 1.0), (2.0, 0.0, 3.0))
    sol_flat = solve_critical_equation(flat)
    ok_flat = sol_flat.residual_sup < 1e-12 and float(np.max(np.abs(sol_flat.u))) < 1e-12

    v = 0.1 * np.cos(2 * np.pi * x[0])
    sol_p = solve_critical_equation(flat.perturb_u1(v))
    ok_perturbed = (sol_p.residual_sup < 1e-8
                    and float(np.max(np.abs(sol_p.u - (-v)))) < 1e-10)

    two = flat.perturb_u1(0.1 * np.cos(2 * np.pi * x[0]) + 0.08 * np.cos(2 * np.pi * x[2]))
    sol_two = solve_critical_equation(two, tol=1e-11)
    path = sol_two.residual_path
    ratios = [path[i + 1] / path[i] ** 2
              for i in range(len(path) - 1)
              if path[i] < 1.0 and path[i + 1] > 1e-10]
    tail = ratios[-1] if ratios else float("inf")
    ok_tail = sol_two.residual_sup < 1e-8 and tail < 10.0

    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "bad.json")
        with open(cfg, "w") as fh:
            json.dump({"surface": {
                "N": 16,
                "preset": "dhym",
                "metric": {"a11": 1, "a12": 0, "a22": 1},
                "alpha0": {"a11": -5, "a12": 0, "a22": -5},
            }}, fh)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(["solve-surface", "--config", cfg])
    ok_exit = code == 66

    elapsed = time.perf_counter() - t0
    passed = ok_flat and ok_perturbed and ok_tail and ok_exit and elapsed < 60.0
    return passed, (
        f"flat res={sol_flat.residual_sup:.1e}, perturbed res={sol_p.residual_sup:.1e} "
        f"(limits 1e-12 / 1e-8), tail ratio {tail:.3f} (limit 10), "
        f"negative class exit={code} (want 66), {elapsed:.1f}s (limit 60s)")


# ---------------------------------------------------------------------------
# 10. large-volume asymptotics and the volume-form density identity
# ---------------------------------------------------------------------------

def _criterion_10(rng: random.Random) -> Tuple[bool, str]:
    geom = TorusGeometry(16)
    x = geom.coordinates()
    data = SurfaceChargeData.dhym(geom, (1.0, 0.0, 1.0), (2.0, 0.0, 3.0))
    data = data.perturb_u1(0.1 * np.cos(2 * np.pi * x[0]))

    rows = large_volume_check(data, k_values=(10.0, 100.0))
    worst_rel = max(row.relative_error for row in rows)
    ok_rows = worst_rel < 1e-8

    assembly = assemble_equation(data)
    g11, g12, g22 = data.metric
    det_g = g11 * g22 - abs(g12) ** 2
    cot = np.cos(assembly.phi) / np.sin(assembly.phi)
    # omega^2 / dV = 8 det(g) on the unit-period torus
    target = (1.0 + cot ** 2) * 8.0 * det_g
    gap = float(np.max(np.abs(assembly.f - target)))
    ok_density = gap <= 1e-10

    passed = ok_rows and ok_density
    return passed, (f"k in (10, 100): max rel err {worst_rel:.1e} (limit 1e-8); "
                    f"density gap {gap:.1e} (limit 1e-10)")


CRITERIA: List[Tuple[int, str, Callable[[random.Random], Tuple[bool, str]]]] = [
    (1, "graded square root", _criterion_1),
    (2, "closed-form charge", _criterion_2),
    (3, "exact wall locations", _criterion_3),
    (4, "dual verdict flip", _criterion_4),
    (5, "phase order vs float arg", _criterion_5),
    (6, "see-saw on sequences", _criterion_6),
    (7, "weight LP vs oracles", _criterion_7),
    (8, "in-class grid means", _criterion_8),
    (9, "torus solver", _criterion_9),
    (10, "large-volume asymptotics", _criterion_10),
]


def run_selftest(seed: int = 0, only: Optional[int] = None,
                 stream=None) -> List[CriterionResult]:
    """Run the acceptance criteria, print one line each, return results."""
    out = stream if stream is not None else sys.stdout
    results: List[CriterionResult] = []
    for number, title, fn in CRITERIA:
        if only is not None and number != only:
            continue
        rng = random.Random(seed * 1000 + number)
        t0 = time.perf_counter()
        try:
            passed, detail = fn(rng)
        except Exception as exc:            # a crash is a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        results.append(CriterionResult(number, title, passed, detail, elapsed))
        tag = "PASS" if passed else "FAIL"
        print(f"{tag} {number:>2} {title:<28} {detail}", file=out)
    return results
