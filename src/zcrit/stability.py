"""Asymptotic comparison of polynomial central charges.

For charges Z_F, Z_E with positive rank the large-k phase difference is
resolved exactly by the real polynomial

    P(k) = Im(Z_F(k) * conj(Z_E(k))),

whose sign for k >> 0 is the sign of its leading coefficient. The
verdict Less / Equal / Greater refers to the phase of F against the
phase of E; a subbundle must compare Less and a quotient Greater for
the ambient object to be stable. The discrepancy order q records how
fast the phase gap closes: deg P = 2n - q, and the top coefficient
p_{2n} always cancels, so q >= 1.

Wall scanning works along an affine pencil B(t) = B0 + t*B1 of real
twist classes. Every coefficient of P becomes a polynomial in t with
rational coefficients, so wall locations are algebraic numbers that we
isolate exactly; each open cell between walls gets its verdict from one
exact rational sample, and the verdict at a wall point is decided by
exact sign evaluation at the isolated root.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import realroots
from .charge import (
    CentralChargePolynomial,
    ChargeError,
    ChernCharacter,
    StabilityVector,
    UnipotentOperator,
    central_charge,
    deg_U,
    dhym_stability_vector,
    require_valid_stability_vector,
)
from .gaussian import GaussianRational
from .numring import GradedClass, NumericalRing, integrate, power_series_apply, product


class StabilityError(ValueError):
    pass


class Relation(Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


@dataclass(frozen=True)
class PhaseVerdict:
    """Outcome of one asymptotic phase comparison.

    order is the discrepancy exponent q (phase gap ~ k^{-q}), None when
    the comparison polynomial vanishes identically. leading is the
    leading coefficient of P when it is known exactly; at an algebraic
    wall point only its sign is available, so leading may be None.
    """

    relation: Relation
    order: Optional[int]
    leading: Optional[Fraction]

    def is_equal(self) -> bool:
        return self.relation is Relation.EQUAL


VALID_KINDS = ("subbundle", "quotient")


@dataclass(frozen=True)
class SubobjectCandidate:
    """A destabilising test object: a subbundle or a quotient of E."""

    name: str
    ch: ChernCharacter
    kind: str = "subbundle"

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise StabilityError(
                f"candidate kind must be one of {VALID_KINDS}, got {self.kind!r}"
            )


def _assert_comparable(z: CentralChargePolynomial, label: str) -> None:
    lead = z.leading()
    if lead.is_zero():
        raise StabilityError(f"{label} is identically zero; phase undefined")
    if lead.im < 0 or (lead.im == 0 and lead.re < 0):
        raise StabilityError(
            f"{label} has leading coefficient {lead} outside the closed upper "
            "half plane; normalise the stability vector first"
        )


def comparison_polynomial(
    z_f: CentralChargePolynomial, z_e: CentralChargePolynomial
) -> List[Fraction]:
    """Coefficients of P(k) = Im(Z_F(k) conj(Z_E(k))), ascending in k."""
    nf, ne = len(z_f), len(z_e)
    out = [Fraction(0)] * (nf + ne - 1)
    for d in range(nf):
        f = z_f[d]
        if f.is_zero():
            continue
        for e in range(ne):
            g = z_e[e]
            if g.is_zero():
                continue
            out[d + e] += f.im * g.re - f.re * g.im
    return out


def _verdict_from_values(
    value_of: Callable[[int], Fraction], top: int, n: int
) -> PhaseVerdict:
    """Verdict from p_top, p_{top-1}, ..., p_0, asked for one at a time:
    the first nonzero coefficient decides, so the rest are never
    computed."""
    for m in range(top, -1, -1):
        v = value_of(m)
        if v != 0:
            rel = Relation.GREATER if v > 0 else Relation.LESS
            return PhaseVerdict(rel, 2 * n - m, v)
    return PhaseVerdict(Relation.EQUAL, None, None)


def _verdict_from_signs(sign_of: Callable[[int], int], top: int, n: int) -> PhaseVerdict:
    """_verdict_from_values where only signs are known, at an irrational
    point: the leading coefficient is left unset."""
    verdict = _verdict_from_values(sign_of, top, n)
    return PhaseVerdict(verdict.relation, verdict.order, None)


def phase_compare(
    z_f: CentralChargePolynomial, z_e: CentralChargePolynomial
) -> PhaseVerdict:
    """Exact asymptotic phase comparison of Z_F against Z_E."""
    _assert_comparable(z_e, "Z_E")
    _assert_comparable(z_f, "Z_F")
    n = max(len(z_f), len(z_e)) - 1
    p = comparison_polynomial(z_f, z_e)
    return _verdict_from_values(p.__getitem__, len(p) - 1, n)


def quotient_charge(
    z_total: CentralChargePolynomial, z_sub: CentralChargePolynomial
) -> CentralChargePolynomial:
    """Charge of E/F from additivity on short exact sequences."""
    return z_total - z_sub


def slope_semistability_leading(
    ring: NumericalRing,
    omega: GradedClass,
    U: UnipotentOperator,
    ch_e: ChernCharacter,
    ch_f: ChernCharacter,
) -> Fraction:
    """Twisted slope bracket deg_U(F) rk(E) - deg_U(E) rk(F).

    Its sign matches the k^{2n-1} coefficient of the comparison
    polynomial for any admissible stability vector, which is checked
    here against the degree-shift vector as a guard.
    """
    bracket = deg_U(ring, omega, U, ch_f) * ch_e.rank - deg_U(
        ring, omega, U, ch_e
    ) * ch_f.rank
    rho = dhym_stability_vector(ring.complex_dimension)
    z_e = central_charge(ring, omega, rho, U, ch_e)
    z_f = central_charge(ring, omega, rho, U, ch_f)
    p = comparison_polynomial(z_f, z_e)
    n = ring.complex_dimension
    top = p[2 * n]
    sub = p[2 * n - 1]
    if top != 0:
        raise StabilityError("k^{2n} coefficient of the comparison must cancel")
    if (sub > 0) != (bracket > 0) or (sub < 0) != (bracket < 0):
        raise StabilityError(
            "slope bracket and subleading comparison coefficient disagree"
        )
    return bracket


@dataclass(frozen=True)
class CandidateVerdict:
    name: str
    kind: str
    verdict: PhaseVerdict

    @property
    def violates(self) -> bool:
        if self.kind == "subbundle":
            return self.verdict.relation is Relation.GREATER
        return self.verdict.relation is Relation.LESS


@dataclass(frozen=True)
class StabilityReport:
    status: str                      # "stable" | "semistable" | "unstable"
    witness: Optional[str]           # deciding candidate name
    order: Optional[int]             # its discrepancy exponent
    details: Tuple[CandidateVerdict, ...]


def _aggregate(entries: Sequence[CandidateVerdict]) -> StabilityReport:
    for ent in entries:
        if ent.violates:
            return StabilityReport("unstable", ent.name, ent.verdict.order, tuple(entries))
    equals = [ent for ent in entries if ent.verdict.is_equal()]
    if equals:
        return StabilityReport("semistable", equals[0].name, None, tuple(entries))
    witness = None
    order = None
    for ent in entries:
        q = ent.verdict.order
        if order is None or (q is not None and q > order):
            witness, order = ent.name, q
    return StabilityReport("stable", witness, order, tuple(entries))


def _check_candidate_ranks(ch_e: ChernCharacter, candidates: Sequence[SubobjectCandidate]) -> None:
    if ch_e.rank < 1:
        raise StabilityError("ambient object must have positive rank")
    for cand in candidates:
        if not (1 <= cand.ch.rank < ch_e.rank):
            raise StabilityError(
                f"candidate {cand.name!r} must have rank between 1 and "
                f"{ch_e.rank - 1}, got {cand.ch.rank}"
            )


def stability_verdict(
    ring: NumericalRing,
    omega: GradedClass,
    rho: StabilityVector,
    U: UnipotentOperator,
    ch_e: ChernCharacter,
    candidates: Sequence[SubobjectCandidate],
) -> StabilityReport:
    """Asymptotic stability of E against a finite list of candidates.

    Subbundles must compare Less and quotients Greater; any violation
    makes E unstable with the first violating candidate as witness, an
    exact phase tie without violation gives semistable.
    """
    _check_candidate_ranks(ch_e, candidates)
    z_e = central_charge(ring, omega, rho, U, ch_e)
    entries = []
    for cand in candidates:
        z_f = central_charge(ring, omega, rho, U, cand.ch)
        entries.append(CandidateVerdict(cand.name, cand.kind, phase_compare(z_f, z_e)))
    return _aggregate(entries)


# ---------------------------------------------------------------------------
# wall scan along an affine pencil of twist classes
# ---------------------------------------------------------------------------


def _unipotent_family(
    ring: NumericalRing, b_base: GradedClass, b_dir: GradedClass, preset: str
) -> List[GradedClass]:
    """Coefficients in t of U(t) = exp(-B0 - t B1) (times sqrt(Todd))."""
    n = ring.complex_dimension
    head = power_series_apply("exp", -b_base)
    if preset == "todd":
        if ring.todd is None:
            raise ChargeError(f"ring {ring.name} carries no Todd class")
        head = product(head, power_series_apply("sqrt", ring.todd))
    elif preset != "dhym":
        raise ChargeError(f"unknown charge preset {preset!r}")
    coeffs: List[GradedClass] = []
    power = ring.unit()
    fact = 1
    for j in range(n + 1):
        if j > 0:
            power = product(power, -b_dir)
            fact *= j
        coeffs.append(product(head, power).scale(Fraction(1, fact)))
    return coeffs


def _charge_family(
    ring: NumericalRing,
    omega_powers: Sequence[GradedClass],
    rho: StabilityVector,
    u_family: Sequence[GradedClass],
    ch: ChernCharacter,
) -> List[List[GaussianRational]]:
    """coeffs[d][j]: the k^d t^j coefficient of the charge of ch."""
    n = ring.complex_dimension
    fam: List[List[GaussianRational]] = []
    for d in range(n + 1):
        row = []
        for j in range(len(u_family)):
            val = integrate(product(omega_powers[d], product(ch.cls, u_family[j])))
            row.append(rho[d].scale(val))
        fam.append(row)
    return fam


def _comparison_family(
    fam_f: Sequence[Sequence[GaussianRational]],
    fam_e: Sequence[Sequence[GaussianRational]],
    n: int,
) -> List[List[Fraction]]:
    """p_m as polynomials in t: out[m][j] is the t^j coefficient."""
    width = 2 * len(fam_e[0]) - 1
    out = [[Fraction(0)] * width for _ in range(2 * n + 1)]
    for d in range(n + 1):
        for e in range(n + 1):
            target = out[d + e]
            for a, f in enumerate(fam_f[d]):
                if f.is_zero():
                    continue
                for b, g in enumerate(fam_e[e]):
                    target[a + b] += f.im * g.re - f.re * g.im
    return out


@dataclass(frozen=True)
class WallCell:
    """Open interval of constant verdict, sampled at an exact point."""

    t_left: Fraction
    t_right: Fraction
    sample: Fraction
    report: StabilityReport


@dataclass(frozen=True)
class Wall:
    """Boundary point where some comparison coefficient vanishes."""

    exact: Optional[Fraction]
    lo: Fraction
    hi: Fraction
    report: StabilityReport
    status_left: Optional[str]
    status_right: Optional[str]

    def location_str(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class WallScanReport:
    t_min: Fraction
    t_max: Fraction
    cells: Tuple[WallCell, ...]
    walls: Tuple[Wall, ...]


def wall_scan(
    ring: NumericalRing,
    omega: GradedClass,
    ch_e: ChernCharacter,
    candidates: Sequence[SubobjectCandidate],
    b_base: Optional[GradedClass],
    b_dir: GradedClass,
    t_min: Fraction,
    t_max: Fraction,
    preset: str = "dhym",
) -> WallScanReport:
    """Exact verdict decomposition of [t_min, t_max] for B(t) = B0 + t B1."""
    n = ring.complex_dimension
    t_min, t_max = Fraction(t_min), Fraction(t_max)
    if not t_min < t_max:
        raise StabilityError("scan range must satisfy t_min < t_max")
    if b_base is None:
        b_base = ring.zero()
    for cls, label in ((b_base, "base twist"), (b_dir, "twist direction")):
        if not cls.is_zero() and cls.degrees() not in ([], [2]):
            raise StabilityError(f"{label} must be purely of degree 2")
    if b_dir.is_zero():
        raise StabilityError("twist direction must be nonzero")
    _check_candidate_ranks(ch_e, candidates)
    rho = dhym_stability_vector(n)
    require_valid_stability_vector(rho)

    omega_powers = [ring.unit()]
    for _ in range(n):
        omega_powers.append(product(omega_powers[-1], omega))
    vol = integrate(omega_powers[n])
    if vol <= 0:
        raise StabilityError("polarisation must have positive volume")

    u_family = _unipotent_family(ring, b_base, b_dir, preset)
    fam_e = _charge_family(ring, omega_powers, rho, u_family, ch_e)
    per_candidate: List[Tuple[SubobjectCandidate, List[List[Fraction]]]] = []
    points: List[realroots.RootPoint] = []
    for cand in candidates:
        fam_f = _charge_family(ring, omega_powers, rho, u_family, cand.ch)
        pm = _comparison_family(fam_f, fam_e, n)
        per_candidate.append((cand, pm))
        for poly in pm:
            if not realroots.poly_is_zero(poly):
                points.extend(realroots.roots_in_range(poly, t_min, t_max))
    points = realroots.dedup_roots(points)

    # keep printable cell bounds strictly away from range endpoints; an
    # algebraic root inside the closed range is strictly interior, so
    # refinement eventually clears both endpoints
    for p in points:
        if p.exact is None:
            while p.lo <= t_min or p.hi >= t_max:
                p.refine()

    def report_at_value(t: Fraction) -> StabilityReport:
        entries = []
        for cand, pm in per_candidate:

            def value_of(m: int, pm=pm) -> Fraction:
                return realroots.poly_eval(pm[m], t)

            verdict = _verdict_from_values(value_of, len(pm) - 1, n)
            entries.append(CandidateVerdict(cand.name, cand.kind, verdict))
        return _aggregate(entries)

    def report_at_point(point: realroots.RootPoint) -> StabilityReport:
        if point.exact is not None:
            return report_at_value(point.exact)
        entries = []
        for cand, pm in per_candidate:

            def sign_of(m: int, pm=pm) -> int:
                poly = pm[m]
                return 0 if realroots.poly_is_zero(poly) else realroots.sign_at(poly, point)

            verdict = _verdict_from_signs(sign_of, len(pm) - 1, n)
            entries.append(CandidateVerdict(cand.name, cand.kind, verdict))
        return _aggregate(entries)

    # assemble bounds: (printable_left, printable_right) per open cell
    bounds: List[Fraction] = [t_min]
    interior: List[realroots.RootPoint] = []
    at_min = at_max = None
    for p in points:
        if p.exact == t_min:
            at_min = p
        elif p.exact == t_max:
            at_max = p
        else:
            interior.append(p)
            bounds.extend([p.lo, p.hi])
    bounds.append(t_max)

    cells: List[WallCell] = []
    for i in range(0, len(bounds) - 1, 2):
        left, right = bounds[i], bounds[i + 1]
        sample = (left + right) / 2
        cells.append(WallCell(left, right, sample, report_at_value(sample)))

    walls: List[Wall] = []
    ordered = ([at_min] if at_min else []) + interior + ([at_max] if at_max else [])
    for p in ordered:
        rep = report_at_point(p)
        left = right = None
        for cell in cells:
            if cell.t_right <= p.lo:
                left = cell.report.status
            if right is None and cell.t_left >= p.hi:
                right = cell.report.status
        walls.append(Wall(p.exact, p.lo, p.hi, rep, left, right))

    return WallScanReport(t_min, t_max, tuple(cells), tuple(walls))
