"""Asymptotic comparison of polynomial central charges.

For charges Z_F, Z_E with positive rank the large-k phase difference is
resolved exactly by the real polynomial

    P(k) = Im(Z_F(k) * conj(Z_E(k))),

whose sign for k >> 0 is the sign of its leading coefficient. The
verdict Less / Equal / Greater refers to the phase of F against the
phase of E; a subbundle must compare Less and a quotient Greater for
the ambient object to be stable. The discrepancy order q records how
fast the phase gap closes: deg P = 2n - q, and the top coefficient
p_{2n} always cancels, so q >= 1. phase_compare evaluates the
coefficients of P top down, each on its own, and stops at the first
nonzero one; the verdict never needs the rest.

Wall scanning works along an affine pencil B(t) = B0 + t*B1 of real
twist classes. charge_map gives each charge as a table in (k, t), so
every coefficient p_m of P becomes a polynomial in t, built once in
integer arithmetic as the primitive integer polynomial that is a
positive multiple of p_m(t), with its signs and roots. Wall locations
are those roots, algebraic numbers that we isolate exactly; each open
cell between walls gets its verdict from one exact rational sample,
and the verdict at a wall point is decided by exact sign evaluation at
the isolated root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import realroots
from .charge import ChernCharacter, StabilityVector, UnipotentOperator, charge_map, charge_preset
from .gaussian import GaussianRational
from .numring import GradedClass, NumericalRing
# unused here; kept because the benchmark's traced run wraps them on this module
from .charge import central_charge  # noqa: F401
from .numring import integrate, power_series_apply, product  # noqa: F401


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
    leading coefficient of P when it is known exactly; a wall scan
    decides from signs alone and leaves it None.
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


def _assert_comparable(z: Sequence[GaussianRational], label: str) -> None:
    lead = next((c for c in reversed(z) if not c.is_zero()), None)
    if lead is None:
        raise StabilityError(f"{label} is identically zero; phase undefined")
    if lead.im < 0 or (lead.im == 0 and lead.re < 0):
        raise StabilityError(
            f"{label} has leading coefficient {lead} outside the closed upper "
            "half plane; normalise the stability vector first"
        )


def _coefficient(
    z_f: Sequence[GaussianRational], z_e: Sequence[GaussianRational], m: int
) -> Fraction:
    """p_m, the k^m coefficient of P = Im(Z_F conj(Z_E)), for charges
    given by their coefficients ascending in k."""
    total = Fraction(0)
    for d in range(max(0, m - len(z_e) + 1), min(m, len(z_f) - 1) + 1):
        f, e = z_f[d], z_e[m - d]
        total += f.im * e.re - f.re * e.im
    return total


def comparison_polynomial(
    z_f: Sequence[GaussianRational], z_e: Sequence[GaussianRational]
) -> List[Fraction]:
    """Coefficients of P(k) = Im(Z_F(k) conj(Z_E(k))), ascending in k,
    for charges given by their coefficients ascending in k."""
    return [_coefficient(z_f, z_e, m) for m in range(len(z_f) + len(z_e) - 1)]


def _comparison_family(
    fam_f: Sequence[Sequence[GaussianRational]],
    fam_e: Sequence[Sequence[GaussianRational]],
) -> List[List[int]]:
    """P = Im(Z_F conj(Z_E)) for charge tables in (k, t), as charge_map
    gives them: out[m] is the primitive integer polynomial in t that is
    a positive multiple of p_m(t), the k^m coefficient. Each table is
    scaled once by the lcm of its denominators, so every product is an
    integer one."""

    def scaled(fam):
        den = math.lcm(*(x.denominator for row in fam for z in row for x in (z.re, z.im)))
        return [[(int(z.re * den), int(z.im * den)) for z in row] for row in fam]

    ints_f, ints_e = scaled(fam_f), scaled(fam_e)
    width = len(fam_f[0]) + len(fam_e[0]) - 1
    out = [[0] * width for _ in range(len(fam_f) + len(fam_e) - 1)]
    for d, row_f in enumerate(ints_f):
        for e, row_e in enumerate(ints_e):
            target = out[d + e]
            for a, (f_re, f_im) in enumerate(row_f):
                if f_re or f_im:
                    for b, (e_re, e_im) in enumerate(row_e):
                        target[a + b] += f_im * e_re - f_re * e_im
    return [realroots.primitive(p) for p in out]


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
    """_verdict_from_values where only signs are known, as in a wall
    scan: the leading coefficient is left unset."""
    verdict = _verdict_from_values(sign_of, top, n)
    return PhaseVerdict(verdict.relation, verdict.order, None)


def phase_compare(
    z_f: Sequence[GaussianRational], z_e: Sequence[GaussianRational]
) -> PhaseVerdict:
    """Exact asymptotic phase comparison of Z_F against Z_E; p_m is
    formed only once every higher coefficient has vanished."""
    _assert_comparable(z_e, "Z_E")
    _assert_comparable(z_f, "Z_F")
    n = max(len(z_f), len(z_e)) - 1
    return _verdict_from_values(
        lambda m: _coefficient(z_f, z_e, m), len(z_f) + len(z_e) - 2, n)


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
    charge = charge_map(ring, omega, rho, [U.cls])
    z_e = [row[0] for row in charge(ch_e)]
    entries = []
    for cand in candidates:
        z_f = [row[0] for row in charge(cand.ch)]
        entries.append(CandidateVerdict(cand.name, cand.kind, phase_compare(z_f, z_e)))
    return _aggregate(entries)


# ---------------------------------------------------------------------------
# wall scan along an affine pencil of twist classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WallCell:
    """Open interval of constant verdict, sampled at an exact point."""

    t_left: Fraction
    t_right: Fraction
    sample: Fraction
    report: StabilityReport


@dataclass(frozen=True)
class Wall:
    """A root in the scan range of some candidate's comparison coefficient;
    every verdict change lies on one, but most walls change no verdict."""

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

    # U(B0 + t B1) = U(B0) exp(-t B1), expanded to order n in t
    rho, u_base = charge_preset(preset, ring, b_base)
    u_coeffs = [u_base.cls]
    step = -b_dir
    for j in range(1, n + 1):
        u_coeffs.append((u_coeffs[-1] * step).scale(Fraction(1, j)))
    charge = charge_map(ring, omega, rho, u_coeffs)
    fam_e = charge(ch_e)
    per_candidate: List[Tuple[SubobjectCandidate, List[List[int]]]] = []
    points: List[realroots.RootPoint] = []
    for cand in candidates:
        pm = _comparison_family(charge(cand.ch), fam_e)
        per_candidate.append((cand, pm))
        for poly in pm:
            if poly:
                points.extend(realroots.roots_in_range(poly, t_min, t_max))
    points = realroots.dedup_roots(points)

    # keep printable cell bounds strictly away from range endpoints; an
    # algebraic root inside the closed range is strictly interior, so
    # refinement eventually clears both endpoints
    for p in points:
        if p.exact is None:
            while p.lo <= t_min or p.hi >= t_max:
                p.refine()

    def report_at(point: realroots.RootPoint) -> StabilityReport:
        entries = []
        for cand, pm in per_candidate:

            def sign_of(m: int, pm=pm) -> int:
                return realroots.sign_at(pm[m], point)

            verdict = _verdict_from_signs(sign_of, len(pm) - 1, n)
            entries.append(CandidateVerdict(cand.name, cand.kind, verdict))
        return _aggregate(entries)

    # one open cell before, between and after the interior points
    interior = [p for p in points if p.exact not in (t_min, t_max)]
    bounds = [t_min] + [x for p in interior for x in (p.lo, p.hi)] + [t_max]
    cells: List[WallCell] = []
    for left, right in zip(bounds[::2], bounds[1::2]):
        sample = (left + right) / 2
        report = report_at(realroots.RootPoint.rational(sample))
        cells.append(WallCell(left, right, sample, report))

    # statuses[k + 1] is cell k's; points are sorted, so the q-th point
    # not at t_min (from 1) lies between cells q - 1 and q, a point at
    # t_min has q = 0, and a range endpoint has no cell beyond it
    statuses = [None] + [cell.report.status for cell in cells] + [None]
    first = 0 if points and points[0].exact == t_min else 1
    walls: List[Wall] = []
    for q, p in enumerate(points, start=first):
        rep = report_at(p)  # may refine p, so read lo and hi afterwards
        walls.append(Wall(p.exact, p.lo, p.hi, rep, statuses[q], statuses[q + 1]))

    return WallScanReport(t_min, t_max, tuple(cells), tuple(walls))
