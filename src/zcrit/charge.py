"""Polynomial central charges over a numerical ring.

A charge assignment is a triple (omega, rho, U): a polarisation class,
a stability vector of complex rational weights, and a real unipotent
operator class. For a Chern character ch the central charge is the
degree-n polynomial

    Z(k) = sum_d rho_d * integrate(omega^d * ch * U) * k^d,

computed exactly over Gaussian rationals. Along a twist pencil
U(t) = sum_j u_j t^j the same coefficients become polynomials in t:
charge_family returns that table in (k, t), and central_charge is its
t = 0 column. k and t stay formal here; no numeric evaluation happens
in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .gaussian import GaussianRational
from .numring import GradedClass, NumericalRing, integrate, power_series_apply


class ChargeError(ValueError):
    pass


# -- stability vectors -------------------------------------------------------

@dataclass(frozen=True)
class StabilityVector:
    """Weights rho_0..rho_n of a polynomial central charge."""

    rho: Tuple[GaussianRational, ...]

    def __post_init__(self):
        if len(self.rho) < 2:
            raise ChargeError("stability vector needs entries rho_0..rho_n with n >= 1")

    @property
    def n(self) -> int:
        return len(self.rho) - 1

    def __getitem__(self, d: int) -> GaussianRational:
        return self.rho[d]

    def scale(self, r) -> "StabilityVector":
        return StabilityVector(tuple(x.scale(r) for x in self.rho))


@dataclass(frozen=True)
class StabilityVectorReport:
    ok: bool
    first_violation: Optional[int] = None
    reason: str = ""


def validate_stability_vector(vec: StabilityVector) -> StabilityVectorReport:
    """Exact validity check with the first violated index.

    Conditions: every rho_d nonzero; the leading weight satisfies
    Im(rho_n) > 0, or sits on the boundary with Im(rho_n) = 0,
    Re(rho_n) > 0 and Im(rho_{n-1}/rho_n) > 0 (so the subleading term
    still pushes charges of positive-rank objects into the upper
    half-plane); and Im(rho_d / rho_{d+1}) > 0 for 0 <= d <= n-1.
    """
    n = vec.n
    for d, x in enumerate(vec.rho):
        if x.is_zero():
            return StabilityVectorReport(False, d, f"rho_{d} = 0")
    top = vec[n]
    if top.im <= 0:
        boundary_ok = (
            top.im == 0 and top.re > 0 and (vec[n - 1] / top).im > 0
        )
        if not boundary_ok:
            return StabilityVectorReport(
                False, n,
                f"Im rho_n = {top.im} fails the upper half-plane normalisation")
    for d in range(n):
        ratio = vec[d] / vec[d + 1]
        if ratio.im <= 0:
            return StabilityVectorReport(
                False, d, f"Im(rho_{d}/rho_{d+1}) = {ratio.im} is not positive")
    return StabilityVectorReport(True)


def require_valid_stability_vector(vec: StabilityVector) -> None:
    report = validate_stability_vector(vec)
    if not report.ok:
        raise ChargeError(
            f"invalid stability vector at index {report.first_violation}: {report.reason}")


def dhym_stability_vector(n: int) -> StabilityVector:
    """rho_d = -(-i)^d / d! for d = 0..n.

    In dimensions n = 0, 3 mod 4 the raw leading weight leaves the upper
    half-plane, so the whole vector is rotated by a quarter or half turn;
    a global rotation shifts every phase by the same constant and leaves
    all comparisons invariant. For n = 1, 2 the vector is returned as is.
    """
    cycle = [GaussianRational.of(1), GaussianRational(Fraction(0), Fraction(-1)),
             GaussianRational.of(-1), GaussianRational(Fraction(0), Fraction(1))]
    out: List[GaussianRational] = []
    fact = Fraction(1)
    for d in range(n + 1):
        if d > 0:
            fact *= d
        out.append((-cycle[d % 4]).scale(Fraction(1) / fact))
    rotation = {0: GaussianRational(Fraction(0), Fraction(-1)),
                3: GaussianRational.of(-1)}.get(n % 4)
    if rotation is not None:
        out = [rotation * x for x in out]
    return StabilityVector(tuple(out))


# -- operand types ------------------------------------------------------------

@dataclass(frozen=True)
class UnipotentOperator:
    """Real class with degree-0 part 1, acting by cup product."""

    cls: GradedClass

    def __post_init__(self):
        if self.cls.degree0() != 1:
            raise ChargeError(
                f"unipotent operator needs degree-0 part 1, got {self.cls.degree0()}")


@dataclass(frozen=True)
class ChernCharacter:
    """Chern character class; the degree-0 part is the (integer) rank."""

    cls: GradedClass

    def __post_init__(self):
        rank = self.cls.degree0()
        if rank.denominator != 1:
            raise ChargeError(f"rank must be an integer, got {rank}")

    @property
    def rank(self) -> Fraction:
        return self.cls.degree0()

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.cls + other.cls)


# -- the charge polynomial ----------------------------------------------------

@dataclass(frozen=True)
class CentralChargePolynomial:
    """Z(k) = sum coefficients[d] * k^d with Gaussian rational coefficients."""

    coefficients: Tuple[GaussianRational, ...]

    def __getitem__(self, d: int) -> GaussianRational:
        if d < 0 or d >= len(self.coefficients):
            return GaussianRational()
        return self.coefficients[d]

    def __len__(self) -> int:
        return len(self.coefficients)

    def degree(self) -> int:
        for d in range(len(self.coefficients) - 1, -1, -1):
            if not self.coefficients[d].is_zero():
                return d
        return -1

    def leading(self) -> GaussianRational:
        d = self.degree()
        return self.coefficients[d] if d >= 0 else GaussianRational()

    def _padded(self, length: int) -> Tuple[GaussianRational, ...]:
        pad = length - len(self.coefficients)
        return self.coefficients + tuple(GaussianRational() for _ in range(pad))

    def __add__(self, other: "CentralChargePolynomial") -> "CentralChargePolynomial":
        m = max(len(self), len(other))
        return CentralChargePolynomial(tuple(
            a + b for a, b in zip(self._padded(m), other._padded(m))))

    def __sub__(self, other: "CentralChargePolynomial") -> "CentralChargePolynomial":
        m = max(len(self), len(other))
        return CentralChargePolynomial(tuple(
            a - b for a, b in zip(self._padded(m), other._padded(m))))

    def scale(self, r) -> "CentralChargePolynomial":
        return CentralChargePolynomial(tuple(c.scale(r) for c in self.coefficients))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CentralChargePolynomial):
            return NotImplemented
        m = max(len(self), len(other))
        return self._padded(m) == other._padded(m)

    def __hash__(self):
        return hash(self._padded(len(self)))

    def __str__(self) -> str:
        return ", ".join(f"k^{d}: {self.coefficients[d]}"
                         for d in range(len(self.coefficients) - 1, -1, -1))


def charge_family(
    ring: NumericalRing,
    omega: GradedClass,
    rho: StabilityVector,
    u_coeffs: Sequence[GradedClass],
    ch: ChernCharacter,
) -> List[List[GaussianRational]]:
    """Exact charge table of ch along a twist pencil U(t) = sum_j u_j t^j.

    table[d][j] is the k^d t^j coefficient of
    Z(k, t) = sum_d rho_d * integrate(omega^d * ch * U(t)) * k^d.
    U(0) = u_0 must be unipotent and every u_j with j >= 1 must have
    zero degree-0 part, so U(t) is unipotent for all t. Requires a
    valid stability vector, deg(omega) = 2 and integrate(omega^n) > 0.
    For positive rank the leading coefficient at t = 0 lands in the
    closed upper half-plane off the negative real axis.
    """
    n = ring.complex_dimension
    if rho.n != n:
        raise ChargeError(f"stability vector has n = {rho.n}, ring has n = {n}")
    require_valid_stability_vector(rho)
    if omega.is_zero() or omega.degrees() != [2]:
        raise ChargeError("polarisation must be a nonzero degree-2 class")
    if (not u_coeffs or u_coeffs[0].degree0() != 1
            or any(u.degree0() != 0 for u in u_coeffs[1:])):
        raise ChargeError(
            "twist pencil needs degree-0 part 1 in u_0 and 0 in every later u_j")
    omega_powers = [ring.unit()]
    for _ in range(n):
        omega_powers.append(omega_powers[-1] * omega)
    vol = integrate(omega_powers[n])
    if vol <= 0:
        raise ChargeError(f"integrate(omega^n) = {vol} must be positive")
    bases = [ch.cls * u for u in u_coeffs]
    table = [[rho[d].scale(integrate(omega_powers[d] * base)) for base in bases]
             for d in range(n + 1)]
    if ch.rank > 0:
        lead = table[n][0]
        if not (lead.im > 0 or (lead.im == 0 and lead.re > 0)):
            raise ChargeError(
                f"leading coefficient {lead} left the upper half-plane; "
                "charge data inconsistent")
    return table


def central_charge(
    ring: NumericalRing,
    omega: GradedClass,
    rho: StabilityVector,
    U: UnipotentOperator,
    ch: ChernCharacter,
) -> CentralChargePolynomial:
    """Exact charge polynomial of ch for the assignment (omega, rho, U):
    the t = 0 column of charge_family for the constant pencil U."""
    table = charge_family(ring, omega, rho, [U.cls], ch)
    return CentralChargePolynomial(tuple(row[0] for row in table))


# -- presets ------------------------------------------------------------------

def charge_preset(name: str, ring: NumericalRing, bfield: GradedClass
                  ) -> Tuple[StabilityVector, UnipotentOperator]:
    """Named charge assignments.

    dhym: rho_d = -(-i)^d/d!, U = exp(-B).
    todd: same rho, U = exp(-B) * sqrt(Td) with the ring's stored Todd
    class (rings without one reject this preset).

    B must be a real degree-2 class (possibly zero).
    """
    if not bfield.is_zero() and bfield.degrees() != [2]:
        raise ChargeError("B-field must be a degree-2 class")
    n = ring.complex_dimension
    rho = dhym_stability_vector(n)
    expb = power_series_apply("exp", -bfield)
    if name == "dhym":
        return rho, UnipotentOperator(expb)
    if name == "todd":
        if ring.todd is None:
            raise ChargeError(
                f"ring {ring.name!r} stores no Todd class; todd preset unavailable")
        return rho, UnipotentOperator(expb * power_series_apply("sqrt", ring.todd))
    raise ChargeError(f"unknown charge preset {name!r}; expected dhym or todd")
