"""Polynomial central charges over a numerical ring.

A charge assignment is a triple (omega, rho, U): a polarisation class,
a stability vector of complex rational weights, and a real unipotent
operator class. For a Chern character ch the central charge is the
degree-n polynomial

    Z(k) = sum_d rho_d * integrate(omega^d * ch * U) * k^d,

computed exactly over Gaussian rationals. A charge is the tuple of its
coefficients (z_0, ..., z_n), ascending in k. Along a twist pencil
U(t) = sum_j u_j t^j the same coefficients become polynomials in t.

Z is linear in ch: the k^d t^j coefficient is rho_d times the pairing
of ch with the covector integrate(omega^d * u_j * e_k) over the basis
e_k. charge_map builds these covectors once per assignment, from one
ring product omega^d * u_j and the ring's Poincare pairing, and returns
the map ch -> table in (k, t); applying it costs a dot product per
coefficient and no ring product. central_charge is the t = 0 column of
a map used once. k and t stay formal here; no numeric evaluation
happens in this module. A StabilityVector checks the weight conditions
when it is built, so every charge assignment in use is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .gaussian import GaussianRational
from .numring import (GradedClass, NumericalRing, RingMismatchError, integrate,
                      power_series_apply)


class ChargeError(ValueError):
    pass


# -- stability vectors -------------------------------------------------------

def _invalid(d: int, reason: str) -> ChargeError:
    return ChargeError(f"invalid stability vector at index {d}: {reason}")


@dataclass(frozen=True)
class StabilityVector:
    """Weights rho_0..rho_n of a polynomial central charge, checked
    exactly when built.

    Conditions: every rho_d nonzero; the leading weight satisfies
    Im(rho_n) > 0, or sits on the boundary with Im(rho_n) = 0,
    Re(rho_n) > 0 and Im(rho_{n-1}/rho_n) > 0 (so the subleading term
    still pushes charges of positive-rank objects into the upper
    half-plane); and Im(rho_d / rho_{d+1}) > 0 for 0 <= d <= n-1.
    """

    rho: Tuple[GaussianRational, ...]

    def __post_init__(self):
        if len(self.rho) < 2:
            raise ChargeError("stability vector needs entries rho_0..rho_n with n >= 1")
        for d, x in enumerate(self.rho):
            if x.is_zero():
                raise _invalid(d, f"rho_{d} = 0")
        n = self.n
        top = self.rho[n]
        boundary = top.im == 0 and top.re > 0 and (self.rho[n - 1] / top).im > 0
        if not (top.im > 0 or boundary):
            raise _invalid(n, f"Im rho_n = {top.im} fails the upper half-plane normalisation")
        for d in range(n):
            ratio = self.rho[d] / self.rho[d + 1]
            if ratio.im <= 0:
                raise _invalid(d, f"Im(rho_{d}/rho_{d+1}) = {ratio.im} is not positive")

    @property
    def n(self) -> int:
        return len(self.rho) - 1

    def __getitem__(self, d: int) -> GaussianRational:
        return self.rho[d]


def dhym_stability_vector(n: int) -> StabilityVector:
    """rho_d = -(-i)^d / d! for d = 0..n.

    In dimensions n = 0, 3 mod 4 the raw leading weight leaves the upper
    half-plane, so the whole vector is rotated by a quarter or half turn;
    a global rotation shifts every phase by the same constant and leaves
    all comparisons invariant. For n = 1, 2 the vector is returned as is.
    """
    minus_i = GaussianRational(Fraction(0), Fraction(-1))
    rotation = {0: minus_i, 3: GaussianRational.of(-1)}.get(n % 4, GaussianRational.of(1))
    out, power = [], -rotation          # rotation * -(-i)^d, from d = 0
    for d in range(n + 1):
        out.append(power.scale(Fraction(1, math.factorial(d))))
        power = power * minus_i
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


def charge_map(
    ring: NumericalRing,
    omega: GradedClass,
    rho: StabilityVector,
    u_coeffs: Sequence[GradedClass],
) -> Callable[[ChernCharacter], List[List[GaussianRational]]]:
    """The charge along a twist pencil U(t) = sum_j u_j t^j, as a map
    from Chern characters to exact charge tables.

    The map sends ch to table[d][j], the k^d t^j coefficient of
    Z(k, t) = sum_d rho_d * integrate(omega^d * ch * U(t)) * k^d.
    U(0) = u_0 must be unipotent and every u_j with j >= 1 must have
    zero degree-0 part, so U(t) is unipotent for all t. Requires
    deg(omega) = 2 and integrate(omega^n) > 0 (rho is valid once built).
    For positive rank the map checks that the leading coefficient at
    t = 0 lands in the closed upper half-plane off the negative real
    axis.
    """
    n = ring.complex_dimension
    if rho.n != n:
        raise ChargeError(f"stability vector has n = {rho.n}, ring has n = {n}")
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
    # integrate(omega^d * u_j * e_k) scaled by the real and imaginary
    # parts of rho_d, nonzero entries only
    covectors = []
    for d, power in enumerate(omega_powers):
        row = []
        for u in u_coeffs:
            kappa: Dict[str, Fraction] = {}
            for i, a in (power * u).coeffs.items():
                for k, c in ring.pairing[i].items():
                    kappa[k] = kappa.get(k, 0) + a * c
            row.append(tuple({k: part * v for k, v in kappa.items() if part and v}
                             for part in (rho[d].re, rho[d].im)))
        covectors.append(row)

    def charge(ch: ChernCharacter) -> List[List[GaussianRational]]:
        if ch.cls.ring.name != ring.name:
            raise RingMismatchError(
                f"mismatched ring identifiers {ch.cls.ring.name!r} and {ring.name!r}")
        support = ch.cls.coeffs.items()

        def pair(covector: Dict[str, Fraction]) -> Fraction:
            return sum((v * covector[k] for k, v in support if k in covector), Fraction(0))

        table = [[GaussianRational(pair(re), pair(im)) for re, im in row]
                 for row in covectors]
        if ch.rank > 0:
            lead = table[n][0]
            if not (lead.im > 0 or (lead.im == 0 and lead.re > 0)):
                raise ChargeError(
                    f"leading coefficient {lead} left the upper half-plane; "
                    "charge data inconsistent")
        return table

    return charge


def central_charge(
    ring: NumericalRing,
    omega: GradedClass,
    rho: StabilityVector,
    U: UnipotentOperator,
    ch: ChernCharacter,
) -> Tuple[GaussianRational, ...]:
    """Exact charge coefficients z_0..z_n of ch for the assignment
    (omega, rho, U), ascending in k: the t = 0 column of charge_map
    for the constant pencil U, used once."""
    return tuple(row[0] for row in charge_map(ring, omega, rho, [U.cls])(ch))


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
