"""Finite-basis numerical rings with even-degree generators and exact arithmetic.

A ring here is the numerical shadow of an even cohomology ring: a finite
list of named generators in even degrees 0..2n, rational structure
constants, and a rational integration functional on the top degree.
Classes are rational coordinate vectors; products truncate above degree
2n by nilpotency. Everything runs on fractions.Fraction, so ring
computations are exact and reproducible bit for bit.

This module reads no JSON: config.py reads an explicit ring table, naming
the JSON path of each fault, and builds the NumericalRing, whose own
checks of names, degrees and homogeneity raise RingError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .gaussian import as_fraction


class RingError(ValueError):
    pass


class RingMismatchError(RingError):
    """Operands live in rings with different identifiers."""


class SeriesDomainError(RingError):
    """Power series applied to a class with the wrong degree-0 part."""


@dataclass(frozen=True)
class BasisElement:
    name: str
    degree: int


class NumericalRing:
    """Graded commutative ring on a finite even-degree basis.

    Parameters
    ----------
    name : identifier used to detect operand mismatches.
    complex_dimension : n; top real degree is 2n.
    basis : elements with even degrees in 0..2n, exactly one of degree 0.
    products : mapping (name_i, name_j) -> {name_k: coefficient} for
        positive-degree pairs. Pairs may be given in either order;
        omitted pairs multiply to zero. Products with the unit are
        implicit.
    integration : {name: coefficient} on degree-2n elements.
    todd : optional distinguished class (stored, never derived).
    """

    def __init__(
        self,
        name: str,
        complex_dimension: int,
        basis: Iterable[BasisElement],
        products: Dict[Tuple[str, str], Dict[str, Fraction]],
        integration: Dict[str, Fraction],
        todd: Optional[Dict[str, Fraction]] = None,
    ):
        if complex_dimension < 1:
            raise RingError(f"complex dimension must be >= 1, got {complex_dimension}")
        self.name = name
        self.complex_dimension = complex_dimension
        self.basis: List[BasisElement] = list(basis)
        self._by_name = {b.name: b for b in self.basis}
        if len(self._by_name) != len(self.basis):
            raise RingError("duplicate generator names")
        top = 2 * complex_dimension
        units = [b for b in self.basis if b.degree == 0]
        if len(units) != 1:
            raise RingError("ring needs exactly one degree-0 generator")
        self.unit_name = units[0].name
        for b in self.basis:
            if b.degree % 2 != 0:
                raise RingError(f"odd degree generator {b.name!r} rejected")
            if not 0 <= b.degree <= top:
                raise RingError(f"generator {b.name!r} degree {b.degree} outside 0..{top}")
        self._table: Dict[Tuple[str, str], Dict[str, Fraction]] = {}
        for (i, j), comb in products.items():
            self._check_product_entry(i, j, comb)
            self._table[self._key(i, j)] = {k: as_fraction(v) for k, v in comb.items()}
        self.integration: Dict[str, Fraction] = {}
        for k, v in integration.items():
            if k not in self._by_name:
                raise RingError(f"unknown generator {k!r} in integration")
            if self._by_name[k].degree != top:
                raise RingError(f"integration assigns mass to {k!r} of degree "
                                f"{self._by_name[k].degree}, expected {top}")
            self.integration[k] = as_fraction(v)
        self.todd: Optional[GradedClass] = None
        if todd is not None:
            self.todd = GradedClass(self, {k: as_fraction(v) for k, v in todd.items()})
        # Poincare pairing: pairing[i][k] = integrate(e_i * e_k), nonzero entries only
        self.pairing: Dict[str, Dict[str, Fraction]] = {}
        for bi in self.basis:
            row = {}
            for bk in self.basis:
                if bi.degree + bk.degree == top:
                    v = sum((c * self.integration.get(l, 0)
                             for l, c in self._pair_product(bi.name, bk.name).items()),
                            Fraction(0))
                    if v:
                        row[bk.name] = v
            self.pairing[bi.name] = row

    def _key(self, i: str, j: str) -> Tuple[str, str]:
        return (i, j) if i <= j else (j, i)

    def _check_product_entry(self, i: str, j: str, comb: Dict) -> None:
        for nm in (i, j):
            if nm not in self._by_name:
                raise RingError(f"unknown generator {nm!r} in product table")
        d = self._by_name[i].degree + self._by_name[j].degree
        if d > 2 * self.complex_dimension:
            raise RingError(f"product ({i},{j}) has degree {d} above the top degree")
        for k in comb:
            if k not in self._by_name:
                raise RingError(f"unknown generator {k!r} in product of ({i},{j})")
            if self._by_name[k].degree != d:
                raise RingError(f"product ({i},{j}) is not homogeneous: "
                                f"{k!r} has degree {self._by_name[k].degree}, expected {d}")

    # -- class constructors -------------------------------------------------

    def zero(self) -> "GradedClass":
        return GradedClass(self, {})

    def unit(self) -> "GradedClass":
        return GradedClass(self, {self.unit_name: Fraction(1)})

    def gen(self, name: str) -> "GradedClass":
        if name not in self._by_name:
            raise RingError(f"unknown generator {name!r} in ring {self.name!r}")
        return GradedClass(self, {name: Fraction(1)})

    def degree_of(self, name: str) -> int:
        return self._by_name[name].degree

    def basis_names(self) -> List[str]:
        return [b.name for b in self.basis]

    def generators_of_degree(self, degree: int) -> List[str]:
        return [b.name for b in self.basis if b.degree == degree]

    def _pair_product(self, i: str, j: str) -> Dict[str, Fraction]:
        if i == self.unit_name:
            return {j: Fraction(1)}
        if j == self.unit_name:
            return {i: Fraction(1)}
        if self._by_name[i].degree + self._by_name[j].degree > 2 * self.complex_dimension:
            return {}
        return self._table.get(self._key(i, j), {})


class GradedClass:
    """Rational coordinate vector in a NumericalRing basis."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: NumericalRing, coeffs: Dict[str, Fraction]):
        self.ring = ring
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0}
        for k in self.coeffs:
            if k not in ring._by_name:
                raise RingError(f"unknown generator {k!r} in ring {ring.name!r}")

    def _check_ring(self, other: "GradedClass") -> None:
        if self.ring.name != other.ring.name:
            raise RingMismatchError(
                f"mismatched ring identifiers {self.ring.name!r} and {other.ring.name!r}")

    def coefficient(self, name: str) -> Fraction:
        return self.coeffs.get(name, Fraction(0))

    def degree0(self) -> Fraction:
        return self.coefficient(self.ring.unit_name)

    def degrees(self) -> List[int]:
        return sorted({self.ring.degree_of(k) for k in self.coeffs})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "GradedClass") -> "GradedClass":
        self._check_ring(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return GradedClass(self.ring, out)

    def __sub__(self, other: "GradedClass") -> "GradedClass":
        return self + (-other)

    def __neg__(self) -> "GradedClass":
        return GradedClass(self.ring, {k: -v for k, v in self.coeffs.items()})

    def scale(self, r) -> "GradedClass":
        r = as_fraction(r)
        return GradedClass(self.ring, {k: v * r for k, v in self.coeffs.items()})

    def __mul__(self, other: "GradedClass") -> "GradedClass":
        self._check_ring(other)
        out: Dict[str, Fraction] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                for k, c in self.ring._pair_product(i, j).items():
                    out[k] = out.get(k, Fraction(0)) + a * b * c
        return GradedClass(self.ring, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedClass)
                and self.ring.name == other.ring.name
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring.name, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"{v}*{k}" for k, v in sorted(
            self.coeffs.items(), key=lambda kv: (self.ring.degree_of(kv[0]), kv[0]))]
        return " + ".join(parts)


def class_from_dict(ring: NumericalRing, data: Dict[str, object]) -> GradedClass:
    return GradedClass(ring, {k: as_fraction(v) for k, v in data.items()})


def product(a: GradedClass, b: GradedClass) -> GradedClass:
    """Ring product; bilinear, graded, truncating above degree 2n."""
    return a * b


def integrate(a: GradedClass) -> Fraction:
    """Pair the degree-2n component with the ring's integration vector."""
    total = Fraction(0)
    for k, v in a.coeffs.items():
        mass = a.ring.integration.get(k)
        if mass is not None:
            total += v * mass
    return total


# -- truncated power series ----------------------------------------------

def _series_coefficient(series: str, j: int) -> Fraction:
    if series == "exp":
        c = Fraction(1)
        for m in range(1, j + 1):
            c /= m
        return c
    if series == "sqrt":
        # binomial(1/2, j)
        c = Fraction(1)
        for m in range(j):
            c *= (Fraction(1, 2) - m)
            c /= (m + 1)
        return c
    raise RingError(f"unknown series name {series!r}; expected exp or sqrt")


def power_series_apply(series: str, a: GradedClass) -> GradedClass:
    """Apply a named truncated power series to a graded class.

    exp expects degree-0 part 0 and sqrt degree-0 part 1.
    The series truncates exactly: a class with no degree-0 part is
    nilpotent of order n+1, so the sum is finite.
    """
    _series_coefficient(series, 0)  # validate the name early
    d0 = a.degree0()
    if series == "exp":
        if d0 != 0:
            raise SeriesDomainError(f"exp needs degree-0 part 0, got {d0}")
        nilpotent = a
    else:
        if d0 != 1:
            raise SeriesDomainError(f"{series} needs degree-0 part 1, got {d0}")
        nilpotent = a - a.ring.unit()
    n = a.ring.complex_dimension
    acc = a.ring.zero()
    power = a.ring.unit()
    for j in range(n + 1):
        acc = acc + power.scale(_series_coefficient(series, j))
        power = power * nilpotent
        if power.is_zero():
            break
    return acc


# -- presets ---------------------------------------------------------------

def preset_ring(preset: str, **params) -> NumericalRing:
    """Built-in rings.

    projective_space(n): basis 1, h, ..., h^n with int h^n = 1. The n = 2
    ring stores the Todd class 1 + (3/2) h + h^2.

    torus_line(vol): the rank-one slice generated by a polarisation w on
    an abelian surface, basis 1, w, w^2 with int w^2 = vol (n = 2) and
    trivial Todd class.
    """
    if preset == "projective_space":
        n = int(params["n"])
        if n < 1:
            raise RingError(f"projective_space needs n >= 1, got {n}")
        names = ["1"] + ["h" if j == 1 else f"h^{j}" for j in range(1, n + 1)]
        basis = [BasisElement(names[j], 2 * j) for j in range(n + 1)]
        products = {}
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if i + j <= n:
                    products[(names[i], names[j])] = {names[i + j]: Fraction(1)}
        todd = None
        if n == 2:
            todd = {"1": Fraction(1), "h": Fraction(3, 2), "h^2": Fraction(1)}
        return NumericalRing(f"P{n}", n, basis, products,
                             {names[n]: Fraction(1)}, todd)
    if preset == "torus_line":
        vol = as_fraction(params["vol"])
        if vol <= 0:
            raise RingError(f"torus_line volume must be positive, got {vol}")
        basis = [BasisElement("1", 0), BasisElement("w", 2), BasisElement("w^2", 4)]
        products = {("w", "w"): {"w^2": Fraction(1)}}
        return NumericalRing(f"T(vol={vol})", 2, basis, products,
                             {"w^2": vol}, {"1": Fraction(1)})
    raise RingError(f"unknown ring preset {preset!r}")
