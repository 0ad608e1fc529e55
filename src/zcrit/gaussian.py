"""Exact complex numbers with rational real and imaginary parts.

Every sign decision downstream (phase comparisons, wall locations,
tau-system feasibility) is taken on these numbers, so all arithmetic
here is exact; nothing ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int (not a bool), a Fraction or a 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class GaussianRational:
    """a + b*i with a, b exact rationals."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value) -> "GaussianRational":
        """Coerce a GaussianRational, or an int, a Fraction or a 'p/q' string."""
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(as_fraction(value))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        num = self * other.conj()
        return GaussianRational(num.re / d, num.im / d)

    def scale(self, r: RationalLike) -> "GaussianRational":
        r = as_fraction(r)
        return GaussianRational(self.re * r, self.im * r)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        imag = "i" if abs(self.im) == 1 else f"{abs(self.im)}i"
        sign = "-" if self.im < 0 else "+"
        if self.re == 0:
            return f"-{imag}" if self.im < 0 else imag
        return f"{self.re}{sign}{imag}"

    def to_json(self):
        """JSON form; bare 'p/q' string when purely real."""
        if self.im == 0:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}
