"""Exact real roots of rational-coefficient polynomials in one variable.

Polynomials are lists of fractions.Fraction in ascending powers. Every
decision made here (how many roots, whether a root is rational, the
sign of another polynomial at a root, whether two roots are equal, in
which order they lie) is taken in exact integer or rational arithmetic;
no float is involved.

Isolation (Sturm bisection, cf. Collins and Akritas 1976):

- The input is scaled to a primitive integer polynomial and reduced to
  its squarefree part p / gcd(p, p'), with Euclid's algorithm run on
  primitive integer remainders.
- The Sturm chain p, p', -rem(p, p'), ... counts the distinct roots in
  (a, b] as V(a) - V(b), where V(x) is the number of sign changes along
  the chain at x (zeros skipped). The sign of a chain member at
  x = u/v is the sign of the integer v^deg * s(u/v), evaluated by a
  homogeneous Horner scheme.
- [lo, hi] is bisected until every interval holds one root; each root
  is then bisected on the sign of p alone. A bisection midpoint that is
  a root is recognised exactly and returned as a rational root.
- A rational root of a primitive integer polynomial lies in (1/lc) Z,
  so once an enclosure is narrower than 1/|lc| it holds at most one
  candidate, which is tested exactly. A root that fails the test is
  irrational.

Enclosure convention: a rational root has exact set and
lo == hi == exact. An irrational root is the only root of the
squarefree primitive integer polynomial poly in the open interval
(lo, hi); poly is nonzero at lo and at hi, with opposite signs, and
hi - lo is at most the requested width (DEFAULT_ENCLOSURE_WIDTH). The
enclosure only shrinks afterwards, through refine().

Signs at an irrational root: sign_at first tries the mean-value
certificate |q(mid)| > max|q'| * (hi - lo)/2, which proves that q keeps
the sign of q(mid) on the enclosure and can never hold when q vanishes
at the root. If it fails, q vanishes at the root exactly when
g = gcd(poly, q) changes sign on the enclosure; otherwise the
enclosure is halved until the certificate holds. Two irrational roots
are equal exactly when gcd of their polynomials changes sign on the
intersection of their enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

DEFAULT_ENCLOSURE_WIDTH = Fraction(1, 10**10)

IntPoly = Sequence[int]


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """Exact value at a rational x: Horner's scheme on the integer
    polynomial with cleared denominators, one normalisation at the end."""
    if not coeffs:
        return Fraction(0)
    x = Fraction(x)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    return Fraction(_hom(ints, x), den * x.denominator ** (len(ints) - 1))


def poly_is_zero(coeffs: Sequence[Fraction]) -> bool:
    return all(c == 0 for c in coeffs)


def poly_degree(coeffs: Sequence[Fraction]) -> int:
    for d in range(len(coeffs) - 1, -1, -1):
        if coeffs[d] != 0:
            return d
    return -1


# ---------------------------------------------------------------------------
# integer polynomial arithmetic (ascending coefficient lists, no trailing zeros)
# ---------------------------------------------------------------------------


def _primitive(p: IntPoly) -> List[int]:
    """p divided by the positive gcd of its coefficients."""
    g = math.gcd(*p) if p else 0
    return [c // g for c in p] if g > 1 else list(p)


def _integer_poly(coeffs: Sequence[Fraction]) -> List[int]:
    """The primitive integer polynomial that is a positive multiple of
    coeffs; [] for the zero polynomial."""
    top = coeffs[: poly_degree(coeffs) + 1]
    den = math.lcm(*(c.denominator for c in top))
    return _primitive([c.numerator * (den // c.denominator) for c in top])


def _hom(p: IntPoly, x: Fraction) -> int:
    """v^(len(p) - 1) * p(u/v) for x = u/v in lowest terms: an integer
    with the sign of p(x)."""
    u, v = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * u + c * scale
        scale *= v
    return acc


def _sign(p: IntPoly, x: Fraction) -> int:
    h = _hom(p, x)
    return (h > 0) - (h < 0)


def _derivative(p: IntPoly) -> List[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _rem(a: IntPoly, b: IntPoly) -> List[int]:
    """A positive multiple of the remainder of a by b, made primitive.

    Each elimination step scales by |lc(b)|, never by a negative
    number, so the result keeps the sign that a Sturm chain needs.
    """
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    alb, sb = abs(lb), (1 if lb > 0 else -1)
    while r and len(r) - 1 >= db:
        f, shift = r[-1] * sb, len(r) - 1 - db
        r = [c * alb for c in r]
        for i, c in enumerate(b):
            r[i + shift] -= f * c
        while r and r[-1] == 0:
            r.pop()
    return _primitive(r)


def _gcd(a: IntPoly, b: IntPoly) -> List[int]:
    """Primitive greatest common divisor (up to sign)."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _rem(a, b)
    return _primitive(a)


def _quotient(a: IntPoly, b: IntPoly) -> List[int]:
    """a / b for a primitive b that divides a: by Gauss's lemma the
    quotient has integer coefficients, so every step divides exactly."""
    r = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, leftover = divmod(r[k + db], b[-1])
        if leftover:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
    return q


def _squarefree(p: IntPoly) -> List[int]:
    g = _gcd(p, _derivative(p))
    return list(p) if len(g) == 1 else _primitive(_quotient(p, g))


def _sturm_chain(p: IntPoly) -> List[List[int]]:
    chain = [list(p), _primitive(_derivative(p))]
    while len(chain[-1]) > 1:
        r = _rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _variations(chain: Sequence[IntPoly], x: Fraction) -> int:
    count, prev = 0, 0
    for s in chain:
        h = _hom(s, x)
        if h:
            if prev and (h > 0) != (prev > 0):
                count += 1
            prev = h
    return count


# ---------------------------------------------------------------------------
# isolated points
# ---------------------------------------------------------------------------


@dataclass
class RootPoint:
    """One isolated real root with a certified rational enclosure.

    exact is set for rational roots (then lo == hi == exact). Otherwise
    the root is irrational and is the only root of the squarefree
    primitive integer polynomial poly in the open interval (lo, hi);
    refine() halves the enclosure on demand.
    """

    exact: Optional[Fraction]
    lo: Fraction
    hi: Fraction
    poly: Tuple[int, ...] = field(default=(), repr=False)
    _sign_hi: int = field(default=0, repr=False)

    @classmethod
    def rational(cls, x: Fraction) -> "RootPoint":
        return cls(x, x, x)

    def approx(self) -> Fraction:
        return self.exact if self.exact is not None else (self.lo + self.hi) / 2

    def refine(self) -> None:
        """Halve the enclosure (no-op for rational points). A midpoint
        at which poly vanishes is the root, which becomes exact."""
        if self.exact is not None:
            return
        mid = (self.lo + self.hi) / 2
        s = _sign(self.poly, mid)
        if s == 0:
            self.exact = self.lo = self.hi = mid
        elif s == self._sign_hi:
            self.hi = mid
        else:
            self.lo = mid

    def _settle(self, width: Fraction) -> None:
        """From one root of poly in (lo, hi]: decide whether it is
        rational, and if not, narrow (lo, hi) to the enclosure
        convention of the module docstring."""
        self._sign_hi = _sign(self.poly, self.hi)
        if self._sign_hi == 0:
            self.exact = self.lo = self.hi
            return
        lc = abs(self.poly[-1])
        while (self.hi - self.lo) * lc >= 1:
            self.refine()
            if self.exact is not None:
                return
        # at most one multiple of 1/lc lies in (lo, hi)
        candidate = Fraction(math.floor(self.lo * lc) + 1, lc)
        if candidate < self.hi and _sign(self.poly, candidate) == 0:
            self.exact = self.lo = self.hi = candidate
            return
        # lo may still be a neighbouring root of poly; move it off
        stuck = self.lo if _sign(self.poly, self.lo) == 0 else None
        while self.hi - self.lo > width or self.lo == stuck:
            self.refine()

    def __str__(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        return f"[{self.lo}, {self.hi}]"


def roots_in_range(
    coeffs: Sequence[Fraction],
    lo: Fraction,
    hi: Fraction,
    width: Fraction = DEFAULT_ENCLOSURE_WIDTH,
) -> List[RootPoint]:
    """All distinct real roots of the polynomial in [lo, hi], sorted.

    The zero polynomial is rejected (every point would be a root).
    """
    if poly_is_zero(coeffs):
        raise ValueError("zero polynomial has no isolated roots")
    if not width > 0:
        raise ValueError("enclosure width must be positive")
    lo, hi = Fraction(lo), Fraction(hi)
    p = _squarefree(_integer_poly(coeffs))
    if len(p) == 1 or lo > hi:
        return []
    if len(p) == 2:
        x = Fraction(-p[0], p[1])
        return [RootPoint.rational(x)] if lo <= x <= hi else []
    out = [RootPoint.rational(lo)] if _sign(p, lo) == 0 else []
    chain = _sturm_chain(p)
    poly = tuple(p)
    # (a, V(a), b, V(b)): V(a) - V(b) roots in (a, b]; left halves first
    stack = [(lo, _variations(chain, lo), hi, _variations(chain, hi))]
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb == 1:
            point = RootPoint(None, a, b, poly)
            point._settle(width)
            out.append(point)
        elif va - vb > 1:
            m = (a + b) / 2
            vm = _variations(chain, m)
            stack.append((m, vm, b, vb))
            stack.append((a, va, m, vm))
    return out


def _certified_sign(q: IntPoly, lo: Fraction, hi: Fraction) -> int:
    """Sign of q on [lo, hi] when the mean-value bound proves it
    constant, else 0: |q(mid)| > max|q'| (hi - lo)/2 on [lo, hi]."""
    mid = (lo + hi) / 2
    h = _hom(q, mid)
    if h == 0:
        return 0
    reach = max(abs(lo), abs(hi))
    slope = sum(i * abs(c) * reach ** (i - 1) for i, c in enumerate(q) if i)
    # |q(mid)| = |h| / den^deg
    if 2 * abs(h) > slope * (hi - lo) * mid.denominator ** (len(q) - 1):
        return 1 if h > 0 else -1
    return 0


def sign_at(coeffs: Sequence[Fraction], point: RootPoint) -> int:
    """Exact sign of the polynomial at the isolated point (-1, 0, +1)."""
    if point.exact is not None:
        v = poly_eval(coeffs, point.exact)
        return (v > 0) - (v < 0)
    q = _integer_poly(coeffs)
    if not q:
        return 0
    gcd_checked = False
    while True:
        s = _certified_sign(q, point.lo, point.hi)
        if s:
            return s
        if not gcd_checked:
            gcd_checked = True
            g = _gcd(point.poly, q)
            if len(g) > 1 and _sign(g, point.lo) != _sign(g, point.hi):
                return 0
        point.refine()


def _same_point(a: RootPoint, b: RootPoint) -> bool:
    if a.exact is not None or b.exact is not None:
        # an inexact point is irrational by construction
        return a.exact == b.exact
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if not lo < hi:
        return False
    # g divides both squarefree polynomials and is nonzero at lo and hi
    # (each is an endpoint of one enclosure), so it changes sign on
    # (lo, hi) exactly when both roots are its one root there
    g = _gcd(a.poly, b.poly)
    return len(g) > 1 and _sign(g, lo) != _sign(g, hi)


def dedup_roots(points: List[RootPoint]) -> List[RootPoint]:
    """Merge root collections from several polynomials: exact-equal
    points collapse to one, the rest come back sorted with pairwise
    disjoint enclosures."""
    unique: List[RootPoint] = []
    for p in points:
        if not any(_same_point(p, u) for u in unique):
            unique.append(p)
    while True:
        unique.sort(key=lambda p: p.lo)
        clashes = [(a, b) for a, b in zip(unique, unique[1:]) if not a.hi < b.lo]
        if not clashes:
            return unique
        # distinct numbers separate after finitely many halvings;
        # rational points have zero-width enclosures already
        for a, b in clashes:
            (a if a.hi - a.lo >= b.hi - b.lo else b).refine()
