"""The in-house root isolator against sympy, on random polynomials.

sympy is a test-only oracle here: its exact root counts, rational
roots and algebraic numbers are compared with roots_in_range, sign_at
and dedup_roots. The polynomials are drawn with rational coefficients
and handed to realroots as their primitive integer multiples.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from zcrit.realroots import (
    DEFAULT_ENCLOSURE_WIDTH,
    dedup_roots,
    primitive,
    roots_in_range,
    sign_at,
)

F = Fraction
T = sympy.Symbol("t")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


small = st.integers(-6, 6)
linear = st.tuples(small.filter(bool), small).map(lambda ab: [F(ab[1]), F(ab[0])])
quadratic = st.tuples(small.filter(bool), small, small).map(
    lambda abc: [F(abc[2]), F(abc[1]), F(abc[0])])
factor = st.tuples(st.one_of(linear, quadratic), st.integers(1, 2))
scale = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool)


@st.composite
def polynomials(draw, max_factors=4):
    p = [draw(scale)]
    for f, mult in draw(st.lists(factor, min_size=1, max_size=max_factors)):
        for _ in range(mult):
            p = mul(p, f)
    return p


@st.composite
def ranges(draw):
    bound = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    lo, hi = sorted((draw(bound), draw(bound)))
    return lo, hi if hi > lo else lo + 1


def to_sympy(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
                      T, domain="QQ")


def rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def value(p, x):
    return sum(c * x ** i for i, c in enumerate(p))


def check_isolation(p, lo, hi):
    sq = to_sympy(p).sqf_part()
    points = roots_in_range(primitive(p), lo, hi)
    assert len(points) == sq.count_roots(rational(lo), rational(hi))
    rational_roots = {F(int(r.p), int(r.q)) for r in sympy.roots(sq, filter="Q")}
    assert [x.exact for x in points if x.exact is not None] == sorted(
        r for r in rational_roots if lo <= r <= hi)
    for x in points:
        if x.exact is not None:
            assert x.lo == x.hi == x.exact and value(p, x.exact) == 0
            continue
        # one root of p, and it is irrational: no rational root in between
        assert lo <= x.lo < x.hi <= hi
        assert x.hi - x.lo <= DEFAULT_ENCLOSURE_WIDTH
        assert sq.count_roots(rational(x.lo), rational(x.hi)) == 1
        assert not any(x.lo <= r <= x.hi for r in rational_roots)
    for a, b in zip(points, points[1:]):
        assert a.hi < b.lo
    return points


def algebraic_value(p, point):
    """The sympy real root of p inside the point's enclosure."""
    inside = [r for r in to_sympy(p).sqf_part().real_roots()
              if bool(rational(point.lo) < r) and bool(r < rational(point.hi))]
    assert len(inside) == 1
    return inside[0]


@SETTINGS
@given(polynomials(), ranges())
def test_roots_match_sympy(p, rng):
    check_isolation(p, *rng)


@SETTINGS
@given(polynomials(max_factors=3), polynomials(max_factors=2), st.booleans())
def test_sign_at_matches_60_digit_evaluation(p, q, share):
    points = check_isolation(p, F(-4), F(4))
    for point in points:
        query = mul(q, p) if share else q
        s = sign_at(primitive(query), point)
        if point.exact is not None:
            v = value(query, point.exact)
            assert s == (v > 0) - (v < 0)
            continue
        r = algebraic_value(p, point)
        v = sympy.N(to_sympy(query).as_expr().subs(T, r), 60)
        expected = 0 if abs(v) < sympy.Float("1e-40") else (1 if v > 0 else -1)
        assert s == expected
        # sign_at may refine, but the enclosure stays certified
        assert to_sympy(p).sqf_part().count_roots(
            rational(point.lo), rational(point.hi)) == 1


@SETTINGS
@given(polynomials(max_factors=2), polynomials(max_factors=2),
       polynomials(max_factors=2), ranges())
def test_dedup_merges_roots_shared_across_polynomials(a, b, c, rng):
    lo, hi = rng
    p1, p2 = mul(a, b), mul(a, c)
    merged = dedup_roots(roots_in_range(primitive(p1), lo, hi)
                         + roots_in_range(primitive(p2), lo, hi))
    union = to_sympy(mul(p1, p2)).sqf_part()
    assert len(merged) == union.count_roots(rational(lo), rational(hi))
    for x, y in zip(merged, merged[1:]):
        assert x.hi < y.lo
    for x in merged:
        if x.exact is None:
            assert union.count_roots(rational(x.lo), rational(x.hi)) == 1
