from fractions import Fraction

import pytest

from zcrit.realroots import dedup_roots, poly_eval, roots_in_range, sign_at

F = Fraction


def mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_rational_and_algebraic_roots_mixed():
    # (x^2 - 2)(x - 1/3): roots -sqrt(2), 1/3, sqrt(2)
    p = mul([F(-2), F(0), F(1)], [F(-1, 3), F(1)])
    roots = roots_in_range(p, F(-2), F(2))
    assert len(roots) == 3
    neg, rat, pos = roots
    assert rat.exact == F(1, 3) and rat.lo == rat.hi == rat.exact
    assert neg.exact is None and pos.exact is None
    # certified enclosures: the endpoints bracket and the width is small
    assert neg.lo < neg.hi and pos.lo < pos.hi
    assert pos.lo ** 2 < 2 < pos.hi ** 2
    assert neg.hi ** 2 > 2 > neg.lo ** 2 or (neg.lo ** 2 > 2 > neg.hi ** 2)


def test_range_filtering_and_sorting():
    p = mul([F(-2), F(0), F(1)], [F(-1, 3), F(1)])
    inside = roots_in_range(p, F(0), F(2))
    assert [r.exact is not None for r in inside] == [True, False]
    assert inside[0].approx() < inside[1].approx()
    assert roots_in_range(p, F(3), F(4)) == []


def test_multiple_roots_reported_once():
    # (x - 1/2)^2 (x + 1)
    p = mul(mul([F(-1, 2), F(1)], [F(-1, 2), F(1)]), [F(1), F(1)])
    roots = roots_in_range(p, F(-2), F(2))
    assert [r.exact for r in roots] == [F(-1), F(1, 2)]
    # bisection midpoints and range endpoints that land on a root
    assert [r.exact for r in roots_in_range(p, F(0), F(1))] == [F(1, 2)]
    assert [r.exact for r in roots_in_range(p, F(-1), F(1, 2))] == [F(-1), F(1, 2)]
    assert [r.exact for r in roots_in_range(p, F(-3), F(1))] == [F(-1), F(1, 2)]


def test_zero_and_constant_polynomials():
    with pytest.raises(ValueError):
        roots_in_range([F(0), F(0)], F(0), F(1))
    assert roots_in_range([F(5)], F(-1), F(1)) == []


def test_sign_at_rational_points():
    p = [F(-2), F(0), F(1)]                      # x^2 - 2
    q = [F(0), F(1)]                             # x
    r = roots_in_range(p, F(0), F(2))[0]         # sqrt(2)
    assert sign_at(q, r) == 1
    assert sign_at([F(-3), F(1)], r) == -1       # sqrt(2) - 3 < 0
    assert sign_at(p, r) == 0                    # its own polynomial
    rat = roots_in_range([F(-1, 3), F(1)], F(0), F(1))[0]
    assert sign_at([F(1), F(3)], rat) == 1
    assert sign_at([F(0), F(0), F(0)], rat) == 0


def test_sign_at_detects_shared_algebraic_factor():
    p = [F(-2), F(0), F(1)]
    r = roots_in_range(p, F(0), F(2))[0]
    # q = (x^2 - 2)(x + 5) vanishes at sqrt(2) even though no rational
    # evaluation can show it
    q = mul(p, [F(5), F(1)])
    assert sign_at(q, r) == 0


def test_refinement_narrows_enclosures():
    p = [F(-2), F(0), F(1)]
    r = roots_in_range(p, F(0), F(2))[0]
    for _ in range(60):                          # each refine halves (lo, hi)
        r.refine()
    assert r.hi - r.lo <= F(1, 10 ** 12)
    assert r.lo ** 2 < 2 < r.hi ** 2
    assert not r.lo <= F(1) <= r.hi and not r.lo <= F(3, 2) <= r.hi


def test_dedup_merges_equal_points_across_sources():
    p = mul([F(-2), F(0), F(1)], [F(-2), F(0), F(1)])   # (x^2-2)^2
    a = roots_in_range([F(-2), F(0), F(1)], F(0), F(2))
    b = roots_in_range(p, F(0), F(2))
    c = roots_in_range([F(-1, 3), F(1)], F(0), F(2))
    merged = dedup_roots(a + b + c)
    assert len(merged) == 2
    assert [x.exact is not None for x in merged] == [True, False]
    assert merged[0].exact == F(1, 3)


def test_poly_eval_horner():
    p = [F(1), F(-3), F(2)]
    assert poly_eval(p, F(1, 2)) == F(1) - F(3, 2) + F(1, 2)


def test_roots_next_to_a_rational_root_on_a_midpoint():
    # (x - 1/2)((x - 1/2)^2 - 2*10^-40): 1/2 is the first bisection
    # midpoint of [0, 1], and the irrational roots 1/2 -+ sqrt(2)*10^-20
    # sit on either side of it
    half = [F(-1, 2), F(1)]
    p = mul(half, [F(1, 4) - F(2, 10 ** 40), F(-1), F(1)])
    left, mid, right = roots_in_range(p, F(0), F(1))
    assert (left.exact, mid.exact, right.exact) == (None, F(1, 2), None)
    for r in (left, right):
        assert poly_eval(p, r.lo) * poly_eval(p, r.hi) < 0
        assert r.hi - r.lo <= F(1, 10 ** 10)
    assert left.hi < F(1, 2) < right.lo


def test_rescaled_quadratic_regression():
    # sympy isolates -5t^2/32 - 25t/48 + 1/6 after substituting t = 2y and
    # returned 2*CRootOf(...), which the former wrapper could not enclose
    p = [F(1, 6), F(-25, 48), F(-5, 32)]
    (root,) = roots_in_range(p, F(-3), F(3))
    assert root.exact is None
    assert F(0) < root.lo < root.hi < F(1)
    assert root.hi - root.lo <= F(1, 10 ** 10)
    assert poly_eval(p, root.lo) * poly_eval(p, root.hi) < 0
    assert sign_at([F(0), F(1)], root) == 1
    assert sign_at(mul(p, [F(7), F(1)]), root) == 0
