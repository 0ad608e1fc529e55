import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zcrit import exactlp
from zcrit.exactlp import (LinearProgramError, SimplexResult, simplex_solve,
                           solve_linear_system)

F = Fraction


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def matvec(M, x):
    return [dot(row, x) for row in M]


def vecmat(y, M):
    n = len(M[0])
    return [sum((y[i] * M[i][j] for i in range(len(M))), F(0)) for j in range(n)]


def certify(M, d, c, res):
    """Exact certificate check: optimal solutions carry a feasible dual
    with matching value, infeasible ones a separating functional."""
    if res.status == "optimal":
        assert matvec(M, res.x) == list(d)
        assert all(xi >= 0 for xi in res.x)
        assert dot(c, res.x) == res.value
        yM = vecmat(res.dual, M)
        assert all(yM[j] >= c[j] for j in range(len(c)))
        assert dot(res.dual, d) == res.value
    elif res.status == "infeasible":
        y = res.phase1_dual
        yM = vecmat(y, M)
        assert all(v >= 0 for v in yM)
        assert dot(y, d) < 0


def test_small_optimum_with_certificates():
    # max 3x + 2y with x + y + s = 4, x + 3y + t = 6
    M = [[F(1), F(1), F(1), F(0)], [F(1), F(3), F(0), F(1)]]
    d = [F(4), F(6)]
    c = [F(3), F(2), F(0), F(0)]
    res = simplex_solve(M, d, c)
    assert res.status == "optimal" and res.value == 12
    assert res.x == [F(4), F(0), F(0), F(2)]
    certify(M, d, c, res)


def test_fractional_optimum():
    M = [[F(2), F(1), F(1), F(0)], [F(1), F(3), F(0), F(1)]]
    d = [F(3), F(5)]
    c = [F(1), F(1), F(0), F(0)]
    res = simplex_solve(M, d, c)
    assert res.status == "optimal"
    assert res.value == F(11, 5)      # x = 4/5, y = 7/5
    certify(M, d, c, res)


def test_infeasible_produces_separating_functional():
    # x + y = -1 with x, y >= 0
    M = [[F(1), F(1)]]
    res = simplex_solve(M, [F(-1)], [F(1), F(0)])
    assert res.status == "infeasible"
    certify(M, [F(-1)], [F(1), F(0)], res)


def test_unbounded_direction_detected():
    # max x with x - y = 1: x can grow along (1 + t, t)
    M = [[F(1), F(-1)]]
    res = simplex_solve(M, [F(1)], [F(1), F(0)])
    assert res.status == "unbounded"


def test_redundant_rows_are_harmless():
    M = [[F(1), F(1)], [F(2), F(2)]]
    d = [F(2), F(4)]
    res = simplex_solve(M, d, [F(1), F(0)])
    assert res.status == "optimal" and res.value == 2
    certify(M, d, [F(1), F(0)], res)


def test_dimension_mismatch_rejected():
    with pytest.raises(LinearProgramError):
        simplex_solve([[F(1)]], [F(1), F(2)], [F(1)])


def test_empty_system():
    assert simplex_solve([], [], [F(-1), F(-2)]).value == 0
    assert simplex_solve([], [], [F(1)]).status == "unbounded"


def test_random_programs_carry_valid_certificates():
    rng = random.Random(5)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(2, 5)
        M = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        d = [F(rng.randint(-4, 4)) for _ in range(m)]
        c = [F(rng.randint(-4, 4)) for _ in range(n)]
        res = simplex_solve(M, d, c)
        statuses[res.status] += 1
        certify(M, d, c, res)
        if res.status == "unbounded":
            # feasibility part of the claim, checked with a zero objective
            assert simplex_solve(M, d, [F(0)] * n).status == "optimal"
    # the generator has to hit every outcome for the test to mean much
    assert all(v > 0 for v in statuses.values()), statuses


def test_unbounded_value_grows_with_artificial_cap():
    M = [[F(1), F(-1)]]
    vals = []
    for cap in (F(10), F(1000)):
        M2 = [row + [F(0)] for row in M] + [[F(1), F(0), F(1)]]
        res = simplex_solve(M2, [F(1), cap], [F(1), F(0), F(0)])
        assert res.status == "optimal"
        vals.append(res.value)
    assert vals == [F(10), F(1000)]


def test_linear_system_solution_and_inconsistency():
    A = [[F(1), F(2)], [F(3), F(4)]]
    status, x = solve_linear_system(A, [F(5), F(6)])
    assert status == "solution"
    assert matvec(A, x) == [F(5), F(6)]

    # second row contradicts the first
    B = [[F(1), F(1)], [F(2), F(2)]]
    status, y = solve_linear_system(B, [F(1), F(3)])
    assert status == "inconsistent"
    assert vecmat(y, B) == [F(0), F(0)]
    assert dot(y, [F(1), F(3)]) == 1


def test_linear_system_underdetermined_picks_a_solution():
    A = [[F(1), F(1), F(1)]]
    status, x = solve_linear_system(A, [F(3)])
    assert status == "solution" and dot(A[0], x) == 3


# -- differential test against the Fraction tableau ---------------------------
#
# ref_simplex and ref_linear_system are the textbook tableau on Fraction
# entries. The integer-row solver must return the same SimplexResult,
# field for field, after the same pivots in the same order.

def ref_pivot(tab, basis, row, col):
    m = len(basis)
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    for r in range(len(tab)):
        if r != row and tab[r][col] != 0:
            f = tab[r][col]
            tab[r] = [a - f * b for a, b in zip(tab[r], tab[row])]
    if row < m:
        basis[row] = col


def ref_run_phase(tab, basis, allowed, pivots):
    m = len(basis)
    obj = len(tab) - 1
    while True:
        col = next((j for j in range(len(tab[0]) - 1) if allowed[j] and tab[obj][j] > 0), -1)
        if col < 0:
            return "optimal"
        row, best = -1, None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best, row = ratio, i
        if row < 0:
            return "unbounded"
        ref_pivot(tab, basis, row, col)
        pivots.append((row, col))


def unit(m, i):
    out = [F(0)] * m
    out[i] = F(1)
    return out


def ref_simplex(M, d, c, pivots):
    m, n = len(M), len(c)
    if m == 0:
        if all(ci <= 0 for ci in c):
            return SimplexResult("optimal", [F(0)] * n, F(0), [], None)
        return SimplexResult("unbounded", None, None, None, None)
    flip = [di < 0 for di in d]
    rows = [[(-v if flip[i] else v) for v in M[i]] + unit(m, i) + [abs(F(d[i]))]
            for i in range(m)]
    basis = [n + i for i in range(m)]
    obj = [sum(col, F(0)) for col in zip(*rows)]
    for i in range(m):
        obj[n + i] = F(0)
    tab = rows + [obj]
    allowed = [True] * n + [False] * m
    assert ref_run_phase(tab, basis, allowed, pivots) == "optimal"
    if tab[-1][-1] != 0:
        y = [(F(-1) - tab[-1][n + i]) * (-1 if flip[i] else 1) for i in range(m)]
        return SimplexResult("infeasible", None, None, None, y)
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                ref_pivot(tab, basis, i, col)
                pivots.append((i, col))
    obj = [F(v) for v in c] + [F(0)] * (m + 1)
    for i in range(m):
        if basis[i] < n and obj[basis[i]] != 0:
            f = obj[basis[i]]
            obj = [a - f * b for a, b in zip(obj, tab[i])]
    tab[-1] = obj
    if ref_run_phase(tab, basis, allowed, pivots) == "unbounded":
        return SimplexResult("unbounded", None, None, None, None)
    x = [F(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), F(0))
    dual = [-tab[-1][n + i] * (-1 if flip[i] else 1) for i in range(m)]
    return SimplexResult("optimal", x, value, dual, None)


def ref_linear_system(A, rhs):
    m = len(A)
    n = len(A[0]) if m else 0
    work = [[F(v) for v in A[i]] + unit(m, i) + [F(rhs[i])] for i in range(m)]
    pivots, r = [], 0
    for col in range(n):
        sel = next((i for i in range(r, m) if work[i][col] != 0), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        ref_pivot(work, [], r, col)
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if work[i][-1] != 0:
            return ("inconsistent", [v / work[i][-1] for v in work[i][n:n + m]])
    x = [F(0)] * n
    for row, col in pivots:
        x[col] = work[row][-1]
    return ("solution", x)


def solve_counting_pivots(M, d, c):
    """simplex_solve's result and the (row, col) of each _pivot call."""
    calls = []
    real = exactlp._pivot

    def counted(tab, basis, row, col):
        calls.append((row, col))
        real(tab, basis, row, col)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_pivot", counted)
        res = simplex_solve(M, d, c)
    return res, calls


def assert_matches_reference(M, d, c):
    ref_pivots = []
    expected = ref_simplex(M, d, c, ref_pivots)
    res, pivots = solve_counting_pivots(M, d, c)
    assert res == expected
    assert pivots == ref_pivots
    for field in (res.x, res.dual, res.phase1_dual):
        assert all(type(v) is F for v in field or [])
    assert res.value is None or type(res.value) is F
    return res


# small rationals with repeated values, so that ratio ties and zero
# right-hand sides (degenerate vertices) come up often
SMALL = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 3), F(3, 4)])
WIDE = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def programs(draw):
    """max c.x s.t. M x = d, x >= 0, with 0-4 rows, some of them
    multiples of or sums of earlier rows (redundant or contradicting)."""
    entries = draw(st.sampled_from([SMALL, WIDE]))
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    M = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    d = draw(st.lists(entries, min_size=m, max_size=m))
    for i in range(1, m):
        kind = draw(st.sampled_from(["free", "free", "multiple", "sum"]))
        if kind == "multiple":
            s = draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
            M[i] = [s * v for v in M[0]]
            d[i] = s * d[0] + draw(st.sampled_from([F(0), F(0), F(1)]))
        elif kind == "sum":
            M[i] = [a + b for a, b in zip(M[0], M[i - 1])]
            d[i] = d[0] + d[i - 1]
    c = draw(st.lists(entries, min_size=n, max_size=n))
    return M, d, c


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(programs())
def test_simplex_matches_the_fraction_tableau(program):
    M, d, c = program
    assert_matches_reference(M, d, c)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(programs())
def test_linear_system_matches_the_fraction_elimination(program):
    A, rhs, _ = program
    assert solve_linear_system(A, rhs) == ref_linear_system(A, rhs)


@st.composite
def weight_programs(draw):
    """The tau program of a random comparison graph on 2-5 vertices:
    balance rows of the edge incidence matrix with loads summing to
    zero, and the two margin columns. Cycles make it unbounded."""
    m = draw(st.integers(2, 5))
    pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, min_size=1, max_size=7))
    b = draw(st.lists(WIDE, min_size=m - 1, max_size=m - 1))
    b.append(-sum(b, F(0)))
    A = [[F(0)] * len(edges) for _ in range(m)]
    for l, (u, v) in enumerate(edges):
        A[u][l] += 1
        A[v][l] -= 1
    ones = [sum(row, F(0)) for row in A]
    M = [A[i] + [ones[i], -ones[i]] for i in range(m)]
    c = [F(0)] * len(edges) + [F(1), F(-1)]
    return M, [-v for v in b], c, draw(st.sampled_from([F(1), F(5, 2), F(1, 7)]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weight_programs())
def test_weight_programs_and_the_capped_resolve_match(program):
    M, neg_b, c, cap = program
    A = [row[:-2] for row in M]
    assert solve_linear_system(A, neg_b) == ref_linear_system(A, neg_b)
    if assert_matches_reference(M, neg_b, c).status == "unbounded":
        L = len(c) - 2
        capped = [row + [F(0)] for row in M] + [[F(0)] * L + [F(1), F(-1), F(1)]]
        res = assert_matches_reference(capped, neg_b + [cap], c + [F(0)])
        assert res.status == "optimal" and res.value == cap


@pytest.mark.parametrize("M, d, c, status", [
    ([[F(1), F(1)]], [F(-1)], [F(1), F(0)], "infeasible"),
    ([[F(1), F(-1)]], [F(1)], [F(1), F(0)], "unbounded"),
    ([], [], [F(-1), F(0)], "optimal"),
    ([], [], [F(1)], "unbounded"),
    ([[F(1), F(1)], [F(2), F(2)]], [F(2), F(4)], [F(1), F(0)], "optimal"),
    # a degenerate vertex: both rows tie in the ratio test at zero
    ([[F(1), F(1), F(0)], [F(1), F(0), F(1)]], [F(0), F(0)], [F(1), F(0), F(0)], "optimal"),
])
def test_every_outcome_matches_the_reference(M, d, c, status):
    assert assert_matches_reference(M, d, c).status == status
