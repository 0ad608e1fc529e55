"""Exact rational linear programming by two-phase tableau simplex.

Solves max c.x subject to M x = d, x >= 0 exactly over the rationals.
Bland's rule makes cycling impossible, so termination is unconditional.
The tableau keeps the artificial columns of phase 1 alive (never again
eligible to enter), which preserves the running basis inverse and lets
us read off exact dual vectors at optimality; callers use those to
build independently checkable certificates.

Rows are held on integers (integer-preserving elimination, after
Edmonds and Bareiss): a row is one list [den, n_0, ..., n_w] with
den > 0, entry j is n_j/den, and the list is kept primitive by one gcd
over the whole row after every update. The pivot row's entries become
n_j/p over its pivot numerator p; every other row t with entry f in the
pivot column becomes (p*t - f*prow) over den_t*p. So the integer rows
are the same rational tableau the textbook method holds, and every
decision is made on its exact values: a reduced cost is positive
exactly when its numerator is, and within a row the denominator
cancels from the ratio rhs_i/a_i, which the ratio test compares by
integer cross-multiplication with ties to the lower basis index. The
pivots are therefore Bland's pivots on that tableau, and the results
are Fractions built only at the end.

The hot path builds no argument tuple from a generator (f(*genexpr),
tuple(genexpr)): on CPython 3.11 each such call leaves a few bytes that
only a full collection frees, and in a long run of small programs that
grows the resident set. Lists are unpacked instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence


class LinearProgramError(ValueError):
    pass


@dataclass
class SimplexResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    x: Optional[List[Fraction]]      # primal optimum
    value: Optional[Fraction]        # objective at optimum
    dual: Optional[List[Fraction]]   # y with y.M >= c componentwise, y.d = value
    phase1_dual: Optional[List[Fraction]]  # on infeasibility: y.M >= 0, y.d < 0


def _primitive(row: List[int]) -> List[int]:
    g = gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _int_row(values: Sequence[Fraction]) -> List[int]:
    """values as one primitive integer row [den, n_0, ...]."""
    den = lcm(*[v.denominator for v in values])
    return [den] + [v.numerator * (den // v.denominator) for v in values]


def _augmented(values: Sequence[Fraction], rhs: Fraction, i: int, m: int) -> List[int]:
    """The row [values | e_i | rhs] of a tableau with m rows."""
    row = _int_row([*values, rhs])
    unit = [0] * m
    unit[i] = row[0]
    return row[:-1] + unit + row[-1:]


def _reduce(row: List[int], prow: List[int], k: int) -> List[int]:
    """row minus row[k] times prow, where prow holds 1 at slot k."""
    p, f = prow[0], row[k]
    out = [p * a - f * b for a, b in zip(row, prow)]
    out[0] = p * row[0]
    return _primitive(out)


def _eliminate(rows: List[List[int]], r: int, k: int) -> None:
    """Scale row r to 1 at slot k and clear slot k from every other row."""
    prow = rows[r]
    if prow[k] < 0:
        prow = [-v for v in prow]
    rows[r] = prow = _primitive([prow[k]] + prow[1:])
    for t in range(len(rows)):
        if t != r and rows[t][k] != 0:
            rows[t] = _reduce(rows[t], prow, k)


def _pivot(tab: List[List[int]], basis: List[int], row: int, col: int) -> None:
    _eliminate(tab, row, col + 1)
    if row < len(basis):
        basis[row] = col


def _run_phase(tab: List[List[int]], basis: List[int], n: int) -> str:
    """Pivot to optimality of the objective stored in the last row.

    The objective row holds reduced costs for maximisation: entry j > 0
    means column j improves the objective. Only the first n columns may
    enter. Bland's rule throughout.
    """
    m = len(basis)
    while True:
        cost = tab[-1]
        col = -1
        for j in range(n):
            if cost[j + 1] > 0:
                col = j
                break
        if col < 0:
            return "optimal"
        k = col + 1
        row = -1
        best_rhs = best_a = 0
        for i in range(m):
            t = tab[i]
            a = t[k]
            if a > 0:
                lhs, rhs = t[-1] * best_a, best_rhs * a
                if row < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    best_rhs, best_a, row = t[-1], a, i
        if row < 0:
            return "unbounded"
        _pivot(tab, basis, row, col)


def simplex_solve(
    M: Sequence[Sequence[Fraction]],
    d: Sequence[Fraction],
    c: Sequence[Fraction],
) -> SimplexResult:
    """max c.x subject to M x = d, x >= 0, everything exact."""
    m = len(M)
    n = len(c)
    if any(len(row) != n for row in M) or len(d) != m:
        raise LinearProgramError("inconsistent system dimensions")
    if m == 0:
        if all(ci <= 0 for ci in c):
            return SimplexResult("optimal", [Fraction(0)] * n, Fraction(0), [], None)
        return SimplexResult("unbounded", None, None, None, None)

    flip = [di < 0 for di in d]
    # artificial columns n..n+m-1 start as the identity
    tab = [_augmented([-v for v in M[i]] if flip[i] else M[i], abs(Fraction(d[i])), i, m)
           for i in range(m)]
    basis = [n + i for i in range(m)]

    # phase 1: maximise minus the sum of artificials; the bottom row
    # holds reduced costs and, in its last slot, minus the objective
    den = lcm(*[row[0] for row in tab])
    obj = [den] + [0] * (n + m + 1)
    for row in tab:
        s = den // row[0]
        for j in range(1, n + 1):
            obj[j] += s * row[j]
        obj[-1] += s * row[-1]
    tab.append(_primitive(obj))
    if _run_phase(tab, basis, n) != "optimal":
        raise LinearProgramError("phase 1 cannot be unbounded")
    obj = tab[-1]
    if obj[-1] != 0:
        # infeasible: y = c_B B^-1 from the artificial columns gives a
        # certificate with y.M >= 0 componentwise and y.d < 0
        y = [Fraction((obj[0] + obj[n + 1 + i]) * (1 if flip[i] else -1), obj[0])
             for i in range(m)]
        return SimplexResult("infeasible", None, None, None, y)

    # drive any zero-level artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j + 1] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
            # an all-zero row is a redundant constraint; its artificial
            # stays basic at level zero and never moves again

    # phase 2: real objective expressed through the current basis
    obj = _int_row(c) + [0] * (m + 1)
    for i in range(m):
        k = basis[i] + 1
        if k <= n and obj[k] != 0:
            obj = _reduce(obj, tab[i], k)
    tab[-1] = obj
    if _run_phase(tab, basis, n) == "unbounded":
        return SimplexResult("unbounded", None, None, None, None)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], tab[i][0])
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    # y = c_B B^{-1} appears negated in the artificial part of the
    # objective row; undo the row sign flips from the start
    obj = tab[-1]
    dual = [Fraction(obj[n + 1 + i] * (1 if flip[i] else -1), obj[0]) for i in range(m)]
    return SimplexResult("optimal", x, value, dual, None)


def solve_linear_system(
    A: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple:
    """Exact Gauss-Jordan elimination for A x = rhs.

    Returns ("solution", x) picking zero for the free variables, or
    ("inconsistent", y) with a row combination y satisfying y.A = 0 and
    y.rhs = 1.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    # augment with the identity to track the row operations
    work = [_augmented(A[i], Fraction(rhs[i]), i, m) for i in range(m)]
    pivots: List[tuple] = []
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, m) if work[i][col + 1] != 0), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        _eliminate(work, r, col + 1)
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if work[i][-1] != 0:
            scale = work[i][-1]
            return ("inconsistent", [Fraction(v, scale) for v in work[i][n + 1:n + 1 + m]])
    x = [Fraction(0)] * n
    for row, col in pivots:
        x[col] = Fraction(work[row][-1], work[row][0])
    return ("solution", x)
