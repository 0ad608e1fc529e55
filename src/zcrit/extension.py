"""Positive weight systems on filtration graphs.

A filtration of E with torsion-free quotients Q_1..Q_m induces, at the
leading order q of the phase discrepancies, one balance equation per
quotient: the normalised discrepancy b_i of Q_i plus the weights of the
outgoing edges minus the weights of the incoming ones must vanish. The
filtration admits a strictly positive weight system exactly when the
linear program

    maximise delta  subject to  A tau = -b,  tau_l >= delta

has positive optimum. Everything here is exact: the discrepancies come
from power-series division of central charges in x = 1/k, the linear
program runs over rationals, and every outcome ships a certificate
that can be checked independently (a solving weight vector, an optimal
dual vector, or an inconsistency functional for the balance equations).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .charge import (
    CentralChargePolynomial,
    ChernCharacter,
    StabilityVector,
    UnipotentOperator,
    central_charge,
)
from .exactlp import simplex_solve, solve_linear_system
from .gaussian import GaussianRational
from .numring import GradedClass, NumericalRing


class ExtensionError(ValueError):
    pass


class CertificateError(ExtensionError):
    """A computed certificate failed its independent check: a defect in
    this package, not in the input."""


def _certify(holds: bool, claim: str) -> None:
    """Certificate check that also runs under python -O."""
    if not holds:
        raise CertificateError(f"certificate check failed: {claim}")


@dataclass(frozen=True)
class QuotientSpec:
    name: str
    ch: ChernCharacter


@dataclass(frozen=True)
class FiltrationGraph:
    """Directed comparison graph on the quotients of a filtration.

    Edge l = (u, v) carries an unknown weight tau_l entering the
    balance equation of u with sign + and of v with sign -.
    """

    quotients: Tuple[QuotientSpec, ...]
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if not self.quotients:
            raise ExtensionError("filtration needs at least one quotient")
        names = [q.name for q in self.quotients]
        if len(set(names)) != len(names):
            raise ExtensionError("quotient names must be distinct")
        m = len(self.quotients)
        for u, v in self.edges:
            if not (0 <= u < m and 0 <= v < m):
                raise ExtensionError(f"edge ({u}, {v}) leaves the vertex range")
            if u == v:
                raise ExtensionError(f"edge ({u}, {v}) is a loop")


def _series_inverse(d: Sequence[GaussianRational], order: int) -> List[GaussianRational]:
    if d[0].is_zero():
        raise ExtensionError("series with vanishing constant term has no inverse")
    inv = [GaussianRational.of(1) / d[0]]
    for j in range(1, order + 1):
        acc = GaussianRational()
        for i in range(1, j + 1):
            di = d[i] if i < len(d) else GaussianRational()
            acc = acc + di * inv[j - i]
        inv.append(-(acc / d[0]))
    return inv


def charge_ratio_series(
    z_num: CentralChargePolynomial,
    z_den: CentralChargePolynomial,
    order: int,
) -> List[GaussianRational]:
    """Coefficients of Z_num/Z_den as a series in x = 1/k up to order.

    Both charges are reindexed by x = 1/k after factoring out k^n, so
    the constant term of the denominator is its top k-coefficient,
    which must not vanish.
    """
    n = max(len(z_num), len(z_den)) - 1
    num = [z_num[n - j] for j in range(order + 1)]
    den = [z_den[n - j] for j in range(order + 1)]
    inv = _series_inverse(den, order)
    out = []
    for j in range(order + 1):
        acc = GaussianRational()
        for i in range(j + 1):
            acc = acc + num[i] * inv[j - i]
        out.append(acc)
    return out


def abs_critical_profile(
    ring: NumericalRing,
    omega: GradedClass,
    rho: StabilityVector,
    U: UnipotentOperator,
    ch_e: ChernCharacter,
    ch_q: ChernCharacter,
) -> List[Fraction]:
    """Imaginary part of Z_Q/Z_E as a series in 1/k, to order 2n.

    The first nonzero entry sits at the discrepancy order of Q against
    E; the profile is identically zero iff the phases agree to all
    orders, in particular when Q = E.
    """
    n = ring.complex_dimension
    z_e = central_charge(ring, omega, rho, U, ch_e)
    z_q = central_charge(ring, omega, rho, U, ch_q)
    series = charge_ratio_series(z_q, z_e, 2 * n)
    return [c.im for c in series]


def first_nonzero(values: Sequence[Fraction]) -> Optional[int]:
    for i, v in enumerate(values):
        if v != 0:
            return i
    return None


@dataclass(frozen=True)
class TauSystem:
    graph: FiltrationGraph
    order: Optional[int]            # common leading order q, None if all flat
    b: Tuple[Fraction, ...]         # discrepancy load per quotient
    A: Tuple[Tuple[Fraction, ...], ...]   # incidence matrix, rows = quotients
    profiles: Tuple[Tuple[Fraction, ...], ...]


def assemble_tau_system(
    ring: NumericalRing,
    omega: GradedClass,
    rho: StabilityVector,
    U: UnipotentOperator,
    ch_e: ChernCharacter,
    graph: FiltrationGraph,
) -> TauSystem:
    """Balance equations of the filtration at its leading order.

    Requires the quotient characters to sum to the character of E
    (additivity on the filtration) and every quotient to have positive
    rank. The loads b_i always sum to zero because the charge ratios
    sum to 1 identically.
    """
    n = ring.complex_dimension
    total = graph.quotients[0].ch
    for spec in graph.quotients[1:]:
        total = total + spec.ch
    if total.cls != ch_e.cls:
        raise ExtensionError("quotient characters must sum to the total character")
    profiles = []
    for spec in graph.quotients:
        if spec.ch.rank < 1:
            raise ExtensionError(f"quotient {spec.name!r} must have positive rank")
        profiles.append(tuple(abs_critical_profile(ring, omega, rho, U, ch_e, spec.ch)))
    orders = [first_nonzero(p) for p in profiles]
    present = [o for o in orders if o is not None]
    q = min(present) if present else None
    if q is None:
        b = tuple(Fraction(0) for _ in profiles)
    else:
        b = tuple(p[q] for p in profiles)
    _certify(sum(b, Fraction(0)) == 0, "discrepancy loads must balance")
    m = len(graph.quotients)
    A = [[Fraction(0)] * len(graph.edges) for _ in range(m)]
    for l, (u, v) in enumerate(graph.edges):
        A[u][l] += 1
        A[v][l] -= 1
    return TauSystem(graph, q, b, tuple(tuple(r) for r in A), tuple(profiles))


@dataclass(frozen=True)
class TauSolution:
    feasible: bool                   # a strictly positive weight system exists
    margin: Optional[Fraction]       # optimal min-weight, None if inconsistent
    tau: Optional[Tuple[Fraction, ...]]
    certificate: Dict


def _check_primal(system: TauSystem, tau: Sequence[Fraction]) -> None:
    for i, row in enumerate(system.A):
        lhs = sum((row[l] * tau[l] for l in range(len(tau))), Fraction(0))
        _certify(lhs == -system.b[i], "weight vector must balance the loads")


def solve_tau_positive(system: TauSystem, cap: Fraction = Fraction(1)) -> TauSolution:
    """Decide strict positivity of the weight system, with certificate.

    Outcomes: balance equations inconsistent (functional y with
    y.A = 0, y.b != 0); solvable with optimal margin delta* > 0
    (solving weights attached); or delta* <= 0 (optimal dual y with
    A^T y >= 0, (A 1)^T y = 1, -b.y = delta*). A graph containing no
    directed cycle always gives a bounded program; if the margin is
    unbounded anyway, it is re-solved under min-weight <= cap and
    reported with the cap noted.
    """
    m = len(system.b)
    L = len(system.graph.edges)
    A = [list(row) for row in system.A]
    neg_b = [-x for x in system.b]

    status, cert = solve_linear_system(A, neg_b)
    if status == "inconsistent":
        y = cert
        _certify(
            all(sum((y[i] * A[i][l] for i in range(m)), Fraction(0)) == 0 for l in range(L)),
            "inconsistency functional must annihilate the balance matrix",
        )
        _certify(
            sum((y[i] * system.b[i] for i in range(m)), Fraction(0)) != 0,
            "inconsistency functional must not vanish on the loads",
        )
        return TauSolution(False, None, None, {"kind": "inconsistent", "y": tuple(y)})

    a_ones = [sum(row, Fraction(0)) for row in A]
    M = [A[i] + [a_ones[i], -a_ones[i]] for i in range(m)]
    c = [Fraction(0)] * L + [Fraction(1), Fraction(-1)]
    res = simplex_solve(M, neg_b, c)
    capped = False
    if res.status == "unbounded":
        capped = True
        M = [row + [Fraction(0)] for row in M]
        M.append([Fraction(0)] * L + [Fraction(1), Fraction(-1), Fraction(1)])
        res = simplex_solve(M, neg_b + [cap], c + [Fraction(0)])
        _certify(
            res.status == "optimal" and res.value == cap, "capped margin must equal the cap"
        )
    if res.status != "optimal":
        raise ExtensionError(f"unexpected optimisation status {res.status}")

    margin = res.value
    delta = res.x[L] - res.x[L + 1]
    tau = tuple(res.x[l] + delta for l in range(L))
    _check_primal(system, tau)
    if margin > 0:
        cert = {"kind": "primal", "tau": tau, "margin": margin}
        if capped:
            cert["cap"] = cap
        return TauSolution(True, margin, tau, cert)

    y = res.dual[:m]
    _certify(
        all(sum((y[i] * A[i][l] for i in range(m)), Fraction(0)) >= 0 for l in range(L)),
        "dual vector must satisfy A^T y >= 0",
    )
    _certify(
        sum((y[i] * a_ones[i] for i in range(m)), Fraction(0)) == 1,
        "dual vector must satisfy (A 1)^T y = 1",
    )
    _certify(
        sum((y[i] * neg_b[i] for i in range(m)), Fraction(0)) == margin,
        "dual objective must equal the margin",
    )
    return TauSolution(False, margin, tau, {"kind": "dual", "y": tuple(y), "margin": margin})
