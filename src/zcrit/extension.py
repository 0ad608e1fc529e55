"""Positive weight systems on filtration graphs.

A filtration of E with torsion-free quotients Q_1..Q_m induces, at the
leading order q of the phase discrepancies, one balance equation per
quotient: the normalised discrepancy b_i of Q_i plus the weights of the
outgoing edges minus the weights of the incoming ones must vanish. The
filtration admits a strictly positive weight system exactly when the
linear program

    maximise delta  subject to  A tau = -b,  tau_l >= delta

has positive optimum. Everything here is exact. The discrepancy of Q_i
is the leading coefficient of Im(Z_Q/Z_E) in x = 1/k, and it comes
from the phase comparison in stability: with P = Im(Z_Q conj Z_E) and
n = dim X,

    Im(Z_Q/Z_E) = P(1/x) x^{2n} / (|Z_E|^2 x^{2n}),

where |Z_E|^2 x^{2n} is a real series in x with constant term
|z_{E,n}|^2 > 0. So the first nonzero x-coefficient sits at the
discrepancy order q = 2n - deg P and equals p_{2n-q} / |z_{E,n}|^2.
The linear program runs over rationals, and every outcome ships a
certificate that can be checked independently (a solving weight
vector, an optimal dual vector, or an inconsistency functional for the
balance equations). One simplex run decides all three: tau is free in
the program, so it is infeasible exactly when the balance equations
are inconsistent, and the phase-1 functional is then the inconsistency
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .charge import ChernCharacter, StabilityVector, UnipotentOperator, charge_map
# unused here; kept because the benchmark's traced run wraps them on this module
from .charge import central_charge  # noqa: F401
from .exactlp import solve_linear_system  # noqa: F401
from .exactlp import simplex_solve
from .numring import GradedClass, NumericalRing
from .stability import phase_compare


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


@dataclass(frozen=True)
class TauSystem:
    graph: FiltrationGraph
    order: Optional[int]            # common leading order q, None if all flat
    b: Tuple[Fraction, ...]         # discrepancy load per quotient
    A: Tuple[Tuple[Fraction, ...], ...]   # incidence matrix, rows = quotients


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
    total = graph.quotients[0].ch
    for spec in graph.quotients[1:]:
        total = total + spec.ch
    if total.cls != ch_e.cls:
        raise ExtensionError("quotient characters must sum to the total character")
    for spec in graph.quotients:
        if spec.ch.rank < 1:
            raise ExtensionError(f"quotient {spec.name!r} must have positive rank")
    charge = charge_map(ring, omega, rho, [U.cls])
    z_e = [row[0] for row in charge(ch_e)]
    verdicts = [phase_compare([row[0] for row in charge(spec.ch)], z_e)
                for spec in graph.quotients]
    present = [v.order for v in verdicts if v.order is not None]
    q = min(present) if present else None
    scale = z_e[-1].abs2()
    b = tuple(v.leading / scale if q is not None and v.order == q else Fraction(0)
              for v in verdicts)
    _certify(sum(b, Fraction(0)) == 0, "discrepancy loads must balance")
    m = len(graph.quotients)
    A = [[Fraction(0)] * len(graph.edges) for _ in range(m)]
    for l, (u, v) in enumerate(graph.edges):
        A[u][l] += 1
        A[v][l] -= 1
    return TauSystem(graph, q, b, tuple(tuple(r) for r in A))


@dataclass(frozen=True)
class TauSolution:
    feasible: bool                   # a strictly positive weight system exists
    margin: Optional[Fraction]       # optimal min-weight, None if inconsistent
    tau: Optional[Tuple[Fraction, ...]]
    certificate: Dict


def _edge_sums(graph: FiltrationGraph, w: Sequence[Fraction]) -> list:
    """A w, read off the edge list: edge l = (u, v) adds w_l at u and
    -w_l at v."""
    out = [0] * len(graph.quotients)
    for (u, v), t in zip(graph.edges, w):
        out[u] += t
        out[v] -= t
    return out


def _check_primal(system: TauSystem, tau: Sequence[Fraction]) -> None:
    _certify(_edge_sums(system.graph, tau) == [-b for b in system.b],
             "weight vector must balance the loads")


# the bound on the margin under which an unbounded program is re-solved
MARGIN_CAP = Fraction(1)


def solve_tau_positive(system: TauSystem) -> TauSolution:
    """Decide strict positivity of the weight system, with certificate.

    The program runs on tau = x + delta 1 with x >= 0 and delta free,
    split as delta = d+ - d-. Outcomes: balance equations inconsistent
    (functional y with y.A = 0, y.b != 0); solvable with optimal margin
    delta* > 0 (solving weights attached); or delta* <= 0 (optimal dual
    y with A^T y >= 0, (A 1)^T y = 1, -b.y = delta*). A graph containing
    no directed cycle always gives a bounded program; if the margin is
    unbounded anyway, it is re-solved under min-weight <= MARGIN_CAP and
    reported with the cap noted. The certificates are checked on the
    edge list: (A^T y)_l = y_u - y_v for edge l = (u, v).
    """
    m = len(system.b)
    L = len(system.graph.edges)
    neg_b = [-x for x in system.b]
    a_ones = [Fraction(s) for s in _edge_sums(system.graph, [1] * L)]
    M = [[*row, a, -a] for row, a in zip(system.A, a_ones)]
    c = [Fraction(0)] * L + [Fraction(1), Fraction(-1)]
    res = simplex_solve(M, neg_b, c)
    if res.status == "infeasible":
        # tau is free, so the program is infeasible exactly when A tau = -b
        # is: the phase-1 functional has y.M >= 0 on the columns A, A 1 and
        # -A 1, which forces y.A = 0, and y.(-b) < 0
        y = res.phase1_dual
        _certify(
            all(y[u] == y[v] for u, v in system.graph.edges),
            "inconsistency functional must annihilate the balance matrix",
        )
        _certify(
            sum((yi * bi for yi, bi in zip(y, system.b)), Fraction(0)) != 0,
            "inconsistency functional must not vanish on the loads",
        )
        return TauSolution(False, None, None, {"kind": "inconsistent", "y": tuple(y)})

    capped = False
    if res.status == "unbounded":
        capped = True
        M = [row + [Fraction(0)] for row in M]
        M.append([Fraction(0)] * L + [Fraction(1), Fraction(-1), Fraction(1)])
        res = simplex_solve(M, neg_b + [MARGIN_CAP], c + [Fraction(0)])
        _certify(res.status == "optimal" and res.value == MARGIN_CAP,
                 "capped margin must equal the cap")
    if res.status != "optimal":
        raise ExtensionError(f"unexpected optimisation status {res.status}")

    margin = res.value
    delta = res.x[L] - res.x[L + 1]
    tau = tuple([res.x[l] + delta for l in range(L)])
    _check_primal(system, tau)
    if margin > 0:
        cert = {"kind": "primal", "tau": tau, "margin": margin}
        if capped:
            cert["cap"] = MARGIN_CAP
        return TauSolution(True, margin, tau, cert)

    y = res.dual[:m]
    edge_y = [y[u] - y[v] for u, v in system.graph.edges]
    _certify(all(t >= 0 for t in edge_y), "dual vector must satisfy A^T y >= 0")
    _certify(sum(edge_y, Fraction(0)) == 1, "dual vector must satisfy (A 1)^T y = 1")
    _certify(
        sum((yi * bi for yi, bi in zip(y, neg_b)), Fraction(0)) == margin,
        "dual objective must equal the margin",
    )
    return TauSolution(False, margin, tau, {"kind": "dual", "y": tuple(y), "margin": margin})
