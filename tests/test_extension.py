import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_exactlp import ref_linear_system, ref_simplex
from zcrit import exactlp, extension
from zcrit.charge import ChernCharacter, central_charge, charge_preset
from zcrit.exactlp import solve_linear_system
from zcrit.extension import (
    ExtensionError,
    FiltrationGraph,
    QuotientSpec,
    TauSystem,
    assemble_tau_system,
    solve_tau_positive,
)
from zcrit.gaussian import GaussianRational
from zcrit.numring import class_from_dict, preset_ring
from zcrit.stability import PhaseVerdict, Relation, phase_compare

F = Fraction


def p2():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    rho, U = charge_preset("dhym", ring, h.scale(F(1, 3)))
    return ring, h, rho, U


def p2_character(ring, rank, c1, ch2):
    h = ring.gen("h")
    return ChernCharacter(ring.unit().scale(F(rank)) + h.scale(F(c1))
                          + (h * h).scale(F(ch2)))


def pinned_sequence(ring):
    ch_e = p2_character(ring, 3, 0, -2)
    ch_f = p2_character(ring, 2, 0, -2)
    ch_q = p2_character(ring, 1, 0, 0)
    return ch_e, ch_f, ch_q


# Reference for the tau loads: Z_Q/Z_E divided out as a power series in
# x = 1/k over the Gaussian rationals, independently of the comparison
# polynomial that assemble_tau_system reads its loads from.

def ref_series_inverse(d, order):
    inv = [GaussianRational.of(1) / d[0]]
    for j in range(1, order + 1):
        acc = GaussianRational()
        for i in range(1, j + 1):
            acc = acc + d[i] * inv[j - i]
        inv.append(-(acc / d[0]))
    return inv


def descending(z, n, count):
    """z_n, z_{n-1}, ... for count terms, zero below z_0: the x^0..
    coefficients of x^n Z(1/x)."""
    return [z[n - j] if 0 <= n - j < len(z) else GaussianRational() for j in range(count)]


def ref_ratio_series(z_num, z_den, order):
    """Coefficients of Z_num/Z_den in x = 1/k up to order, after
    factoring out k^n from both charges."""
    n = max(len(z_num), len(z_den)) - 1
    num = descending(z_num, n, order + 1)
    inv = ref_series_inverse(descending(z_den, n, order + 1), order)
    return [sum((num[i] * inv[j - i] for i in range(j + 1)), GaussianRational())
            for j in range(order + 1)]


def ref_profile(ring, omega, rho, U, ch_e, ch_q):
    """Im(Z_Q/Z_E) as a series in x = 1/k, to order 2n."""
    z_e = central_charge(ring, omega, rho, U, ch_e)
    z_q = central_charge(ring, omega, rho, U, ch_q)
    return [c.im for c in ref_ratio_series(z_q, z_e, 2 * ring.complex_dimension)]


def ref_loads(ring, omega, rho, U, ch_e, chars):
    """Common leading order q and the loads b_i = profile_i[q]."""
    profiles = [ref_profile(ring, omega, rho, U, ch_e, ch) for ch in chars]
    orders = [next((i for i, v in enumerate(p) if v != 0), None) for p in profiles]
    present = [o for o in orders if o is not None]
    if not present:
        return None, tuple(F(0) for _ in chars)
    q = min(present)
    return q, tuple(p[q] for p in profiles)


def test_ratio_series_inverts_exactly():
    ring, h, rho, U = p2()
    ch_e, ch_f, _ = pinned_sequence(ring)
    z_e = central_charge(ring, h, rho, U, ch_e)
    z_f = central_charge(ring, h, rho, U, ch_f)
    r = ref_ratio_series(z_f, z_e, 6)
    back = ref_ratio_series(z_e, z_e, 6)
    assert back[0] == GaussianRational.of(1)
    assert all(c.is_zero() for c in back[1:])
    # multiply the ratio back by the denominator series and recover Z_F
    n = 2
    den = descending(z_e, n, 7)
    num = descending(z_f, n, 7)
    for j in range(7):
        acc = GaussianRational()
        for i in range(j + 1):
            acc = acc + r[i] * den[j - i]
        assert acc == num[j]


def test_pinned_profiles_and_leading_order():
    ring, h, rho, U = p2()
    ch_e, ch_f, ch_q = pinned_sequence(ring)
    prof_f = ref_profile(ring, h, rho, U, ch_e, ch_f)
    prof_q = ref_profile(ring, h, rho, U, ch_e, ch_q)
    assert prof_f[:3] == [F(0)] * 3 and prof_f[3] == F(8, 27)
    assert prof_q[:3] == [F(0)] * 3 and prof_q[3] == F(-8, 27)
    # the phase comparison gives the same order and, over |z_{E,n}|^2,
    # the same leading coefficient
    z_e = central_charge(ring, h, rho, U, ch_e)
    v_f = phase_compare(central_charge(ring, h, rho, U, ch_f), z_e)
    assert v_f.order == 3 and v_f.leading / z_e[-1].abs2() == F(8, 27)


def test_assembly_structure():
    ring, h, rho, U = p2()
    ch_e, ch_f, ch_q = pinned_sequence(ring)
    graph = FiltrationGraph((QuotientSpec("Q", ch_q), QuotientSpec("F", ch_f)),
                            ((0, 1),))
    system = assemble_tau_system(ring, h, rho, U, ch_e, graph)
    assert system.order == 3
    assert system.b == (F(-8, 27), F(8, 27))
    assert sum(system.b) == 0
    assert system.A == ((F(1),), (F(-1),))


def test_assembly_rejects_bad_filtrations():
    ring, h, rho, U = p2()
    ch_e, ch_f, ch_q = pinned_sequence(ring)
    wrong_total = FiltrationGraph((QuotientSpec("Q", ch_q),), ())
    with pytest.raises(ExtensionError):
        assemble_tau_system(ring, h, rho, U, ch_e, wrong_total)
    with pytest.raises(ExtensionError):
        FiltrationGraph((), ())
    with pytest.raises(ExtensionError):
        FiltrationGraph((QuotientSpec("Q", ch_q), QuotientSpec("Q", ch_f)), ())
    with pytest.raises(ExtensionError):
        FiltrationGraph((QuotientSpec("Q", ch_q), QuotientSpec("F", ch_f)),
                        ((0, 0),))
    with pytest.raises(ExtensionError):
        FiltrationGraph((QuotientSpec("Q", ch_q), QuotientSpec("F", ch_f)),
                        ((0, 2),))


def test_pinned_two_component_orientations():
    ring, h, rho, U = p2()
    ch_e, ch_f, ch_q = pinned_sequence(ring)

    fwd = FiltrationGraph((QuotientSpec("Q", ch_q), QuotientSpec("F", ch_f)),
                          ((0, 1),))
    sol = solve_tau_positive(assemble_tau_system(ring, h, rho, U, ch_e, fwd))
    assert sol.feasible and sol.margin == F(8, 27)
    assert sol.tau == (F(8, 27),)
    assert sol.certificate["kind"] == "primal"

    rev = FiltrationGraph((QuotientSpec("F", ch_f), QuotientSpec("Q", ch_q)),
                          ((0, 1),))
    system = assemble_tau_system(ring, h, rho, U, ch_e, rev)
    sol = solve_tau_positive(system)
    assert not sol.feasible and sol.margin == F(-8, 27)
    cert = sol.certificate
    assert cert["kind"] == "dual"
    y = cert["y"]
    # the dual functional certifies the bound: nonnegative against every
    # edge column, normalised, and pairing to the margin
    for col in range(len(system.graph.edges)):
        assert sum(y[i] * system.A[i][col] for i in range(2)) >= 0
    ones = [sum(row) for row in system.A]
    assert sum(y[i] * ones[i] for i in range(2)) == 1
    assert sum(y[i] * -system.b[i] for i in range(2)) == F(-8, 27)


def test_disconnected_comparisons_are_inconsistent():
    ring, h, rho, U = p2()
    ch_e, ch_f, ch_q = pinned_sequence(ring)
    graph = FiltrationGraph((QuotientSpec("Q", ch_q), QuotientSpec("F", ch_f)), ())
    system = assemble_tau_system(ring, h, rho, U, ch_e, graph)
    sol = solve_tau_positive(system)
    assert not sol.feasible and sol.margin is None
    assert sol.certificate["kind"] == "inconsistent"
    y = sol.certificate["y"]
    assert sum(y[i] * system.b[i] for i in range(2)) != 0


def test_flat_chain_sits_on_the_boundary():
    # two identical quotients compared once: the unique weight is 0,
    # strict positivity fails with a zero-margin dual functional
    ring, h, rho, U = p2()
    half = p2_character(ring, 1, 0, -1)
    ch_e = half + half
    graph = FiltrationGraph((QuotientSpec("Q1", half), QuotientSpec("Q2", half)),
                            ((0, 1),))
    system = assemble_tau_system(ring, h, rho, U, ch_e, graph)
    assert system.order is None
    sol = solve_tau_positive(system)
    assert not sol.feasible and sol.margin == 0
    assert sol.certificate["kind"] == "dual"


def test_directed_cycle_caps_the_unbounded_margin():
    # opposite comparisons between the same pair: weights can ride the
    # cycle upward forever, so the margin is reported at the cap
    ring, h, rho, U = p2()
    half = p2_character(ring, 1, 0, -1)
    ch_e = half + half
    graph = FiltrationGraph((QuotientSpec("Q1", half), QuotientSpec("Q2", half)),
                            ((0, 1), (1, 0)))
    sol = solve_tau_positive(assemble_tau_system(ring, h, rho, U, ch_e, graph))
    assert sol.feasible and sol.margin == 1
    assert sol.certificate.get("cap") == 1
    assert sol.tau == (F(1), F(1))


def test_single_quotient_trivial_system():
    ring, h, rho, U = p2()
    ch_e = p2_character(ring, 3, 0, -2)
    graph = FiltrationGraph((QuotientSpec("E", ch_e),), ())
    system = assemble_tau_system(ring, h, rho, U, ch_e, graph)
    assert system.order is None and system.b == (F(0),)
    sol = solve_tau_positive(system)
    assert sol.feasible and sol.tau == ()


def random_character(rng, ring, rank):
    coeffs = {"1": F(rank)}
    fact = 1
    for j in range(1, ring.complex_dimension + 1):
        fact *= j
        coeffs["h" if j == 1 else f"h^{j}"] = F(rng.randint(-4, 4), fact)
    return ChernCharacter(class_from_dict(ring, coeffs))


def random_filtration_cases(seed=71, count=240):
    """Random filtrations on P2-P5 (dhym, and todd on P2) with random
    B-fields; about 30% of the quotients repeat an earlier character,
    so that phases tie and some systems are flat."""
    rng = random.Random(seed)
    rings = {n: preset_ring("projective_space", n=n) for n in (2, 3, 4, 5)}
    for _ in range(count):
        n = rng.choice((2, 3, 4, 5))
        ring = rings[n]
        h = ring.gen("h")
        preset = "todd" if n == 2 and rng.random() < 0.5 else "dhym"
        rho, U = charge_preset(preset, ring, h.scale(F(rng.randint(-3, 3), rng.randint(1, 3))))
        chars = []
        for _ in range(rng.randint(1, 4)):
            if chars and rng.random() < 0.3:
                chars.append(rng.choice(chars))
            else:
                chars.append(random_character(rng, ring, rng.randint(1, 2)))
        yield ring, h, rho, U, chars


def test_loads_match_the_series_reference():
    orders = set()
    for ring, h, rho, U, chars in random_filtration_cases():
        ch_e = chars[0]
        for ch in chars[1:]:
            ch_e = ch_e + ch
        specs = tuple(QuotientSpec(f"Q{i}", ch) for i, ch in enumerate(chars))
        edges = tuple((i, i + 1) for i in range(len(chars) - 1))
        system = assemble_tau_system(ring, h, rho, U, ch_e, FiltrationGraph(specs, edges))
        assert (system.order, system.b) == ref_loads(ring, h, rho, U, ch_e, chars)
        orders.add(system.order)
    assert {None, 1, 3} <= orders


def synthetic_system(ring, b, edges):
    unit = ChernCharacter(ring.unit())
    specs = tuple(QuotientSpec(f"q{i}", unit) for i in range(len(b)))
    A = [[F(0)] * len(edges) for _ in range(len(b))]
    for l, (u, v) in enumerate(edges):
        A[u][l] += 1
        A[v][l] -= 1
    return TauSystem(FiltrationGraph(specs, tuple(edges)), 3, tuple(b),
                     tuple(tuple(r) for r in A))


def test_random_trees_match_direct_elimination():
    # on a spanning tree the balance equations determine the weights
    # uniquely, so the LP answer must coincide with plain elimination
    rng = random.Random(23)
    ring = preset_ring("projective_space", n=2)
    for _ in range(60):
        m = rng.randint(2, 8)
        edges = []
        for v in range(1, m):
            u = rng.randint(0, v - 1)
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
        b = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m - 1)]
        b.append(-sum(b, F(0)))
        system = synthetic_system(ring, b, edges)
        sol = solve_tau_positive(system)
        status, tau = solve_linear_system([list(r) for r in system.A],
                                          [-x for x in b])
        assert status == "solution"
        assert sol.feasible == all(t > 0 for t in tau)
        assert sol.margin == min(tau)
        if sol.feasible:
            assert list(sol.tau) == tau


def ref_solve_tau_positive(system, cap):
    """The tau program decided the old way, on the Fraction tableau:
    Gauss-Jordan first for consistency, then the simplex on the
    consistent system. Returns (feasible, margin, tau, certificate
    kind) and the simplex pivots."""
    A = [list(row) for row in system.A]
    neg_b = [-x for x in system.b]
    pivots = []
    if ref_linear_system(A, neg_b)[0] == "inconsistent":
        return (False, None, None, "inconsistent"), pivots
    L = len(system.graph.edges)
    ones = [sum(row, F(0)) for row in A]
    M = [A[i] + [ones[i], -ones[i]] for i in range(len(A))]
    c = [F(0)] * L + [F(1), F(-1)]
    res = ref_simplex(M, neg_b, c, pivots)
    if res.status == "unbounded":
        M = [row + [F(0)] for row in M] + [[F(0)] * L + [F(1), F(-1), F(1)]]
        res = ref_simplex(M, neg_b + [cap], c + [F(0)], pivots)
    delta = res.x[L] - res.x[L + 1]
    tau = tuple(res.x[l] + delta for l in range(L))
    return (res.value > 0, res.value, tau, "primal" if res.value > 0 else "dual"), pivots


@st.composite
def weight_systems(draw):
    """Balance equations of a random comparison graph on 1-6 quotients:
    edges that may repeat, form cycles or leave the graph disconnected,
    and loads summing to zero, balanced on every connected component
    (a consistent system) or not (inconsistent once some component is
    unbalanced)."""
    m = draw(st.integers(1, 6))
    pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=7)) if m > 1 else []
    b = draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=7),
                      min_size=m, max_size=m))
    b[-1] -= sum(b, F(0))
    if draw(st.booleans()):
        root = list(range(m))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for u, v in edges:
            root[find(u)] = find(v)
        for r in {find(v) for v in range(m)}:
            b[r] -= sum((b[v] for v in range(m) if find(v) == r), F(0))
    cap = draw(st.sampled_from([F(1), F(5, 2), F(1, 7)]))
    return synthetic_system(preset_ring("projective_space", n=2), b, edges), cap


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(weight_systems())
def test_tau_matches_the_elimination_then_simplex_reference(drawn):
    system, cap = drawn
    expected, ref_pivots = ref_solve_tau_positive(system, cap)
    calls = []
    real = exactlp._pivot

    def counted(*args):
        calls.append(args[2:])
        real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_pivot", counted)
        sol = solve_tau_positive(system, cap=cap)
    kind = sol.certificate["kind"]
    assert (sol.feasible, sol.margin, sol.tau, kind) == expected
    if kind == "inconsistent":
        # y.A = 0 read on the edge list, and y.b != 0
        y = sol.certificate["y"]
        assert all(y[u] == y[v] for u, v in system.graph.edges)
        assert sum((yi * bi for yi, bi in zip(y, system.b)), F(0)) != 0
    else:
        # a consistent system is decided by the same simplex pivots
        assert calls == ref_pivots


def pinned_reverse_system():
    ring, h, rho, U = p2()
    ch_e, ch_f, ch_q = pinned_sequence(ring)
    rev = FiltrationGraph((QuotientSpec("F", ch_f), QuotientSpec("Q", ch_q)), ((0, 1),))
    return assemble_tau_system(ring, h, rho, U, ch_e, rev)


def test_unbalanced_loads_raise(monkeypatch):
    ring, h, rho, U = p2()
    ch_e, ch_f, ch_q = pinned_sequence(ring)
    graph = FiltrationGraph((QuotientSpec("Q", ch_q), QuotientSpec("F", ch_f)), ((0, 1),))
    monkeypatch.setattr(extension, "phase_compare",
                        lambda *args: PhaseVerdict(Relation.GREATER, 1, F(1)))
    with pytest.raises(ExtensionError, match="loads must balance"):
        assemble_tau_system(ring, h, rho, U, ch_e, graph)


def faked_simplex(monkeypatch, **changes):
    real = extension.simplex_solve
    monkeypatch.setattr(extension, "simplex_solve",
                        lambda *args: dataclasses.replace(real(*args), **changes))


@pytest.mark.parametrize("y, claim", [
    ((F(1), F(0)), "annihilate the balance matrix"),
    ((F(0), F(0)), "must not vanish on the loads"),
])
def test_bad_inconsistency_functional_raises(monkeypatch, y, claim):
    faked_simplex(monkeypatch, status="infeasible", phase1_dual=list(y))
    with pytest.raises(ExtensionError, match=claim):
        solve_tau_positive(pinned_reverse_system())


@pytest.mark.parametrize("changes, claim", [
    ({"dual": [F(0), F(1)]}, r"A\^T y >= 0"),
    ({"dual": [F(1, 2), F(0)]}, r"\(A 1\)\^T y = 1"),
    ({"value": F(-1)}, "dual objective must equal the margin"),
])
def test_bad_dual_certificate_raises(monkeypatch, changes, claim):
    faked_simplex(monkeypatch, **changes)
    with pytest.raises(ExtensionError, match=claim):
        solve_tau_positive(pinned_reverse_system())


@pytest.mark.parametrize("x", [
    [F(5), F(0), F(0)],            # tau = 5 on the one edge
    [F(0), F(8, 27), F(0)],        # the right margin carried by no edge weight
])
def test_unbalanced_weight_vector_raises(monkeypatch, x):
    faked_simplex(monkeypatch, x=x)
    with pytest.raises(ExtensionError, match="weight vector must balance the loads"):
        solve_tau_positive(pinned_reverse_system())


def test_capped_margin_off_the_cap_raises(monkeypatch):
    ring, h, rho, U = p2()
    half = p2_character(ring, 1, 0, -1)
    graph = FiltrationGraph((QuotientSpec("Q1", half), QuotientSpec("Q2", half)),
                            ((0, 1), (1, 0)))
    system = assemble_tau_system(ring, h, rho, U, half + half, graph)
    faked_simplex(monkeypatch, value=F(2))
    with pytest.raises(ExtensionError, match="capped margin must equal the cap"):
        solve_tau_positive(system)


def test_certificate_checks_run_under_optimisation():
    code = (
        "from fractions import Fraction\n"
        "from zcrit import extension\n"
        "from zcrit.charge import ChernCharacter, charge_preset\n"
        "from zcrit.numring import preset_ring\n"
        "ring = preset_ring('projective_space', n=2)\n"
        "h = ring.gen('h')\n"
        "rho, U = charge_preset('dhym', ring, h)\n"
        "q = ChernCharacter(ring.unit())\n"
        "graph = extension.FiltrationGraph((extension.QuotientSpec('A', q),\n"
        "                                   extension.QuotientSpec('B', q)), ((0, 1),))\n"
        "from zcrit.stability import PhaseVerdict, Relation\n"
        "extension.phase_compare = lambda *args: PhaseVerdict(Relation.GREATER, 1, Fraction(1))\n"
        "try:\n"
        "    extension.assemble_tau_system(ring, h, rho, U, q + q, graph)\n"
        "except extension.ExtensionError:\n"
        "    print('raised')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
