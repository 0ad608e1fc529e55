import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from zcrit.charge import ChernCharacter, central_charge, charge_preset
from zcrit.gaussian import GaussianRational
from zcrit import stability
from zcrit.numring import class_from_dict, preset_ring, ring_from_dict
from zcrit.realroots import poly_eval
from zcrit.stability import (
    PhaseVerdict,
    Relation,
    StabilityError,
    SubobjectCandidate,
    comparison_polynomial,
    phase_compare,
    stability_verdict,
    wall_scan,
)

F = Fraction


def g(re, im=0):
    return GaussianRational(F(re), F(im))


def p2_setup(b):
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    rho, U = charge_preset("dhym", ring, h.scale(F(b)))
    return ring, h, rho, U


def p2_character(ring, rank, c1, ch2):
    h = ring.gen("h")
    return ChernCharacter(ring.unit().scale(F(rank)) + h.scale(F(c1))
                          + (h * h).scale(F(ch2)))


def two_factor_ring():
    return ring_from_dict({
        "name": "two_factor", "complex_dimension": 3,
        "generators": [
            {"name": "1", "degree": 0}, {"name": "a", "degree": 2},
            {"name": "b", "degree": 2}, {"name": "ab", "degree": 4},
            {"name": "b^2", "degree": 4}, {"name": "ab^2", "degree": 6}],
        "products": [
            ["a", "b", {"ab": "1"}], ["b", "b", {"b^2": "1"}],
            ["a", "b^2", {"ab^2": "1"}], ["b", "ab", {"ab^2": "1"}]],
        "integration": {"ab^2": "1"},
    })


def test_comparison_polynomial_of_the_pinned_pair():
    ring, h, rho, U = p2_setup(F(1, 3))
    z_e = central_charge(ring, h, rho, U, p2_character(ring, 3, 0, -2))
    z_f = central_charge(ring, h, rho, U, p2_character(ring, 2, 0, -2))
    # the k^4..k^2 and k^0 coefficients cancel; only 2/3 k survives
    assert comparison_polynomial(z_f, z_e) == [F(0), F(2, 3), F(0), F(0), F(0)]
    v = phase_compare(z_f, z_e)
    assert v.relation is Relation.GREATER
    assert v.order == 3 and v.leading == F(2, 3)


def test_verdict_depends_on_candidate_kind():
    ring, h, rho, U = p2_setup(F(1, 3))
    ch_e = p2_character(ring, 3, 0, -2)
    ch_f = p2_character(ring, 2, 0, -2)

    as_sub = stability_verdict(ring, h, rho, U, ch_e,
                               [SubobjectCandidate("F", ch_f, "subbundle")])
    assert (as_sub.status, as_sub.witness, as_sub.order) == ("unstable", "F", 3)
    assert as_sub.details[0].verdict.leading == F(2, 3)

    as_quot = stability_verdict(ring, h, rho, U, ch_e,
                                [SubobjectCandidate("F", ch_f, "quotient")])
    assert as_quot.status == "stable"


def test_exact_tie_is_semistable():
    ring, h, rho, U = p2_setup(0)      # untwisted: both charges are real
    ch_e = p2_character(ring, 3, 0, -2)
    ch_f = p2_character(ring, 2, 0, -2)
    rep = stability_verdict(ring, h, rho, U, ch_e,
                            [SubobjectCandidate("F", ch_f, "subbundle")])
    assert rep.status == "semistable" and rep.witness == "F"
    assert rep.details[0].verdict.relation is Relation.EQUAL


def test_seesaw_between_subobject_and_quotient():
    rng = random.Random(11)
    flip = {Relation.GREATER: Relation.LESS, Relation.LESS: Relation.GREATER,
            Relation.EQUAL: Relation.EQUAL}
    ring, h, rho, U = p2_setup(F(1, 3))
    ch_e = p2_character(ring, 4, 1, F(-5, 2))
    z_e = central_charge(ring, h, rho, U, ch_e)
    for _ in range(25):
        ch_f = p2_character(ring, rng.randint(1, 3), rng.randint(-3, 3),
                            F(rng.randint(-8, 8), rng.randint(1, 5)))
        z_f = central_charge(ring, h, rho, U, ch_f)
        z_q = tuple(e - f for e, f in zip(z_e, z_f))   # additivity on 0 -> F -> E -> Q -> 0
        a, b = phase_compare(z_f, z_e), phase_compare(z_q, z_e)
        assert b.relation is flip[a.relation]
        assert a.order == b.order


def test_verdict_invariant_under_positive_rescaling():
    ring, h, rho, U = p2_setup(F(1, 3))
    z_e = central_charge(ring, h, rho, U, p2_character(ring, 3, 0, -2))
    z_f = central_charge(ring, h, rho, U, p2_character(ring, 2, 0, -2))
    base = phase_compare(z_f, z_e)
    scaled = phase_compare(tuple(c.scale(F(7, 5)) for c in z_f),
                           tuple(c.scale(F(3)) for c in z_e))
    assert scaled.relation is base.relation and scaled.order == base.order


def test_slope_bracket_agrees_with_subleading_coefficient():
    # p_{2n} cancels, and p_{2n-1} has the sign of the twisted slope
    # bracket deg_U(F) rk(E) - deg_U(E) rk(F), where
    # deg_U = integrate(h * (ch_1 + rank * U_2)) and U_2 = -h/3 here
    ring, h, rho, U = p2_setup(F(1, 3))
    z_e = central_charge(ring, h, rho, U, p2_character(ring, 3, 0, -2))   # deg_U -1
    pairs = ((p2_character(ring, 2, 0, -2), 0),     # deg_U -2/3: bracket -2 + 2
             (p2_character(ring, 1, 1, 0), 3))      # deg_U 2/3: bracket 2 + 1
    for ch_f, bracket in pairs:
        p = comparison_polynomial(central_charge(ring, h, rho, U, ch_f), z_e)
        assert p[4] == 0
        assert (p[3] > 0) - (p[3] < 0) == (bracket > 0) - (bracket < 0)


def test_candidate_rank_constraints():
    ring, h, rho, U = p2_setup(0)
    ch_e = p2_character(ring, 2, 0, 0)
    with pytest.raises(StabilityError):
        stability_verdict(ring, h, rho, U, ch_e,
                          [SubobjectCandidate("X", p2_character(ring, 2, 0, 0))])
    with pytest.raises(StabilityError):
        stability_verdict(ring, h, rho, U, ch_e,
                          [SubobjectCandidate("X", p2_character(ring, 0, 1, 0))])
    with pytest.raises(StabilityError):
        SubobjectCandidate("X", p2_character(ring, 1, 0, 0), "factor")


def test_phase_compare_rejects_abnormal_leading():
    ok = (g(0), g(0, 1))
    lower = (g(0), g(0, -1))
    zero = (g(0),)
    with pytest.raises(StabilityError):
        phase_compare(lower, ok)
    with pytest.raises(StabilityError):
        phase_compare(ok, zero)


def test_pinned_wall_scan_on_projective_plane():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    ch_e = p2_character(ring, 3, 0, -2)
    cands = [SubobjectCandidate("F", p2_character(ring, 2, 0, -2), "subbundle")]

    scan = wall_scan(ring, h, ch_e, cands, None, h, F(-1), F(1), preset="dhym")
    assert [c.report.status for c in scan.cells] == ["stable", "unstable"]
    assert len(scan.walls) == 1
    w = scan.walls[0]
    assert w.exact == 0 and w.report.status == "semistable"
    assert (w.status_left, w.status_right) == ("stable", "unstable")

    scan_t = wall_scan(ring, h, ch_e, cands, None, h, F(0), F(2), preset="todd")
    assert len(scan_t.walls) == 1 and scan_t.walls[0].exact == F(3, 4)
    assert scan_t.walls[0].location_str() == "3/4"


@pytest.mark.parametrize("preset, t_min, t_max, wall", [
    ("dhym", F(0), F(1), (0, None, "semistable", "unstable")),
    ("dhym", F(-1), F(0), (0, "stable", "semistable", None)),
    ("todd", F(3, 4), F(2), (F(3, 4), None, "semistable", "unstable")),
    ("todd", F(0), F(3, 4), (F(3, 4), "stable", "semistable", None)),
], ids=["dhym-left", "dhym-right", "todd-left", "todd-right"])
def test_wall_at_a_range_endpoint(preset, t_min, t_max, wall):
    # the pinned pair with its one wall at t_min or at t_max: one cell
    # spans the range and the wall has no status beyond the endpoint
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    ch_e = p2_character(ring, 3, 0, -2)
    cands = [SubobjectCandidate("F", p2_character(ring, 2, 0, -2), "subbundle")]
    scan = wall_scan(ring, h, ch_e, cands, None, h, t_min, t_max, preset=preset)
    (cell,) = scan.cells
    assert (cell.t_left, cell.t_right) == (t_min, t_max)
    assert cell.report.status == (wall[1] or wall[3])
    assert [(w.exact, w.status_left, w.report.status, w.status_right)
            for w in scan.walls] == [wall]


def test_wall_scan_isolates_irrational_walls():
    ring = two_factor_ring()
    om = ring.gen("a") + ring.gen("b")
    ch_e = ChernCharacter(ring.unit().scale(F(2)) + ring.gen("ab^2").scale(F(1, 2)))
    ch_f = ChernCharacter(ring.unit() + ring.gen("a").scale(F(2))
                          - ring.gen("b") + ring.gen("ab"))
    scan = wall_scan(ring, om, ch_e,
                     [SubobjectCandidate("F", ch_f, "subbundle")],
                     None, ring.gen("a"), F(-3), F(3), preset="dhym")

    assert [c.report.status for c in scan.cells] == [
        "stable", "unstable", "unstable", "stable"]
    assert [c.report.order for c in scan.cells] == [3, 3, 3, 3]
    assert len(scan.walls) == 3
    lo_wall, mid_wall, hi_wall = scan.walls

    # the outer walls are the roots of 4t^2 + 4t - 1, certified by a
    # sign change over each enclosure; at the wall the subleading
    # coefficient takes over, deepening the discrepancy order to 5
    minpoly = [F(-1), F(4), F(4)]
    for wall, flank in ((lo_wall, ("stable", "unstable")),
                        (hi_wall, ("unstable", "stable"))):
        assert wall.exact is None
        assert poly_eval(minpoly, wall.lo) * poly_eval(minpoly, wall.hi) < 0
        assert (wall.status_left, wall.status_right) == flank
        assert wall.report.order == 5
        assert "[" in wall.location_str()

    # interior rational wall: a deeper coefficient vanishes but the
    # verdict does not flip
    assert mid_wall.exact == F(-1)
    assert (mid_wall.status_left, mid_wall.status_right) == ("unstable", "unstable")
    assert mid_wall.report.status == "unstable"


def test_wall_scan_argument_validation():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    ch_e = p2_character(ring, 3, 0, -2)
    cands = [SubobjectCandidate("F", p2_character(ring, 2, 0, -2))]
    with pytest.raises(StabilityError):
        wall_scan(ring, h, ch_e, cands, None, h, F(1), F(1))
    with pytest.raises(StabilityError):
        wall_scan(ring, h, ch_e, cands, None, ring.zero(), F(0), F(1))
    with pytest.raises(StabilityError):
        wall_scan(ring, h, ch_e, cands, None, ring.unit(), F(0), F(1))


def scan_and_check(ring, preset, ch_e, cands, base=None, t_min=F(-3), t_max=F(3)):
    """Wall scan of B(t) = base + t h whose cells and rational walls agree
    with stability_verdict."""
    h = ring.gen("h")
    scan = wall_scan(ring, h, ch_e, cands, base, h, t_min, t_max, preset)
    b0 = ring.zero() if base is None else base

    def status_at(t):
        rho, U = charge_preset(preset, ring, b0 + h.scale(t))
        return stability_verdict(ring, h, rho, U, ch_e, cands).status

    assert scan.cells[0].t_left == t_min and scan.cells[-1].t_right == t_max
    for cell in scan.cells:
        assert cell.t_left < cell.sample < cell.t_right
        assert cell.report.status == status_at(cell.sample)
    for wall in scan.walls:
        if wall.exact is not None:
            assert wall.report.status == status_at(wall.exact)
    return scan


def test_wall_scan_on_the_rescaled_pair():
    # E = (3, h, 4h^2), F = (2, -3h, -2h^2): the comparison polynomial
    # 11t^2 - 28t - 20 crashed the former sympy-based isolator
    ring = preset_ring("projective_space", n=2)
    ch_e = ChernCharacter(class_from_dict(ring, {"1": 3, "h": 1, "h^2": 4}))
    ch_f = ChernCharacter(class_from_dict(ring, {"1": 2, "h": -3, "h^2": -2}))
    scan = scan_and_check(ring, "dhym", ch_e, [SubobjectCandidate("F", ch_f)])
    (wall,) = scan.walls
    assert wall.exact is None and wall.hi - wall.lo <= F(1, 10 ** 10)
    p = [F(-20), F(-28), F(11)]
    assert poly_eval(p, wall.lo) * poly_eval(p, wall.hi) < 0


def all_signs_verdict(sign_of, top, n):
    """Reference verdict that computes every sign p_top..p_0 first."""
    signs = [sign_of(m) for m in range(top + 1)]
    for m in range(top, -1, -1):
        if signs[m]:
            rel = Relation.GREATER if signs[m] > 0 else Relation.LESS
            return PhaseVerdict(rel, 2 * n - m, None)
    return PhaseVerdict(Relation.EQUAL, None, None)


RINGS = {n: preset_ring("projective_space", n=n) for n in (2, 3)}


@st.composite
def scan_inputs(draw, shapes=((2, "dhym"), (2, "todd"), (3, "dhym")), need_base=False):
    n, preset = draw(st.sampled_from(shapes))
    ring = RINGS[n]

    def character(rank):
        coeffs = {"1": F(rank)}
        fact = 1
        for j in range(1, n + 1):
            fact *= j
            coeffs["h" if j == 1 else f"h^{j}"] = F(draw(st.integers(-4, 4)), fact)
        return ChernCharacter(class_from_dict(ring, coeffs))

    rank = draw(st.integers(2, 4))
    cands = [SubobjectCandidate(f"F{i}", character(draw(st.integers(1, rank - 1))),
                                draw(st.sampled_from(["subbundle", "quotient"])))
             for i in range(draw(st.integers(1, 3)))]
    b_values = st.fractions(F(-3, 2), F(3, 2), max_denominator=4)
    if need_base:
        b = draw(b_values.filter(lambda v: v != 0))
    else:
        b = draw(st.one_of(st.none(), b_values))
    base = None if b is None else ring.gen("h").scale(b)
    return ring, preset, character(rank), cands, base


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scan_inputs())
def test_top_down_wall_verdicts_match_all_signs(inputs):
    ring, preset, ch_e, cands, base = inputs
    scan = scan_and_check(ring, preset, ch_e, cands, base)
    h = ring.gen("h")
    with mock.patch.object(stability, "_verdict_from_signs", all_signs_verdict):
        ref = wall_scan(ring, h, ch_e, cands, base, h, F(-3), F(3), preset)
    assert scan.cells == ref.cells
    assert [(w.exact, w.report, w.status_left, w.status_right) for w in scan.walls] == \
        [(w.exact, w.report, w.status_left, w.status_right) for w in ref.walls]


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(scan_inputs(shapes=((3, "dhym"),), need_base=True))
def test_p3_scans_with_a_base_twist(inputs):
    # the pencil U(h b) exp(-t h) on P3, checked cell by cell and at
    # every rational wall against stability_verdict
    scan_and_check(*inputs)


# -- lazy phase comparison against the full comparison polynomial --------------

def verdict_off_polynomial(z_f, z_e):
    """Reference verdict read off every coefficient of P."""
    p = comparison_polynomial(z_f, z_e)
    n = max(len(z_f), len(z_e)) - 1
    for m in range(len(p) - 1, -1, -1):
        if p[m]:
            return PhaseVerdict(Relation.GREATER if p[m] > 0 else Relation.LESS, 2 * n - m, p[m])
    return PhaseVerdict(Relation.EQUAL, None, None)


gaussians = st.builds(lambda a, b: g(a, b), st.integers(-3, 3), st.integers(-3, 3))


def normalised(z):
    """z, or -z, so that the leading nonzero coefficient is comparable."""
    lead = next((c for c in reversed(z) if not c.is_zero()), None)
    assume(lead is not None)
    return [-c for c in z] if lead.im < 0 or (lead.im == 0 and lead.re < 0) else z


@st.composite
def charge_pairs(draw):
    z_e = normalised(draw(st.lists(gaussians, min_size=1, max_size=5)))
    shape = draw(st.sampled_from(["free", "tie", "perturbed"]))
    if shape == "free":
        return normalised(draw(st.lists(gaussians, min_size=1, max_size=5))), z_e
    # a positive multiple of z_e, padded with zero coefficients on top,
    # ties exactly; changing one coefficient moves the leading one down
    c = draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
    z_f = [x.scale(c) for x in z_e] + [g(0)] * draw(st.integers(0, 2))
    if shape == "perturbed":
        i = draw(st.integers(0, len(z_e) - 1))
        z_f[i] = z_f[i] + draw(gaussians)
        z_f = normalised(z_f)
    return z_f, z_e


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(charge_pairs())
def test_lazy_phase_compare_matches_the_full_polynomial(pair):
    z_f, z_e = pair
    assert phase_compare(z_f, z_e) == verdict_off_polynomial(z_f, z_e)
    assert phase_compare(z_e, z_f) == verdict_off_polynomial(z_e, z_f)
