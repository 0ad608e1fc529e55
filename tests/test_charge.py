from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from zcrit.charge import (
    ChargeError,
    ChernCharacter,
    StabilityVector,
    UnipotentOperator,
    central_charge,
    charge_map,
    charge_preset,
    dhym_stability_vector,
)
from zcrit.gaussian import GaussianRational
from zcrit.numring import (
    BasisElement,
    NumericalRing,
    RingMismatchError,
    class_from_dict,
    integrate,
    power_series_apply,
    preset_ring,
)

F = Fraction


def g(re, im=0):
    return GaussianRational(F(re), F(im))


def p2_character(ring, rank, c1, ch2):
    h = ring.gen("h")
    cls = (ring.unit().scale(F(rank)) + h.scale(F(c1))
           + (h * h).scale(F(ch2)))
    return ChernCharacter(cls)


def test_default_vector_values_low_dimensions():
    # rho_d = -(-i)^d/d!, rotated in full when the raw leading weight
    # leaves the upper half-plane
    assert dhym_stability_vector(1).rho == (g(-1), g(0, 1))
    assert dhym_stability_vector(2).rho == (g(-1), g(0, 1), g(F(1, 2)))
    assert dhym_stability_vector(3).rho == (
        g(1), g(0, -1), g(F(-1, 2)), g(0, F(1, 6)))
    assert dhym_stability_vector(4).rho == (
        g(0, 1), g(1), g(0, F(-1, 2)), g(F(-1, 6)), g(0, F(1, 24)))
    five = (g(-1), g(0, 1), g(F(1, 2)), g(0, F(-1, 6)), g(F(-1, 24)), g(0, F(1, 120)))
    assert dhym_stability_vector(5).rho == five
    assert dhym_stability_vector(6).rho == five + (g(F(1, 720)),)


def test_default_vector_is_built_once_per_dimension():
    for n in range(1, 7):
        assert dhym_stability_vector(n) is dhym_stability_vector(n)
    ring = preset_ring("projective_space", n=3)
    rho, _ = charge_preset("dhym", ring, ring.zero())
    assert rho is dhym_stability_vector(3)


def test_vector_validation_failures():
    with pytest.raises(ChargeError, match="index 2: rho_2 = 0"):
        StabilityVector((g(-1), g(0, 1), g(0)))

    with pytest.raises(ChargeError, match="index 2: Im rho_n"):
        StabilityVector((g(-1), g(0, 1), g(F(-1, 2))))

    # consecutive ratio with the wrong orientation
    with pytest.raises(ChargeError, match="index 0: Im\\(rho_0/rho_1\\)"):
        StabilityVector((g(0, -1), g(1), g(0, 1)))

    # a real leading weight is allowed when the subleading term points up
    StabilityVector((g(-1), g(0, 1), g(1)))
    with pytest.raises(ChargeError, match="index 2"):
        StabilityVector((g(-1), g(0, -1), g(1)))


def test_rank_and_unipotent_validation():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    with pytest.raises(ChargeError):
        ChernCharacter(ring.unit().scale(F(3, 2)))
    with pytest.raises(ChargeError):
        UnipotentOperator(ring.unit().scale(F(2)))
    UnipotentOperator(ring.unit() + h)    # degree-0 part 1 is accepted


def test_twisted_rank3_charge_exact():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    ch_e = p2_character(ring, 3, 0, -2)
    rho, U = charge_preset("dhym", ring, h.scale(F(1, 3)))
    z = central_charge(ring, h, rho, U, ch_e)
    assert z == (g(F(11, 6)), g(0, -1), g(F(3, 2)))

    ch_f = p2_character(ring, 2, 0, -2)
    z_f = central_charge(ring, h, rho, U, ch_f)
    assert z_f == (g(F(17, 9)), g(0, F(-2, 3)), g(1))


def test_twisted_rank3_charge_with_todd_factor():
    # U = exp(-h/3) sqrt(td) multiplies the character by
    # 1 + 5/12 h + 7/288 h^2 before integration
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    rho, U = charge_preset("todd", ring, h.scale(F(1, 3)))
    z = central_charge(ring, h, rho, U, p2_character(ring, 3, 0, -2))
    assert z == (g(F(185, 96)), g(0, F(5, 4)), g(F(3, 2)))


def test_twisted_degree():
    # the k^{n-1} coefficient is rho_{n-1} times the U-twisted degree
    # integrate(omega^{n-1} * (ch_1 + rank * U_2))
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    rho, U = charge_preset("todd", ring, h.scale(F(1, 3)))
    # bracket = ch_1 + rank * U_2 = 3 * (5/12) h, paired against h
    z = central_charge(ring, h, rho, U, p2_character(ring, 3, 0, -2))
    assert z[1] == rho[1].scale(F(5, 4))
    rho0, U0 = charge_preset("dhym", ring, ring.zero())
    z0 = central_charge(ring, h, rho0, U0, p2_character(ring, 3, 5, -2))
    assert z0[1] == rho0[1].scale(F(5))


@pytest.mark.parametrize("n, preset", [(2, "dhym"), (2, "todd"), (3, "dhym")])
def test_charge_map_is_the_charge_along_the_pencil(n, preset):
    # the table for U(B0) exp(-t B1), evaluated at rational t, is the
    # charge of the preset at B0 + t B1
    ring = preset_ring("projective_space", n=n)
    h = ring.gen("h")
    b0, b1 = h.scale(F(-2, 3)), h.scale(F(5, 4))
    rho, u_base = charge_preset(preset, ring, b0)
    u_coeffs = [u_base.cls]
    for j in range(1, n + 1):
        u_coeffs.append((u_coeffs[-1] * -b1).scale(F(1, j)))
    ch = ChernCharacter(class_from_dict(
        ring, {"1": 3, "h": -1, "h^2": F(7, 2), "h^3": F(-5, 6)}
        if n == 3 else {"1": 3, "h": -1, "h^2": F(7, 2)}))
    table = charge_map(ring, h, rho, u_coeffs)(ch)
    assert len(table) == n + 1 and all(len(row) == n + 1 for row in table)
    for t in (F(0), F(1, 3), F(-7, 2), F(2)):
        rho_t, U_t = charge_preset(preset, ring, b0 + b1.scale(t))
        at_t = tuple(sum((c.scale(t ** j) for j, c in enumerate(row)), g(0))
                     for row in table)
        assert at_t == central_charge(ring, h, rho_t, U_t, ch)


def test_charge_is_additive():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    rho, U = charge_preset("dhym", ring, h.scale(F(-2, 7)))
    a = p2_character(ring, 1, 2, F(1, 2))
    b = p2_character(ring, 2, -1, F(-3, 4))
    z_sum = central_charge(ring, h, rho, U, a + b)
    assert z_sum == tuple(x + y for x, y in zip(central_charge(ring, h, rho, U, a),
                                                central_charge(ring, h, rho, U, b)))


def test_preset_and_argument_errors():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    with pytest.raises(ChargeError):
        charge_preset("mukai", ring, ring.zero())
    with pytest.raises(ChargeError):
        charge_preset("dhym", ring, ring.unit())          # B not degree 2
    no_todd = NumericalRing("bare", 1, [BasisElement("1", 0), BasisElement("t", 2)], {},
                            {"t": F(1)})
    with pytest.raises(ChargeError):
        charge_preset("todd", no_todd, no_todd.zero())

    rho, U = charge_preset("dhym", ring, ring.zero())
    ch = p2_character(ring, 1, 0, 0)
    with pytest.raises(ChargeError):
        central_charge(ring, ring.unit(), rho, U, ch)     # omega not degree 2
    rho3 = dhym_stability_vector(3)
    with pytest.raises(ChargeError):
        central_charge(ring, h, rho3, U, ch)              # wrong length
    for pencil in ([], [U.cls, ring.unit()], [h]):        # U(t) not unipotent
        with pytest.raises(ChargeError):
            charge_map(ring, h, rho, pencil)
    torus = preset_ring("torus_line", vol=1)
    with pytest.raises(RingMismatchError):               # ch in another ring
        central_charge(ring, h, rho, U, ChernCharacter(torus.unit()))


def test_negative_volume_rejected():
    ring = NumericalRing("antip1", 1, [BasisElement("1", 0), BasisElement("t", 2)], {},
                         {"t": F(-1)})
    rho = dhym_stability_vector(1)
    U = UnipotentOperator(ring.unit())
    ch = ChernCharacter(ring.unit())
    with pytest.raises(ChargeError):
        central_charge(ring, ring.gen("t"), rho, U, ch)


def test_exp_twist_matches_series():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    _, U = charge_preset("dhym", ring, h.scale(F(1, 3)))
    assert U.cls == power_series_apply("exp", h.scale(F(-1, 3)))


# -- properties on random rings ------------------------------------------------

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = small.filter(bool)


@st.composite
def truncated_rings(draw):
    """Q[x_1..x_r] modulo monomials of degree > n, on a basis of rescaled
    monomials s_m x^m, so the structure constants s_m s_m' / s_{m+m'}
    are not all 1 while the ring stays associative."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 2))
    monomials = [m for m in ((a, b) for a in range(n + 1) for b in range(n + 1))
                 if sum(m) <= n and (r == 2 or m[1] == 0)]
    name = {m: "1" if m == (0, 0) else f"x{m[0]}y{m[1]}" for m in monomials}
    s = {m: F(1) if m == (0, 0) else draw(nonzero) for m in monomials}
    products = {}
    for i, a in enumerate(monomials):
        for b in monomials[i:]:
            c = (a[0] + b[0], a[1] + b[1])
            if a != (0, 0) and b != (0, 0) and sum(c) <= n:
                products[(name[a], name[b])] = {name[c]: s[a] * s[b] / s[c]}
    top = [m for m in monomials if sum(m) == n]
    integration = {name[m]: draw(small) for m in top}
    degree2 = [name[m] for m in monomials if sum(m) == 1]
    omega = {x: draw(nonzero if i == 0 else small) for i, x in enumerate(degree2)}
    basis = [BasisElement(name[m], 2 * sum(m)) for m in monomials]
    ring = NumericalRing("random", n, basis, products, integration)
    omega = class_from_dict(ring, omega)
    power = ring.unit()
    for _ in range(n):
        power = power * omega
    vol = integrate(power)
    if vol < 0:     # integrate(omega^n) is linear in the integration vector
        ring = NumericalRing("random", n, basis, products,
                             {k: -v for k, v in integration.items()})
        omega = class_from_dict(ring, omega.coeffs)
    assume(vol != 0)
    return ring, omega


@st.composite
def stability_vectors(draw, n):
    """rho_n in the upper half-plane, then rho_d = rho_{d+1} w_d with
    Im(w_d) > 0, so every drawn vector is valid."""
    positive = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
    rho = [GaussianRational(draw(small), draw(positive))]
    for _ in range(n):
        rho.insert(0, rho[0] * GaussianRational(draw(small), draw(positive)))
    return StabilityVector(tuple(rho))


def random_class(draw, ring, rank=None):
    coeffs = {k: draw(small) for k in ring.basis_names()}
    coeffs[ring.unit_name] = F(draw(st.integers(-3, 3))) if rank is None else F(rank)
    return class_from_dict(ring, coeffs)


@st.composite
def charge_setups(draw):
    ring, omega = draw(truncated_rings())
    rho = draw(stability_vectors(ring.complex_dimension))
    pencil = [random_class(draw, ring, rank=1)]
    pencil += [random_class(draw, ring, rank=0) for _ in range(draw(st.integers(0, 2)))]
    chars = [ChernCharacter(random_class(draw, ring)) for _ in range(2)]
    return ring, omega, rho, pencil, chars


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(charge_setups())
def test_charge_map_is_the_defining_sum(setup):
    # table[d][j] = rho_d integrate(omega^d ch u_j), with ring products
    ring, omega, rho, pencil, chars = setup
    charge = charge_map(ring, omega, rho, pencil)
    for ch in chars:
        power, expected = ring.unit(), []
        for d in range(ring.complex_dimension + 1):
            expected.append([rho[d].scale(integrate(power * ch.cls * u)) for u in pencil])
            power = power * omega
        assert charge(ch) == expected


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(charge_setups())
def test_charge_map_is_additive(setup):
    ring, omega, rho, pencil, (a, b) = setup
    charge = charge_map(ring, omega, rho, pencil)
    assert charge(a + b) == [[x + y for x, y in zip(ra, rb)]
                             for ra, rb in zip(charge(a), charge(b))]
