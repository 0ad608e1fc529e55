from fractions import Fraction

import pytest

from zcrit.charge import (
    ChargeError,
    ChernCharacter,
    StabilityVector,
    UnipotentOperator,
    central_charge,
    charge_family,
    charge_preset,
    dhym_stability_vector,
)
from zcrit.gaussian import GaussianRational
from zcrit.numring import class_from_dict, power_series_apply, preset_ring, ring_from_dict

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
    for n in range(1, 7):
        dhym_stability_vector(n)      # built, so valid


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
def test_charge_family_is_the_charge_along_the_pencil(n, preset):
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
    table = charge_family(ring, h, rho, u_coeffs, ch)
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
    no_todd = ring_from_dict({
        "name": "bare", "complex_dimension": 1,
        "generators": [{"name": "1", "degree": 0}, {"name": "t", "degree": 2}],
        "products": [], "integration": {"t": "1"},
    })
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
            charge_family(ring, h, rho, pencil, ch)


def test_negative_volume_rejected():
    ring = ring_from_dict({
        "name": "antip1", "complex_dimension": 1,
        "generators": [{"name": "1", "degree": 0}, {"name": "t", "degree": 2}],
        "products": [], "integration": {"t": "-1"},
    })
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
