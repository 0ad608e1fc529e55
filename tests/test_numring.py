from fractions import Fraction

import pytest

from zcrit.config import ConfigError, config_from_dict
from zcrit.numring import (
    BasisElement,
    NumericalRing,
    RingError,
    RingMismatchError,
    SeriesDomainError,
    class_from_dict,
    integrate,
    power_series_apply,
    preset_ring,
)

F = Fraction


def assert_multiplicative_laws(ring):
    """Exhaustive commutativity and associativity check (small rings)."""
    names = ring.basis_names()
    for a in names:
        for b in names:
            assert ring.gen(a) * ring.gen(b) == ring.gen(b) * ring.gen(a), (a, b)
            for c in names:
                left = (ring.gen(a) * ring.gen(b)) * ring.gen(c)
                right = ring.gen(a) * (ring.gen(b) * ring.gen(c))
                assert left == right, (a, b, c)


TWO_FACTOR = {
    "name": "two_factor",
    "complex_dimension": 3,
    "generators": [
        {"name": "1", "degree": 0},
        {"name": "a", "degree": 2},
        {"name": "b", "degree": 2},
        {"name": "ab", "degree": 4},
        {"name": "b^2", "degree": 4},
        {"name": "ab^2", "degree": 6},
    ],
    "products": [
        ["a", "b", {"ab": "1"}],
        ["b", "b", {"b^2": "1"}],
        ["a", "b^2", {"ab^2": "1"}],
        ["b", "ab", {"ab^2": "1"}],
    ],
    "integration": {"ab^2": "1"},
    "todd": {"1": "1", "a": "1/2", "b": "3/2"},
}


def two_factor_ring():
    """Degree-3 ring with generators a (a^2 = 0) and b (b^3 = 0),
    int a b^2 = 1. Mixed products follow from commutativity. The table
    is read by config.py, as a configuration's explicit ring."""
    return config_from_dict({"manifold": {"ring": TWO_FACTOR, "omega": {"a": "1", "b": "1"}},
                             "charge": {"preset": "dhym"}}).ring


def test_projective_plane_products_and_integration():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    assert (h * h).coefficient("h^2") == 1
    assert (h * h * h).is_zero()
    assert integrate(h * h) == 1
    assert integrate(h) == 0
    assert ring.basis_names() == ["1", "h", "h^2"]
    assert_multiplicative_laws(ring)


def test_stored_todd_class():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    assert ring.todd == ring.unit() + h.scale(F(3, 2)) + (h * h)
    # Euler characteristic of the structure sheaf through the index formula
    assert integrate(ring.todd) == 1


def test_series_exp_inverse_sqrt():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    assert power_series_apply("exp", h) == ring.unit() + h + (h * h).scale(F(1, 2))
    assert power_series_apply("exp", ring.zero()) == ring.unit()

    s = power_series_apply("sqrt", ring.todd)
    assert s == ring.unit() + h.scale(F(3, 4)) + (h * h).scale(F(7, 32))
    assert s * s == ring.todd


def test_series_domain_requirements():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    with pytest.raises(SeriesDomainError):
        power_series_apply("sqrt", h)            # constant term 0
    with pytest.raises(SeriesDomainError):
        power_series_apply("sqrt", ring.unit().scale(F(-1)) + h)
    with pytest.raises(RingError):
        power_series_apply("cosh", ring.unit())


def test_exp_turns_sums_into_products():
    ring = two_factor_ring()
    a, b = ring.gen("a"), ring.gen("b")
    lhs = power_series_apply("exp", a + b)
    rhs = power_series_apply("exp", a) * power_series_apply("exp", b)
    assert lhs == rhs


def test_two_factor_relations():
    ring = two_factor_ring()
    a, b = ring.gen("a"), ring.gen("b")
    assert (a * a).is_zero()
    assert (b * b * b).is_zero()
    assert integrate(a * b * b) == 1
    assert integrate(b * b) == 0
    om = a + b
    assert integrate(om * om * om) == 3       # 3 a b^2 survives
    assert_multiplicative_laws(ring)


def test_torus_line_preset_volume():
    ring = preset_ring("torus_line", vol=F(5, 2))
    w = ring.gen("w")
    assert integrate(w * w) == F(5, 2)
    assert ring.todd == ring.unit()
    with pytest.raises(RingError):
        preset_ring("torus_line", vol=F(-1))


def test_unknown_preset_and_generator():
    with pytest.raises(RingError):
        preset_ring("flag_variety")
    ring = preset_ring("projective_space", n=2)
    with pytest.raises(RingError):
        ring.gen("x")
    # an unknown name in any table of the constructor is a RingError, not a KeyError
    basis = [BasisElement("1", 0), BasisElement("h", 2), BasisElement("h^2", 4)]
    products = {("h", "h"): {"h^2": F(1)}}
    for args in (({("h", "x"): {}}, {"h^2": F(1)}, None),
                 ({("h", "h"): {"x": F(1)}}, {"h^2": F(1)}, None),
                 (products, {"x": F(1)}, None),
                 (products, {"h^2": F(1)}, {"x": F(1)})):
        with pytest.raises(RingError, match="unknown generator 'x'"):
            NumericalRing("r", 2, basis, *args)


def test_cross_ring_arithmetic_rejected():
    r1 = preset_ring("projective_space", n=2)
    r2 = preset_ring("projective_space", n=3)
    with pytest.raises(RingMismatchError):
        r1.gen("h") + r2.gen("h")
    with pytest.raises(RingMismatchError):
        r1.gen("h") * r2.gen("h")


def test_component_and_degree_queries():
    ring = preset_ring("projective_space", n=2)
    h = ring.gen("h")
    cls = ring.unit().scale(F(3)) + h.scale(F(-1, 2)) + (h * h).scale(F(7))
    assert cls.degree0() == 3
    assert cls.degrees() == [0, 2, 4]
    assert cls.coefficient("h^2") == 7


def test_dict_round_trip():
    # every field of the literal description reads back from the ring
    ring = two_factor_ring()
    assert ring.name == "two_factor" and ring.complex_dimension == 3
    assert [(name, ring.degree_of(name)) for name in ring.basis_names()] == [
        (g["name"], g["degree"]) for g in TWO_FACTOR["generators"]]
    for i, j, comb in TWO_FACTOR["products"]:
        assert ring.gen(i) * ring.gen(j) == class_from_dict(ring, comb)
    assert integrate(ring.gen("ab^2")) == 1
    assert ring.todd == class_from_dict(ring, TWO_FACTOR["todd"])
    with pytest.raises(ConfigError, match="manifold.ring.complex_dimension: required"):
        config_from_dict({"manifold": {"ring": {"generators": [], "integration": {}}}})
    with pytest.raises(RingError, match="exactly one degree-0"):
        NumericalRing("empty", 1, [], {}, {})
