import math
import random

import numpy as np
import pytest

from zcrit.surface import (
    ClassObstructionError,
    FormField,
    SurfaceChargeData,
    SurfaceError,
    TorusGeometry,
    _apply_preconditioner,
    _precondition_symbol,
    assemble_beta_gamma,
    ddc,
    potential_from_form,
    read_field_dump,
    solve_monge_ampere,
    square_density,
    wedge_density,
    write_field_dump,
    z_residual,
)


def rand_potential(geom, rng, scale=0.1, max_mode=3):
    u = np.zeros(geom.shape)
    for _ in range(8):
        mode = [rng.randint(-max_mode, max_mode) for _ in range(4)]
        if any(mode):
            u = u + geom.mode_field(mode, rng.uniform(-scale, scale),
                                    rng.choice(["cos", "sin"]))
    return u


def rand_form(geom, rng):
    base = FormField.constant(geom, rng.uniform(1, 3),
                              rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5),
                              rng.uniform(1, 3))
    return base + ddc(geom, rand_potential(geom, rng))


def test_grid_size_must_be_a_power_of_two():
    for bad in (0, 4, 7, 12, 17):
        with pytest.raises(SurfaceError):
            TorusGeometry(bad)
    assert TorusGeometry(8).shape == (8, 8, 8, 8)
    assert TorusGeometry(16).size == 16


def test_mode_field_samples():
    geom = TorusGeometry(8)
    f = geom.mode_field([1, 0, 0, 0], 2.0)
    assert f.shape == geom.shape
    assert f[0, 0, 0, 0] == pytest.approx(2.0)
    assert f[2, 0, 0, 0] == pytest.approx(0.0, abs=1e-12)   # cos(pi/2)
    g = geom.mode_field([0, 0, 1, 0], 1.0, phase="sin")
    assert g[0, 0, 2, 0] == pytest.approx(1.0)


def test_ddc_single_mode_closed_form():
    geom = TorusGeometry(16)
    x1, y1, x2, y2 = geom.coordinates()
    A = 0.3

    # mode (1, 0, 0, 0): only the first complex direction is excited
    form = ddc(geom, A * np.cos(2 * np.pi * x1))
    expect = -np.pi ** 2 * A * np.cos(2 * np.pi * x1)
    assert np.allclose(form.a11, np.broadcast_to(expect, geom.shape), atol=1e-12)
    assert np.allclose(form.a22, 0, atol=1e-12)
    assert np.allclose(form.a12, 0, atol=1e-12)

    # mode (1, 2, 0, 1): mu1 = 1 + 2i, mu2 = i, so the coefficients are
    # |mu1|^2 = 5, conj(mu1) mu2 = 2 + i, |mu2|^2 = 1
    theta = 2 * np.pi * (x1 + 2 * y1 + y2)
    form = ddc(geom, A * np.sin(theta))
    wave = np.broadcast_to(A * np.sin(theta), geom.shape)
    assert np.allclose(form.a11, -np.pi ** 2 * 5 * wave, atol=1e-12)
    assert np.allclose(form.a22, -np.pi ** 2 * wave, atol=1e-12)
    assert np.allclose(form.a12, -np.pi ** 2 * (2 + 1j) * wave, atol=1e-12)


def test_ddc_is_linear_and_mean_free():
    geom = TorusGeometry(8)
    rng = random.Random(3)
    u, v = rand_potential(geom, rng), rand_potential(geom, rng)
    lhs = ddc(geom, 2.0 * u - 0.5 * v)
    rhs = ddc(geom, u).scale(2.0) + ddc(geom, v).scale(-0.5)
    for a, b in ((lhs.a11, rhs.a11), (lhs.a12, rhs.a12), (lhs.a22, rhs.a22)):
        assert np.allclose(a, b, atol=1e-12)
        assert abs(np.mean(a)) < 1e-12


def test_potential_recovers_exact_part():
    geom = TorusGeometry(8)
    rng = random.Random(4)
    u = rand_potential(geom, rng)
    v, remainder = potential_from_form(geom, ddc(geom, u))
    assert np.allclose(v, u - np.mean(u), atol=1e-10)
    assert remainder < 1e-10

    # an a22 oscillation on a mode that only excites the first complex
    # direction cannot come from any potential
    skew = ddc(geom, rand_potential(geom, rng))
    skew.a22 = skew.a22 + geom.mode_field([1, 0, 0, 0], 1.0)
    _, remainder = potential_from_form(geom, skew)
    assert remainder > 0.1


# Reference operators on the full complex N^4 spectrum, with fftfreq
# frequencies on every axis. The solver works on the real-FFT half
# spectrum and must reproduce these exactly, Nyquist planes included.


def ref_mu(geom):
    n = geom.size
    m = np.fft.fftfreq(n, d=1.0 / n)
    mu1 = m.reshape(n, 1, 1, 1) + 1j * m.reshape(1, n, 1, 1)
    mu2 = m.reshape(1, 1, n, 1) + 1j * m.reshape(1, 1, 1, n)
    return mu1, mu2


def ref_ddc(geom, u):
    mu1, mu2 = ref_mu(geom)
    uh = -np.pi ** 2 * np.fft.fftn(u)
    return FormField(np.fft.ifftn(np.abs(mu1) ** 2 * uh).real,
                     np.fft.ifftn(np.conj(mu1) * mu2 * uh),
                     np.fft.ifftn(np.abs(mu2) ** 2 * uh).real)


def ref_potential(geom, a):
    mu1, mu2 = ref_mu(geom)
    s11 = -np.pi ** 2 * np.abs(mu1) ** 2
    s22 = -np.pi ** 2 * np.abs(mu2) ** 2
    s12 = -np.pi ** 2 * np.conj(mu1) * mu2
    denom = s11 ** 2 + s22 ** 2 + 2 * np.abs(s12) ** 2
    denom[0, 0, 0, 0] = 1.0
    wh = (s11 * np.fft.fftn(a.a11 - np.mean(a.a11))
          + s22 * np.fft.fftn(a.a22 - np.mean(a.a22))
          + 2 * np.conj(s12) * np.fft.fftn(a.a12 - np.mean(a.a12))) / denom
    wh[0, 0, 0, 0] = 0.0
    return np.fft.ifftn(wh).real


def ref_precondition(geom, mbar, r):
    mu1, mu2 = ref_mu(geom)
    sym = 8 * np.pi ** 2 * (mbar[0, 0].real * np.abs(mu2) ** 2
                            + mbar[1, 1].real * np.abs(mu1) ** 2
                            - 2 * (mbar[0, 1] * mu1 * np.conj(mu2)).real)
    sym[0, 0, 0, 0] = 1.0
    zh = np.fft.fftn(r) / sym
    zh[0, 0, 0, 0] = 0.0
    return np.fft.ifftn(zh).real


def assert_rel_close(new, ref, rel=1e-12):
    assert np.max(np.abs(new - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [8, 16])
def test_real_fft_operators_match_complex_reference(n):
    # white noise fills the Nyquist planes, where conj(mu1) mu2 is not
    # even under k -> -k
    geom = TorusGeometry(n)
    rng = np.random.default_rng(n)
    u = rng.standard_normal(geom.shape)
    new, ref = ddc(geom, u), ref_ddc(geom, u)
    for a, b in ((new.a11, ref.a11), (new.a12, ref.a12), (new.a22, ref.a22)):
        assert_rel_close(a, b)

    a11, a12r, a12i, a22 = (rng.standard_normal(geom.shape) for _ in range(4))
    form = FormField(a11, a12r + 1j * a12i, a22)
    w, _ = potential_from_form(geom, form)
    assert_rel_close(w, ref_potential(geom, form))

    mbar = np.array([[2.0, 0.3 + 0.4j], [0.3 - 0.4j, 1.5]])
    r = rng.standard_normal(geom.shape)
    z = _apply_preconditioner(geom, _precondition_symbol(geom, mbar), r)
    assert_rel_close(z, ref_precondition(geom, mbar, r))


@pytest.mark.parametrize("n", [8, 16])
def test_hessian_square_has_zero_mean(n):
    # mean(det ddc u) = 0 for every real u, Nyquist content included; the
    # Newton iteration relies on it, since it fixes the residual's mean
    geom = TorusGeometry(n)
    u = np.random.default_rng(100 + n).standard_normal(geom.shape)
    sq = square_density(ddc(geom, u))
    assert abs(np.mean(sq)) <= 1e-12 * np.max(np.abs(sq))


def test_wedge_square_identities():
    geom = TorusGeometry(8)
    rng = random.Random(5)
    a, b = rand_form(geom, rng), rand_form(geom, rng)

    assert np.allclose(wedge_density(a, b), wedge_density(b, a), atol=1e-12)
    assert np.allclose(square_density(a), wedge_density(a, a), atol=1e-10)
    # binomial expansion of the squared sum
    lhs = square_density(a + b)
    rhs = square_density(a) + 2 * wedge_density(a, b) + square_density(b)
    assert np.allclose(lhs, rhs, atol=1e-10)
    # determinant normalisation: diag(p, q) squares to 8pq
    diag = FormField.constant(geom, 2.0, 0.0, 3.0)
    assert np.allclose(square_density(diag), 48.0)


def test_charge_density_reduces_to_complexified_square():
    # with the default weights and no twist the charge density is minus
    # the square of omega + i alpha
    geom = TorusGeometry(8)
    rng = random.Random(6)
    data = SurfaceChargeData.dhym(geom, (1.0, 0.25 + 0.1j, 2.0), (2.0, 0.0, 3.0))
    assert data.normalised_rho() == (2.0 + 0j, -2.0j, (-1.0 + 0j))
    alpha = rand_form(geom, rng)
    om = data.omega()
    zt = data.zt_density(alpha)
    expect = -(square_density(om).astype(complex)
               + 2j * wedge_density(om, alpha)
               - square_density(alpha))
    assert np.allclose(zt, expect, atol=1e-10)


def test_total_charge_and_phase_closed_form():
    geom = TorusGeometry(8)
    data = SurfaceChargeData.dhym(geom, (1.0, 0.0, 1.0), (2.0, 0.0, 3.0))
    # int omega^2 = 8, int alpha^2 = 48, int omega wedge alpha = 20
    assert data.total_charge() == pytest.approx(40.0 - 40.0j)
    assert data.phase() == pytest.approx(-math.pi / 4)


def test_charge_scaling_in_k():
    geom = TorusGeometry(8)
    data = SurfaceChargeData.dhym(geom, (1.0, 0.0, 1.0), (2.0, 0.0, 3.0))
    z1 = data.total_charge(10.0)
    # quadratic, linear and constant parts scale by k^2, k, 1
    assert z1 == pytest.approx(-8 * 100 - 2j * 20 * 10 + 48)


def test_beta_equals_rotated_combination():
    # beta has a second expression as the rotated imaginary combination
    # Im(e^{-i phi}(rho1 omega + 2 U1 + 2 alpha)) / (-sin phi) - 2 alpha
    geom = TorusGeometry(8)
    rng = random.Random(7)
    data = SurfaceChargeData(
        geom, (1.0, 0.2 - 0.3j, 2.0), (-1.0, 0.7 + 0.4j, 0.3),
        (2.0, 0.1j, 3.0), (0.05, 0.02 + 0.01j, -0.04),
        rand_potential(geom, rng), rand_potential(geom, rng, scale=0.3),
    )
    asm = assemble_beta_gamma(data)
    phi, s = asm.phi, asm.sin_phi
    _, r1, _ = data.normalised_rho()
    om, u1, ah = data.omega(), data.u1_field(), data.alpha_harmonic()
    rot = np.exp(-1j * phi)

    # the imaginary part of (scalar) * (Hermitian form) scales the form
    # matrix by the scalar's imaginary part
    im_r1 = (rot * r1).imag
    im_unit = rot.imag

    def alt(component_g, component_u1, component_a):
        num = (im_r1 * component_g
               + im_unit * (2 * component_u1 + 2 * component_a))
        return num / (-s) - 2 * component_a

    assert np.allclose(asm.beta.a11, alt(om.a11, u1.a11, ah.a11), atol=1e-10)
    assert np.allclose(asm.beta.a22, alt(om.a22, u1.a22, ah.a22), atol=1e-10)
    assert np.allclose(asm.beta.a12, alt(om.a12, u1.a12, ah.a12), atol=1e-10)


def test_residual_identity_for_generic_weights():
    # Im(e^{-i phi} zt(alpha)) = -sin(phi) (8 det(M) - f) with
    # M = alpha0 + beta/2 + ddc u, for every potential u
    geom = TorusGeometry(8)
    rng = random.Random(8)
    data = SurfaceChargeData(
        geom, (1.0, 0.1j, 1.5), (-2.0, 1.0 + 0.2j, 0.8),
        (2.0, 0.3, 3.0), (0.0, 0.0, 0.0),
        rand_potential(geom, rng), rand_potential(geom, rng, scale=0.2),
    )
    asm = assemble_beta_gamma(data)
    f = wedge_density(asm.beta, asm.beta) / 4 - asm.gamma
    for _ in range(3):
        u = rand_potential(geom, rng)
        alpha = data.alpha_harmonic() + ddc(geom, u)
        lhs = (np.exp(-1j * asm.phi) * data.zt_density(alpha)).imag
        m = alpha + asm.beta.scale(0.5)
        rhs = -asm.sin_phi * (square_density(m) - f)
        assert np.allclose(lhs, rhs, atol=1e-9)
        rep = z_residual(data, alpha)
        assert np.allclose(rep.field, lhs, atol=1e-12)
        assert abs(rep.grid_mean) < 1e-10


def test_default_weights_give_constant_coefficients():
    geom = TorusGeometry(8)
    metric = (1.0, 0.5 + 0.25j, 2.0)
    det_g = 1.0 * 2.0 - abs(0.5 + 0.25j) ** 2
    data = SurfaceChargeData.dhym(geom, metric, (2.0, 0.0, 3.0))
    asm = assemble_beta_gamma(data)
    cot = math.cos(asm.phi) / math.sin(asm.phi)
    assert np.allclose(asm.beta.a11, 2 * cot * metric[0], atol=1e-12)
    assert np.allclose(asm.beta.a12, 2 * cot * metric[1], atol=1e-12)
    assert np.allclose(asm.beta.a22, 2 * cot * metric[2], atol=1e-12)
    assert np.allclose(asm.gamma, -8 * det_g, atol=1e-12)
    f = wedge_density(asm.beta, asm.beta) / 4 - asm.gamma
    assert np.allclose(f, 8 * (1 + cot ** 2) * det_g, atol=1e-10)


def test_degenerate_phase_rejected():
    geom = TorusGeometry(8)
    # weights with r1 = 0 keep the total charge real
    data = SurfaceChargeData(geom, (1.0, 0.0, 1.0), (-1.0, 0.0, 0.5),
                             (2.0, 0.0, 3.0))
    with pytest.raises(SurfaceError):
        assemble_beta_gamma(data)


def test_volume_form_report():
    geom = TorusGeometry(8)
    data = SurfaceChargeData.dhym(geom, (1.0, 0.0, 1.0), (2.0, 0.0, 3.0))
    asm = assemble_beta_gamma(data)
    f = wedge_density(asm.beta, asm.beta) / 4 - asm.gamma
    assert float(np.min(f)) == pytest.approx(16.0)
    assert float(np.mean(f)) == pytest.approx(16.0)

    # push gamma above the square term somewhere: the solver refuses it
    bad_gamma = asm.gamma + 20 * geom.mode_field([1, 0, 0, 0], 1.0)
    assert float(np.min(wedge_density(asm.beta, asm.beta) / 4 - bad_gamma)) < 0
    with pytest.raises(ClassObstructionError, match="volume-form hypothesis"):
        solve_monge_ampere(geom, data.alpha_harmonic(), asm.beta, bad_gamma)
    # a negative averaged class is refused before the density is looked at
    with pytest.raises(ClassObstructionError, match="class test"):
        solve_monge_ampere(geom, FormField.constant(geom, -5.0, 0.0, -1.0),
                           asm.beta, asm.gamma)


def test_positivity_modes_disagree_off_average():
    # the class of a field is positive when its grid average is, even
    # where the field itself is not
    geom = TorusGeometry(16)
    base = FormField.constant(geom, 1.0, 0.0, 1.0)
    spiky = base + ddc(geom, geom.mode_field([1, 0, 0, 0], 0.5))
    margin_class = float(np.linalg.eigvalsh(spiky.mean_matrix())[0])
    assert margin_class == pytest.approx(1.0)
    assert spiky.min_eigenvalue() < 0


def test_field_dump_round_trip(tmp_path):
    geom = TorusGeometry(8)
    rng = random.Random(9)
    u = rand_potential(geom, rng)
    w = ddc(geom, u).a12
    path = tmp_path / "fields.zcrt"
    write_field_dump(str(path), geom.size, {"u": u, "a12": w})
    size, fields = read_field_dump(str(path))
    assert size == 8
    assert sorted(fields) == ["a12", "u"]
    assert np.array_equal(fields["u"], np.broadcast_to(u, geom.shape))
    assert np.array_equal(fields["a12"], w)
    assert fields["a12"].dtype == np.complex128

    with open(path, "r+b") as fh:
        fh.write(b"XXXX")
    with pytest.raises(SurfaceError):
        read_field_dump(str(path))
