import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zcrit import surface
from zcrit.config import load_raw, surface_inputs
from zcrit.surface import (
    DHYM_RHO,
    IDENTITY_BASIS,
    ROUNDOFF_FLOOR,
    ClassObstructionError,
    FormField,
    SurfaceChargeData,
    SurfaceError,
    TorusGeometry,
    NumericalFailureError,
    _apply_operator,
    _gather,
    _gather_miss,
    _inner,
    _irfft,
    _lattice_basis,
    _pcg,
    _precondition_symbol,
    _rfft,
    _spectral_hessian,
    _sup,
    _support,
    assemble_equation,
    ddc,
    potential_from_form,
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
    base = FormField.constant(rng.uniform(1, 3),
                              rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5),
                              rng.uniform(1, 3))
    return base + ddc(geom, rand_potential(geom, rng))


def test_grid_size_is_odd_or_a_power_of_two():
    for bad in (0, 4, 5, 6, 12, 24):
        with pytest.raises(SurfaceError):
            TorusGeometry(bad)
    assert TorusGeometry(8).shape == (8, 8, 8, 8)
    assert TorusGeometry(16).size == 16
    # an odd grid's half spectrum has (N + 1)/2 planes and no Nyquist plane
    for n in (7, 9, 15):
        assert TorusGeometry(n).mu2.shape == (1, 1, n, (n + 1) // 2)


@pytest.mark.parametrize("n", [8, 9, 16])
def test_identity_basis_builds_the_four_axis_symbols(n):
    # TorusGeometry(N) holds the symbols of the N^4 grid built axis by
    # axis, bit for bit: the half-spectrum rule (sigma(j) + conj
    # sigma(j_neg))/2 leaves the diagonal symbols |mu|^2 as they are there
    geom = TorusGeometry(n)
    half = n // 2 + 1
    m = np.fft.fftfreq(n, d=1.0 / n)

    def mus(v):
        return (v.reshape(n, 1, 1, 1) + 1j * v.reshape(1, n, 1, 1),
                v.reshape(1, 1, n, 1) + 1j * v[:half].reshape(1, 1, 1, half))

    mu1, mu2 = mus(m)
    mu1_neg, mu2_neg = mus(m[-np.arange(n) % n])
    s, s_neg_conj = np.conj(mu1) * mu2, mu1_neg * np.conj(mu2_neg)
    for got, want in ((geom.mu1, mu1), (geom.mu2, mu2), (geom.sq1, np.abs(mu1) ** 2),
                      (geom.sq2, np.abs(mu2) ** 2), (geom.cross_re, (s + s_neg_conj) / 2),
                      (geom.cross_im, -0.5j * (s - s_neg_conj))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_mode_field_samples():
    geom = TorusGeometry(8)
    f = geom.mode_field([1, 0, 0, 0], 2.0)
    assert f.shape == geom.shape
    assert f[0, 0, 0, 0] == pytest.approx(2.0)
    assert f[2, 0, 0, 0] == pytest.approx(0.0, abs=1e-12)   # cos(pi/2)
    g = geom.mode_field([0, 0, 1, 0], 1.0, phase="sin")
    assert g[0, 0, 2, 0] == pytest.approx(1.0)


def test_mode_field_rejects_aliased_modes():
    geom = TorusGeometry(8)
    assert geom.mode_field([3, -3, 0, 3], 1.0).shape == geom.shape
    for mode in ([4, 0, 0, 0], [0, 0, 0, -4], [0, 5, 1, 0]):
        with pytest.raises(SurfaceError, match="aliases on the N=8 grid"):
            geom.mode_field(mode, 1.0)


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


# Reference operators on the full complex spectrum of the grid, with
# fftfreq frequencies j on every axis and the 4-D frequency k = B j. The
# solver works on the real-FFT half spectrum and must reproduce these
# exactly, Nyquist planes included.


def ref_mu(geom):
    n, r = geom.size, geom.rank
    m = np.fft.fftfreq(n, d=1.0 / n)
    j = [m.reshape([n if a == axis else 1 for a in range(r)]) for axis in range(r)]
    k = [sum(column[c] * j[axis] for axis, column in enumerate(geom.basis)) for c in range(4)]
    return k[0] + 1j * k[1], k[2] + 1j * k[3]


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
    denom.flat[0] = 1.0
    wh = (s11 * np.fft.fftn(a.a11 - np.mean(a.a11))
          + s22 * np.fft.fftn(a.a22 - np.mean(a.a22))
          + 2 * np.conj(s12) * np.fft.fftn(a.a12 - np.mean(a.a12))) / denom
    wh.flat[0] = 0.0
    return np.fft.ifftn(wh).real


def ref_precondition(geom, mbar, r):
    mu1, mu2 = ref_mu(geom)
    sym = 8 * np.pi ** 2 * (mbar[0, 0].real * np.abs(mu2) ** 2
                            + mbar[1, 1].real * np.abs(mu1) ** 2
                            - 2 * (mbar[0, 1] * mu1 * np.conj(mu2)).real)
    sym.flat[0] = 1.0
    zh = np.fft.fftn(r) / sym
    zh.flat[0] = 0.0
    return np.fft.ifftn(zh).real


def assert_rel_close(new, ref, rel=1e-12):
    assert np.max(np.abs(new - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [8, 16])
def test_real_fft_operators_match_complex_reference(n):
    # white noise fills the Nyquist planes, where conj(mu1) mu2 is not
    # even under k -> -k
    check_real_fft_operators(TorusGeometry(n), np.random.default_rng(n))


@pytest.mark.parametrize("n", [8, 9, 16])
def test_real_fft_operators_match_complex_reference_on_a_lattice(n):
    # with an entry 2 in B, |mu(B j)|^2 is not even under j -> j_neg on
    # the Nyquist planes of an even grid either
    basis = ((0, 1, 1, 0), (2, 1, 0, 0), (1, -1, 0, 2))
    check_real_fft_operators(TorusGeometry(n, basis), np.random.default_rng(n))


def check_real_fft_operators(geom, rng):
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
    z = ref_apply_preconditioner(geom, _precondition_symbol(geom, mbar), r)
    assert_rel_close(z, ref_precondition(geom, mbar, r))

    # the fused linearised operator against the wedge with the full ddc,
    # with grid-valued coefficients
    m = FormField(2.0 + 0.3 * rng.standard_normal(geom.shape),
                  0.3 * rng.standard_normal(geom.shape)
                  + 0.4j * rng.standard_normal(geom.shape),
                  1.5 + 0.3 * rng.standard_normal(geom.shape))
    delta = rng.standard_normal(geom.shape)
    delta_hat = _rfft(delta)
    kept = delta_hat.copy()
    assert_rel_close(_apply_operator(geom, m, delta_hat),
                     -2 * wedge_density(m, ref_ddc(geom, delta)))
    assert np.array_equal(delta_hat, kept)

    # the in-place transforms run numpy's passes in numpy's order
    axes = tuple(range(geom.rank))
    spec = np.fft.rfftn(u, axes=axes)
    assert np.array_equal(_rfft(u), spec)
    assert np.array_equal(_irfft(geom, spec.copy()),
                          np.fft.irfftn(spec, s=geom.shape, axes=axes))


def mean_zero(a):
    return a - np.mean(a)


def ref_apply_preconditioner(geom, symbol, r):
    """The preconditioner on a real grid: a division of its half spectrum."""
    zh = _rfft(r) / symbol
    zh.flat[0] = 0.0
    return _irfft(geom, zh)


def ref_pcg(geom, m, rhs, symbol, tol, max_iter):
    """Conjugate gradients on real grids in the former loop order: the
    residual is tested at the top of the loop, after it has been
    preconditioned."""
    rhs = mean_zero(rhs)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = ref_apply_preconditioner(geom, symbol, r)
    p = z.copy()
    rz = float(np.sum(r * z))
    norm0 = float(np.sqrt(np.sum(rhs * rhs)))
    target = tol * norm0
    best_x = x.copy()
    best_norm = norm0
    it = 0
    while it < max_iter:
        rnorm = float(np.sqrt(np.sum(r * r)))
        if rnorm < best_norm:
            best_norm = rnorm
            best_x = x.copy()
        if rnorm <= target:
            break
        ap = mean_zero(_apply_operator(geom, m, _rfft(p)))
        pap = float(np.sum(p * ap))
        if pap <= 0:
            if best_norm <= 1e-6 * norm0:
                break
            raise NumericalFailureError("lost positivity")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        z = ref_apply_preconditioner(geom, symbol, r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    if best_norm > max(target, 1e-6 * norm0):
        raise NumericalFailureError("stalled")
    return mean_zero(best_x), it


def nyquist_free(geom, u):
    """u with every mode that has a Nyquist index removed."""
    n = geom.size
    uh = np.fft.fftn(u)
    for axis in range(4):
        index = [slice(None)] * 4
        index[axis] = n // 2
        uh[tuple(index)] = 0
    return np.fft.ifftn(uh).real


def same_pcg_outcome(geom, m, rhs, symbol, tol, max_iter):
    """Run the spectral loop and the real-grid reference; True when they
    return the same count and, transformed back, the same step to 1e-12
    relative, False when both stall."""
    try:
        x_ref, it_ref = ref_pcg(geom, m, rhs, symbol, tol, max_iter)
    except NumericalFailureError:
        with pytest.raises(NumericalFailureError):
            _pcg(geom, m, rhs, symbol, tol, max_iter)
        return False
    x_hat, it = _pcg(geom, m, rhs, symbol, tol, max_iter)
    assert it == it_ref
    assert_rel_close(_irfft(geom, x_hat), x_ref)
    return True


@pytest.mark.parametrize("n", [8, 16])
def test_pcg_matches_former_loop_order(n):
    # The iteration count is the former one and the step agrees to
    # roundoff, also when max_iter cuts the iteration off. On Nyquist
    # modes the operator is not symmetric, and conjugate gradients on
    # white noise stall near 1e-3; a constant operator under a mismatched
    # preconditioner converges to 1e-10 on Nyquist-free noise.
    geom = TorusGeometry(n)
    rng = np.random.default_rng(200 + n)
    noise = rng.standard_normal(geom.shape)
    m = FormField.constant(2.0, 0.3 + 0.4j, 1.5)
    symbol = _precondition_symbol(geom, np.array([[1.0, 0.0], [0.0, 3.0]]))
    rhs = nyquist_free(geom, noise)
    _, full = ref_pcg(geom, m, rhs, symbol, 1e-10, 600)
    assert full > 10
    assert same_pcg_outcome(geom, m, rhs, symbol, 1e-10, 600)
    # cut off one step early: the last tested iterate is below 1e-6
    assert same_pcg_outcome(geom, m, rhs, symbol, 1e-10, full - 1)
    assert not same_pcg_outcome(geom, m, rhs, symbol, 1e-10, 2)

    m_var = m + ddc(geom, rand_potential(geom, random.Random(n), scale=0.002))
    assert m_var.min_eigenvalue() > 0
    symbol = _precondition_symbol(geom, m_var.mean_matrix())
    assert same_pcg_outcome(geom, m_var, noise, symbol, 5e-3, 600)
    assert not same_pcg_outcome(geom, m_var, noise, symbol, 5e-3, 1)


@pytest.mark.parametrize("n", [9, 15])
def test_odd_grids_have_a_symmetric_operator(n):
    # An odd grid has no Nyquist index, so conj(mu1) mu2 is even under
    # k -> -k: with constant coefficients the operator is symmetric on
    # white noise (at N = 8 and 16 the asymmetry below is 3e-3 and 5e-4)
    # and conjugate gradients converge on it, where they stall at even N.
    geom = TorusGeometry(n)
    rng = np.random.default_rng(300 + n)
    a, b = rng.standard_normal(geom.shape), rng.standard_normal(geom.shape)
    m = FormField.constant(2.0, 0.3 + 0.4j, 1.5)
    la, lb = (_apply_operator(geom, m, _rfft(v)) for v in (a, b))
    scale = math.sqrt(np.sum(a * la) * np.sum(b * lb))
    assert abs(np.sum(a * lb) - np.sum(b * la)) <= 1e-12 * scale
    # the exact preconditioner solves in one iteration, a mismatched one in a few dozen
    for mbar, most in ((m.mean_matrix(), 1), (np.diag([1.0, 3.0]), 100)):
        x, it = _pcg(geom, m, a, _precondition_symbol(geom, mbar), 1e-10, 600)
        assert it <= most
        residual = _apply_operator(geom, m, x) - mean_zero(a)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(mean_zero(a))


@pytest.mark.parametrize("n", [8, 9, 15, 16])
def test_parseval_inner_product_matches_grid_sum(n):
    # white noise has content on the k3 = 0 plane and on the last plane;
    # a half-spectrum mode there stands for itself alone when the last
    # plane is k3 = N/2 (even N), and also for its conjugate at odd N
    geom = TorusGeometry(n)
    rng = np.random.default_rng(300 + n)
    a, b = rng.standard_normal(geom.shape), rng.standard_normal(geom.shape)
    a_hat, b_hat = _rfft(a), _rfft(b)
    for plane in (0, -1):
        assert np.max(np.abs(a_hat[..., plane])) > 0
    for x, y, x_hat, y_hat in ((a, b, a_hat, b_hat), (a, a, a_hat, a_hat)):
        want = float(np.sum(x * y))
        assert _inner(geom, x_hat, y_hat) == pytest.approx(want, rel=1e-12)
    # fields living on the two planes alone, and off them alone
    for keep in (np.s_[..., 1:-1], np.s_[..., [0, -1]]):
        c_hat = a_hat.copy()
        c_hat[keep] = 0.0
        c = _irfft(geom, c_hat.copy())
        assert _inner(geom, c_hat, b_hat) == pytest.approx(float(np.sum(c * b)), rel=1e-12)


def ref_constant(geom, a11, a12, a22):
    """A constant form as full grids, as FormField.constant used to build it."""
    one = np.ones(geom.shape)
    return FormField(a11 * one, a12 * one.astype(complex), a22 * one)


def test_scalar_constant_forms_match_full_grids():
    geom = TorusGeometry(8)
    rng = random.Random(10)
    entries = (1.5, 0.25 - 0.5j, 2.5)
    scalar, full = FormField.constant(*entries), ref_constant(geom, *entries)
    assert np.ndim(scalar.a11) == np.ndim(scalar.a12) == np.ndim(scalar.a22) == 0
    field = rand_form(geom, rng)
    for fn in (lambda a: square_density(a), lambda a: a.det(),
               lambda a: wedge_density(a, field), lambda a: wedge_density(field, a),
               lambda a: square_density(a + field), lambda a: (field - a.scale(0.5)).a12):
        assert np.array_equal(np.broadcast_to(fn(scalar), geom.shape), fn(full))
    assert scalar.min_eigenvalue() == full.min_eigenvalue()
    assert np.array_equal(scalar.mean_matrix(), full.mean_matrix())

    # the charge density and the solver's data from scalar forms equal
    # the ones built from full grids
    data = SurfaceChargeData(geom, (1.0, 0.2 - 0.3j, 2.0), (-1.0, 0.7 + 0.4j, 0.3),
                             (2.0, 0.1j, 3.0), (0.05, 0.02 + 0.01j, -0.04),
                             rand_potential(geom, rng))
    u1, u2 = data.u1_field(), data.u2_density()
    u1_full = ref_constant(geom, *data.u1_const) + ddc(geom, data.u1_potential)
    assert np.array_equal(data._zt(data.alpha_harmonic(), 3.0, u1, u2),
                          data._zt(ref_constant(geom, *data.alpha0), 3.0, u1_full, u2))
    rot = np.exp(-1j * data.phase())
    assert np.array_equal(z_residual(data, field).field,
                          (rot * data._zt(field, 1.0, u1_full, u2)).imag)
    # with every input constant the residual is computed once, in scalar
    # arithmetic, which may round differently from array arithmetic
    flat = SurfaceChargeData.dhym(geom, (1.0, 0.5j, 2.0), (2.0, 0.0, 3.0))
    rep = z_residual(flat, flat.alpha_harmonic())
    assert rep.field.shape == geom.shape
    assert np.allclose(rep.field, z_residual(flat, ref_constant(geom, *flat.alpha0)).field,
                       rtol=0, atol=1e-13)


def ref_total_charge(data, k):
    """Total charge as the grid mean of the full charge density."""
    return complex(np.mean(data.zt_density(ref_constant(data.geom, *data.alpha0), k)))


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_total_charge_from_means_matches_grid_mean(seed):
    geom = TorusGeometry(8)
    rng = random.Random(seed)

    def u():
        return rng.uniform(-1, 1)

    data = SurfaceChargeData(
        geom, (1 + u() ** 2, u() + 1j * u(), 2 + u() ** 2),
        (-1.0 + u(), u() + 1j * u(), 0.5 + u() ** 2),
        (2.0 + u(), u() + 1j * u(), 3.0 + u()), (u(), u() + 1j * u(), u()),
        rand_potential(geom, rng, scale=0.3), 1.0 + rand_potential(geom, rng, scale=0.5),
    )
    for k in (1.0, -2.5, 10.0):
        z, ref = data.total_charge(k), ref_total_charge(data, k)
        assert abs(z - ref) <= 1e-12 * abs(ref)


def test_phase_is_a_class_quantity():
    # ddc of the twist potential has mean zero, so the total charge and
    # the phase are the same for every potential in the (1,1) class
    geom = TorusGeometry(16)
    rng = random.Random(14)
    data = SurfaceChargeData(geom, (1.0, 0.25 + 0.125j, 2.0), (-1.0, 1j, 0.5),
                             (2.0, 0.0, 3.0), (0.3, 0.1 + 0.05j, 0.2))
    for _ in range(20):
        moved = data.perturb_u1(rand_potential(geom, rng, scale=0.05))
        assert moved.phase() == data.phase()
        assert moved.total_charge(3.0) == data.total_charge(3.0)


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
    diag = FormField.constant(2.0, 0.0, 3.0)
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
    asm = assemble_equation(data)
    phi, s = asm.phi, asm.sin_phi
    m_base = _spectral_hessian(geom, asm.potential_hat, asm.a0)
    beta = (m_base - data.alpha_harmonic()).scale(2.0)
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

    assert np.allclose(beta.a11, alt(om.a11, u1.a11, ah.a11), atol=1e-10)
    assert np.allclose(beta.a22, alt(om.a22, u1.a22, ah.a22), atol=1e-10)
    assert np.allclose(beta.a12, alt(om.a12, u1.a12, ah.a12), atol=1e-10)


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
    asm = assemble_equation(data)
    m_base = _spectral_hessian(geom, asm.potential_hat, asm.a0)
    for _ in range(3):
        hess = ddc(geom, rand_potential(geom, rng))
        alpha = data.alpha_harmonic() + hess
        lhs = (np.exp(-1j * asm.phi) * data.zt_density(alpha)).imag
        rhs = -asm.sin_phi * (square_density(m_base + hess) - asm.f)
        assert np.allclose(lhs, rhs, atol=1e-9)
        rep = z_residual(data, alpha)
        assert np.allclose(rep.field, lhs, atol=1e-12)
        assert abs(rep.grid_mean) < 1e-10


def whole_grid_f(data):
    """wedge(beta, beta)/4 - gamma by whole-grid FormField arithmetic from
    the twist field, as assemble_equation once built it."""
    u1 = data.u1_field()
    phi = data.phase()
    s = float(np.sin(phi))
    _, r1, r2 = data.normalised_rho()
    im1 = float((np.exp(-1j * phi) * r1).imag)
    im2 = float((np.exp(-1j * phi) * r2).imag)
    g = data.omega()
    beta = u1.scale(2.0) + g.scale(-im1 / s)
    square_g = 8 * (g.a11 * g.a22 - (g.a12.real ** 2 + g.a12.imag ** 2))
    gamma = (im2 * square_g + im1 * wedge_density(g, u1)
             - 2 * s * data.u2_density()) / (-s)
    return wedge_density(beta, beta) / 4 - gamma


def assembly_cases():
    """(name, data): flat-metric twists of 1-3 random modes at N=16 and
    N=32, the shipped torus configs, a constant twist with and without a
    u2 density, and a random skew case."""
    rng = random.Random(19)
    for n in (16, 32):
        geom = TorusGeometry(n)
        flat = SurfaceChargeData.dhym(geom, (1.0, 0.0, 1.0), (2.0, 0.0, 3.0))
        for modes in (1, 2, 3):
            v = np.zeros(geom.shape)
            for _ in range(modes):
                mode = [rng.randint(-3, 3) for _ in range(4)]
                mode[rng.randrange(4)] = rng.choice((-1, 1))     # not the mean mode
                v = v + geom.mode_field(mode, rng.uniform(-0.05, 0.05),
                                        rng.choice(("cos", "sin")))
            yield f"flat-N{n}-{modes}", flat.perturb_u1(v)
    for name in ("torus_dhym", "torus_two_mode", "torus_harmonic", "torus_skew"):
        yield name, surface_inputs(load_raw(f"configs/{name}.json"))[0]
    geom = TorusGeometry(16)
    skew = ((1.3, 0.2 + 0.1j, 0.9), DHYM_RHO, (2.0, 0.3 - 0.2j, 3.0), (0.1, 0.05 + 0.02j, -0.1))
    yield "constant", SurfaceChargeData(geom, *skew)
    yield "u2-only", SurfaceChargeData(geom, *skew, None, rand_potential(geom, rng))
    yield "skew", SurfaceChargeData(geom, (1.0, 0.2 - 0.3j, 2.0), (-1.0, 0.7 + 0.4j, 0.3),
                                    (2.0, 0.1j, 3.0), (0.05, 0.02 + 0.01j, -0.04),
                                    rand_potential(geom, rng), rand_potential(geom, rng, scale=0.3))


@pytest.mark.parametrize("data", [pytest.param(data, id=name)
                                  for name, data in assembly_cases()])
def test_slab_assembly_matches_whole_grid_formula(data):
    # f is evaluated slab by slab with the whole-grid formula's operations
    # in the same order, complex products included, so it is the same
    # bit for bit, skew metrics too; a constant twist without u2 stays a
    # scalar
    asm = assemble_equation(data)
    want = whole_grid_f(data)
    constant = data.u1_potential is None and data.u2 is None
    assert np.ndim(asm.f) == np.ndim(want) == (0 if constant else 4)
    assert np.array_equal(asm.f, want)
    if data.u1_potential is None:
        assert asm.potential_hat is None
    else:
        want_hat = np.fft.rfftn(data.u1_potential)
        want_hat[0, 0, 0, 0] = 0.0
        assert np.array_equal(asm.potential_hat, want_hat)


def test_default_weights_give_constant_coefficients():
    geom = TorusGeometry(8)
    metric = (1.0, 0.5 + 0.25j, 2.0)
    det_g = 1.0 * 2.0 - abs(0.5 + 0.25j) ** 2
    data = SurfaceChargeData.dhym(geom, metric, (2.0, 0.0, 3.0))
    asm = assemble_equation(data)
    cot = math.cos(asm.phi) / math.sin(asm.phi)
    # beta = 2 cot(phi) g, so gamma = wedge(beta, beta)/4 - f = -8 det g
    assert asm.potential_hat is None
    assert np.allclose(asm.a0.a11, 2.0 + cot * metric[0], atol=1e-12)
    assert np.allclose(asm.a0.a12, cot * metric[1], atol=1e-12)
    assert np.allclose(asm.a0.a22, 3.0 + cot * metric[2], atol=1e-12)
    assert np.allclose(asm.f, 8 * (1 + cot ** 2) * det_g, atol=1e-10)


def test_degenerate_phase_rejected():
    geom = TorusGeometry(8)
    # weights with r1 = 0 keep the total charge real
    data = SurfaceChargeData(geom, (1.0, 0.0, 1.0), (-1.0, 0.0, 0.5),
                             (2.0, 0.0, 3.0))
    with pytest.raises(SurfaceError):
        assemble_equation(data)


def test_volume_form_report():
    geom = TorusGeometry(8)
    data = SurfaceChargeData.dhym(geom, (1.0, 0.0, 1.0), (2.0, 0.0, 3.0))
    asm = assemble_equation(data)
    assert float(np.min(asm.f)) == pytest.approx(16.0)
    assert float(np.mean(asm.f)) == pytest.approx(16.0)

    # push gamma above the square term somewhere: the solver refuses it
    bad_f = asm.f - 20 * geom.mode_field([1, 0, 0, 0], 1.0)
    assert float(np.min(bad_f)) < 0
    with pytest.raises(ClassObstructionError, match="volume-form hypothesis"):
        solve_monge_ampere(geom, asm.a0, None, bad_f)
    # a negative averaged class is refused before the density is looked at
    with pytest.raises(ClassObstructionError, match="class test"):
        solve_monge_ampere(geom, FormField.constant(-5.0, 0.0, -1.0), None, asm.f)


def test_positivity_modes_disagree_off_average():
    # the class of a field is positive when its grid average is, even
    # where the field itself is not
    geom = TorusGeometry(16)
    base = FormField.constant(1.0, 0.0, 1.0)
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
    write_field_dump(str(path), {"u": u, "a12": w})
    assert [p.name for p in tmp_path.iterdir()] == ["fields.zcrt"]
    with np.load(path) as fields:
        assert sorted(fields.files) == ["a12", "u"]
        assert np.array_equal(fields["u"], u)
        assert np.array_equal(fields["a12"], w)
        assert fields["a12"].dtype == np.complex128


# ---------------------------------------------------------------------------
# the lattice of the data, against a Fraction elimination
# ---------------------------------------------------------------------------


def frac_det(rows):
    """Determinant of a square matrix by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def frac_solve(columns, k):
    """The rational x with sum_a x_a columns[a] = k, or None."""
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(k[i])] for i in range(4)]
    r = 0
    for c in range(len(columns)):
        pivot = next(i for i in range(r, 4) if rows[i][c])     # the columns are independent
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(4):
            if i != r and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        r += 1
    if any(row[-1] for row in rows[r:]):
        return None
    return [rows[i][-1] for i in range(r)]


def frac_rank(vectors):
    return max((size for size in range(1, 5)
                for rows in itertools.combinations(range(4), size)
                for cols in itertools.combinations(vectors, size)
                if frac_det([[v[i] for v in cols] for i in rows])), default=0)


def lattice_gram_det(vectors, rank):
    """det(B^T B) for a basis B of the lattice the vectors generate: by
    Cauchy-Binet, the sum over row sets of the squared minors of B, and
    each is the gcd of the minors of the vectors on those rows."""
    total = 0
    for rows in itertools.combinations(range(4), rank):
        minors = [int(frac_det([[v[i] for v in cols] for i in rows]))
                  for cols in itertools.combinations(vectors, rank)]
        total += math.gcd(*minors) ** 2
    return total


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=6))
def test_lattice_basis_against_fraction_elimination(modes):
    basis = _lattice_basis(modes)
    nonzero = [m for m in modes if any(m)]
    rank = frac_rank(nonzero)
    assert len(basis) == rank
    for mode in nonzero:
        coords = frac_solve(basis, mode)
        assert coords is not None and all(c.denominator == 1 for c in coords), (basis, mode)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    assert frac_det(gram) == (lattice_gram_det(nonzero, rank) if rank else 1)


# ---------------------------------------------------------------------------
# the pruned support search and the slab gather, against whole-grid rules
# ---------------------------------------------------------------------------


def full_support(grid):
    """The support rule on the whole rfftn spectrum of an N^4 grid: its
    mean coefficient, the frequencies and coefficients of its other modes
    above ROUNDOFF_FLOOR eps times the largest, and the largest."""
    n = grid.shape[0]
    spec = _rfft(grid)
    size = np.abs(spec)
    index = np.nonzero(size > ROUNDOFF_FLOOR * np.finfo(float).eps * size.max())
    freq = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
    k = np.stack([freq[i] for i in index[:3]] + [index[3]], axis=1)
    keep = k.any(axis=1)
    return spec.flat[0], k[keep], spec[index][keep], size.max()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([7, 8, 9, 16]), st.sampled_from(["modes", "noise", "zero"]),
       st.data())
def test_pruned_support_search_against_the_full_transform(n, kind, data):
    # modes of amplitude down to below the threshold (16 eps, 10^-14.45
    # of the largest), white noise, whose every column is transformed,
    # and the zero grid, which has no support and keeps only column 0
    geom = TorusGeometry(n)
    grid = np.zeros(geom.shape)
    if kind == "modes":
        limit = (n - 1) // 2
        for _ in range(data.draw(st.integers(1, 6))):
            mode = data.draw(st.lists(st.integers(-limit, limit), min_size=4, max_size=4))
            amp = 10.0 ** data.draw(st.floats(-15.5, 0.0))
            grid = grid + geom.mode_field(mode, amp, data.draw(st.sampled_from(["cos", "sin"])))
    elif kind == "noise":
        grid = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).standard_normal(
            geom.shape)
    mean, k, coef = _support(grid)
    ref_mean, ref_k, ref_coef, top = full_support(grid)
    assert mean == ref_mean
    assert np.array_equal(k, ref_k)
    assert np.max(np.abs(coef - ref_coef), initial=0.0) <= 4 * np.finfo(float).eps * top


def index_gather(g, basis):
    """g[B^T i mod N] on the N^4 grid, through the whole N^4 index."""
    n = g.shape[0]
    j = np.array(basis) @ np.indices((n,) * 4).reshape(4, -1) % n
    return g[tuple(j)].reshape((n,) * 4)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([7, 8, 9, 16]),
       st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=3),
       st.integers(0, 2 ** 32 - 1))
@example(16, [[0, 1, 1, 0]], 0)                     # x1 entry zero: offset 0
@example(16, [[0, 1, 1, 0], [2, 1, 0, 0]], 1)       # the torus_oblique basis
@example(16, [[1, 0, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1]], 3)     # torus_three_mode
@example(9, [[1, 2, 3, 1], [0, 0, 0, 1], [-3, 0, 2, 0]], 2)
def test_slab_gather_against_the_index_gather(n, basis, seed):
    rng = np.random.default_rng(seed)
    basis = tuple(tuple(column) for column in basis)
    g = rng.standard_normal((n,) * len(basis))
    ref = index_gather(g, basis)
    assert np.array_equal(_gather(g, basis), ref)
    # the gather check's sup, against a dense and a broadcast input
    for grid in (ref + 1e-3 * rng.standard_normal(ref.shape),
                 np.broadcast_to(rng.standard_normal((n, 1, 1, n)), ref.shape)):
        assert _gather_miss(g, basis, grid) == _sup(ref - grid)


# ---------------------------------------------------------------------------
# stacks of Hessian parts and blocks of first-axis rows
# ---------------------------------------------------------------------------

THREE_MODE_BASIS = ((1, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 1))   # torus_three_mode
BASES = {1: ((2, 1, -3, -2),), 2: ((1, 0, 0, 0), (0, 0, 1, 0)), 3: THREE_MODE_BASIS,
         4: IDENTITY_BASIS}


def one_part(geom, product):
    """irfft of one half spectrum, as numpy's irfftn."""
    return np.fft.irfftn(product, s=geom.shape, axes=range(geom.rank))


def part_by_part_hessian(geom, spec, base):
    """base + ddc from one inverse transform per part."""
    c = -np.pi ** 2
    h12 = np.empty(geom.shape, dtype=complex)
    h12.real = one_part(geom, geom.cross_re * spec) * c
    h12.imag = one_part(geom, geom.cross_im * spec) * c
    return FormField(one_part(geom, c * geom.sq1 * spec) + base.a11, h12 + base.a12,
                     one_part(geom, c * geom.sq2 * spec) + base.a22)


def part_by_part_operator(geom, m, spec):
    """-2 wedge(m, ddc delta) from one inverse transform per part, summed
    in _apply_operator's order."""
    c = 8 * np.pi ** 2
    out = one_part(geom, c * geom.sq1 * spec) * m.a22
    out += one_part(geom, c * geom.sq2 * spec) * m.a11
    out += one_part(geom, geom.cross_re * spec * (-2 * c)) * m.a12.real
    out += one_part(geom, geom.cross_im * spec * (-2 * c)) * m.a12.imag
    return out


@pytest.mark.parametrize("n, rank, stacks", [(16, 1, [4]), (16, 2, [4]), (16, 3, [4]),
                                             (32, 3, [3, 1]), (16, 4, [1, 1, 1, 1])])
def test_stacked_hessian_parts_match_one_part_at_a_time(monkeypatch, n, rank, stacks):
    # pocketfft transforms each line of a batched call on its own, so a
    # stack of parts gives every part's lone transform bit for bit; the
    # stack holds at most BLOCK elements, so an N^4 grid at N=16 goes one
    # part at a time
    geom = TorusGeometry(n, BASES[rank])
    rng = np.random.default_rng(n + rank)
    spec = _rfft(rng.standard_normal(geom.shape))
    kept = spec.copy()
    base = FormField.constant(2.0, 0.3 + 0.4j, 1.5)
    m = FormField(2.0 + 0.3 * rng.standard_normal(geom.shape),
                  0.3 * rng.standard_normal(geom.shape)
                  + 0.4j * rng.standard_normal(geom.shape),
                  1.5 + 0.3 * rng.standard_normal(geom.shape))
    sizes = []
    real = surface._irfft

    def counted(g, stack, out=None):
        sizes.append(stack.shape[0] if stack.ndim > g.rank else 1)
        return real(g, stack, out)

    monkeypatch.setattr(surface, "_irfft", counted)
    h = _spectral_hessian(geom, spec, base)
    assert sizes == stacks
    want = part_by_part_hessian(geom, spec, base)
    for a, b in ((h.a11, want.a11), (h.a12, want.a12), (h.a22, want.a22)):
        assert a.shape == geom.shape
        assert np.array_equal(a, b)
    sizes.clear()
    assert np.array_equal(_apply_operator(geom, m, spec), part_by_part_operator(geom, m, spec))
    assert sizes == stacks
    assert np.array_equal(spec, kept)


def lattice_data(n, rank, rng):
    """Skew-metric data with a twist potential and a u2 density on the
    grid of the rank's basis."""
    geom = TorusGeometry(n, BASES[rank])

    def field(scale):
        return sum(geom.mode_field(rng.integers(-3, 4, rank), rng.uniform(-scale, scale),
                                   rng.choice(["cos", "sin"])) for _ in range(3))

    return SurfaceChargeData(geom, (1.0, 0.2 - 0.3j, 2.0), (-1.0, 0.7 + 0.4j, 0.3),
                             (2.0, 0.1j, 3.0), (0.05, 0.02 + 0.01j, -0.04),
                             field(0.01), field(0.3))


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_row_blocks_match_slabs_and_the_whole_grid(monkeypatch, n, rank):
    # f and the preconditioner's symbol run the same pointwise operations
    # on blocks of first-axis rows: one row (a slab) per call, three with a
    # shorter last block, the default BLOCK and the whole grid in one call
    # all give the same bits, and f is the whole-grid formula's
    data = lattice_data(n, rank, np.random.default_rng(10 * n + rank))
    geom = data.geom
    mbar = np.array([[2.0, 0.3 + 0.4j], [0.3 - 0.4j, 1.5]])
    results = []
    for block in (None, 1, 3 * n ** (rank - 1), 2 * n ** rank):
        if block is not None:
            monkeypatch.setattr(surface, "BLOCK", block)
        results.append((assemble_equation(data).f, _precondition_symbol(geom, mbar)))
    f, symbol = results[0]
    assert f.shape == geom.shape
    for f_b, symbol_b in results[1:]:
        assert np.array_equal(f_b, f)
        assert np.array_equal(symbol_b, symbol)
    assert np.array_equal(f, whole_grid_f(data))
