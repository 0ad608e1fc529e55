"""Critical-equation solver for line bundles over a flat complex 2-torus.

The torus is C^2/(Z^2 + iZ^2) with coordinates z_j = x_j + i y_j and
unit periods, dV = dx1 dy1 dx2 dy2, total volume 1. Real (1,1)-forms
are Hermitian matrix fields (a_{11}, a_{12}, a_{22}) with a_{11}, a_{22}
real and a_{21} = conj(a_{12}); products reduce to densities against dV:

    wedge(a, b) = 4 (a11 b22 + a22 b11 - a12 conj(b12) - conj(a12) b12)
    a ^ a       = 8 det(a)

Derivatives act spectrally: for the mode with integer frequencies
(m_x1, m_y1, m_x2, m_y2) and mu_j = m_xj + i m_yj,

    ddc(u)_{jk} = -pi^2 conj(mu_j) mu_k u_hat.

Frequencies take fftfreq values, so the Nyquist index n/2 of an axis
carries -n/2, which is also the value at its negated index. Transforms
are real FFTs on the half spectrum (N, N, N, N/2 + 1). The symbols
|mu_j|^2 are even under k -> -k; s = conj(mu_1) mu_2 is not, on the
Nyquist planes. With s_e, s_o its even and odd parts,

    Re ddc(u)_12 = irfft(-pi^2 P u_hat),   P = Re s_e + i Im s_o,
    Im ddc(u)_12 = irfft(-pi^2 Q u_hat),   Q = Im s_e - i Re s_o,

which are exactly the real and imaginary parts of the full complex
transform of -pi^2 s u_hat. For the same reason the least-squares
potential pairs conj(P) and conj(Q) with the real and imaginary parts
of a_12, and the preconditioner divides by the harmonic mean of its
symbol at k and -k.

Nyquist modes are kept, not zeroed. Since |s|^2 = |mu_1|^2 |mu_2|^2 on
every mode, Parseval gives mean(det ddc u) = 0 for every real u, so
the mean of the Monge-Ampere residual is fixed by the class, which the
Newton iteration relies on. Zeroing Nyquist in the cross symbol alone
breaks that identity and Newton stalls on a mean-mode residual;
zeroing every Nyquist symbol leaves residual on modes conjugate
gradients cannot reduce. A resolution policy for those modes needs
residual projection or 2/3 dealiasing of the quadratic term (Orszag
1971), not a change of symbol.

Writing the normalised charge integrand with rho_0 scaled to 2,

    Zt(a) = rho2 w^2 + rho1 w ^ (a + U1) + a^2 + 2 a ^ U1 + 2 U2,

the critical equation Im(e^{-i phi} Zt(alpha0 + ddc u)) = 0 with
phi = arg of the total charge becomes a complex Monge-Ampere equation

    8 det(alpha0 + beta/2 + ddc u) = f,   f = wedge(beta, beta)/4 - gamma,

solved here by damped Newton steps under an optional homotopy on f,
each linearised step handled by conjugate gradients preconditioned
with the Fourier symbol of the mean-coefficient operator.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np



class SurfaceError(ValueError):
    pass


class ClassObstructionError(SurfaceError):
    """The twisted class admits no positive solution branch."""


class NumericalFailureError(SurfaceError):
    """The iteration failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# geometry and fields
# ---------------------------------------------------------------------------


_AXES = (0, 1, 2, 3)


def _rfft(u: np.ndarray) -> np.ndarray:
    """Half spectrum (N, N, N, N/2 + 1) of a real grid field."""
    return np.fft.rfftn(u, axes=_AXES)


def _irfft(geom: "TorusGeometry", spec: np.ndarray) -> np.ndarray:
    """Real grid field of a half spectrum."""
    return np.fft.irfftn(spec, s=geom.shape, axes=_AXES)


@dataclass(frozen=True)
class TorusGeometry:
    """Uniform N^4 grid on the unit 4-torus with cached spectral data.

    The spectral data lives on the real-FFT half spectrum: mu1 has shape
    (N, N, 1, 1) and mu2 shape (1, 1, N, N/2 + 1), both with fftfreq
    values, and cross_re, cross_im are the half-spectrum symbols P, Q of
    the module docstring for the off-diagonal Hessian term.
    """

    size: int
    mu1: np.ndarray = field(init=False, repr=False, compare=False)
    mu2: np.ndarray = field(init=False, repr=False, compare=False)
    cross_re: np.ndarray = field(init=False, repr=False, compare=False)
    cross_im: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 8 or self.size & (self.size - 1):
            raise SurfaceError("grid size must be a power of two >= 8")
        n = self.size
        half = n // 2 + 1
        m = np.fft.fftfreq(n, d=1.0 / n)
        # frequency at the negated index: -m, except on the Nyquist index,
        # whose value -n/2 is its own negation's
        m_neg = m[-np.arange(n) % n]

        def mus(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            return (v.reshape(n, 1, 1, 1) + 1j * v.reshape(1, n, 1, 1),
                    v.reshape(1, 1, n, 1) + 1j * v[:half].reshape(1, 1, 1, half))

        mu1, mu2 = mus(m)
        mu1_neg, mu2_neg = mus(m_neg)
        s = np.conj(mu1) * mu2                    # s(k)
        s_neg_conj = mu1_neg * np.conj(mu2_neg)   # conj(s(-k))
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)
        object.__setattr__(self, "cross_re", (s + s_neg_conj) / 2)
        object.__setattr__(self, "cross_im", -0.5j * (s - s_neg_conj))

    @property
    def shape(self) -> Tuple[int, int, int, int]:
        return (self.size,) * 4

    def coordinates(self) -> Tuple[np.ndarray, ...]:
        n = self.size
        t = np.arange(n) / n
        return tuple(
            t.reshape([n if a == i else 1 for a in range(4)]) for i in range(4)
        )

    def mode_field(
        self, mode: Sequence[int], amplitude: float, phase: str = "cos"
    ) -> np.ndarray:
        """Real field amplitude * cos/sin(2 pi m.x) sampled on the grid."""
        x1, y1, x2, y2 = self.coordinates()
        arg = 2 * np.pi * (mode[0] * x1 + mode[1] * y1 + mode[2] * x2 + mode[3] * y2)
        wave = np.cos(arg) if phase == "cos" else np.sin(arg)
        return amplitude * (wave + 0 * (x1 + y1 + x2 + y2))


@dataclass
class FormField:
    """Hermitian (1,1)-form field: components against dz_j dzbar_k."""

    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray

    @staticmethod
    def constant(geom: TorusGeometry, a11: float, a12: complex, a22: float) -> "FormField":
        one = np.ones(geom.shape)
        return FormField(a11 * one, a12 * one.astype(complex), a22 * one)

    def __add__(self, other: "FormField") -> "FormField":
        return FormField(self.a11 + other.a11, self.a12 + other.a12, self.a22 + other.a22)

    def __sub__(self, other: "FormField") -> "FormField":
        return FormField(self.a11 - other.a11, self.a12 - other.a12, self.a22 - other.a22)

    def scale(self, c: float) -> "FormField":
        return FormField(c * self.a11, c * self.a12, c * self.a22)

    def mean_matrix(self) -> np.ndarray:
        m12 = np.mean(self.a12)
        return np.array(
            [[np.mean(self.a11), m12], [np.conj(m12), np.mean(self.a22)]]
        )

    def det(self) -> np.ndarray:
        return self.a11 * self.a22 - np.abs(self.a12) ** 2

    def min_eigenvalue(self) -> float:
        """Smallest pointwise eigenvalue over the grid."""
        tr = self.a11 + self.a22
        disc = np.sqrt(np.maximum((self.a11 - self.a22) ** 2 + 4 * np.abs(self.a12) ** 2, 0.0))
        return float(np.min((tr - disc) / 2))


def ddc(geom: TorusGeometry, u: np.ndarray) -> FormField:
    """Spectral complex Hessian of a real scalar field."""
    u = np.broadcast_to(np.asarray(u, dtype=float), geom.shape)
    uh = -np.pi ** 2 * _rfft(u)
    h11 = _irfft(geom, np.abs(geom.mu1) ** 2 * uh)
    h22 = _irfft(geom, np.abs(geom.mu2) ** 2 * uh)
    h12 = np.empty(geom.shape, dtype=complex)
    h12.real = _irfft(geom, geom.cross_re * uh)
    h12.imag = _irfft(geom, geom.cross_im * uh)
    return FormField(h11, h12, h22)


def wedge_density(a: FormField, b: FormField) -> np.ndarray:
    """Density of a ^ b against dV."""
    cross = a.a12 * np.conj(b.a12)
    return 4 * (a.a11 * b.a22 + a.a22 * b.a11 - 2 * cross.real)


def square_density(a: FormField) -> np.ndarray:
    """Density of a ^ a, equal to 8 det(a)."""
    return 8 * a.det()


def potential_from_form(geom: TorusGeometry, a: FormField) -> Tuple[np.ndarray, float]:
    """Least-squares scalar potential w with ddc(w) ~ a (mean part dropped).

    Returns the mean-zero potential and the sup-norm of the unmatched
    remainder a - mean(a) - ddc(w); the remainder vanishes exactly when
    the input is a complex Hessian.
    """
    pref = -np.pi ** 2
    s11 = pref * np.abs(geom.mu1) ** 2
    s22 = pref * np.abs(geom.mu2) ** 2
    # |s12|^2 = s11 s22 on every mode, so s11^2 + s22^2 + 2 |s12|^2 is a square
    denom = (s11 + s22) ** 2
    denom[0, 0, 0, 0] = 1.0
    f11 = _rfft(a.a11 - np.mean(a.a11))
    f22 = _rfft(a.a22 - np.mean(a.a22))
    d12 = a.a12 - np.mean(a.a12)
    # per-mode least squares of (s11, s12, s22) w_hat = (f11, f12, f22)
    # with double weight on the off-diagonal pair; the real part of
    # conj(s12) f12 splits over the real and imaginary parts of a12
    cross = (np.conj(geom.cross_re) * _rfft(d12.real)
             + np.conj(geom.cross_im) * _rfft(d12.imag))
    wh = (s11 * f11 + s22 * f22 + 2 * pref * cross) / denom
    wh[0, 0, 0, 0] = 0.0
    w = _irfft(geom, wh)
    rec = ddc(geom, w)
    mean = a.mean_matrix()
    rem11 = a.a11 - mean[0, 0].real - rec.a11
    rem12 = a.a12 - mean[0, 1] - rec.a12
    rem22 = a.a22 - mean[1, 1].real - rec.a22
    sup = max(
        float(np.max(np.abs(rem11))),
        float(np.max(np.abs(rem12))),
        float(np.max(np.abs(rem22))),
    )
    return w, sup


# ---------------------------------------------------------------------------
# charge data on the torus
# ---------------------------------------------------------------------------


@dataclass
class SurfaceChargeData:
    """Everything the critical equation needs on a fixed flat torus.

    metric and alpha0 are constant Hermitian matrices (g11, g12, g22)
    and (a11, a12, a22); the twist U = 1 + U1 + U2 has a (1,1) part
    U1 = u1_const + ddc(u1_potential) and a (2,2) part with density
    2 u2 against dV. rho is the degree-weight vector (rho0, rho1, rho2);
    the equation only sees it up to scale, normalised so rho0 = 2.
    """

    geom: TorusGeometry
    metric: Tuple[float, complex, float]
    rho: Tuple[complex, complex, complex]
    alpha0: Tuple[float, complex, float]
    u1_const: Tuple[float, complex, float] = (0.0, 0.0, 0.0)
    u1_potential: Optional[np.ndarray] = None
    u2: Optional[np.ndarray] = None

    def __post_init__(self):
        g11, _, g22 = self.metric
        if g11 <= 0 or self._metric_det() <= 0:
            raise SurfaceError("metric matrix must be positive definite")
        if self.rho[0] == 0:
            raise SurfaceError("rho0 must be nonzero to normalise the equation")
        if self.rho[2] == 0:
            raise SurfaceError("rho2 must be nonzero")

    @staticmethod
    def dhym(
        geom: TorusGeometry,
        metric: Tuple[float, complex, float],
        alpha0: Tuple[float, complex, float],
    ) -> "SurfaceChargeData":
        """Deformed Hermitian Yang-Mills weights, trivial twist."""
        return SurfaceChargeData(geom, metric, (-1.0, 1.0j, 0.5), alpha0)

    def _metric_det(self) -> float:
        g11, g12, g22 = self.metric
        return g11 * g22 - abs(g12) ** 2

    def normalised_rho(self) -> Tuple[complex, complex, complex]:
        r0, r1, r2 = (complex(v) for v in self.rho)
        return (2.0 + 0j, 2 * r1 / r0, 2 * r2 / r0)

    def omega(self) -> FormField:
        g11, g12, g22 = self.metric
        return FormField.constant(self.geom, g11, g12, g22)

    def alpha_harmonic(self) -> FormField:
        a11, a12, a22 = self.alpha0
        return FormField.constant(self.geom, a11, a12, a22)

    def u1_field(self) -> FormField:
        c11, c12, c22 = self.u1_const
        out = FormField.constant(self.geom, c11, c12, c22)
        if self.u1_potential is not None:
            out = out + ddc(self.geom, self.u1_potential)
        return out

    def u2_density(self) -> np.ndarray:
        if self.u2 is None:
            return np.zeros(self.geom.shape)
        return np.broadcast_to(np.asarray(self.u2, dtype=float), self.geom.shape)

    def perturb_u1(self, potential: np.ndarray) -> "SurfaceChargeData":
        """Copy of the data with a potential added to the (1,1) twist."""
        base = self.u1_potential if self.u1_potential is not None else 0.0
        return SurfaceChargeData(
            self.geom, self.metric, self.rho, self.alpha0,
            self.u1_const, base + potential, self.u2,
        )

    def zt_density(
        self, alpha: FormField, k: float = 1.0, u1: Optional[FormField] = None
    ) -> np.ndarray:
        """Complex density of the normalised charge integrand at scale k.

        u1 is this data's u1_field(), for callers that already hold it.
        """
        _, r1, r2 = self.normalised_rho()
        g = self.omega()
        if u1 is None:
            u1 = self.u1_field()
        real_part = (
            square_density(alpha)
            + 2 * wedge_density(alpha, u1)
            + 2 * self.u2_density()
        )
        return (
            r2 * k ** 2 * square_density(g)
            + r1 * k * wedge_density(g, alpha + u1)
            + real_part.astype(complex)
        )

    def total_charge(self, k: float = 1.0, u1: Optional[FormField] = None) -> complex:
        return complex(np.mean(self.zt_density(self.alpha_harmonic(), k, u1)))

    def phase(self, u1: Optional[FormField] = None) -> float:
        z = self.total_charge(u1=u1)
        if z == 0:
            raise SurfaceError("total charge vanishes; phase undefined")
        return float(np.angle(z))


@dataclass
class EquationAssembly:
    """Monge-Ampere data distilled from the charge inputs."""

    phi: float
    sin_phi: float
    beta: FormField
    gamma: np.ndarray


def assemble_beta_gamma(
    data: SurfaceChargeData, u1: Optional[FormField] = None
) -> EquationAssembly:
    """Monge-Ampere data of the charge inputs; u1 as in zt_density."""
    if u1 is None:
        u1 = data.u1_field()
    phi = data.phase(u1)
    s = float(np.sin(phi))
    if abs(s) < 1e-12:
        raise SurfaceError(
            "total charge is real; the equation degenerates at sin(phi) = 0"
        )
    _, r1, r2 = data.normalised_rho()
    im1 = float((np.exp(-1j * phi) * r1).imag)
    im2 = float((np.exp(-1j * phi) * r2).imag)
    g = data.omega()
    beta = u1.scale(2.0) + g.scale(-im1 / s)
    gamma = (
        im2 * square_density(g)
        + im1 * wedge_density(g, u1)
        - 2 * s * data.u2_density()
    ) / (-s)
    return EquationAssembly(phi, s, beta, gamma)


# ---------------------------------------------------------------------------
# linearised operator and preconditioned conjugate gradients
# ---------------------------------------------------------------------------


def _mean_zero(a: np.ndarray) -> np.ndarray:
    return a - np.mean(a)


def _apply_operator(geom: TorusGeometry, m: FormField, delta: np.ndarray) -> np.ndarray:
    """Minus the linearisation of 8 det at m: -2 wedge(m, ddc delta)."""
    return -2 * wedge_density(m, ddc(geom, delta))


def _precondition_symbol(geom: TorusGeometry, mbar: np.ndarray) -> np.ndarray:
    """Half-spectrum symbol of the mean-coefficient operator, made positive.

    The symbol sigma(k) is not even on Nyquist planes; the real part of
    the full-spectrum division by sigma is a division by the harmonic
    mean of sigma(k) and sigma(-k), which is what this returns.
    """
    m11 = mbar[0, 0].real
    m22 = mbar[1, 1].real
    m12 = mbar[0, 1]
    # even and odd parts of s = conj(mu1) mu2, recovered from P and Q
    s_even = geom.cross_re.real + 1j * geom.cross_im.real
    s_odd = -geom.cross_im.imag + 1j * geom.cross_re.imag
    diag = m11 * np.abs(geom.mu2) ** 2 + m22 * np.abs(geom.mu1) ** 2

    def sigma(s: np.ndarray) -> np.ndarray:
        sym = 8 * np.pi ** 2 * (diag - 2 * (m12 * np.conj(s)).real)
        sym[0, 0, 0, 0] = 1.0
        return sym

    return 2 / (1 / sigma(s_even + s_odd) + 1 / sigma(s_even - s_odd))


def _apply_preconditioner(geom: TorusGeometry, symbol: np.ndarray, r: np.ndarray) -> np.ndarray:
    zh = _rfft(r) / symbol
    zh[0, 0, 0, 0] = 0.0
    return _irfft(geom, zh)


def _pcg(
    geom: TorusGeometry,
    m: FormField,
    rhs: np.ndarray,
    symbol: np.ndarray,
    tol: float,
    max_iter: int,
) -> Tuple[np.ndarray, int]:
    """Conjugate gradients for -L_m x = rhs on mean-zero fields."""

    rhs = _mean_zero(rhs)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = _apply_preconditioner(geom, symbol, r)
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
        ap = _mean_zero(_apply_operator(geom, m, p))
        pap = float(np.sum(p * ap))
        if pap <= 0:
            # indefiniteness this late is roundoff at the attainable floor
            if best_norm <= 1e-6 * norm0:
                break
            raise NumericalFailureError(
                "linearised operator lost positivity during conjugate gradients"
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        z = _apply_preconditioner(geom, symbol, r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    if best_norm > max(target, 1e-6 * norm0):
        raise NumericalFailureError("conjugate gradients stalled above tolerance")
    return _mean_zero(best_x), it


# ---------------------------------------------------------------------------
# damped Newton solver with homotopy
# ---------------------------------------------------------------------------


@dataclass
class MongeAmpereSolution:
    u: np.ndarray
    residual_sup: float          # sup |8 det M - f| against the unshifted f
    shift: float                 # compatibility constant added to f
    newton_iterations: int
    cg_iterations: int
    stage_history: List[Tuple[float, int, float]]
    stage_residuals: List[List[float]]   # residual path per stage, initial first
    used_harmonic_start: bool
    positivity_margin: float     # min eigenvalue of M at the solution


def solve_monge_ampere(
    geom: TorusGeometry,
    alpha0: FormField,
    beta: FormField,
    gamma: np.ndarray,
    tol: float = 1e-8,
    max_newton: int = 50,
    stages: int = 10,
    cg_tol: float = 1e-10,
    cg_max: int = 600,
    step_floor: float = 2.0 ** -24,
) -> MongeAmpereSolution:
    """Damped Newton continuation for 8 det(alpha0 + beta/2 + ddc u) = f
    with f = wedge(beta, beta)/4 - gamma.

    Raises ClassObstructionError when the averaged matrix is not
    positive definite (the class test) or the density f fails
    positivity, and NumericalFailureError when the iteration stalls at
    a positive class.
    """
    m_base = alpha0 + beta.scale(0.5)
    f_full = wedge_density(beta, beta) / 4 - gamma
    mbar = m_base.mean_matrix()
    eigs = np.linalg.eigvalsh(mbar)
    if eigs[0] <= 0:
        raise ClassObstructionError(
            "class test failed: the averaged matrix alpha0 + beta/2 is not "
            "positive definite, so no solution branch exists"
        )
    if float(np.min(f_full)) <= 0:
        raise ClassObstructionError(
            "volume-form hypothesis fails: the density wedge(beta,beta)/4 "
            "- gamma is not positive everywhere"
        )

    det_bar = 8 * float(np.linalg.det(mbar).real)
    shift = det_bar - float(np.mean(f_full))
    scale = max(1.0, abs(det_bar))
    if abs(shift) > 1e-6 * scale:
        raise SurfaceError(
            f"compatibility defect {shift:.3e} exceeds tolerance; the class "
            "data and the right side are inconsistent"
        )
    f = f_full + shift

    u = np.zeros(geom.shape)
    m = m_base
    used_harmonic = False
    if m.min_eigenvalue() <= 0:
        # harmonic start: cancel the oscillatory part of the base field
        w, rem = potential_from_form(geom, m_base)
        if rem > 1e-8:
            raise NumericalFailureError(
                "base field is not a Hessian perturbation of its mean; "
                "cannot build a positive starting point"
            )
        u = _mean_zero(-w)
        m = m_base + ddc(geom, u)
        used_harmonic = True
        if m.min_eigenvalue() <= 0:
            raise NumericalFailureError("harmonic start failed to reach positivity")

    f_start = square_density(m)
    symbol = _precondition_symbol(geom, mbar)
    total_newton = 0
    total_cg = 0
    history: List[Tuple[float, int, float]] = []
    residual_paths: List[List[float]] = []

    for stage in range(1, stages + 1):
        s = stage / stages
        f_s = (1 - s) * f_start + s * f
        res = square_density(m) - f_s
        res_sup = float(np.max(np.abs(res)))
        path = [res_sup]
        iters = 0
        while res_sup > tol:
            if iters >= max_newton:
                raise NumericalFailureError(
                    f"Newton stalled at stage {s:g} with residual {res_sup:.3e}"
                )
            # Newton step: L delta = -res, with the solver acting as -L
            delta, cg_it = _pcg(geom, m, res, symbol, cg_tol, cg_max)
            total_cg += cg_it
            step = 1.0
            while True:
                trial_u = u + step * delta
                trial_m = m_base + ddc(geom, trial_u)
                if trial_m.min_eigenvalue() > 0:
                    trial_res = square_density(trial_m) - f_s
                    trial_sup = float(np.max(np.abs(trial_res)))
                    if trial_sup < res_sup:
                        break
                step /= 2
                if step < step_floor:
                    raise NumericalFailureError(
                        f"line search exhausted at stage {s:g}; positivity or "
                        "decrease could not be maintained"
                    )
            u, m, res, res_sup = trial_u, trial_m, trial_res, trial_sup
            path.append(res_sup)
            iters += 1
            total_newton += 1
        history.append((s, iters, res_sup))
        residual_paths.append(path)

    final_res = float(np.max(np.abs(square_density(m) - f_full)))
    return MongeAmpereSolution(
        u=_mean_zero(u),
        residual_sup=final_res,
        shift=shift,
        newton_iterations=total_newton,
        cg_iterations=total_cg,
        stage_history=history,
        stage_residuals=residual_paths,
        used_harmonic_start=used_harmonic,
        positivity_margin=m.min_eigenvalue(),
    )


@dataclass
class SurfaceSolution(MongeAmpereSolution):
    """The Monge-Ampere solution with the phase and the residual of the
    original phase equation."""

    phi: float
    z_residual_sup: float
    z_residual_mean: float


def solve_critical_equation(
    data: SurfaceChargeData, tol: float = 1e-8, **kwargs
) -> SurfaceSolution:
    """Assemble the equation from charge data, solve it, and report the
    residual of the original phase equation alongside the solver's.

    The twist's Hessian is computed once here and shared by every step
    that needs it; nothing is kept on data.
    """
    u1 = data.u1_field()
    asm = assemble_beta_gamma(data, u1)
    ma = solve_monge_ampere(
        data.geom, data.alpha_harmonic(), asm.beta, asm.gamma, tol=tol, **kwargs
    )
    alpha = data.alpha_harmonic() + ddc(data.geom, ma.u)
    zres = z_residual(data, alpha, u1, asm.phi)
    return SurfaceSolution(**vars(ma), phi=asm.phi, z_residual_sup=zres.sup,
                           z_residual_mean=zres.grid_mean)


@dataclass
class ZResidualReport:
    field: np.ndarray
    sup: float
    grid_mean: float


def z_residual(
    data: SurfaceChargeData,
    alpha: FormField,
    u1: Optional[FormField] = None,
    phi: Optional[float] = None,
) -> ZResidualReport:
    """Pointwise density of Im(e^{-i phi} Zt) at the given curvature form.

    The grid mean must vanish for any form in the class since the mean
    of the density is determined by the class alone and phi is chosen
    to cancel it. u1 and phi, when given, are data.u1_field() and
    data.phase().
    """
    if u1 is None:
        u1 = data.u1_field()
    if phi is None:
        phi = data.phase(u1)
    zt = data.zt_density(alpha, u1=u1)
    res = (np.exp(-1j * phi) * zt).imag
    return ZResidualReport(res, float(np.max(np.abs(res))), float(np.mean(res)))


# ---------------------------------------------------------------------------
# large-volume expansion check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LargeVolumeRow:
    k: float
    measured_sup: float
    predicted_sup: float
    difference_sup: float
    relative_error: float


def large_volume_check(
    data: SurfaceChargeData,
    k_values: Sequence[float] = (10.0, 100.0),
    alpha: Optional[FormField] = None,
) -> List[LargeVolumeRow]:
    """Compare the measured k^3 coefficient of Im(conj(Z_k) Zt_k(x))
    against its closed form, one row per k.

    The odd part in k of the pairing is sampled at k and 2k and the
    cubic coefficient extracted by the exact finite stencil
    (S(2k) - 2 S(k)) / (6 k^3); the closed form is
    Im(conj(rho2) rho1) * 8 det G * wedge(G, variation of alpha + U1),
    which vanishes identically on constant-coefficient data satisfying
    the averaged linear equation.
    """
    geom = data.geom
    if alpha is None:
        alpha = data.alpha_harmonic()
    u1 = data.u1_field()

    def pairing(kk: float) -> np.ndarray:
        zt = data.zt_density(alpha, kk, u1)
        zk = complex(np.mean(zt))
        return (np.conj(zk) * zt).imag

    def odd(kk: float) -> np.ndarray:
        return (pairing(kk) - pairing(-kk)) / 2

    _, r1, r2 = data.normalised_rho()
    c = float((np.conj(r2) * r1).imag)
    g = data.omega()
    variation = alpha + u1
    mean = variation.mean_matrix()
    vari = variation - FormField.constant(
        geom, mean[0, 0].real, mean[0, 1], mean[1, 1].real
    )
    predicted = c * square_density(g) * wedge_density(g, vari)
    pred_sup = float(np.max(np.abs(predicted)))

    rows = []
    for k in k_values:
        measured = (odd(2 * k) - 2 * odd(k)) / (6 * k ** 3)
        diff = float(np.max(np.abs(measured - predicted)))
        rel = diff / pred_sup if pred_sup > 0 else diff
        rows.append(
            LargeVolumeRow(
                float(k), float(np.max(np.abs(measured))), pred_sup, diff, rel
            )
        )
    return rows


# ---------------------------------------------------------------------------
# binary field dump
# ---------------------------------------------------------------------------


FIELD_DUMP_MAGIC = b"ZCRT"
FIELD_DUMP_VERSION = 1


def write_field_dump(path: str, size: int, fields: Dict[str, np.ndarray]) -> None:
    """Write named grid fields: magic, version, grid size, count, then
    per field a length-prefixed name, a real/complex flag, and the
    row-major little-endian float64 payload (imaginary plane appended
    for complex fields). Field order is name-sorted for determinism."""
    with open(path, "wb") as fh:
        fh.write(FIELD_DUMP_MAGIC)
        fh.write(struct.pack("<III", FIELD_DUMP_VERSION, size, len(fields)))
        for name in sorted(fields):
            arr = np.asarray(fields[name])
            if arr.shape != (size,) * 4:
                raise SurfaceError(f"field {name!r} has shape {arr.shape}")
            blob = name.encode("utf-8")
            is_complex = np.iscomplexobj(arr)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<B", 1 if is_complex else 0))
            if is_complex:
                fh.write(arr.real.astype("<f8").tobytes(order="C"))
                fh.write(arr.imag.astype("<f8").tobytes(order="C"))
            else:
                fh.write(arr.astype("<f8").tobytes(order="C"))


def read_field_dump(path: str) -> Tuple[int, Dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FIELD_DUMP_MAGIC:
            raise SurfaceError("not a field dump: bad magic")
        version, size, count = struct.unpack("<III", fh.read(12))
        if version != FIELD_DUMP_VERSION:
            raise SurfaceError(f"unsupported dump version {version}")
        n4 = size ** 4
        fields: Dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", fh.read(4))
            name = fh.read(name_len).decode("utf-8")
            (kind,) = struct.unpack("<B", fh.read(1))
            re = np.frombuffer(fh.read(8 * n4), dtype="<f8").reshape((size,) * 4)
            if kind:
                im = np.frombuffer(fh.read(8 * n4), dtype="<f8").reshape((size,) * 4)
                fields[name] = re + 1j * im
            else:
                fields[name] = re.copy()
        return size, fields
