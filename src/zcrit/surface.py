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

The solution is a function of fewer variables than four. The equation
below commutes with translations and its solution is unique up to a
constant (Calabi), so the solution is invariant under every
translation that fixes the data: it is g(B^T x), where the columns of
the integer 4 x r matrix B (TorusGeometry.basis) are a basis of the
lattice Lambda that the modes of the twist data generate, and mode j
of g has the 4-D frequency k = B j. A grid has N points on each of its
r axes, so it resolves |j_a| < N/2 whatever the entries of B, where
the N^4 grid of the identity basis resolves |k_i| < N/2.
solve_critical_equation finds Lambda from the half spectra of
u1_potential and u2 (_reduce): a mode is in the support when its
coefficient exceeds ROUNDOFF_FLOOR eps times the largest one. B is made
of support modes, the shortest linearly independent ones, when their
Hermite normal form is that of the whole support (Cohen 1993, section
2.4), so that every support mode has small integer coordinates j, and
is that normal form's rows otherwise. The solve runs on the r-torus,
and u and the residual are gathered back as u4[i] = g[B^T i mod N]. The
identity basis is kept for data of rank 4 or without support modes,
with a support mode on a 4-D Nyquist plane or some 2 |j_a| >= N, and
when the reduced data gathered back miss their input by more than
ROUNDOFF_FLOOR eps max(1, sup |input|).

Frequencies take fftfreq values, so the Nyquist index n/2 of an axis
carries -n/2, which is also the value at its negated index j_neg.
Transforms are real FFTs on the half spectrum (N, ..., N, N/2 + 1).
The real part of the full complex transform of sigma u_hat, for a
symbol sigma and a real u, is the real transform of the half-spectrum
symbol (sigma(j) + conj sigma(j_neg))/2, and every symbol is taken that
way: |mu_j|^2 (even under j -> j_neg for the identity basis, not for
every B) and the cross symbol s = conj(mu_1) mu_2, which is not even on
Nyquist planes. With s_e, s_o the even and odd parts of s,

    Re ddc(u)_12 = irfft(-pi^2 P u_hat),   P = Re s_e + i Im s_o,
    Im ddc(u)_12 = irfft(-pi^2 Q u_hat),   Q = Im s_e - i Re s_o,

P and Q being that rule applied to s and to -i s. The least-squares
potential applies the rule to the symbols of its whole per-mode map,
the division included, and the preconditioner divides by the harmonic
mean of its symbol at j and j_neg, which is the rule applied to
1 / sigma.

Nyquist modes are kept, not zeroed. Since |s|^2 = |mu_1|^2 |mu_2|^2 on
every mode, Parseval gives mean(det ddc u) = 0 for every real u, so
the mean of the Monge-Ampere residual is fixed by the class, which the
Newton iteration relies on. Zeroing Nyquist in the cross symbol alone
breaks that identity and Newton stalls on a mean-mode residual;
zeroing every Nyquist symbol leaves residual on modes conjugate
gradients cannot reduce. A resolution policy for those modes needs
residual projection or 2/3 dealiasing of the quadratic term (Orszag
1971), not a change of symbol.

The grid size N is a power of two >= 8 or odd and >= 7. An odd grid
has no Nyquist planes: its frequencies are symmetric, so s is even, P
and Q are real (Re s and Im s), the operator with constant coefficients
is symmetric and conjugate gradients converge on every mode. It
resolves the same modes as the even grid one point larger; the FFTs
are fast for 3- and 5-smooth N (9, 15, 25, 27, 45, 75, 81).

Writing the normalised charge integrand with rho_0 scaled to 2,

    Zt(a) = rho2 w^2 + rho1 w ^ (a + U1) + a^2 + 2 a ^ U1 + 2 U2,

the critical equation Im(e^{-i phi} Zt(alpha0 + ddc u)) = 0 with
phi = arg of the total charge becomes a complex Monge-Ampere equation

    8 det(m_base + ddc u) = f,   m_base = alpha0 + beta/2,   f = wedge(beta, beta)/4 - gamma,

and pointwise Im(e^{-i phi} Zt(alpha0 + ddc u)) = -sin(phi) (8 det(m_base
+ ddc u) - f). With U1 = u1_const + ddc(phi_U) for the twist potential
phi_U, m_base = a0 + ddc(phi_U) for the constant form
a0 = alpha0 + u1_const - (im1 / (2 sin phi)) g, where im1 is the
imaginary part of e^{-i phi} rho1 (normalised), so the equation is posed
as

    8 det(a0 + ddc psi) = f,   psi = phi_U + u,

and solved for psi from psi = 0, that is from u = -phi_U. There m = a0
is constant, positive because it is the averaged matrix that passed the
class test, and the first linearised operator is the preconditioner's.
The residual there is quadratic in ddc(phi_U) when u1_const = 0 and u2
is constant, and vanishes for a single-mode phi_U, whose ddc has rank
one. The equation is solved by damped Newton steps, each linearised
step handled by conjugate gradients preconditioned with the Fourier
symbol of the mean-coefficient operator. The steps are inexact Newton
steps (Dembo, Eisenstat and Steihaug 1982): with scale =
max(1, |8 det a0|), a step taken at Newton residual res_sup runs
conjugate gradients to the relative tolerance

    eta = max(CG_TOL_FLOOR, min(0.1, 0.1 res_sup / scale)),

so CG_TOL_FLOOR is only the floor. eta = O(res_sup) keeps the quadratic
convergence of exact Newton steps. A residual within ROUNDOFF_FLOOR
times eps * scale is at the roundoff floor of the equation; when the
line search cannot go below it, the failure names that floor.

A constant form (FormField.constant, omega(), alpha_harmonic(), the
twist without a potential) has numpy scalar components, and a missing
u2 is the scalar 0; numpy broadcasting spreads them over the grid
wherever they meet a field. beta, gamma and every density built from
constant forms alone are scalars too. These are full grids of their
geometry whatever the inputs: ddc, mode_field, potential_from_form's
input and potential, the right side f and MongeAmpereSolution.u and
residual. The data of a config, SurfaceSolution.u and residual,
ZResidualReport.field and the arrays of the .npz field dump are on
the N^4 grid.

The Newton-Krylov vectors are half spectra: the iterate psi, the
Newton step delta, the line search's trial psi and the
conjugate-gradient vectors r, x, best x and p. Real grids are what
pointwise products need: the iterate m = a0 + ddc(psi), 8 det m, the
residual and the operator's output. The line search tests positivity
as min(m11) > 0 and min(8 det m) > 0, from the determinant the residual
needs anyway; the smallest eigenvalue is taken once, at the end. For
real fields x, y with half spectra a, b, Parseval gives

    sum(x y) = (1 / N^r) sum_j w_j Re(conj(a_j) b_j),

with w_j = 1 on the planes 0 and N/2 of the last axis (odd N has only
the first) and 2 off them, where a half-spectrum mode also stands for
its conjugate. In real transforms
of the solve's grid, a conjugate-gradient iteration costs five (the
operator's four inverse transforms and one forward transform of its
output), a line-search trial four inverse transforms, and a Newton
right side one forward transform; u = psi - phi_U is transformed back
once, at the end of a solve.

Memory is counted in grids of N^r float64 (a complex grid is two, a
half spectrum 1 + 2/N). _rfft and _irfft run the one-axis passes of
numpy's rfftn and irfftn in the same order, bit for bit, but the
complex passes work in place (numpy >= 2.0): _rfft allocates one half
spectrum, and _irfft overwrites the spectrum it is given, a product
buffer its caller reuses, and writes the grid where its caller says,
the strided real or imaginary part of a complex grid included. ddc
builds its four grids from one such buffer, and _apply_operator sums
its four inverse transforms into one grid through one scratch grid,
never forming ddc(delta). Pointwise formulas that would take several
temporary grids run one slab (first grid index) at a time, with the
same numpy operations in the same order, so they are bit for bit the
whole-grid formulas: f = wedge(beta, beta)/4 - gamma, written over the
a11 grid of the twist, so beta and gamma never exist as grids, and the
preconditioner's symbol. m_base is never built: a0 is held as scalars
and phi_U as its half spectrum. square_density takes one output and one
scratch grid, and sup norms are max(max x, -min x), with no |x| copy.
A solve holds f, the spectra of psi and phi_U, m (scalars at the start,
four grids after a Newton step) and its residual against f plus the
compatibility constant, which is subtracted in place, so no shifted
copy of f is made. A Newton step adds the spectra of delta and of the
conjugate-gradient vectors; its line search drops m and the residual
and holds the trial psi, the trial m and its residual instead. On the
N^4 grid, the tracemalloc peak of a multi-step Newton solve at N=16 is
about 16.7 grids, in the conjugate-gradient operator; ddc takes 6.1
beside its input. A solve on the lattice of its data holds, beside
its reduced grids, the spectrum of the twist potential while it finds
the lattice and then the gathered outputs: solve_critical_equation
peaks at about 3.0 grids of N^4 at N=16 and N=32, in u, the residual
and the phase residual, where it took 6.2 at N=32 on the N^4 grid. A
basis column with every entry nonzero adds its gather index, an N^4
grid of int64 (4.0 grids at N=32 for the single mode (1, 2, 3, 1)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ClassObstructionError, NumericalFailureError, SurfaceError


# ---------------------------------------------------------------------------
# geometry and fields
# ---------------------------------------------------------------------------


def _rfft(u: np.ndarray) -> np.ndarray:
    """Half spectrum (N, ..., N, N/2 + 1) of a real grid field, as rfftn."""
    spec = np.fft.rfft(u, axis=-1)
    for axis in reversed(range(u.ndim - 1)):
        np.fft.fft(spec, axis=axis, out=spec)
    return spec


def _irfft(
    geom: "TorusGeometry", spec: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Real grid field of a half spectrum, as irfftn; overwrites spec, and
    is written to out (a grid, which may be strided) when given."""
    for axis in range(spec.ndim - 1):
        np.fft.ifft(spec, axis=axis, out=spec)
    return np.fft.irfft(spec, n=geom.size, axis=-1, out=out)


# the columns of B for the 4-D grid: x1, y1, x2, y2
IDENTITY_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@dataclass(frozen=True)
class TorusGeometry:
    """Uniform grid of N points per axis for fields g(B^T x) on the 4-torus.

    basis holds the columns of the integer 4 x r matrix B: a grid field
    is g on the r-torus, and its mode j has the 4-D frequency k = B j.
    The identity basis gives the N^4 grid of the 4-torus itself.

    The spectral data lives on the real-FFT half spectrum, with fftfreq
    values j (the last axis holds 0..N/2): mu1, mu2 are mu_1(B j) and
    mu_2(B j), and mu1_neg, mu2_neg the same at j_neg, the frequency at
    the negated index. sq1, sq2, cross_re and cross_im are the
    half-spectrum symbols of |mu_1|^2, |mu_2|^2 and of the real and
    imaginary parts of conj(mu_1) mu_2 (the P, Q of the module
    docstring). Each array broadcasts against the half spectrum; for the
    identity basis mu1 has shape (N, N, 1, 1) and mu2 (1, 1, N, N//2 + 1).
    """

    size: int
    basis: Tuple[Tuple[int, int, int, int], ...] = IDENTITY_BASIS
    mu1: np.ndarray = field(init=False, repr=False, compare=False)
    mu2: np.ndarray = field(init=False, repr=False, compare=False)
    mu1_neg: np.ndarray = field(init=False, repr=False, compare=False)
    mu2_neg: np.ndarray = field(init=False, repr=False, compare=False)
    sq1: np.ndarray = field(init=False, repr=False, compare=False)
    sq2: np.ndarray = field(init=False, repr=False, compare=False)
    cross_re: np.ndarray = field(init=False, repr=False, compare=False)
    cross_im: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 7 or (self.size % 2 == 0 and self.size & (self.size - 1)):
            raise SurfaceError("grid size must be odd and >= 7, or a power of two >= 8")
        n = self.size
        rank = len(self.basis)
        half = n // 2 + 1
        m = np.fft.fftfreq(n, d=1.0 / n)
        # frequency at the negated index: -m, except on the Nyquist index,
        # whose value -n/2 is its own negation's
        m_neg = m[-np.arange(n) % n]

        def along(v: np.ndarray, axis: int) -> np.ndarray:
            w = v[:half] if axis == rank - 1 else v
            return w.reshape([w.size if a == axis else 1 for a in range(rank)])

        def mus(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            # component c of k = B j, with only the axes it depends on
            k = [np.zeros((1,) * rank) for _ in range(4)]
            for axis, column in enumerate(self.basis):
                for c, entry in enumerate(column):
                    if entry:
                        k[c] = k[c] + entry * along(v, axis)
            return k[0] + 1j * k[1], k[2] + 1j * k[3]

        mu1, mu2 = mus(m)
        mu1_neg, mu2_neg = mus(m_neg)
        s = np.conj(mu1) * mu2                    # s(j)
        s_neg_conj = mu1_neg * np.conj(mu2_neg)   # conj(s(j_neg))
        for name, value in (
                ("mu1", mu1), ("mu2", mu2), ("mu1_neg", mu1_neg), ("mu2_neg", mu2_neg),
                ("sq1", (np.abs(mu1) ** 2 + np.abs(mu1_neg) ** 2) / 2),
                ("sq2", (np.abs(mu2) ** 2 + np.abs(mu2_neg) ** 2) / 2),
                ("cross_re", (s + s_neg_conj) / 2),
                ("cross_im", -0.5j * (s - s_neg_conj))):
            object.__setattr__(self, name, value)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.size,) * self.rank

    def coordinates(self) -> Tuple[np.ndarray, ...]:
        n, r = self.size, self.rank
        t = np.arange(n) / n
        return tuple(
            t.reshape([n if a == i else 1 for a in range(r)]) for i in range(r)
        )

    def mode_field(
        self, mode: Sequence[int], amplitude: float, phase: str = "cos"
    ) -> np.ndarray:
        """Real field amplitude * cos/sin(2 pi m.x) sampled on the grid,
        with one entry of m per grid axis.

        A mode with some |m_i| >= N/2 aliases onto a lower one on the
        grid and is rejected.
        """
        if any(2 * abs(m) >= self.size for m in mode):
            raise SurfaceError(
                f"mode {list(mode)} aliases on the N={self.size} grid; every "
                "|m_i| must be below N/2"
            )
        arg = 2 * np.pi * sum(m * t for m, t in zip(mode, self.coordinates()))
        wave = np.cos(arg) if phase == "cos" else np.sin(arg)
        return amplitude * np.broadcast_to(wave, self.shape)


@dataclass
class FormField:
    """Hermitian (1,1)-form field: components against dz_j dzbar_k,
    each a grid or, for a constant form, a numpy scalar."""

    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray

    @staticmethod
    def constant(a11: float, a12: complex, a22: float) -> "FormField":
        """Constant form, held as scalars."""
        return FormField(np.float64(a11), np.complex128(a12), np.float64(a22))

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
        """a11 a22 - (Re a12^2 + Im a12^2), from one output grid and one
        scratch grid."""
        norm = self.a12.real ** 2
        norm += self.a12.imag ** 2
        out = self.a11 * self.a22
        out -= norm
        return out

    def min_eigenvalue(self) -> float:
        """Smallest pointwise eigenvalue over the grid."""
        tr = self.a11 + self.a22
        disc = np.sqrt(np.maximum((self.a11 - self.a22) ** 2 + 4 * np.abs(self.a12) ** 2, 0.0))
        return float(np.min((tr - disc) / 2))


def ddc(geom: TorusGeometry, u: np.ndarray) -> FormField:
    """Spectral complex Hessian of a real scalar field."""
    u = np.broadcast_to(np.asarray(u, dtype=float), geom.shape)
    return _spectral_hessian(geom, _rfft(u))


def _spectral_hessian(
    geom: TorusGeometry, spec: np.ndarray, base: Optional[FormField] = None
) -> FormField:
    """base + ddc of the real field with half spectrum spec, from four
    inverse transforms and no forward one; spec is left as it was, and
    a missing base is the zero form."""
    c = -np.pi ** 2
    buf = np.empty_like(spec)
    h11 = _hessian_part(geom, c * geom.sq1, spec, buf)
    h22 = _hessian_part(geom, c * geom.sq2, spec, buf)
    h12 = np.empty(geom.shape, dtype=complex)
    for symbol, part in ((geom.cross_re, h12.real), (geom.cross_im, h12.imag)):
        _hessian_part(geom, symbol, spec, buf, c, out=part)
    if base is not None:
        h11 += base.a11
        h12 += base.a12
        h22 += base.a22
    return FormField(h11, h12, h22)


def _hessian_part(
    geom: TorusGeometry, symbol, spec, buf, coef=None, scale=None, out=None
) -> np.ndarray:
    """irfft(scale * symbol * spec), times coef when given, with the
    product built in buf, spec left as it was and the grid written to
    out when given."""
    np.multiply(symbol, spec, out=buf)
    if scale is not None:
        buf *= scale
    part = _irfft(geom, buf, out)
    if coef is not None:
        part *= coef
    return part


def wedge_density(a: FormField, b: FormField) -> np.ndarray:
    """Density of a ^ b against dV."""
    cross = a.a12 * np.conj(b.a12)
    return 4 * (a.a11 * b.a22 + a.a22 * b.a11 - 2 * cross.real)


def square_density(a: FormField) -> np.ndarray:
    """Density of a ^ a, equal to 8 det(a), scaled in det's output grid."""
    out = a.det()
    out *= 8
    return out


def potential_from_form(geom: TorusGeometry, a: FormField) -> Tuple[np.ndarray, float]:
    """Least-squares scalar potential w with ddc(w) ~ a (mean part dropped).

    Returns the mean-zero potential and the sup-norm of the unmatched
    remainder a - mean(a) - ddc(w); the remainder vanishes exactly when
    the input is a complex Hessian. Scalar components are spread over
    the grid.
    """
    a = FormField(*(np.broadcast_to(c, geom.shape) for c in (a.a11, a.a12, a.a22)))
    mean = a.mean_matrix()
    pref = -np.pi ** 2
    # Per-mode least squares of (s11, s12, s22) w_hat = (f11, f12, f22)
    # with double weight on the off-diagonal pair: w_hat = (s11 f11 +
    # s22 f22 + 2 conj(s12) f12) / D. Here s11 = pref |mu1|^2, s22 =
    # pref |mu2|^2 and |s12|^2 = s11 s22 on every mode, so D = s11^2 +
    # s22^2 + 2 |s12|^2 = (s11 + s22)^2, and with e = pref / D the
    # symbols are |mu1|^2 e, |mu2|^2 e and 2 mu1 conj(mu2) e.
    # f12 splits over the real and imaginary parts of a12, and each
    # symbol sigma is taken as (sigma(j) + conj sigma(j_neg)) / 2.
    sides = []
    for mu1, mu2 in ((geom.mu1, geom.mu2), (geom.mu1_neg, geom.mu2_neg)):
        sq1, sq2 = np.abs(mu1) ** 2, np.abs(mu2) ** 2
        d = pref * (sq1 + sq2) ** 2
        d.flat[0] = np.inf      # the mean mode, which w_hat drops
        e = 1 / d
        sides.append((sq1 * e, sq2 * e, mu1 * np.conj(mu2) * e))
    (sq1, sq2, cross), (sq1_neg, sq2_neg, cross_neg) = sides
    del sides, d, e
    wh = np.zeros_like(geom.cross_re)
    for symbol, c, c_mean in (((sq1 + sq1_neg) / 2, a.a11, mean[0, 0].real),
                              ((sq2 + sq2_neg) / 2, a.a22, mean[1, 1].real),
                              (cross + np.conj(cross_neg), a.a12.real, mean[0, 1].real),
                              (1j * (cross - np.conj(cross_neg)), a.a12.imag,
                               mean[0, 1].imag)):
        part = _rfft(c - c_mean)
        part *= symbol
        wh += part
    w = _irfft(geom, wh)
    # the spectra are not held through ddc(w)
    del wh, part, sq1, sq2, cross, sq1_neg, sq2_neg, cross_neg
    rec = ddc(geom, w)
    sup = 0.0
    for c, c_mean, c_rec in ((a.a11, mean[0, 0].real, rec.a11),
                             (a.a12, mean[0, 1], rec.a12),
                             (a.a22, mean[1, 1].real, rec.a22)):
        rem = c - c_mean
        rem -= c_rec
        sup = max(sup, float(np.max(np.abs(rem))))
    return w, sup


# ---------------------------------------------------------------------------
# charge data on the torus
# ---------------------------------------------------------------------------

# deformed Hermitian Yang-Mills weights (rho0, rho1, rho2)
DHYM_RHO = (-1.0 + 0j, 1j, 0.5 + 0j)


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
        return SurfaceChargeData(geom, metric, DHYM_RHO, alpha0)

    def _metric_det(self) -> float:
        g11, g12, g22 = self.metric
        return g11 * g22 - abs(g12) ** 2

    def normalised_rho(self) -> Tuple[complex, complex, complex]:
        r0, r1, r2 = (complex(v) for v in self.rho)
        return (2.0 + 0j, 2 * r1 / r0, 2 * r2 / r0)

    def omega(self) -> FormField:
        g11, g12, g22 = self.metric
        return FormField.constant(g11, g12, g22)

    def alpha_harmonic(self) -> FormField:
        a11, a12, a22 = self.alpha0
        return FormField.constant(a11, a12, a22)

    def u1_field(self) -> FormField:
        return self._u1_and_potential_hat()[0]

    def _u1_and_potential_hat(self) -> Tuple[FormField, Optional[np.ndarray]]:
        """U1, and the half spectrum of u1_potential with its mean mode
        zeroed (None without a potential); u1_const is added in place."""
        c11, c12, c22 = self.u1_const
        const = FormField.constant(c11, c12, c22)
        if self.u1_potential is None:
            return const, None
        potential = np.broadcast_to(np.asarray(self.u1_potential, dtype=float), self.geom.shape)
        potential_hat = _rfft(potential)
        potential_hat.flat[0] = 0.0     # the mean mode
        return _spectral_hessian(self.geom, potential_hat, const), potential_hat

    def u2_density(self) -> np.ndarray:
        if self.u2 is None:
            return np.float64(0.0)
        return np.broadcast_to(np.asarray(self.u2, dtype=float), self.geom.shape)

    def perturb_u1(self, potential: np.ndarray) -> "SurfaceChargeData":
        """Copy of the data with a potential added to the (1,1) twist."""
        base = self.u1_potential if self.u1_potential is not None else 0.0
        return SurfaceChargeData(
            self.geom, self.metric, self.rho, self.alpha0,
            self.u1_const, base + potential, self.u2,
        )

    def zt_density(self, alpha: FormField, k: float = 1.0) -> np.ndarray:
        """Complex density of the normalised charge integrand at scale k."""
        return self._zt(alpha, k, self.u1_field(), self.u2_density())

    def _zt(self, alpha: FormField, k: float, u1: FormField, u2) -> np.ndarray:
        """zt_density with the u2 density given."""
        _, r1, r2 = self.normalised_rho()
        sq_g, w_g, real_part = self._zt_terms(alpha, u1, u2)
        return r2 * k ** 2 * sq_g + r1 * k * w_g + real_part

    def _zt_terms(self, alpha: FormField, u1: FormField, u2) -> Tuple[np.ndarray, ...]:
        """The k-independent densities of _zt: the coefficients of r2 k^2
        and r1 k, and the real part."""
        g = self.omega()
        real_part = square_density(alpha) + 2 * wedge_density(alpha, u1) + 2 * u2
        return square_density(g), wedge_density(g, alpha + u1), real_part

    def total_charge(self, k: float = 1.0) -> complex:
        """Grid mean of zt_density(alpha_harmonic(), k), a class quantity.

        With alpha constant the density is affine in U1 and u2, so its
        mean is the density at their means. ddc of the twist potential
        has mean zero, so the mean of U1 is u1_const: the charge depends
        on rho, alpha0, metric, u1_const and the mean of u2 only, and no
        grid is built.
        """
        u2_mean = np.mean(self.u2_density())
        u1_mean = FormField.constant(*self.u1_const)
        return complex(self._zt(self.alpha_harmonic(), k, u1_mean, u2_mean))

    def phase(self) -> float:
        z = self.total_charge()
        if z == 0:
            raise SurfaceError("total charge vanishes; phase undefined")
        return float(np.angle(z))


@dataclass
class EquationAssembly:
    """8 det(a0 + ddc(phi_U + u)) = f and the phase phi of the charge
    inputs: a0 is a constant form, potential_hat the half spectrum of the
    twist potential phi_U with its mean mode zeroed (None without one),
    and a constant f is a scalar."""

    phi: float
    sin_phi: float
    a0: FormField
    potential_hat: Optional[np.ndarray]
    f: np.ndarray


def assemble_equation(data: SurfaceChargeData) -> EquationAssembly:
    """a0 = alpha0 + u1_const - (im1 / (2 sin phi)) g, the constant part of
    alpha0 + beta/2, and f = wedge(beta, beta)/4 - gamma of the module
    docstring.

    f is evaluated one slab (first grid index) at a time from the four
    components of the twist U1 and written over its a11 grid (a new grid
    for a constant twist with a u2 density), so beta, gamma and the
    wedges exist only slab by slab. Each slab runs the pointwise numpy
    operations of the whole-grid formula in the same order, complex
    products included, so f is bit for bit that formula's. With a
    constant twist and no u2 density, f is a scalar.
    """
    u1, potential_hat = data._u1_and_potential_hat()
    phi = data.phase()
    s = float(np.sin(phi))
    if abs(s) < 1e-12:
        raise SurfaceError(
            "total charge is real; the equation degenerates at sin(phi) = 0"
        )
    _, r1, r2 = data.normalised_rho()
    im1 = float((np.exp(-1j * phi) * r1).imag)
    im2 = float((np.exp(-1j * phi) * r2).imag)
    g = data.omega()
    beta_g = g.scale(-im1 / s)
    gamma_g = im2 * square_density(g)
    u2 = data.u2_density()

    def rhs(twist: FormField, density) -> np.ndarray:
        beta = twist.scale(2.0) + beta_g
        gamma = (gamma_g + im1 * wedge_density(g, twist) - 2 * s * density) / (-s)
        return wedge_density(beta, beta) / 4 - gamma

    parts = (u1.a11, u1.a12, u1.a22, u2)
    if not any(np.ndim(c) for c in parts):
        f = rhs(u1, u2)
    else:
        # a slab of f is written only after rhs has read the same slab
        # of u1.a11, so a twist grid can hold f
        f = u1.a11 if np.ndim(u1.a11) else np.empty(data.geom.shape)
        for i in range(data.geom.size):
            a11, a12, a22, u2_i = (c[i] if np.ndim(c) else c for c in parts)
            f[i] = rhs(FormField(a11, a12, a22), u2_i)
    c11, c12, c22 = data.u1_const
    a0 = data.alpha_harmonic() + (FormField.constant(c11, c12, c22)
                                  + g.scale(-im1 / (2 * s)))
    return EquationAssembly(phi, s, a0, potential_hat, f)


# ---------------------------------------------------------------------------
# linearised operator and preconditioned conjugate gradients
# ---------------------------------------------------------------------------


def _inner(geom: TorusGeometry, a: np.ndarray, b: np.ndarray) -> float:
    """sum(x * y) over the grid for real fields x, y with half spectra a, b.

    By Parseval each mode off the first and last planes of the half
    (last) axis, index 0 and N/2, stands for itself and its conjugate, so
    it weighs 2 and a mode on them 1, and the sum is divided by N^r. An
    odd grid has no N/2 plane.
    """
    n = geom.size
    total = 2 * np.vdot(a, b).real - np.vdot(a[..., 0], b[..., 0]).real
    if n % 2 == 0:
        total -= np.vdot(a[..., -1], b[..., -1]).real
    return float(total) / n ** geom.rank


def _apply_operator(geom: TorusGeometry, m: FormField, spec: np.ndarray) -> np.ndarray:
    """Minus the linearisation of 8 det at m, -2 wedge(m, ddc delta), as a
    real grid, for the delta with half spectrum spec (left as it was).

    With h = ddc(delta) that is -8 (m11 h22 + m22 h11 - 2 (Re m12 Re h12
    + Im m12 Im h12)), summed one inverse transform at a time, so h
    itself is never formed.
    """
    c = 8 * np.pi ** 2              # each part is then -8 times one of h
    buf = np.empty_like(spec)
    out = _hessian_part(geom, c * geom.sq1, spec, buf, m.a22)
    part = np.empty(geom.shape)
    out += _hessian_part(geom, c * geom.sq2, spec, buf, m.a11, out=part)
    # the cross terms carry -2
    out += _hessian_part(geom, geom.cross_re, spec, buf, m.a12.real, -2 * c, part)
    out += _hessian_part(geom, geom.cross_im, spec, buf, m.a12.imag, -2 * c, part)
    return out


def _precondition_symbol(geom: TorusGeometry, mbar: np.ndarray) -> np.ndarray:
    """Half-spectrum symbol of the mean-coefficient operator, made positive.

    The symbol sigma(j) need not be even on Nyquist planes; the real part
    of the full-spectrum division by sigma is a division by the harmonic
    mean of sigma(j) and sigma(j_neg), which is what this returns.
    """
    m11 = mbar[0, 0].real
    m22 = mbar[1, 1].real
    m12 = mbar[0, 1]
    out = np.empty(geom.cross_re.shape)

    def sigma(mu1: np.ndarray, mu2: np.ndarray, i: int) -> np.ndarray:
        """sigma on slab i, with 1 on the mean mode."""
        mu1, mu2 = (a[i:i + 1] if a.shape[0] > 1 else a for a in (mu1, mu2))
        s = np.conj(mu1) * mu2
        diag = m11 * np.abs(mu2) ** 2 + m22 * np.abs(mu1) ** 2
        sym = np.broadcast_to(8 * np.pi ** 2 * (diag - 2 * (m12 * np.conj(s)).real),
                              out[i:i + 1].shape).copy()
        if i == 0:
            sym.flat[0] = 1.0      # the mean mode
        return sym

    # one slab (first index) at a time, so that no complex half spectrum
    # is built
    for i in range(out.shape[0]):
        out[i:i + 1] = 2 / (1 / sigma(geom.mu1, geom.mu2, i)
                            + 1 / sigma(geom.mu1_neg, geom.mu2_neg, i))
    return out


def _pcg(
    geom: TorusGeometry,
    m: FormField,
    rhs: np.ndarray,
    symbol: np.ndarray,
    tol: float,
    max_iter: int,
) -> Tuple[np.ndarray, int]:
    """Conjugate gradients for -L_m x = rhs on mean-zero fields; returns
    the half spectrum of x and the iteration count.

    The real right side is transformed once. r, x, best x and p are
    half spectra with a zero mean mode, preconditioning is a division
    by symbol, inner products are taken by Parseval (_inner), and each
    iteration transforms the operator's output once, so it costs five
    real transforms. The residual is tested as soon as it is updated, so
    the last iterate is never preconditioned. The iterate reached at
    max_iter is not tested and does not count as the best one.
    """

    r = _rfft(rhs)
    r.flat[0] = 0.0         # the mean mode
    x = np.zeros_like(r)
    norm0 = float(np.sqrt(_inner(geom, r, r)))
    target = tol * norm0
    best_x = x.copy()
    best_norm = norm0
    it = 0
    if max_iter > 0 and norm0 > target:
        p = r / symbol
        rz = _inner(geom, r, p)
        while True:
            ap = _rfft(_apply_operator(geom, m, p))
            ap.flat[0] = 0.0
            pap = _inner(geom, p, ap)
            if pap <= 0:
                # indefiniteness this late is roundoff at the attainable floor
                if best_norm <= 1e-6 * norm0:
                    break
                raise NumericalFailureError(
                    "linearised operator lost positivity during conjugate gradients"
                )
            alpha = rz / pap
            x += alpha * p
            ap *= alpha
            r -= ap
            del ap          # not held through the next operator call
            it += 1
            if it >= max_iter:
                break
            rnorm = float(np.sqrt(_inner(geom, r, r)))
            if rnorm < best_norm:
                best_norm = rnorm
                best_x = x.copy()
            if rnorm <= target:
                break
            z = r / symbol
            rz_new = _inner(geom, r, z)
            z += (rz_new / rz) * p
            p = z
            rz = rz_new
    if best_norm > max(target, 1e-6 * norm0):
        raise NumericalFailureError("conjugate gradients stalled above tolerance")
    return best_x, it


# ---------------------------------------------------------------------------
# damped Newton solver
# ---------------------------------------------------------------------------


def _sup(x) -> float:
    """max |x| of a real grid or scalar, bit for bit np.max(np.abs(x))
    without the |x| copy; abs only clears the sign of a zero sup."""
    return float(abs(max(x.max(), -x.min())))


@dataclass
class MongeAmpereSolution:
    u: np.ndarray
    residual: np.ndarray         # 8 det M - f against the unshifted f, a grid
    residual_sup: float          # sup |residual|
    shift: float                 # compatibility constant added to f
    newton_iterations: int
    cg_iterations: int
    residual_path: List[float]   # sup |residual| per Newton step, initial first
    used_harmonic_start: bool    # the solve started at u = -phi_U
    positivity_margin: float     # min eigenvalue of M at the solution


# relative CG tolerance floor, the CG iteration budget of one Newton
# step and the Newton step budget of one solve, the shortest line-search
# step, and the multiple of eps * scale below which a residual is at roundoff
CG_TOL_FLOOR = 1e-10
CG_MAX = 600
NEWTON_MAX = 50
STEP_FLOOR = 2.0 ** -24
ROUNDOFF_FLOOR = 16


def solve_monge_ampere(
    geom: TorusGeometry,
    a0: FormField,
    potential_hat: Optional[np.ndarray],
    f: np.ndarray,
    tol: float = 1e-8,
) -> MongeAmpereSolution:
    """Damped Newton iteration for 8 det(a0 + ddc(phi_U + u)) = f.

    a0 is a constant form and potential_hat the half spectrum of the
    twist potential phi_U (None for phi_U = 0). The iterate is
    psi = phi_U + u, from psi = 0, where m = a0 is positive by the class
    test and the first Newton operator has constant coefficients. Each
    Newton step solves its linear system to the forcing term
    eta = max(CG_TOL_FLOOR, min(0.1, 0.1 res_sup / scale)) of the module
    docstring, where scale = max(1, |8 det a0|) is the scale of the
    compatibility test; the floor is reached as res_sup falls.

    Raises ClassObstructionError when a0 is not positive definite (the
    class test) or the density f fails positivity, and
    NumericalFailureError when the iteration stalls at a positive class
    or needs more than NEWTON_MAX steps, naming the roundoff floor when
    the residual has reached it.
    """
    f = np.broadcast_to(f, geom.shape)
    mbar = a0.mean_matrix()
    eigs = np.linalg.eigvalsh(mbar)
    if eigs[0] <= 0:
        raise ClassObstructionError(
            "class test failed: the averaged matrix alpha0 + beta/2 is not "
            "positive definite, so no solution branch exists"
        )
    if float(np.min(f)) <= 0:
        raise ClassObstructionError(
            "volume-form hypothesis fails: the density wedge(beta,beta)/4 "
            "- gamma is not positive everywhere"
        )

    det_bar = 8 * float(np.linalg.det(mbar).real)
    shift = det_bar - float(np.mean(f))
    scale = max(1.0, abs(det_bar))
    if abs(shift) > 1e-6 * scale:
        raise SurfaceError(
            f"compatibility defect {shift:.3e} exceeds tolerance; the class "
            "data and the right side are inconsistent"
        )

    # the iterate is kept as the half spectrum psi_hat of psi, with
    # m = a0 + ddc(psi) and its residual res, neither recomputed; the
    # start m = a0 is scalars, and u = psi - phi_U is transformed back
    # once, at the end
    psi_hat = np.zeros_like(geom.cross_re)
    m = a0
    symbol = None       # built by the first Newton step; a harmonic start may need none
    total_cg = 0

    # the solve is 8 det = f + shift; the compatibility constant is
    # subtracted in place, so f + shift is never built
    res = square_density(m) - f
    res -= shift
    res_sup = _sup(res)
    path = [res_sup]
    while res_sup > tol:
        if len(path) > NEWTON_MAX:     # len(path) - 1 steps taken
            raise NumericalFailureError(f"Newton stalled with residual {res_sup:.3e}")
        # inexact Newton step L delta = -res, with the solver acting
        # as -L, solved to a tolerance that follows the residual
        eta = max(CG_TOL_FLOOR, min(0.1, 0.1 * res_sup / scale))
        if symbol is None:
            symbol = _precondition_symbol(geom, mbar)
        delta_hat, cg_it = _pcg(geom, m, res, symbol, eta, CG_MAX)
        del m, res      # the line search builds its own
        total_cg += cg_it
        step = 1.0
        while True:
            trial_hat = step * delta_hat
            trial_hat += psi_hat
            trial_m = _spectral_hessian(geom, trial_hat, a0)
            trial_sq = square_density(trial_m)
            # a Hermitian 2x2 matrix is positive definite where its
            # a11 and its determinant are
            if float(np.min(trial_m.a11)) > 0 and float(np.min(trial_sq)) > 0:
                trial_res = trial_sq    # taken in place
                trial_res -= f
                trial_res -= shift
                trial_sup = _sup(trial_res)
                if trial_sup < res_sup:
                    break
            step /= 2
            if step < STEP_FLOOR:
                floor = ROUNDOFF_FLOOR * np.finfo(float).eps * scale
                if res_sup <= floor:
                    raise NumericalFailureError(
                        f"residual {res_sup:.3e} is at the roundoff floor "
                        f"{floor:.3e} of this equation and cannot reach "
                        f"tol {tol:.3e}"
                    )
                raise NumericalFailureError(
                    "line search exhausted; positivity or decrease could "
                    "not be maintained"
                )
        psi_hat, m = trial_hat, trial_m
        res, res_sup = trial_res, trial_sup
        # delta is not held through the next _pcg call, and the
        # accepted grids keep one name each
        del delta_hat, trial_hat, trial_m, trial_sq, trial_res
        path.append(res_sup)

    # the iterate is final: the residual against the unshifted f is
    # res + shift, and u = psi - phi_U is transformed back once
    res += shift
    margin = m.min_eigenvalue()
    del m           # not held through the transform back
    if potential_hat is not None:
        psi_hat -= potential_hat
    psi_hat.flat[0] = 0.0   # the mean mode
    u = _irfft(geom, psi_hat)
    return MongeAmpereSolution(
        u=u,
        residual=res,
        residual_sup=_sup(res),
        shift=shift,
        newton_iterations=len(path) - 1,
        cg_iterations=total_cg,
        residual_path=path,
        used_harmonic_start=potential_hat is not None,
        positivity_margin=margin,
    )


@dataclass
class SurfaceSolution(MongeAmpereSolution):
    """The Monge-Ampere solution with the phase and the residual of the
    original phase equation."""

    phi: float
    z_residual_sup: float = field(init=False)
    z_residual_mean: float = field(init=False)

    def __post_init__(self):
        z = self.z_residual_field
        self.z_residual_sup = _sup(z)
        self.z_residual_mean = float(np.mean(z))

    @property
    def z_residual_field(self) -> np.ndarray:
        """Im(e^{-i phi} Zt) at the solution, built on each access."""
        return -np.sin(self.phi) * self.residual


# ---------------------------------------------------------------------------
# the lattice of the data
# ---------------------------------------------------------------------------


def _hermite_rows(vectors: Sequence[Sequence[int]]) -> List[List[int]]:
    """Row Hermite normal form of integer 4-vectors: its nonzero rows are
    in echelon form with positive pivots and the entries above each pivot
    in [0, pivot), a basis of the lattice the vectors generate that is
    the same for every generating set (Cohen 1993, section 2.4.2)."""
    rows = [list(v) for v in vectors if any(v)]
    out: List[List[int]] = []
    for col in range(4):
        pivots = [row for row in rows if row[col]]
        rows = [row for row in rows if not row[col]]
        if not pivots:
            continue
        pivot = pivots[0]
        for row in pivots[1:]:
            # Euclid on column col, by unimodular row operations
            while row[col]:
                q = pivot[col] // row[col]
                pivot, row = row, [a - q * b for a, b in zip(pivot, row)]
            if any(row):
                rows.append(row)
        if pivot[col] < 0:
            pivot = [-a for a in pivot]
        for prev in out:
            q = prev[col] // pivot[col]
            prev[:] = [a - q * b for a, b in zip(prev, pivot)]
        out.append(pivot)
    return out


def _lattice_basis(modes: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """A basis of the lattice that the integer 4-vectors modes generate.

    It is made of modes when they allow: the shortest linearly
    independent ones, each signed so that its first nonzero entry is
    positive, kept when their Hermite normal form is that of all the
    modes, so that every mode has integer coordinates in it. Otherwise
    it is the rows of that normal form.
    """
    hermite = _hermite_rows(modes)
    signed = {tuple(m) if next(a for a in m if a) > 0 else tuple(-a for a in m)
              for m in modes if any(m)}
    chosen: List[Tuple[int, ...]] = []
    for mode in sorted(signed, key=lambda m: (sum(a * a for a in m), m)):
        if len(chosen) == len(hermite):
            break
        if len(_hermite_rows(chosen + [mode])) > len(chosen):
            chosen.append(mode)
    if _hermite_rows(chosen) == hermite:
        return tuple(chosen)
    return tuple(tuple(row) for row in hermite)


def _reduce(
    data: SurfaceChargeData,
) -> Optional[Tuple[SurfaceChargeData, Tuple[np.ndarray, ...]]]:
    """The data as fields of B^T x on the lattice their modes generate,
    and the index arrays that gather a reduced field onto the N^4 grid;
    None when the data are solved as they are given.

    A mode of u1_potential or u2 is in the support when its coefficient
    exceeds ROUNDOFF_FLOOR * eps times the largest one. None is returned
    for data on a reduced geometry already, data without support modes,
    with a support mode on a Nyquist plane, of rank 4, with a support
    mode j outside |j_a| < N/2, or when a reduced field gathered back
    misses its input by more than ROUNDOFF_FLOOR * eps * max(1, sup
    |input|).
    """
    geom = data.geom
    n = geom.size
    if geom.basis != IDENTITY_BASIS:
        return None
    eps = np.finfo(float).eps
    freq = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
    fields = []             # (grid, mean, support frequencies, coefficients)
    for grid in (data.u1_potential, data.u2):
        if grid is None:
            fields.append(None)
            continue
        grid = np.broadcast_to(np.asarray(grid, dtype=float), geom.shape)
        spec = _rfft(grid)
        size = np.abs(spec)
        index = np.nonzero(size > ROUNDOFF_FLOOR * eps * size.max())
        del size
        k = np.stack([freq[i] for i in index[:3]] + [index[3]], axis=1)
        keep = k.any(axis=1)            # the mean mode is no mode of the lattice
        fields.append((grid, spec.flat[0], k[keep], spec[index][keep]))
        del spec
    supports = [f[2] for f in fields if f is not None]
    modes = np.concatenate(supports) if supports else np.zeros((0, 4), np.int64)
    if (not len(modes) or (n % 2 == 0 and (2 * np.abs(modes) == n).any())
            or np.linalg.matrix_rank(modes) == 4):
        return None
    basis = _lattice_basis(modes.tolist())
    columns = np.array(basis, dtype=np.int64)
    to_j = np.linalg.pinv(columns.T.astype(float))
    rgeom = TorusGeometry(n, basis)
    # numpy's coefficient of a mode on N^r points is N^r times its
    # amplitude; mode j stands for k = B j, and -j for -k
    scale = float(n) ** (rgeom.rank - 4)
    arange = np.arange(n)
    gather_index = tuple(
        sum(entry * arange.reshape([n if a == c else 1 for a in range(4)])
            for c, entry in enumerate(column) if entry) % n
        for column in basis)
    reduced = []
    for f in fields:
        if f is None:
            reduced.append(None)
            continue
        grid, mean, k, coef = f
        j = np.rint(k @ to_j.T).astype(np.int64)
        if not (j @ columns == k).all() or (2 * np.abs(j) >= n).any():
            return None
        spec = np.zeros(rgeom.cross_re.shape, dtype=complex)
        spec.flat[0] = mean * scale
        for jj, c in ((j, coef), (-j, np.conj(coef))):
            half = jj[:, -1] >= 0
            spec[tuple((jj[half] % n).T)] = c[half] * scale
        g = _irfft(rgeom, spec)
        miss = g[gather_index] - grid
        if _sup(miss) > ROUNDOFF_FLOOR * eps * max(1.0, _sup(grid)):
            return None
        reduced.append(g)
    rdata = SurfaceChargeData(rgeom, data.metric, data.rho, data.alpha0, data.u1_const,
                              *reduced)
    return rdata, gather_index


def _gather(g: np.ndarray, index: Tuple[np.ndarray, ...], shape: Tuple[int, ...]) -> np.ndarray:
    """The N^4 grid field x -> g(B^T x) of a reduced grid field g."""
    out = np.empty(shape)
    out[...] = g[index]
    return out


def solve_critical_equation(
    data: SurfaceChargeData, tol: float = 1e-8, stages: int = 1
) -> SurfaceSolution:
    """Assemble the equation from charge data, solve it to sup residual
    tol, and report the residual of the original phase equation,
    -sin(phi) times the solver's, alongside the solver's.

    The equation commutes with translations, so its solution is a
    function of B^T x, where the columns of B span the lattice of the
    data's modes (_reduce). It is solved on N points per axis of that
    lattice's torus, and u and the residual are gathered onto the N^4
    grid of the data; residual_sup is the sup of the gathered residual.
    """
    # stages is accepted only as 1, because the bench harness
    # (perfbench/workloads.py) still passes stages=1; it goes once that
    # call stops passing it
    if stages != 1:
        raise SurfaceError(
            f"stages={stages!r}: only 1 is accepted, the solver runs one Newton solve"
        )
    reduced = _reduce(data)
    solved = reduced[0] if reduced else data
    asm = assemble_equation(solved)
    ma = solve_monge_ampere(solved.geom, asm.a0, asm.potential_hat, asm.f, tol=tol)
    if reduced:
        ma.u = _gather(ma.u, reduced[1], data.geom.shape)
        ma.residual = _gather(ma.residual, reduced[1], data.geom.shape)
        ma.residual_sup = _sup(ma.residual)
    return SurfaceSolution(**vars(ma), phi=asm.phi)


@dataclass
class ZResidualReport:
    field: np.ndarray
    sup: float
    grid_mean: float


def z_residual(data: SurfaceChargeData, alpha: FormField) -> ZResidualReport:
    """Pointwise density of Im(e^{-i phi} Zt) at the given curvature form.

    The grid mean must vanish for any form in the class since the mean
    of the density is determined by the class alone and phi is chosen
    to cancel it. It evaluates the charge density, not the solver residual.
    """
    zt = data.zt_density(alpha)
    res = np.broadcast_to((np.exp(-1j * data.phase()) * zt).imag, data.geom.shape)
    return ZResidualReport(res, _sup(res), float(np.mean(res)))


# ---------------------------------------------------------------------------
# large-volume expansion check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LargeVolumeRow:
    k: float
    measured_sup: float
    predicted_sup: float
    relative_error: float


def large_volume_check(
    data: SurfaceChargeData,
    k_values: Sequence[float] = (10.0, 100.0),
) -> List[LargeVolumeRow]:
    """Compare the measured k^3 coefficient of Im(conj(Z_k) Zt_k(x)) at
    the harmonic representative against its closed form, one row per k.

    The odd part in k of the pairing is sampled at k and 2k and the
    cubic coefficient extracted by the exact finite stencil
    (S(2k) - 2 S(k)) / (6 k^3); the closed form is
    Im(conj(rho2) rho1) * 8 det G * wedge(G, variation of alpha + U1),
    which vanishes identically on constant-coefficient data satisfying
    the averaged linear equation. A k whose row leaves float range gets
    nan for the measured sup and the relative error.
    """
    alpha = data.alpha_harmonic()
    u1 = data.u1_field()
    _, r1, r2 = data.normalised_rho()
    # _zt at any k from densities built once, in _zt's operation order
    sq_g, w_g, real_part = data._zt_terms(alpha, u1, data.u2_density())

    def pairing(kk: float) -> np.ndarray:
        zt = r2 * kk ** 2 * sq_g + r1 * kk * w_g + real_part
        zk = complex(np.mean(zt))
        return (np.conj(zk) * zt).imag

    def odd(kk: float) -> np.ndarray:
        return (pairing(kk) - pairing(-kk)) / 2

    c = float((np.conj(r2) * r1).imag)
    g = data.omega()
    variation = alpha + u1
    mean = variation.mean_matrix()
    vari = variation - FormField.constant(mean[0, 0].real, mean[0, 1], mean[1, 1].real)
    predicted = c * square_density(g) * wedge_density(g, vari)
    pred_sup = _sup(predicted)

    rows = []
    for k in k_values:
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                measured = (odd(2 * k) - 2 * odd(k)) / (6 * k ** 3)
        except (OverflowError, FloatingPointError):
            rows.append(LargeVolumeRow(float(k), np.nan, pred_sup, np.nan))
            continue
        diff = _sup(measured - predicted)
        rel = diff / pred_sup if pred_sup > 0 else diff
        rows.append(LargeVolumeRow(float(k), _sup(measured), pred_sup, rel))
    return rows


# ---------------------------------------------------------------------------
# field dump
# ---------------------------------------------------------------------------


def write_field_dump(path: str, fields: Dict[str, np.ndarray]) -> None:
    """Write named grid fields as an uncompressed .npz archive, one array
    per name, that numpy.load reads. The file is written at path exactly:
    numpy appends .npz only to a file name, not to an open file."""
    with open(path, "wb") as fh:
        np.savez(fh, **fields)
