import random
import tracemalloc

import numpy as np
import pytest

from zcrit import surface
from zcrit.config import load_raw, surface_inputs
from zcrit.surface import (
    ClassObstructionError,
    NumericalFailureError,
    SurfaceChargeData,
    SurfaceError,
    TorusGeometry,
    assemble_equation,
    ddc,
    solve_critical_equation,
    solve_monge_ampere,
    square_density,
    z_residual,
)


def flat_data(n=16):
    geom = TorusGeometry(n)
    return SurfaceChargeData.dhym(geom, (1.0, 0.0, 1.0), (2.0, 0.0, 3.0))


def test_constant_data_solves_to_zero():
    sol = solve_critical_equation(flat_data())
    assert sol.residual_sup < 1e-12
    assert float(np.max(np.abs(sol.u))) < 1e-12
    assert sol.positivity_margin > 0
    assert abs(sol.shift) < 1e-10
    assert not sol.used_harmonic_start
    # the start is the solution: one residual, no Newton step
    assert len(sol.residual_path) == 1
    assert sol.newton_iterations == 0


def test_single_mode_perturbation_has_exact_solution():
    # adding ddc(v) to the twist and -v to the potential cancels exactly,
    # so the solver has to land on u = -v
    data = flat_data()
    x = data.geom.coordinates()
    v = 0.1 * np.cos(2 * np.pi * x[0])
    sol = solve_critical_equation(data.perturb_u1(v), tol=1e-11, stages=1)
    assert sol.residual_sup < 1e-10
    assert np.max(np.abs(sol.u - (-(v - np.mean(v))))) < 1e-10
    assert sol.newton_iterations <= 3


@pytest.mark.parametrize("n", [16, 32])
def test_single_mode_twist_solves_at_the_start(n):
    # u = -v is the exact solution and the start, so no Newton step runs
    data = flat_data(n)
    v = data.geom.mode_field([1, 0, 1, -1], 0.05, "sin")
    sol = solve_critical_equation(data.perturb_u1(v), tol=1e-11, stages=1)
    assert sol.used_harmonic_start
    assert (sol.newton_iterations, sol.cg_iterations) == (0, 0)
    assert sol.residual_sup <= 1e-11
    assert float(np.max(np.abs(sol.u + (v - np.mean(v))))) <= 1e-12


def test_generic_perturbation_converges_quadratically():
    data = flat_data()
    x = data.geom.coordinates()
    v = 0.1 * np.cos(2 * np.pi * x[0]) + 0.08 * np.cos(2 * np.pi * (x[2] + x[1]))
    sol = solve_critical_equation(data.perturb_u1(v), tol=1e-11, stages=1)
    assert sol.residual_sup < 1e-10
    path = sol.residual_path
    assert path == sorted(path, reverse=True)
    # once inside the basin the error square-contracts
    pairs = [(a, b) for a, b in zip(path, path[1:]) if a < 1.0 and b > 1e-10]
    assert pairs and all(b < 10 * a ** 2 for a, b in pairs)


def two_mode_data(n=16):
    data = flat_data(n)
    x = data.geom.coordinates()
    return data.perturb_u1(0.1 * np.cos(2 * np.pi * x[0])
                           + 0.08 * np.cos(2 * np.pi * x[2]))


def record_pcg_tols(monkeypatch, fixed_tol=None):
    """Tolerances the solver passes to _pcg; with fixed_tol, _pcg solves
    to fixed_tol instead."""
    tols = []
    real = surface._pcg

    def pcg(geom, m, rhs, symbol, tol, max_iter):
        tols.append(tol)
        return real(geom, m, rhs, symbol, tol if fixed_tol is None else fixed_tol, max_iter)

    monkeypatch.setattr(surface, "_pcg", pcg)
    return tols


def test_forcing_term_follows_the_newton_residual(monkeypatch):
    tols = record_pcg_tols(monkeypatch)
    sol = solve_critical_equation(two_mode_data(), tol=1e-11, stages=1)
    assert len(tols) == sol.newton_iterations >= 3
    assert all(1e-10 <= eta <= 0.1 for eta in tols)
    assert tols[-1] <= tols[0]
    # loose while the residual is large, and tightening with it
    assert tols[0] > 1e-3 and tols == sorted(tols, reverse=True)


def test_first_newton_step_has_constant_coefficients(monkeypatch):
    # at the start m = a0 is constant, so the first linearised operator
    # is the preconditioner's and conjugate gradients take one iteration
    iterations = []
    real = surface._pcg

    def pcg(*args):
        x, it = real(*args)
        iterations.append(it)
        return x, it

    monkeypatch.setattr(surface, "_pcg", pcg)
    sol = solve_critical_equation(two_mode_data(), tol=1e-11, stages=1)
    assert iterations[0] == 1
    assert len(iterations) == sol.newton_iterations > 1


def test_inexact_newton_agrees_with_exact_newton(monkeypatch):
    data = two_mode_data()
    inexact = solve_critical_equation(data, tol=1e-11, stages=1)
    record_pcg_tols(monkeypatch, fixed_tol=1e-10)
    exact = solve_critical_equation(data, tol=1e-11, stages=1)
    assert exact.residual_sup <= 1e-11 and inexact.residual_sup <= 1e-11
    assert float(np.max(np.abs(inexact.u - exact.u))) <= 1e-10
    assert inexact.cg_iterations < exact.cg_iterations
    assert inexact.newton_iterations <= exact.newton_iterations


def test_transform_budget_of_the_spectral_solve(monkeypatch):
    # u, the step and the conjugate-gradient vectors are half spectra: a
    # Newton right side costs one forward transform, a CG iteration one
    # forward and one inverse call, a line-search trial one inverse call,
    # and u is transformed back once; the Hessian of the twist potential
    # adds one forward and one inverse call, and finding its lattice one
    # inverse, of the reduced potential. On the rank-2 grid at N=16 each
    # Hessian and each operator inverts its four parts in one _irfft call
    # on a stack of four half spectra. The support search transforms only
    # the last-axis columns that can hold a mode, each of N^3 points: both
    # modes have k_4 = 0, so that is column 0 alone
    counts = {"forward": 0, "inverse": 0, "hessian": 0, "column": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(surface, "_rfft", counted("forward", surface._rfft))
    monkeypatch.setattr(surface, "_irfft", counted("inverse", surface._irfft))
    monkeypatch.setattr(surface, "_column_spectrum",
                        counted("column", surface._column_spectrum))
    monkeypatch.setattr(surface, "_spectral_hessian",
                        counted("hessian", surface._spectral_hessian))
    sol = solve_critical_equation(two_mode_data(), tol=1e-11, stages=1)
    trials = counts["hessian"] - 1
    newton, cg = sol.newton_iterations, sol.cg_iterations
    assert (newton, cg, trials) == (4, 18, 4)
    assert counts["forward"] == 1 + newton + cg == 23
    assert counts["inverse"] == 1 + cg + trials + 2 == 25
    assert counts["column"] == 1


def test_residual_agrees_with_fresh_evaluation():
    # solve loosely so the residual sits far above roundoff and the
    # identities can be compared in relative terms: the charge density
    # is evaluated to about 2e-14, and the residual here is about 1e-4
    data = flat_data()
    x = data.geom.coordinates()
    pert = data.perturb_u1(0.12 * np.cos(2 * np.pi * x[0])
                           + 0.1 * np.cos(2 * np.pi * x[2]))
    sol = solve_critical_equation(pert, tol=1e-3, stages=1)
    assert 1e-5 < sol.residual_sup < 1e-3
    asm = assemble_equation(pert)
    fresh = ddc(data.geom, sol.u)
    m_base = surface._spectral_hessian(data.geom, asm.potential_hat, asm.a0)
    res = float(np.max(np.abs(square_density(m_base + fresh) - asm.f)))
    assert res == pytest.approx(sol.residual_sup, rel=1e-5)
    # the critical-equation residual, evaluated from the charge density
    # alone, is the rotated multiple of the volume residual, sign included
    rep = z_residual(pert, pert.alpha_harmonic() + fresh)
    assert np.max(np.abs(sol.z_residual_field - rep.field)) <= 1e-8 * rep.sup
    assert sol.z_residual_sup == pytest.approx(rep.sup, rel=1e-8)
    assert abs(sol.z_residual_mean) < 1e-10


def test_strong_perturbation_uses_harmonic_start():
    data = flat_data()
    x = data.geom.coordinates()
    # amplitude 0.3 swings the twist by about 3, past the base eigenvalue
    sol = solve_critical_equation(data.perturb_u1(0.3 * np.cos(2 * np.pi * x[0])))
    assert sol.used_harmonic_start
    assert sol.residual_sup < 1e-8
    assert sol.positivity_margin > 0


def test_negative_class_is_an_obstruction():
    geom = TorusGeometry(16)
    data = SurfaceChargeData.dhym(geom, (1.0, 0.0, 1.0), (-5.0, 0.0, -5.0))
    with pytest.raises(ClassObstructionError):
        solve_critical_equation(data)


def test_failed_volume_hypothesis_is_an_obstruction():
    # a large oscillating degree-4 twist pushes the density negative
    # without moving any grid average
    geom = TorusGeometry(16)
    u2 = 30.0 * geom.mode_field([1, 0, 0, 0], 1.0)
    data = SurfaceChargeData(geom, (1.0, 0.0, 1.0), (-1.0, 1.0j, 0.5),
                             (2.0, 0.0, 3.0), (0.0, 0.0, 0.0), None, u2)
    with pytest.raises(ClassObstructionError):
        solve_critical_equation(data)


def test_exhausted_linear_solver_reports_numerical_failure(monkeypatch):
    # a single mode solves at the start, so the two-mode twist is needed
    # to reach conjugate gradients
    monkeypatch.setattr(surface, "CG_MAX", 0)
    with pytest.raises(NumericalFailureError, match="conjugate gradients"):
        solve_critical_equation(two_mode_data(), stages=1)


def test_exhausted_line_search_names_the_newton_step(monkeypatch):
    # an ascent direction: every step length raises the residual, so the
    # line search runs out at the first Newton step and says so
    pcg = surface._pcg

    def ascent(*args):
        x, it = pcg(*args)
        return -x, it

    monkeypatch.setattr(surface, "_pcg", ascent)
    with pytest.raises(NumericalFailureError,
                       match=r"^line search exhausted at Newton step 1 \(residual \S+\); "):
        solve_critical_equation(two_mode_data(), stages=1)


def test_stages_other_than_one_are_rejected():
    with pytest.raises(SurfaceError, match="stages=2"):
        solve_critical_equation(two_mode_data(), stages=2)


def test_newton_budget_enforced(monkeypatch):
    data = flat_data()
    x = data.geom.coordinates()
    v = 0.1 * np.cos(2 * np.pi * x[0]) + 0.08 * np.cos(2 * np.pi * x[2])
    monkeypatch.setattr(surface, "NEWTON_MAX", 1)
    with pytest.raises(NumericalFailureError, match="Newton stalled"):
        solve_critical_equation(data.perturb_u1(v), stages=1)


def test_direct_interface_matches_wrapper():
    # the direct interface solves the data on their N^4 grid; the wrapper
    # solves them on their lattice and gathers the same fields back
    data = flat_data()
    x = data.geom.coordinates()
    pert = data.perturb_u1(0.05 * np.cos(2 * np.pi * x[2]))
    asm = assemble_equation(pert)
    ma = solve_monge_ampere(pert.geom, asm.a0, asm.potential_hat, asm.f, tol=1e-9)
    wrapped = solve_critical_equation(pert, tol=1e-9)
    assert np.allclose(ma.u, wrapped.u, atol=1e-11)
    assert ma.residual_sup == pytest.approx(wrapped.residual_sup,
                                            rel=1e-6, abs=1e-13)
    reduced = surface._reduce(pert)
    assert reduced.geom.basis == ((0, 0, 1, 0),)
    asm = assemble_equation(reduced)
    ma = solve_monge_ampere(reduced.geom, asm.a0, asm.potential_hat, asm.f, tol=1e-9)
    assert np.array_equal(surface._gather(ma.residual, reduced.geom.basis),
                          wrapped.residual)
    assert np.array_equal(surface._gather(ma.u, reduced.geom.basis), wrapped.u)


def test_solves_leave_no_state_on_the_data():
    # two solves of one data object agree bit for bit and leave its
    # attributes as they were; a new twist potential changes the answer
    data = flat_data()
    x = data.geom.coordinates()
    pert = data.perturb_u1(0.1 * np.cos(2 * np.pi * x[0]))
    before = dict(vars(pert))
    potential = pert.u1_potential.copy()
    first = solve_critical_equation(pert, tol=1e-10, stages=1)
    second = solve_critical_equation(pert, tol=1e-10, stages=1)
    assert np.array_equal(first.u, second.u)
    assert first.residual_sup == second.residual_sup
    assert vars(pert).keys() == before.keys()
    assert all(vars(pert)[k] is before[k] for k in before)
    assert np.array_equal(pert.u1_potential, potential)

    pert.u1_potential = 0.08 * np.cos(2 * np.pi * x[2])
    third = solve_critical_equation(pert, tol=1e-10, stages=1)
    fresh = solve_critical_equation(
        data.perturb_u1(0.08 * np.cos(2 * np.pi * x[2])), tol=1e-10, stages=1)
    assert not np.allclose(third.u, first.u)
    assert np.array_equal(third.u, fresh.u)


@pytest.mark.parametrize("case", ["flat", "newton", "harmonic"])
def test_returned_hessian_and_margin_are_those_of_the_solution(case):
    # the solver keeps 8 det, the residual and the smallest eigenvalue of
    # its accepted step; they agree with a fresh evaluation at the
    # Hessian of sol.u
    data = flat_data()
    x = data.geom.coordinates()
    a1, a2 = {"flat": (0.0, 0.0), "newton": (0.1, 0.05), "harmonic": (0.3, 0.0)}[case]
    pert = data.perturb_u1(a1 * np.cos(2 * np.pi * x[0]) + a2 * np.cos(2 * np.pi * x[2]))
    sol = solve_critical_equation(pert, tol=1e-10)
    # every case has a twist potential (zero for flat), so every solve
    # starts at u = -potential
    assert sol.used_harmonic_start
    assert (sol.newton_iterations > 0) == (case == "newton")
    fresh = ddc(data.geom, sol.u)
    asm = assemble_equation(pert)
    m = surface._spectral_hessian(data.geom, asm.potential_hat, asm.a0) + fresh
    assert sol.residual_sup == pytest.approx(
        float(np.max(np.abs(square_density(m) - asm.f))), rel=1e-3, abs=1e-12)
    assert sol.positivity_margin == pytest.approx(m.min_eigenvalue(), abs=1e-12)
    rep = z_residual(pert, pert.alpha_harmonic() + fresh)
    assert sol.z_residual_field.shape == data.geom.shape
    assert np.max(np.abs(sol.z_residual_field - rep.field)) <= 1e-12


# tracemalloc peaks in grids, rounded up. A solve on the lattice of its
# data peaks at its N^4 outputs, u, the residual and the phase residual
# (3.1 grids at N=16 and 3.0 at N=32; 6.2 at N=32 before the
# reduction). The gather builds indices of at most BLOCK points, one
# block of N^3 slabs at a time, so a mode with every entry nonzero
# costs no more (3.0 at N=32, against 4.0 with an N^4 int64 gather
# index). On the N^4 grid itself a multi-step Newton solve
# peaks in the conjugate-gradient operator (16.7 at N=16); ddc with its
# input at 7.1.
PEAK_GRIDS = {"newton": 4, "single": 4, "harmonic": 4, "oblique": 4, "identity": 17, "ddc": 8}


@pytest.mark.parametrize("case, n", [("newton", 16), ("single", 16), ("harmonic", 16),
                                     ("single", 32), ("oblique", 32), ("identity", 16),
                                     ("ddc", 32)])
def test_solve_peak_memory_in_grids(case, n):
    # numpy reports its array buffers to tracemalloc, so the peak in grids
    # of N^4 float64 is the same on every machine; the data and its twist
    # potential exist before the solve and are not counted, the input of
    # ddc is
    data = flat_data(n)
    geom = data.geom
    if case == "ddc":
        def run():
            return ddc(geom, np.random.default_rng(32).standard_normal(geom.shape))
    else:
        if case == "oblique":
            potential = geom.mode_field((1, 2, 3, 1), 0.3 / (15 * np.pi ** 2))
        else:
            x = geom.coordinates()
            a1, a2 = {"newton": (0.1, 0.05), "single": (0.1, 0.0), "harmonic": (0.3, 0.0),
                      "identity": (0.1, 0.05)}[case]
            potential = a1 * np.cos(2 * np.pi * x[0]) + a2 * np.cos(2 * np.pi * x[2])
        pert = data.perturb_u1(potential)

        def run():
            if case == "identity":
                return identity_solve(pert, 1e-11)
            return solve_critical_equation(pert, tol=1e-11, stages=1)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = run()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    if case == "ddc":
        assert out.a12.shape == geom.shape
    else:
        assert out.residual_sup <= 1e-11
        assert out.used_harmonic_start
        assert out.newton_iterations == {"newton": 4, "single": 0, "harmonic": 0,
                                         "oblique": 0, "identity": 4}[case]
    assert peak / (8 * geom.size ** 4) <= PEAK_GRIDS[case]


# ---------------------------------------------------------------------------
# solves on the lattice of the data against the identity basis
# ---------------------------------------------------------------------------

def identity_solve(data, tol):
    """The solve on the N^4 grid of the data, with no reduction."""
    asm = assemble_equation(data)
    return solve_monge_ampere(data.geom, asm.a0, asm.potential_hat, asm.f, tol=tol)


@pytest.mark.parametrize("name", ["torus_dhym", "torus_harmonic", "torus_two_mode",
                                  "torus_skew"])
@pytest.mark.parametrize("n", [9, 15, 16])
def test_reduced_solve_matches_identity_basis(name, n):
    # axis-aligned lattices with unit bases: the lattice's grid is the
    # N^4 grid's restriction, so both solves take the same steps
    data, params = surface_inputs(load_raw(f"configs/{name}.json"), n_override=n)
    tol = params["tol"]
    reduced = surface._reduce(data)
    assert reduced.geom.rank == (2 if name in ("torus_two_mode", "torus_skew") else 1)
    sol = solve_critical_equation(data, tol=tol)
    full = identity_solve(data, tol)
    assert (sol.newton_iterations, sol.cg_iterations) == (full.newton_iterations,
                                                           full.cg_iterations)
    assert sol.u.shape == sol.residual.shape == data.geom.shape
    assert sol.residual_sup <= tol
    assert float(np.max(np.abs(sol.u - full.u))) <= 10 * tol


@pytest.mark.parametrize("amp, noise, kept", [
    (0.05, 4e-16, True),     # misses by 0.5 floor: under floor * 1, over floor * sup
    (0.05, 2e-15, False),    # misses by 2.5 floor
    (4.0, 1.5e-13, False),   # misses by 45 floor * sup |input|
    (1e3, 2e-13, True),      # misses by 320 floor, but 0.3 floor * sup |input|
])
def test_gather_check_against_noise_below_the_support_threshold(amp, noise, kept):
    # white noise with coefficients below the support threshold (at most
    # 0.3 of it) leaves the support one mode, and the reduced potential
    # misses its input by the noise: the lattice is kept only when the
    # miss is within ROUNDOFF_FLOOR eps max(1, sup |input|)
    geom = TorusGeometry(16)
    grid = (geom.mode_field([1, 0, 0, 0], amp)
            + noise * np.random.default_rng(0).standard_normal(geom.shape))
    reduced = surface._reduce(flat_data().perturb_u1(grid))
    assert (reduced is not None) == kept
    if kept:
        assert reduced.geom.basis == ((1, 0, 0, 0),)


def interpolate(g, n):
    """The trigonometric interpolant of the odd reduced grid field g at
    the points of an n-point grid on each of its axes."""
    spec = np.fft.fftn(g) / g.size
    j = np.fft.fftfreq(g.shape[0], d=1.0 / g.shape[0])
    wave = np.exp(2j * np.pi * np.outer(np.arange(n) / n, j))
    for axis in range(g.ndim):
        spec = np.moveaxis(np.tensordot(wave, spec, axes=(1, axis)), 0, axis)
    return spec.real


def twist(geom, terms, coordinates=None):
    """The sum of the (mode, amplitude, phase) terms on geom, each mode
    placed on geom's axes by coordinates when given."""
    v = np.zeros(geom.shape)
    for mode, amp, phase in terms:
        v = v + geom.mode_field(list(mode if coordinates is None else coordinates(mode)),
                                amp, phase)
    return v


def reference_errors(data, terms, tol):
    """max |u - reference| of the reduced solve and of the identity-basis
    solve of data, against the reduced N=45 solve interpolated onto the
    grid of data, whose twist potential is twist(data.geom, terms)."""
    sol = solve_critical_equation(data, tol=tol)
    full = identity_solve(data, tol)
    reduced = surface._reduce(data)
    columns = np.array(reduced.geom.basis).T

    def coordinates(mode):
        return np.rint(np.linalg.lstsq(columns, np.array(mode), rcond=None)[0]).astype(int)

    fine = TorusGeometry(45, reduced.geom.basis)
    fine_data = SurfaceChargeData(fine, data.metric, data.rho, data.alpha0, data.u1_const,
                                  twist(fine, terms, coordinates))
    ref = surface._gather(interpolate(solve_critical_equation(fine_data, tol=tol).u,
                                      data.geom.size), reduced.geom.basis)
    return float(np.max(np.abs(sol.u - ref))), float(np.max(np.abs(full.u - ref)))


@pytest.mark.parametrize("n", [9, 15, 16])
def test_oblique_reduced_solve_is_no_further_from_the_fine_reference(n):
    # the basis (0, 1, 1, 0), (2, 1, 0, 0) has an entry 2, so the N^4 box
    # |k_i| < N/2 holds fewer harmonics of the twist than the lattice's grid
    raw = load_raw("configs/torus_oblique.json")
    data, params = surface_inputs(raw, n_override=n)
    terms = [(t["mode"], t["amplitude"], t["phase"]) for t in raw["surface"]["u1_potential"]]
    err_reduced, err_full = reference_errors(data, terms, params["tol"])
    assert err_reduced <= max(err_full, 10 * params["tol"])


@pytest.mark.parametrize("seed", range(4))
def test_reduced_solve_is_no_further_from_the_fine_reference(seed):
    # Two or three independent modes with |m_i| <= 3 and ddc strength 1 in
    # all, as the benchmark's N=16 jobs draw them. The identity basis
    # resolves |k_i| < 8 and cuts harmonics such as 2 l1 + l2; the
    # lattice's 16 points per axis resolve |j_a| < 8.
    rng = random.Random(2701 + seed)
    while True:
        modes = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2 + seed % 2)]
        if np.linalg.matrix_rank(np.array(modes)) == len(modes):
            break
    terms = [(m, 1.0 / (np.pi ** 2 * sum(a * a for a in m) * len(modes)),
              rng.choice(("cos", "sin"))) for m in modes]
    data = flat_data().perturb_u1(twist(flat_data().geom, terms))
    tol = 1e-12
    err_reduced, err_full = reference_errors(data, terms, tol)
    assert err_reduced <= max(err_full, 10 * tol)
