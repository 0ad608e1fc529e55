import numpy as np
import pytest

from zcrit.surface import (
    ClassObstructionError,
    NumericalFailureError,
    SurfaceChargeData,
    TorusGeometry,
    assemble_beta_gamma,
    ddc,
    solve_critical_equation,
    solve_monge_ampere,
    square_density,
    wedge_density,
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
    assert len(sol.stage_history) == 10
    assert [s for s, _, _ in sol.stage_history] == pytest.approx(
        [i / 10 for i in range(1, 11)])


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


def test_generic_perturbation_converges_quadratically():
    data = flat_data()
    x = data.geom.coordinates()
    v = 0.1 * np.cos(2 * np.pi * x[0]) + 0.08 * np.cos(2 * np.pi * (x[2] + x[1]))
    sol = solve_critical_equation(data.perturb_u1(v), tol=1e-11, stages=1)
    assert sol.residual_sup < 1e-10
    path = sol.stage_residuals[-1]
    assert path == sorted(path, reverse=True)
    # once inside the basin the error square-contracts
    pairs = [(a, b) for a, b in zip(path, path[1:]) if a < 1.0 and b > 1e-10]
    assert pairs and all(b < 10 * a ** 2 for a, b in pairs)


def test_residual_agrees_with_fresh_evaluation():
    # solve loosely so the residual sits far above roundoff and the
    # identities can be compared in relative terms
    data = flat_data()
    x = data.geom.coordinates()
    pert = data.perturb_u1(0.12 * np.cos(2 * np.pi * x[0])
                           + 0.1 * np.cos(2 * np.pi * x[2]))
    sol = solve_critical_equation(pert, tol=1e-4, stages=2)
    assert 1e-9 < sol.residual_sup < 1e-4
    asm = assemble_beta_gamma(pert)
    m = pert.alpha_harmonic() + asm.beta.scale(0.5) + ddc(data.geom, sol.u)
    f = wedge_density(asm.beta, asm.beta) / 4 - asm.gamma
    res = float(np.max(np.abs(square_density(m) - f)))
    assert res == pytest.approx(sol.residual_sup, rel=1e-5)
    # the critical-equation residual is the rotated multiple of the
    # volume residual
    assert sol.z_residual_sup == pytest.approx(abs(asm.sin_phi) * res, rel=1e-5)
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


def test_exhausted_linear_solver_reports_numerical_failure():
    data = flat_data()
    x = data.geom.coordinates()
    with pytest.raises(NumericalFailureError):
        solve_critical_equation(data.perturb_u1(0.1 * np.cos(2 * np.pi * x[0])),
                                cg_max=0, stages=1)


def test_newton_budget_enforced():
    data = flat_data()
    x = data.geom.coordinates()
    v = 0.1 * np.cos(2 * np.pi * x[0]) + 0.08 * np.cos(2 * np.pi * x[2])
    with pytest.raises(NumericalFailureError):
        solve_critical_equation(data.perturb_u1(v), max_newton=1, stages=1)


def test_direct_interface_matches_wrapper():
    data = flat_data()
    x = data.geom.coordinates()
    pert = data.perturb_u1(0.05 * np.cos(2 * np.pi * x[2]))
    asm = assemble_beta_gamma(pert)
    ma = solve_monge_ampere(pert.geom, pert.alpha_harmonic(), asm.beta,
                            asm.gamma, tol=1e-9)
    wrapped = solve_critical_equation(pert, tol=1e-9)
    assert np.allclose(ma.u, wrapped.u, atol=1e-11)
    assert ma.residual_sup == pytest.approx(wrapped.residual_sup,
                                            rel=1e-6, abs=1e-13)


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
