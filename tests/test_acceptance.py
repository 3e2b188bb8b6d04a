"""Acceptance suite: one test per shipping requirement, pinned tolerances.

Criteria 4, 5, 6, and 8 share one 2001-node model problem; every nontrivial
critical point found there is registered and replayed into the threshold
estimate, so the existence/nonexistence split is checked against the same
discretization that produced the solutions.
"""

import numpy as np
import pytest

from pfiber.asymptotics import (
    asymptotic_metrics,
    composite_approx_1d,
    epsilon_sweep,
    layer_profile_1d,
    limit_profile,
    scale_solution,
    separation_constant,
)
from pfiber.functionals import (
    EnergyComponents,
    J_functional,
    phi,
    w1p_norm,
    weak_residual,
)
from pfiber.problem import (
    DiscreteField,
    Exponents,
    ProblemSpec,
    build_mesh,
    constant_coefficient,
)
from pfiber.rayleigh import (
    estimate_thresholds,
    extremal_constants,
    fiber_scalings,
    intersection_check,
    nonlinear_quotients,
)
from pfiber.solver import solve_ground_state, solve_mountain_pass

EX = Exponents(2.0, 3.0, 4.0)
ONE = constant_coefficient(1.0)
MESH_2001 = build_mesh((0.0, 1.0), 2001)
SPEC_2001 = ProblemSpec(MESH_2001, EX, 1e-3, ONE, ONE)

# Every nontrivial critical point found on MESH_2001: (label, eps, field).
REGISTRY = []


@pytest.fixture(scope="module")
def ground_state():
    report = solve_ground_state(SPEC_2001)
    assert report.converged
    REGISTRY.append(("ground state eps=1e-3", SPEC_2001.epsilon, report.field))
    return report


@pytest.fixture(scope="module")
def second_solution(ground_state):
    report = solve_mountain_pass(SPEC_2001, ground_state)
    assert report.converged
    REGISTRY.append(("mountain pass eps=1e-3", SPEC_2001.epsilon, report.field))
    return report


@pytest.fixture(scope="module")
def fine_ground_state():
    spec = SPEC_2001.with_epsilon(1e-4)
    report = solve_ground_state(spec)
    assert report.converged
    REGISTRY.append(("ground state eps=1e-4", spec.epsilon, report.field))
    return report


def test_criterion_01_extremal_constants_order_and_closed_forms():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        p = rng.uniform(1.01, 4.0)
        q = p + rng.uniform(0.01, 2.0)
        g = q + rng.uniform(0.01, 2.0)
        consts = extremal_constants(Exponents(p, q, g))
        assert 0.0 < consts.zero_energy < consts.constraint, (p, q, g)
    consts = extremal_constants(EX)
    assert abs(consts.constraint - 0.25) <= 1e-14
    assert abs(consts.zero_energy - 2.0 / 9.0) <= 1e-14


def test_criterion_02_fiber_algebra_against_grid_oracle():
    rng = np.random.default_rng(321)
    for _ in range(1000):
        p = rng.uniform(1.05, 3.0)
        q = p + rng.uniform(0.05, 2.0)
        g = q + rng.uniform(0.05, 2.0)
        ex = Exponents(p, q, g)
        comps = EnergyComponents(*rng.uniform(0.1, 5.0, 3))
        consts = extremal_constants(ex)
        quots = nonlinear_quotients(comps, ex)

        # Oracle: the ray value from its raw formula on a dense scale grid.
        s_n = fiber_scalings(comps, ex).constraint
        grid = np.geomspace(s_n / 10.0, s_n * 10.0, 10_000)
        vals = (comps.gain * grid ** (q - p)
                - comps.loss * grid ** (g - p)) / comps.dirichlet
        assert abs(quots.constraint - vals.max()) <= 1e-6 * quots.constraint

        rep = intersection_check(comps, ex)
        assert abs(rep.residual_at_crossing) \
            <= 1e-12 * (1.0 + abs(rep.value_zero_energy))

        # Threshold ratio equals the constant ratio at double precision.
        assert abs(quots.zero_energy * consts.constraint
                   - quots.constraint * consts.zero_energy) \
            <= 1e-14 * quots.constraint * consts.zero_energy


def test_criterion_03_weak_residual_matches_finite_differences():
    for p, tol in ((2.0, 1e-6), (1.5, 1e-5), (3.0, 1e-5)):
        q = max(p + 0.5, 3.0)
        spec = ProblemSpec(build_mesh((0.0, 1.0), 101),
                           Exponents(p, q, q + 1.0), 1e-3, ONE, ONE)
        mesh = spec.mesh
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(100):
            uv = rng.uniform(-1.0, 1.0, mesh.n_nodes)
            vv = rng.uniform(-1.0, 1.0, mesh.n_nodes)
            uv[mesh.boundary_nodes] = 0.0
            vv[mesh.boundary_nodes] = 0.0
            u = DiscreteField(mesh, uv)
            pairing = float(np.dot(weak_residual(u, spec).values, vv))
            fd = (phi(DiscreteField(mesh, uv + h * vv), spec)
                  - phi(DiscreteField(mesh, uv - h * vv), spec)) / (2.0 * h)
            assert abs(pairing - fd) <= tol * (1.0 + abs(fd)), (p, pairing, fd)


def test_criterion_04_ground_state_in_the_existence_regime(ground_state):
    gs = ground_state
    print(f"\n  energy {gs.energy:.12g}, residual {gs.residual_norm:.3g}, "
          f"nehari {gs.nehari_residual:.3g}")
    assert gs.converged
    assert gs.residual_norm <= 1e-8 * (1.0 + abs(gs.energy))
    assert gs.energy < 0.0
    assert gs.nehari_residual <= 1e-6
    assert gs.fiber_second_derivative > 0.0
    interior = np.ones(MESH_2001.n_nodes, dtype=bool)
    interior[MESH_2001.boundary_nodes] = False
    assert gs.field.values[interior].min() > 0.0


def test_criterion_05_nonexistence_past_the_threshold(
        ground_state, second_solution, fine_ground_state):
    estimate = estimate_thresholds(
        SPEC_2001, extra_starts=tuple(field for _, _, field in REGISTRY))
    print(f"\n  eps_critical {estimate.eps_critical:.12g} "
          f"({len(REGISTRY)} registered solutions)")
    report = solve_ground_state(
        SPEC_2001.with_epsilon(2.0 * estimate.eps_critical))
    assert report.converged
    assert report.is_zero()
    assert w1p_norm(report.field, SPEC_2001) <= 1e-10
    # Every nontrivial critical point found on this mesh sits below the
    # threshold estimated on the same mesh.
    assert len(REGISTRY) == 3
    for label, eps, _ in REGISTRY:
        assert eps <= estimate.eps_critical, label


def test_criterion_06_mountain_pass_second_solution(ground_state,
                                                    second_solution):
    mp = second_solution
    print(f"\n  energies: second {mp.energy:.6g} > 0 > "
          f"ground {ground_state.energy:.6g}")
    assert mp.converged
    assert mp.energy > 0.0 > ground_state.energy
    assert mp.field.values.min() >= 0.0


def test_criterion_07_sweep_toward_the_flat_limit():
    spec = ProblemSpec(build_mesh((0.0, 1.0), 4001), EX, 1e-3, ONE, ONE)
    limit = limit_profile(spec)
    assert abs(J_functional(limit.field, spec) + 1.0 / 12.0) <= 1e-14

    report = epsilon_sweep(spec, [1e-1, 1e-2, 1e-3, 1e-4], eta=0.1,
                           r_list=(1.0, 2.0))
    gaps = [row.energy_gap for row in report.rows]
    meas = [row.measure_bad for row in report.rows]
    l1 = [row.lr_errors[0][1] for row in report.rows]
    for row in report.rows:
        print(f"\n  eps {row.eps:g}: gap {row.energy_gap:.6g}, "
              f"measure {row.measure_bad:.6g}, l1 {row.lr_errors[0][1]:.6g}")
    assert all(row.converged for row in report.rows)
    assert all(g > 0.0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert all(a >= b for a, b in zip(meas, meas[1:]))
    assert all(a > b for a, b in zip(l1, l1[1:]))

    # Rate and constant of the approach, from leading-order layer asymptotics
    # (Modica 1987). With a = b = 1 the energy density above the flat limit
    # is eps/2 u'^2 + W(u), where
    #   W(t) = t^4/4 - t^3/3 + 1/12,
    #   sqrt(2 W(t)) = (1 - t) sqrt((3t^2 + 2t + 1)/6).
    # Near each end of [0, 1] the state is U(x / sqrt(eps)) with
    # U' = sqrt(2 W(U)) (equipartition: U'^2/2 = W(U)), so each of the two
    # layers contributes
    #   energy gap:  sqrt(eps) int_0^1 sqrt(2W) dt          = sqrt(eps) C_E,
    #   L1 error:    int (1 - U) dx = sqrt(eps) int_0^1 (1 - t)/sqrt(2W) dt
    #                                                        = sqrt(eps) C_1,
    # with C_1 = sqrt(2) (asinh(2 sqrt 2) - asinh(1/sqrt 2)) in closed form.
    # Rows with eps > 1e-3 are left to the monotonicity checks above: there
    # the two layers interact, which shifts the gap by -1.1e-3 and the L1
    # error by +4.7e-3 relative at eps = 1e-2. At eps in {1e-3, 1e-4} the
    # measured relative deviations are at most 7.7e-5, so rtol = 1e-3 leaves
    # a 13x margin and still catches a 0.1% error in either quantity.
    def two_w(t):
        return t ** 4 / 2.0 - 2.0 * t ** 3 / 3.0 + 1.0 / 6.0

    def sqrt_two_w(t):
        return (1.0 - t) * np.sqrt((3.0 * t ** 2 + 2.0 * t + 1.0) / 6.0)

    grid = np.linspace(0.0, 0.9, 91)
    np.testing.assert_allclose(sqrt_two_w(grid), np.sqrt(two_w(grid)),
                               rtol=1e-12)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    t, w = 0.5 * (nodes + 1.0), 0.5 * weights
    c_energy = float(w @ sqrt_two_w(t))
    c_l1 = np.sqrt(2.0) * (np.arcsinh(2.0 * np.sqrt(2.0))
                           - np.arcsinh(1.0 / np.sqrt(2.0)))
    c_l1_quad = float(w @ ((1.0 - t) / sqrt_two_w(t)))
    assert abs(c_l1_quad - c_l1) <= 1e-12 * c_l1
    assert abs(c_energy - 0.29254064188) <= 1e-10
    assert abs(c_l1 - 1.56167110111) <= 1e-10

    failures = []
    for row, gap, err in zip(report.rows, gaps, l1):
        if row.eps > 1e-3:
            continue
        for name, value, const in (("energy gap", gap, c_energy),
                                   ("L1 error", err, c_l1)):
            expected = 2.0 * np.sqrt(row.eps) * const
            if not abs(value - expected) <= 1e-3 * expected:
                failures.append(f"{name} at eps={row.eps:g} is {value:.6g}, "
                                f"layer law gives {expected:.6g}")
    assert not failures, "; ".join(failures)


def test_criterion_08_boundary_layer_and_composite(fine_ground_state):
    profile = layer_profile_1d(2.0, 4.0, xi_max=10.0, points=2001)
    tanh_err = np.max(np.abs(profile.values - np.tanh(profile.xi / np.sqrt(2.0))))
    assert tanh_err <= 1e-6

    composite = composite_approx_1d(1e-4, MESH_2001, layer_profile_1d(3.0, 4.0))
    sup_diff = float(np.max(np.abs(fine_ground_state.field.values
                                   - composite.values)))
    print(f"\n  tanh err {tanh_err:.3g}, composite sup diff {sup_diff:.3g}")
    assert sup_diff <= 5e-2


def test_criterion_09_scaling_equivalences():
    mesh = build_mesh((0.0, 1.0), 101)
    spec = ProblemSpec(mesh, EX, 0.01, ONE, ONE)
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.0, 1.0, mesh.n_nodes)
    vals[mesh.boundary_nodes] = 0.0
    u = DiscreteField(mesh, vals)

    lam = scale_solution(u, spec.epsilon, EX, "lambda")
    nu = scale_solution(u, spec.epsilon, EX, "nu")
    assert abs(lam.parameter - 10.0) <= 1e-12
    assert abs(nu.parameter - 0.01) <= 1e-12

    back_lam = lam.field.scaled(lam.parameter ** (-1.0 / (EX.gamma - EX.q)))
    back_nu = nu.field.scaled(nu.parameter ** (1.0 / (EX.gamma - EX.q)))
    np.testing.assert_allclose(back_lam.values, u.values, rtol=1e-14)
    np.testing.assert_allclose(back_nu.values, u.values, rtol=1e-14)


def test_criterion_10_separation_constant_oracle():
    boxes = [(1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 1.0, 1.0),
             (0.5, 1.5, 0.5, 2.0)]
    for box in boxes:
        for eta in (0.05, 0.1, 0.2):
            assert separation_constant(EX, *box, eta) > 0.0, (box, eta)

    spec = ProblemSpec(build_mesh((0.0, 1.0), 201), EX, 1e-3, ONE, ONE)
    profile = limit_profile(spec)
    kappa = separation_constant(EX, 1.0, 1.0, 1.0, 1.0, 0.1)
    rng = np.random.default_rng(99)
    for _ in range(100):
        vals = rng.uniform(0.0, 2.0, spec.mesh.n_nodes)
        vals[spec.mesh.boundary_nodes] = 0.0
        u = DiscreteField(spec.mesh, vals)
        metrics = asymptotic_metrics(u, profile, spec, eta=0.1, r_list=(1.0,))
        assert kappa * metrics.measure_bad <= metrics.J_gap
