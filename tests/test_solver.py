"""Ground-state descent, mountain-pass search, and their certificates."""

import numpy as np
import pytest

from pfiber.errors import DomainError, InputError
from pfiber.functionals import energy_components, phi_plus, w1p_norm, weak_residual
from pfiber.problem import (
    DiscreteField,
    Exponents,
    ProblemSpec,
    build_mesh,
    bump_coefficient,
    constant_coefficient,
    make_field,
)
from pfiber.rayleigh import estimate_thresholds, nonlinear_quotients
from pfiber.solver import (
    barrier_estimate,
    embedding_constant,
    nehari_diagnostics,
    solve_ground_state,
    solve_mountain_pass,
)

ONE = constant_coefficient(1.0)
EX = Exponents(2.0, 3.0, 4.0)


def model_spec(n=201, epsilon=1e-3):
    mesh = build_mesh((0.0, 1.0), n)
    return ProblemSpec(mesh, EX, epsilon, ONE, ONE)


@pytest.fixture(scope="module")
def model_ground_state():
    spec = model_spec()
    return spec, solve_ground_state(spec, tol_res=1e-8)


# -- ground state -------------------------------------------------------------


def test_ground_state_model_case(model_ground_state):
    spec, report = model_ground_state
    assert report.converged
    assert report.energy < 0.0
    assert report.residual_norm <= report.tol_effective
    # Independent certificate: recompute the residual from scratch.
    recheck = float(np.max(np.abs(weak_residual(report.field, spec).values)))
    assert recheck <= report.tol_effective
    assert report.nehari_residual <= 1e-6
    assert report.fiber_second_derivative > 0.0
    interior = report.field.values[spec.mesh.interior_nodes]
    assert interior.min() > 0.0


def test_ground_state_trace_is_monotone(model_ground_state):
    _, report = model_ground_state
    energies = np.array([row[1] for row in report.trace])
    assert len(energies) >= 2
    assert np.all(np.diff(energies) <= 0.0)
    # Trace rows are (iteration, energy, residual_norm).
    iters = [row[0] for row in report.trace]
    assert iters == sorted(iters)


def test_ray_value_at_tight_convergence(model_ground_state):
    """At a sharply converged critical point the ray sits at height eps."""
    spec, coarse = model_ground_state
    report = solve_ground_state(spec, init=coarse.field, tol_res=1e-12)
    assert report.converged
    diag = nehari_diagnostics(report.field, spec)
    assert abs(diag.ray_constraint - spec.epsilon) <= 1e-6 * spec.epsilon
    comps = energy_components(report.field, spec)
    # Loss-term floor at the ground state: B > (gamma(q-p)/(p(gamma-q))) eps T.
    floor = (EX.gamma * (EX.q - EX.p) / (EX.p * (EX.gamma - EX.q)))
    assert comps.loss > floor * spec.epsilon * comps.dirichlet


def test_descent_stops_when_accepted_steps_stop_lowering_the_energy(
        model_ground_state):
    """At the rounding floor Armijo accepts steps that leave the energy as it
    is; such a descent must stop unconverged, not run to max_iters."""
    spec, coarse = model_ground_state
    report = solve_ground_state(spec, init=coarse.field, tol_res=1e-17,
                                max_iters=3000)
    assert not report.converged
    assert report.iterations < 100
    energies = np.array([row[1] for row in report.trace])
    assert np.all(np.diff(energies) <= 0.0)
    assert energies[-1] == energies[-2]


def test_ground_state_dominated_by_its_quotient(model_ground_state):
    # eps <= eps_u(u) for the solution's own ray (fiber maximum dominates).
    spec, report = model_ground_state
    comps = energy_components(report.field, spec)
    assert spec.epsilon <= nonlinear_quotients(comps, EX).constraint + 1e-12


def test_interior_plateau_small_eps():
    """The small-eps ground state flattens to 1 away from the boundary."""
    spec = model_spec(n=2001, epsilon=1e-4)
    report = solve_ground_state(spec, tol_res=1e-8)
    assert report.converged
    assert report.energy < 0.0
    mid = spec.mesh.n_nodes // 2  # node at x = 0.5
    assert abs(report.field.values[mid] - 1.0) <= 2e-2


def test_nonexistence_returns_zero_field():
    spec = model_spec(n=101)
    est = estimate_thresholds(spec, restarts=8, max_iters=200, seed=0)
    high = spec.with_epsilon(2.0 * est.eps_critical)
    report = solve_ground_state(high, tol_res=1e-8)
    assert report.converged
    assert report.is_zero()
    assert report.energy == 0.0
    assert w1p_norm(report.field, high) <= 1e-10


def test_nonexistence_with_varying_coefficient():
    # Candidates here decay to ~1e-8 amplitude with sign noise; the nodal
    # absolute value must not revoke their convergence and mask the zero
    # field behind a spurious non-converged report.
    from pfiber.problem import bump_coefficient

    mesh = build_mesh((0.0, 1.0), 401)
    spec = ProblemSpec(mesh, EX, 1e-1, bump_coefficient(1.0, 0.5, (0.0, 1.0)),
                       ONE)
    report = solve_ground_state(spec)
    assert report.converged
    assert report.is_zero()
    assert report.energy == 0.0
    assert report.residual_norm == 0.0


def test_solver_input_validation():
    spec = model_spec(n=21)
    with pytest.raises(InputError):
        solve_ground_state(spec, tol_res=0.0)
    stray = DiscreteField(build_mesh((0.0, 1.0), 31), np.zeros(31))
    with pytest.raises(InputError):
        solve_ground_state(spec, init=stray)


def test_exhausted_iterations_is_a_report_not_an_exception():
    spec = model_spec(n=101)
    report = solve_ground_state(spec, tol_res=1e-14, max_iters=3)
    assert not report.converged
    assert report.iterations > 0


def test_ground_state_deterministic():
    spec = model_spec(n=101)
    a = solve_ground_state(spec, tol_res=1e-8, seed=3)
    b = solve_ground_state(spec, tol_res=1e-8, seed=3)
    assert a.energy == b.energy
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.field.values, b.field.values)


def test_warm_start_accepted(model_ground_state):
    spec, report = model_ground_state
    again = solve_ground_state(spec, init=report.field, tol_res=1e-8)
    assert again.converged
    assert again.energy <= report.energy + 1e-14


def test_report_serialization(model_ground_state, tmp_path):
    _, report = model_ground_state
    data = report.to_json_dict()
    assert data["converged"] is True
    assert data["zero_field"] is False
    assert len(data["field"]["values"]) == 201
    assert "field" not in report.to_json_dict(include_field=False)
    path = tmp_path / "trace.csv"
    report.trace_to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,energy,residual_norm"
    assert len(lines) == len(report.trace) + 1


# -- mountain pass ------------------------------------------------------------


@pytest.fixture(scope="module")
def model_second_solution(model_ground_state):
    spec, gs = model_ground_state
    return spec, gs, solve_mountain_pass(spec, gs, tol_res=1e-8)


def test_mountain_pass_model_case(model_second_solution):
    spec, gs, mp = model_second_solution
    assert mp.converged
    assert mp.energy > 0.0 > gs.energy
    assert mp.field.values.min() >= 0.0
    recheck = float(np.max(np.abs(weak_residual(mp.field, spec).values)))
    assert recheck <= mp.tol_effective


def test_mountain_pass_level_dominates_barrier(model_second_solution):
    spec, _, mp = model_second_solution
    bar = barrier_estimate(spec)
    assert mp.path_level >= bar.level
    assert mp.path_level >= mp.energy - 1e-15 * abs(mp.energy)


def test_mountain_pass_distinct_from_ground_state(model_second_solution):
    _, gs, mp = model_second_solution
    gap = np.max(np.abs(mp.field.values - gs.field.values))
    assert gap > 0.1  # different branch, not a perturbation of the minimizer


def test_mountain_pass_2d_p3_bump():
    """Second solution on a square with p = 3 and a bump gain coefficient.

    The Nehari identity eps*D = G - L is recomputed with the mid-edge rule
    written out here; at a field with residual r it holds up to r . u, so
    within tol_effective * sum|u_i|.
    """
    domain = ((0.0, 1.0), (0.0, 1.0))
    mesh = build_mesh(domain, (21, 21))
    ex = Exponents(3.0, 4.0, 5.0)
    spec = ProblemSpec(mesh, ex, 1e-3, bump_coefficient(0.5, 1.0, domain), ONE)
    gs = solve_ground_state(spec)
    mp = solve_mountain_pass(spec, gs)
    assert gs.converged and mp.converged
    assert gs.energy < 0.0 < mp.energy
    u = mp.field.values
    assert u.min() >= 0.0

    verts = mesh.nodes[mesh.elements]
    vals = u[mesh.elements]
    e1, e2 = verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    du1, du2 = vals[:, 1] - vals[:, 0], vals[:, 2] - vals[:, 0]
    gx = (e2[:, 1] * du1 - e1[:, 1] * du2) / det
    gy = (-e2[:, 0] * du1 + e1[:, 0] * du2) / det
    area = 0.5 * np.abs(det)
    dirichlet = np.sum(area * (gx**2 + gy**2) ** (ex.p / 2.0))
    gain = loss = 0.0
    for i, j in ((0, 1), (1, 2), (0, 2)):
        mid = 0.5 * (verts[:, i] + verts[:, j])
        a_mid = 0.5 + np.sin(np.pi * mid[:, 0]) * np.sin(np.pi * mid[:, 1])
        u_mid = 0.5 * (vals[:, i] + vals[:, j])
        gain += np.sum(area / 3.0 * a_mid * u_mid**ex.q)
        loss += np.sum(area / 3.0 * u_mid**ex.gamma)
    nehari = spec.epsilon * dirichlet - (gain - loss)
    assert abs(nehari) <= mp.tol_effective * np.sum(np.abs(u))


def test_interior_solver_applies_a_stack_column_by_column():
    from pfiber.linalg import InteriorSolver

    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (9, 7))
    pre = InteriorSolver(mesh, alpha=1e-2, beta=1.0)
    rhs = np.random.default_rng(51).standard_normal((mesh.n_nodes, 5))
    out = pre.apply(rhs)
    assert out.shape == rhs.shape
    for i in range(rhs.shape[1]):
        single = pre.apply(rhs[:, i])
        np.testing.assert_allclose(out[:, i], single, rtol=0,
                                   atol=1e-13 * np.max(np.abs(single)))
    np.testing.assert_array_equal(out[mesh.boundary_nodes], 0.0)


def test_mountain_pass_rejects_bad_endpoint(model_ground_state):
    spec, gs = model_ground_state
    bad = solve_ground_state(spec, tol_res=1e-14, max_iters=2)
    assert not bad.converged
    with pytest.raises(InputError):
        solve_mountain_pass(spec, bad)
    with pytest.raises(InputError):
        solve_mountain_pass(spec, gs, path_points=2)


# -- diagnostics and barrier --------------------------------------------------


def test_nehari_diagnostics_values():
    spec = model_spec(n=61)
    u = make_field(spec.mesh, lambda x: np.sin(np.pi * x))
    comps = energy_components(u, spec)
    diag = nehari_diagnostics(u, spec)
    num = abs(spec.epsilon * comps.dirichlet - comps.gain + comps.loss)
    den = spec.epsilon * comps.dirichlet + comps.gain + comps.loss
    assert diag.nehari_residual == pytest.approx(num / den, rel=1e-14)
    expected_second = ((EX.p - EX.q) * spec.epsilon * comps.dirichlet
                       + (EX.gamma - EX.q) * comps.loss)
    assert diag.fiber_second_derivative == pytest.approx(expected_second, rel=1e-14)
    assert diag.ray_constraint == pytest.approx(
        (comps.gain - comps.loss) / comps.dirichlet, rel=1e-14)


def test_nehari_diagnostics_rejects_trivial_field():
    spec = model_spec(n=21)
    z = make_field(spec.mesh, lambda x: np.zeros_like(x))
    with pytest.raises(DomainError):
        nehari_diagnostics(z, spec)


def test_embedding_constant_interval():
    """Discrete sup ||u||_2/||u'||_2 on (0,1) approaches 1/pi from below."""
    mesh = build_mesh((0.0, 1.0), 31)
    c = embedding_constant(mesh, 2.0, 2.0)
    assert c <= 1.0 / np.pi + 1e-12
    assert c >= 0.9 / np.pi


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_embedding_constant_against_p_laplacian_eigenvalue(p):
    """With r = p on (0,1) the constant is lambda_1^(-1/p) in closed form.

    lambda_1 = (p-1) (2 pi / (p sin(pi/p)))^p is the first eigenvalue of the
    1D p-Laplacian.  The discrete supremum sits below it by c h^2: measured
    c = 0.160 (p = 1.5) and 0.148 (p = 3) at 101 nodes, with the gap shrinking
    4.0x and 3.9x per halving of h.  The bound c <= 0.25 and the observed
    order in [1.8, 2.2] follow from that rate.
    """
    exact = (p - 1.0) ** (-1.0 / p) * p * np.sin(np.pi / p) / (2.0 * np.pi)
    gaps = [exact - embedding_constant(build_mesh((0.0, 1.0), n), p, p) for n in (51, 101)]
    assert gaps[0] > gaps[1] > 0.0
    assert gaps[1] <= 0.25 * 0.01**2
    assert 1.8 <= np.log2(gaps[0] / gaps[1]) <= 2.2


def test_barrier_certifies_small_sphere(model_ground_state):
    spec, _ = model_ground_state
    bar = barrier_estimate(spec)
    assert bar.radius > 0.0 and bar.level > 0.0
    rng = np.random.default_rng(44)
    for _ in range(100):
        vals = rng.uniform(-1.0, 1.0, spec.mesh.n_nodes)
        vals[spec.mesh.boundary_nodes] = 0.0
        u = DiscreteField(spec.mesh, vals)
        u = u.scaled(bar.radius / w1p_norm(u, spec))
        assert phi_plus(u, spec) >= bar.level


def test_barrier_needs_gain_coefficient():
    mesh = build_mesh((0.0, 1.0), 21)
    spec = ProblemSpec(mesh, EX, 1e-3, constant_coefficient(0.0), ONE)
    with pytest.raises(DomainError):
        barrier_estimate(spec)
