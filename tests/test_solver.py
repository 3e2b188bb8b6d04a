"""Ground-state descent, mountain-pass search, and their certificates."""

import numpy as np
import pytest

from pfiber.errors import InputError
from pfiber.functionals import energy_components, phi, w1p_norm, weak_residual
from pfiber.problem import (
    DiscreteField,
    Exponents,
    ProblemSpec,
    affine_coefficient,
    build_mesh,
    bump_coefficient,
    constant_coefficient,
)
from pfiber.rayleigh import estimate_thresholds, nonlinear_quotients, ray_quotients
from pfiber.solver import solve_ground_state, solve_mountain_pass

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
    comps = energy_components(report.field, spec)
    ray = ray_quotients(comps, 1.0, EX)
    assert abs(ray.constraint - spec.epsilon) <= 1e-6 * spec.epsilon
    # Loss-term floor at the ground state: B > (gamma(q-p)/(p(gamma-q))) eps T.
    floor = (EX.gamma * (EX.q - EX.p) / (EX.p * (EX.gamma - EX.q)))
    assert comps.loss > floor * spec.epsilon * comps.dirichlet


def test_tight_convergence_does_not_hang_on_rounding_of_the_start(model_ground_state):
    """Starts a relative 1e-15 apart all converge at tol_res = 1e-12.

    Near the minimizer two rounded energies cannot resolve a decrease; an
    Armijo test on their difference leaves 2 of these 8 starts unconverged.
    The descent's cancellation-free energy change tells a decrease apart
    from rounding, so every start converges.
    """
    spec, coarse = model_ground_state
    for k in range(8):
        start = DiscreteField(spec.mesh, coarse.field.values * (1.0 + k * 1e-15))
        report = solve_ground_state(spec, init=start, tol_res=1e-12)
        assert report.converged, k
        assert report.residual_norm <= report.tol_effective
        energies = np.array([row[1] for row in report.trace])
        assert np.all(np.diff(energies) <= 0.0)


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


@pytest.mark.parametrize("case", [
    "init_other_domain", "mountain_pass_other_resolution",
    "mountain_pass_other_domain", "extra_start_other_domain",
])
def test_fields_from_another_mesh_are_refused(model_ground_state, case):
    """A supplied field must live on the problem's mesh, [0, 1] with 201 nodes.

    [0, 2] with 201 nodes has the same node count, so only its bounds tell
    it apart; a 101-node mesh differs in its count.
    """
    spec, _ = model_ground_state
    other_domain = ProblemSpec(build_mesh((0.0, 2.0), 201), EX, 1e-3, ONE, ONE)
    with pytest.raises(InputError, match="problem's mesh"):
        if case == "init_other_domain":
            solve_ground_state(spec, init=DiscreteField(other_domain.mesh,
                                                        np.ones(201)))
        elif case == "extra_start_other_domain":
            estimate_thresholds(spec, restarts=1, max_iters=5, extra_starts=(
                DiscreteField(other_domain.mesh, np.ones(201)),))
        else:
            other = model_spec(n=101) if case.endswith("resolution") else other_domain
            ground_state = solve_ground_state(other, random_restarts=0)
            assert ground_state.converged and ground_state.energy < 0.0
            solve_mountain_pass(spec, ground_state)


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


def test_tied_seeds_report_the_earliest(model_ground_state):
    """The default seeds reach one ground state to within the stop rule.

    Their energies lie within 2.4e-13 of each other, against a tie tolerance
    of about 1e-10, and a later seed ends lowest; the first seed's field and
    energy are reported bit for bit.
    """
    from pfiber.solver import _default_seeds

    spec, report = model_ground_state
    first = solve_ground_state(spec, tol_res=1e-8, random_restarts=0)
    np.testing.assert_array_equal(report.field.values, first.field.values)
    assert report.energy == first.energy
    energies = [solve_ground_state(spec, init=DiscreteField(spec.mesh, s), tol_res=1e-8).energy
                for s in _default_seeds(spec, 0, 4)]
    assert energies[0] == first.energy
    assert min(energies) < first.energy
    assert max(energies) - min(energies) <= 1e-10 * (1.0 + abs(first.energy))


def test_warm_start_accepted(model_ground_state):
    spec, report = model_ground_state
    again = solve_ground_state(spec, init=report.field, tol_res=1e-8)
    assert again.converged
    assert again.energy <= report.energy + 1e-14


def test_zero_start_is_critical_after_no_step():
    """The zero field is a critical point: the descent from it takes no step.

    Its energy is 0, so the start itself lies within the Armijo test's
    cancellation threshold; only a trial field needs the exact change.
    """
    spec = model_spec()
    report = solve_ground_state(spec, init=DiscreteField(spec.mesh, np.zeros(201)))
    assert report.converged
    assert report.is_zero()
    assert report.iterations == 0
    assert report.energy == 0.0


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
    """The energy peak along the ground state's ray is no lower than the
    critical point's energy."""
    _, _, mp = model_second_solution
    assert mp.path_level >= mp.energy - 1e-15 * abs(mp.energy)


def test_mountain_pass_distinct_from_ground_state(model_second_solution):
    _, gs, mp = model_second_solution
    gap = np.max(np.abs(mp.field.values - gs.field.values))
    assert gap > 0.1  # different branch, not a perturbation of the minimizer


def test_mountain_pass_energies_converge_at_second_order():
    """Second-solution energies on 201, 801 and 3201 nodes, h falling 4x each time.

    P1 energies at a critical point converge like h^2, so the observed order
    log4(|E_201 - E_801| / |E_801 - E_3201|) is near 2 once every solve
    reaches its critical point; a stop short of it shows as a lower order.
    Measured: 2.00002 for (2, 3, 4) and 1.98 for (3, 4, 5).
    """
    for ex in (EX, Exponents(3.0, 4.0, 5.0)):
        energies = []
        for n in (201, 801, 3201):
            spec = ProblemSpec(build_mesh((0.0, 1.0), n), ex, 1e-3, ONE, ONE)
            mp = solve_mountain_pass(spec, solve_ground_state(spec))
            assert mp.converged, (ex, n)
            energies.append(mp.energy)
        e1, e2, e3 = energies
        order = np.log(abs(e1 - e2) / abs(e2 - e3)) / np.log(4.0)
        assert 1.8 <= order <= 2.2, (ex, order)


def test_mountain_pass_has_morse_index_one(model_second_solution):
    """A mountain-pass point has exactly one negative Hessian eigenvalue.

    The Hessian is built column by column from central differences of
    weak_residual, not from the solver's assembled Jacobian.
    """
    spec, _, mp = model_second_solution
    interior = spec.mesh.interior_nodes
    u = mp.field.values
    h = 1e-6 * np.max(np.abs(u))
    hess = np.empty((interior.size, interior.size))
    for k, i in enumerate(interior):
        step = np.zeros_like(u)
        step[i] = h
        up = weak_residual(DiscreteField(spec.mesh, u + step), spec).values
        down = weak_residual(DiscreteField(spec.mesh, u - step), spec).values
        hess[:, k] = (up - down)[interior] / (2.0 * h)
    eigenvalues = np.linalg.eigvalsh(0.5 * (hess + hess.T))
    assert np.count_nonzero(eigenvalues < 0.0) == 1


@pytest.mark.parametrize("newton", ["no_newton", "near_zero", "above_level"])
def test_mountain_pass_keeps_the_descent_field_when_newton_is_refused(
        model_second_solution, monkeypatch, newton):
    """A refused Newton field leaves the N- descent's field in the report.

    Newton is replaced by a stand-in that finds nothing, that returns a
    field near 0 which meets the stop rule, or that returns the energy peak
    along the ray through a bump of half-width 0.2, a field on N- 8 times
    above the starting level.  Each time the report holds the descent's
    field, which meets the stop rule 1.4e-6 above the critical value.
    """
    import pfiber.solver

    spec, gs, finished = model_second_solution
    mesh = spec.mesh
    monkeypatch.setattr(pfiber.solver, "_newton", lambda *args: None)
    descent = solve_mountain_pass(spec, gs, tol_res=1e-8)
    assert descent.newton_steps == 0 and finished.newton_steps > 0
    assert descent.converged and descent.iterations == finished.iterations
    assert descent.path_level == finished.path_level
    assert finished.energy <= descent.energy <= (1.0 + 1e-5) * finished.energy
    if newton == "no_newton":
        return

    if newton == "near_zero":
        values = 1e-6 * finished.field.values
        # It meets the stop rule, so only the acceptance test can refuse it.
        residual = weak_residual(DiscreteField(mesh, values), spec).values
        assert np.max(np.abs(residual)) <= finished.tol_effective
    else:
        x = mesh.nodes[:, 0]
        bump = np.maximum(0.0, 1.0 - ((x - 0.5) / 0.2) ** 2)
        values = pfiber.solver._peak_projection(bump, spec)
    energy = phi(DiscreteField(mesh, values), spec)
    assert energy > 0.0
    if newton == "above_level":
        assert energy > finished.path_level
    monkeypatch.setattr(pfiber.solver, "_newton", lambda *args: (values, energy, 3))
    mp = solve_mountain_pass(spec, gs, tol_res=1e-8)
    assert mp.newton_steps == 0
    np.testing.assert_array_equal(mp.field.values, descent.field.values)
    assert (mp.energy, mp.converged) == (descent.energy, True)
    assert np.max(mp.field.values) > 0.5 * np.max(finished.field.values)


def test_peak_projection_refuses_rays_without_a_peak():
    """Above eps_critical no ray peaks; a field with no positive part has no ray."""
    import pfiber.solver

    spec = model_spec()
    x = spec.mesh.nodes[:, 0]
    bump = np.maximum(0.0, 1.0 - ((x - 0.5) / 0.2) ** 2)
    assert pfiber.solver._peak_projection(bump, spec) is not None
    assert pfiber.solver._peak_projection(bump, model_spec(epsilon=1.0)) is None
    assert pfiber.solver._peak_projection(np.zeros_like(x), spec) is None
    assert pfiber.solver._peak_projection(-bump, spec) is None


def test_mountain_pass_converges_at_p_below_two():
    """1D (1.5, 2.5, 3.5), 201 nodes: Newton finishes the N- descent.

    The descent runs into its 600-step cap; from its field Newton
    converges to a nonnegative critical point.
    """
    spec = ProblemSpec(build_mesh((0.0, 1.0), 201), Exponents(1.5, 2.5, 3.5), 1e-3,
                       ONE, ONE)
    gs = solve_ground_state(spec, random_restarts=0)
    assert gs.converged and gs.energy < 0.0
    mp = solve_mountain_pass(spec, gs)
    assert mp.converged and mp.newton_steps > 0
    assert mp.energy > 0.0 and mp.field.values.min() >= 0.0
    recheck = float(np.max(np.abs(weak_residual(mp.field, spec).values)))
    assert recheck <= mp.tol_effective


@pytest.fixture(scope="module")
def slow_newton_second_solution():
    """The converged second solution of 1D (1.5, 2.5, 3.5) on 101 nodes."""
    spec = ProblemSpec(build_mesh((0.0, 1.0), 101), Exponents(1.5, 2.5, 3.5), 1e-3,
                       ONE, ONE)
    mp = solve_mountain_pass(spec, solve_ground_state(spec, random_restarts=0))
    assert mp.converged
    return spec, mp


@pytest.mark.parametrize(("mode", "ratios"), [(3, (0.5, 0.7)), (5, (1.2, 1.6))],
                         ids=["slow_step", "overshoot"])
def test_damped_newton_converges_from_a_perturbed_second_solution(
        slow_newton_second_solution, mode, ratios):
    """Damped Newton from the second solution plus 1% of its maximum times
    sin(mode pi x), at p = 1.5.

    The full first step lowers the residual max-norm by a factor of 0.60
    (mode 3), so not by half, or raises it by 1.39 (mode 5); either way the
    norm stays far above the tolerance.  Newton must neither stop there nor
    take the overshooting step, and must converge back to the second
    solution.
    """
    from pfiber.solver import _newton, _newton_step

    spec, mp = slow_newton_second_solution
    x = spec.mesh.nodes[:, 0]
    start = mp.field.values + 0.01 * mp.field.values.max() * np.sin(mode * np.pi * x)
    start[spec.mesh.boundary_nodes] = 0.0

    def residual(values):
        return weak_residual(DiscreteField(spec.mesh, values), spec).values

    idx = spec.mesh.interior_nodes
    full = start.copy()
    full[idx] -= _newton_step(start, residual(start)[idx], spec)
    full_norm = np.max(np.abs(residual(full)))
    assert ratios[0] < full_norm / np.max(np.abs(residual(start))) < ratios[1]
    assert full_norm > 100.0 * mp.tol_effective

    found = _newton(start, spec, 1e-8)
    assert found is not None
    values, energy, steps = found
    assert 1 < steps <= 10
    assert np.max(np.abs(residual(values))) <= mp.tol_effective
    assert abs(energy - mp.energy) <= 1e-12 * mp.energy
    assert np.max(np.abs(values - mp.field.values)) <= 1e-6 * mp.field.values.max()


@pytest.mark.parametrize("n", [3, 4])
def test_newton_on_one_and_two_interior_nodes(n):
    """Newton on 3 and 4 nodes, where the band has no off-diagonal or one entry.

    (2, 3, 4), eps = 1e-2, a = b = 1.  The symmetric critical point carries
    one value t on every interior node; its residual is a scalar function
    of t, whose root brentq brackets on [0.5, 2].  Newton starts from 0.9 t.
    The first step x must solve J x = r: central differences of the
    residual along x, at 1e-5 of the start's maximum, must give r.
    Measured: they miss it by 1.6e-10 of max |r| or less, and Newton lands
    on the root to every bit; the bound on the latter is brentq's own
    accuracy, about 4 ulp plus xtol.
    """
    from scipy.optimize import brentq

    from pfiber.solver import _newton, _newton_step

    mesh = build_mesh((0.0, 1.0), n)
    spec = ProblemSpec(mesh, EX, 1e-2, ONE, ONE)
    idx = mesh.interior_nodes

    def field(t):
        values = np.zeros(n)
        values[idx] = t
        return values

    def residual(values):
        return weak_residual(DiscreteField(mesh, values), spec).values[idx]

    root = brentq(lambda t: residual(field(t))[0], 0.5, 2.0, xtol=1e-15)
    start = field(0.9 * root)
    rhs = residual(start)
    direction = np.zeros(n)
    direction[idx] = _newton_step(start, rhs.copy(), spec)
    t = 1e-5 * start.max() / np.max(np.abs(direction))
    slope = (residual(start + t * direction) - residual(start - t * direction)) / (2.0 * t)
    assert np.max(np.abs(slope - rhs)) <= 1e-9 * np.max(np.abs(rhs))

    found = _newton(start, spec, 1e-8)
    assert found is not None
    values, _, steps = found
    assert 1 < steps <= 10
    assert np.max(np.abs(values - field(root))) <= 1e-14 * root


@pytest.mark.parametrize("domain, resolution", [
    ((0.0, 1.0), 41),
    (((0.0, 1.0), (0.0, 1.0)), (9, 8)),
], ids=["1d", "2d"])
def test_newton_stops_at_a_singular_jacobian(domain, resolution):
    """At the zero field with (3, 4, 5) the Jacobian is exactly 0: the p = 3
    block vanishes with g, and f'(0) = 0 for q > 2.

    _newton returns None, from dgtsv's info > 0 in 1D and from SuperLU's
    RuntimeError in 2D, not a field.  Ignoring info would return the zero
    field, since dgtsv then leaves the zero right-hand side as the step.
    """
    from pfiber.functionals import _jacobian_blocks
    from pfiber.solver import _newton, _newton_step

    mesh = build_mesh(domain, resolution)
    spec = ProblemSpec(mesh, Exponents(3.0, 4.0, 5.0), 1e-3, ONE, ONE)
    zero = np.zeros(mesh.n_nodes)
    assert not np.any(_jacobian_blocks(zero, spec))
    assert _newton_step(zero, np.ones(mesh.interior_nodes.size), spec) is None
    assert _newton(zero, spec, 1e-8) is None


@pytest.mark.filterwarnings("error")
def test_mountain_pass_2d_newton_at_q_below_two():
    """Newton finishes the second solution on a square with q < 2.

    (1.5, 1.8, 3), a = b = 1, eps = 1e-2, 21x21 nodes.  f'(0) is infinite,
    and every mid-edge point of a boundary edge has v = 0, but the basis
    value of its element's interior vertex is 0 there, so no entry that
    Newton solves may see it.  An inf * 0 in the assembly warns, which
    fails here; its NaN would stop Newton with newton_steps = 0.
    Measured: 27 descent steps, then 4 Newton steps.
    """
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (21, 21))
    spec = ProblemSpec(mesh, Exponents(1.5, 1.8, 3.0), 1e-2, ONE, ONE)
    gs = solve_ground_state(spec, random_restarts=0)
    assert gs.converged and gs.energy < 0.0
    mp = solve_mountain_pass(spec, gs)
    assert mp.converged and mp.newton_steps >= 1
    assert mp.energy > 0.0 and mp.field.values.min() >= 0.0


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


def test_mountain_pass_rejects_bad_endpoint(model_ground_state):
    spec, gs = model_ground_state
    bad = solve_ground_state(spec, tol_res=1e-14, max_iters=2)
    assert not bad.converged
    with pytest.raises(InputError):
        solve_mountain_pass(spec, bad)
    with pytest.raises(InputError):
        solve_mountain_pass(spec, gs, tol_res=0.0)


# -- Nehari numbers -----------------------------------------------------------


def test_report_nehari_numbers(model_ground_state):
    """The report's Nehari residual and fiber curvature, from the field's components."""
    spec, report = model_ground_state
    comps = energy_components(report.field, spec)
    num = abs(spec.epsilon * comps.dirichlet - comps.gain + comps.loss)
    den = spec.epsilon * comps.dirichlet + comps.gain + comps.loss
    assert report.nehari_residual == pytest.approx(num / den, rel=1e-14)
    expected_second = ((EX.p - EX.q) * spec.epsilon * comps.dirichlet
                       + (EX.gamma - EX.q) * comps.loss)
    assert report.fiber_second_derivative == pytest.approx(expected_second, rel=1e-14)
