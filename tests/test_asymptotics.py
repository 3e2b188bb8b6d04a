"""Flat-limit metrics, the eps sweep, scaling equivalences, boundary layers."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from pfiber.asymptotics import (
    _LayerPotential,
    asymptotic_metrics,
    composite_approx_1d,
    epsilon_sweep,
    layer_profile_1d,
    limit_profile,
    scale_solution,
    separation_constant,
)
from pfiber.errors import HypothesisViolation, InputError, NumericalError
from pfiber.functionals import energy_components
from pfiber.problem import (
    DiscreteField,
    Exponents,
    ProblemSpec,
    build_mesh,
    constant_coefficient,
    make_field,
)
from pfiber.solver import solve_ground_state

ONE = constant_coefficient(1.0)
EX = Exponents(2.0, 3.0, 4.0)


def model_spec(n=201, epsilon=1e-3):
    mesh = build_mesh((0.0, 1.0), n)
    return ProblemSpec(mesh, EX, epsilon, ONE, ONE)


def random_zero_trace(spec, rng, lo=0.0, hi=2.0):
    vals = rng.uniform(lo, hi, spec.mesh.n_nodes)
    vals[spec.mesh.boundary_nodes] = 0.0
    return DiscreteField(spec.mesh, vals)


# -- limit_profile ------------------------------------------------------------


def test_limit_profile_balanced_coefficients():
    spec = model_spec(n=31)
    prof = limit_profile(spec)
    np.testing.assert_array_equal(prof.field.values, np.ones(31))
    assert prof.rho_minus == prof.rho_plus == 1.0


def test_limit_profile_ratio_two():
    mesh = build_mesh((0.0, 1.0), 31)
    spec = ProblemSpec(mesh, EX, 1e-3, constant_coefficient(2.0), ONE)
    prof = limit_profile(spec)
    np.testing.assert_allclose(prof.field.values, 2.0, rtol=1e-15)


def test_limit_profile_solves_pointwise_balance():
    mesh = build_mesh((0.0, 1.0), 81)
    from pfiber.problem import bump_coefficient

    a = bump_coefficient(1.0, 0.5, (0.0, 1.0))
    b = bump_coefficient(1.0, 0.25, (0.0, 1.0))
    spec = ProblemSpec(mesh, EX, 1e-3, a, b)
    prof = limit_profile(spec)
    assert np.all(prof.field.values >= prof.rho_minus - 1e-12)
    assert np.all(prof.field.values <= prof.rho_plus + 1e-12)
    tol = 1e-10 * (1.0 + spec.b.upper * prof.rho_plus ** (EX.gamma - 1.0))
    assert prof.equation_residual_max <= tol
    residual = np.abs(spec.a_nodes * prof.field.values ** (EX.q - 1.0)
                      - spec.b_nodes * prof.field.values ** (EX.gamma - 1.0))
    assert residual.max() <= tol


def test_limit_profile_needs_positive_gain():
    mesh = build_mesh((0.0, 1.0), 21)
    spec = ProblemSpec(mesh, EX, 1e-3, constant_coefficient(0.0), ONE)
    with pytest.raises(HypothesisViolation):
        limit_profile(spec)


# -- asymptotic_metrics -------------------------------------------------------


def test_metrics_vanish_on_the_profile_itself():
    spec = model_spec(n=61)
    prof = limit_profile(spec)
    m = asymptotic_metrics(prof.field, prof, spec, eta=0.1)
    assert m.measure_bad == 0.0
    assert all(err == 0.0 for _, err in m.lr_errors)
    assert m.J_gap == 0.0


def test_metrics_on_zero_field():
    """|0 - 1| = 1 >= eta everywhere: the bad set is the whole interval."""
    spec = model_spec(n=61)
    prof = limit_profile(spec)
    z = make_field(spec.mesh, lambda x: np.zeros_like(x))
    m = asymptotic_metrics(z, prof, spec, eta=0.5)
    assert m.measure_bad == pytest.approx(1.0, abs=1e-12)
    assert m.limit_value == pytest.approx(-1.0 / 12.0, abs=1e-13)


def test_metrics_input_validation():
    spec = model_spec(n=21)
    prof = limit_profile(spec)
    u = prof.field
    with pytest.raises(InputError):
        asymptotic_metrics(u, prof, spec, eta=0.0)
    for r in (np.inf, np.nan):
        with pytest.raises(InputError, match="finite"):
            asymptotic_metrics(u, prof, spec, r_list=(1.0, r))
    with pytest.raises(InputError):
        asymptotic_metrics(u, prof, spec, r_list=(0.5,))


def test_metrics_accept_r_above_gamma_and_grow_with_r():
    """L^r errors beyond the paper's r < gamma, nondecreasing in r.

    A positive solution lies below sup of the limit, so every finite r >= 1
    is meaningful; on the unit interval, a probability space, Hoelder's
    inequality makes ||f||_r nondecreasing in r.
    """
    spec = model_spec(n=201, epsilon=1e-2)
    prof = limit_profile(spec)
    ground = solve_ground_state(spec)
    assert ground.converged and ground.energy < 0.0
    r_list = (1.0, 2.0, 3.0, 4.0, 8.0, 16.0)
    m = asymptotic_metrics(ground.field, prof, spec, r_list=r_list)
    assert [r for r, _ in m.lr_errors] == list(r_list)
    errors = [err for _, err in m.lr_errors]
    assert errors[0] > 0.0
    assert all(lo <= hi for lo, hi in zip(errors, errors[1:])), errors
    assert errors[-1] <= np.max(np.abs(ground.field.values - prof.field.values))


def test_gap_identities_on_random_fields():
    """J_gap is bounded below by 0; the energy adds exactly (eps/p) T on top."""
    spec = model_spec(n=81)
    prof = limit_profile(spec)
    rng = np.random.default_rng(50)
    for _ in range(50):
        u = random_zero_trace(spec, rng)
        m = asymptotic_metrics(u, prof, spec)
        assert m.J_gap >= -1e-10
        comps = energy_components(u, spec)
        gradient_part = (spec.epsilon / EX.p) * comps.dirichlet
        assert m.energy_gap - m.J_gap == pytest.approx(gradient_part, rel=1e-12)
        assert m.energy_gap >= m.J_gap - 1e-10


# -- separation_constant ------------------------------------------------------


def test_separation_constant_positive_and_monotone_in_eta():
    kappas = [separation_constant(EX, 1.0, 1.0, 1.0, 1.0, eta)
              for eta in (0.05, 0.1, 0.2)]
    assert all(k > 0.0 for k in kappas)
    # Wider tubes exclude more of the well, so the floor can only rise.
    assert kappas[0] <= kappas[1] <= kappas[2]


@pytest.mark.parametrize("eta", [0.1, 0.2])
def test_separation_constant_is_the_excess_at_the_window_edge(eta):
    # With a = b = 1 the well s^4/4 - s^3/3 has its minimum -1/12 at s = 1,
    # and its least excess outside the window is at the lower edge 1 - eta.
    s = 1.0 - eta
    exact = s**4 / 4.0 - s**3 / 3.0 + 1.0 / 12.0
    assert separation_constant(EX, 1.0, 1.0, 1.0, 1.0, eta) == pytest.approx(exact, rel=1e-12)


def test_separation_constant_is_the_least_excess_over_the_box():
    """Against a brute-force grid of the whole coefficient box.

    With exponents (2, 2.2, 3), a in [0.5, 1.5], b in [0.5, 2] and eta = 0.2
    the least excess falls between grid points: it is at rho = eta on the
    edge a = 0.5, where the window's lower edge reaches s = 0 and the excess
    is a * eta^q * (1/q - 1/gamma).
    """
    ex = Exponents(2.0, 2.2, 3.0)
    q, g, eta = ex.q, ex.gamma, 0.2
    kappa = separation_constant(ex, 0.5, 1.5, 0.5, 2.0, eta)
    alpha, beta = np.meshgrid(np.linspace(0.5, 1.5, 1500), np.linspace(0.5, 2.0, 1500))
    rho = (alpha / beta) ** (1.0 / (g - q))

    def excess(s):
        return (-(alpha / q) * s**q + (beta / g) * s**g
                + (alpha / q) * rho**q - (beta / g) * rho**g)

    grid = np.minimum(excess(rho + eta),
                      np.where(rho >= eta, excess(np.maximum(rho - eta, 0.0)), np.inf))
    assert kappa <= grid.min()
    assert grid.min() - kappa <= 1e-3 * kappa
    assert kappa == pytest.approx(0.5 * eta**q * (1.0 / q - 1.0 / g), rel=1e-9)


def test_separation_constant_presets():
    presets = [(1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 1.0, 1.0), (0.5, 1.5, 0.5, 2.0)]
    for box in presets:
        for eta in (0.05, 0.1, 0.2):
            assert separation_constant(EX, *box, eta) > 0.0


def test_separation_constant_input_checks():
    with pytest.raises(InputError):
        separation_constant(EX, 1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(InputError):
        separation_constant(EX, 0.0, 1.0, 1.0, 1.0, 0.1)
    with pytest.raises(InputError):
        separation_constant(EX, 1.0, 1.0, 0.0, 1.0, 0.1)
    with pytest.raises(InputError):
        separation_constant(EX, 2.0, 1.0, 1.0, 1.0, 0.1)


def test_separation_bound_against_measured_gaps():
    """kappa * meas{|u - limit| >= eta} <= J(u) - J(limit) on random fields."""
    spec = model_spec(n=201)
    prof = limit_profile(spec)
    kappa = separation_constant(EX, 1.0, 1.0, 1.0, 1.0, 0.1)
    for i in range(100):
        rng = np.random.default_rng(i)
        u = random_zero_trace(spec, rng)
        m = asymptotic_metrics(u, prof, spec, eta=0.1)
        assert kappa * m.measure_bad <= m.J_gap + 1e-12


# -- epsilon_sweep ------------------------------------------------------------


@pytest.fixture(scope="module")
def small_sweep():
    spec = model_spec(n=201)
    return epsilon_sweep(spec, [1e-2, 1e-3], eta=0.1, r_list=(1.0, 2.0))


def test_sweep_rows_and_trends(small_sweep):
    report = small_sweep
    assert [row.eps for row in report.rows] == [1e-2, 1e-3]
    assert all(row.converged for row in report.rows)
    first, last = report.rows
    assert 0.0 < last.energy_gap < first.energy_gap
    assert last.measure_bad <= first.measure_bad
    assert last.lr_errors[0][1] < first.lr_errors[0][1]
    assert report.limit_value == pytest.approx(-1.0 / 12.0, abs=1e-13)


def test_sweep_evaluates_the_limit_energy_once(monkeypatch):
    """J of the flat limit depends on neither eps nor the row."""
    import pfiber.asymptotics

    calls = []
    real = pfiber.asymptotics.J_functional
    monkeypatch.setattr(pfiber.asymptotics, "J_functional",
                        lambda u, spec: calls.append(spec.epsilon) or real(u, spec))
    report = epsilon_sweep(model_spec(n=101), [1e-2, 5e-3, 2e-3, 1e-3])
    assert len(report.rows) == 4
    assert len(calls) == 1


def test_sweep_rows_reuse_the_seed_and_the_solve_and_equal_lone_solves(monkeypatch):
    """A 3-row sweep evaluates the flat-limit seed once and no field twice
    within a row: each row's metrics take the energy and components of its
    solve.  Each row equals solve_ground_state plus asymptotic_metrics run
    alone, bit for bit, also with a random restart per row."""
    import hashlib

    import pfiber.asymptotics
    import pfiber.functionals
    import pfiber.solver

    def digest(values):
        return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()

    spec = model_spec(n=101)
    eps_list, options = [1e-2, 5e-3, 2e-3], {"random_restarts": 1}
    evaluated, rows = [], []
    real_evaluate, real_row = pfiber.functionals._evaluate, pfiber.asymptotics._sweep_row

    def recording(values, spec, *args):
        evaluated.append(digest(values))
        return real_evaluate(values, spec, *args)

    def recording_row(*args):
        first = len(evaluated)
        row = real_row(*args)
        rows.append(evaluated[first:])
        return row

    for module in (pfiber.functionals, pfiber.solver, pfiber.asymptotics):
        monkeypatch.setattr(module, "_evaluate", recording)
    monkeypatch.setattr(pfiber.asymptotics, "_sweep_row", recording_row)
    report = epsilon_sweep(spec, eps_list, solver_options=options)
    monkeypatch.undo()

    seed = np.array(spec.flat_limit)
    seed[spec.mesh.boundary_nodes] = 0.0
    assert evaluated.count(digest(seed)) == 1
    assert len(rows) == len(eps_list)
    for row in rows:
        assert len(row) == len(set(row)) > 0

    profile = limit_profile(spec)
    for i, (eps, row) in enumerate(zip(eps_list, report.rows)):
        sub = spec.with_epsilon(eps)
        alone = solve_ground_state(sub, seed=i, **options)
        metrics = asymptotic_metrics(alone.field, profile, sub)
        assert (row.eps, row.energy, row.converged, row.iterations, row.stop) == (
            eps, alone.energy, alone.converged, alone.iterations, alone.stop)
        assert (row.energy_gap, row.J_gap, row.measure_bad, row.lr_errors) == (
            metrics.energy_gap, metrics.J_gap, metrics.measure_bad, metrics.lr_errors)


def test_sweep_squeeze_inequality(small_sweep):
    # J(limit) <= J(u_eps) <= phi(u_eps) row by row.
    for row in small_sweep.rows:
        assert row.J_gap >= -1e-10
        assert row.energy_gap >= row.J_gap - 1e-10


def test_sweep_validates_eps_list():
    spec = model_spec(n=21)
    with pytest.raises(InputError):
        epsilon_sweep(spec, [])
    with pytest.raises(InputError):
        epsilon_sweep(spec, [1e-2, -1e-3])
    with pytest.raises(InputError):
        epsilon_sweep(spec, [1e-3, 1e-2])
    with pytest.raises(InputError):
        epsilon_sweep(spec, [1e-2, 1e-2])


# -- scaling equivalences -----------------------------------------------------


def test_scale_solution_reference_values():
    spec = model_spec(n=41, epsilon=0.01)
    u = make_field(spec.mesh, lambda x: x * (1.0 - x))
    lam = scale_solution(u, 0.01, EX, "lambda")
    assert lam.parameter == pytest.approx(10.0, rel=1e-14)
    np.testing.assert_allclose(lam.field.values, 10.0 * u.values, rtol=1e-14)
    nu = scale_solution(u, 0.01, EX, "nu")
    assert nu.parameter == pytest.approx(0.01, rel=1e-14)
    np.testing.assert_allclose(nu.field.values, 100.0 * u.values, rtol=1e-14)


def test_scale_solution_round_trips():
    spec = model_spec(n=41, epsilon=3.7e-3)
    rng = np.random.default_rng(51)
    u = random_zero_trace(spec, rng)
    lam = scale_solution(u, spec.epsilon, EX, "lambda")
    back = lam.field.scaled(lam.parameter ** (-1.0 / (EX.gamma - EX.q)))
    np.testing.assert_allclose(back.values, u.values, rtol=1e-14, atol=1e-16)
    nu = scale_solution(u, spec.epsilon, EX, "nu")
    back_nu = nu.field.scaled(nu.parameter ** (1.0 / (EX.gamma - EX.q)))
    np.testing.assert_allclose(back_nu.values, u.values, rtol=1e-14, atol=1e-16)


def test_scale_solution_input_checks():
    spec = model_spec(n=21)
    u = make_field(spec.mesh, lambda x: x * (1.0 - x))
    with pytest.raises(InputError):
        scale_solution(u, 0.0, EX, "lambda")
    with pytest.raises(InputError):
        scale_solution(u, 1.0, EX, "mu")


# -- boundary layer -----------------------------------------------------------


@pytest.fixture(scope="module")
def tanh_profile():
    return layer_profile_1d(2.0, 4.0)


def test_layer_profile_matches_tanh(tanh_profile):
    """q=2, gamma=4 integrates in closed form to tanh(xi/sqrt(2))."""
    xi = tanh_profile.xi[tanh_profile.xi <= 10.0]
    exact = np.tanh(xi / np.sqrt(2.0))
    got = tanh_profile.values_at(xi)
    assert np.max(np.abs(got - exact)) <= 1e-6


def test_layer_profile_point_value(tanh_profile):
    assert abs(float(tanh_profile.values_at(1.0)) - 0.608859) <= 1e-6


def _assert_profile_shape(prof):
    """U(0) = 0, nondecreasing, strictly increasing below saturation, in [0, 1)."""
    assert prof.xi[0] == 0.0 and prof.values[0] == 0.0
    diffs = np.diff(prof.values)
    assert np.all(diffs >= 0.0)
    below = prof.values < 1.0 - 1e-12
    assert np.all(diffs[below[:-1]] > 0.0)
    assert np.all((prof.values >= 0.0) & (prof.values < 1.0))


def test_layer_profile_shape(tanh_profile):
    _assert_profile_shape(tanh_profile)
    assert 1.0 - tanh_profile.values[-1] < 1e-4


def test_layer_profile_general_exponents():
    prof = layer_profile_1d(3.0, 4.0)
    _assert_profile_shape(prof)
    assert 1.0 - prof.values[-1] < 1e-4


def test_layer_profile_input_checks():
    with pytest.raises(InputError):
        layer_profile_1d(4.0, 3.0)
    with pytest.raises(InputError):
        layer_profile_1d(1.0, 4.0)
    with pytest.raises(InputError):
        layer_profile_1d(2.0, 4.0, xi_max=-1.0)
    with pytest.raises(InputError):
        layer_profile_1d(2.0, 4.0, points=1)
    for xi_max in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            layer_profile_1d(2.0, 4.0, xi_max=xi_max)


def test_layer_profile_table_doubling():
    """Past s = 64 the table grows by doubling panels, a bounded number of times."""
    prof = layer_profile_1d(2.0, 4.0, xi_max=200.0)
    _assert_profile_shape(prof)
    below = prof.values <= 0.99
    exact = np.sqrt(2.0) * np.arctanh(prof.values[below])
    assert np.max(np.abs(exact - prof.xi[below])) <= 2e-14   # 1.8e-15 measured
    assert prof.values[-1] == np.nextafter(1.0, 0.0)
    with pytest.raises(NumericalError):
        layer_profile_1d(2.0, 4.0, xi_max=1e30)


def _xi_closed_form_34(q, gamma, u):
    """xi(U) of the (q, gamma) = (3, 4) layer equation, integrated in closed form."""
    assert (q, gamma) == (3.0, 4.0)
    s = 1.0 - u
    r = np.sqrt(3.0 * s**2 - 8.0 * s + 6.0)
    root6 = math.sqrt(6.0)
    return (np.log((12.0 - 8.0 * s + 2.0 * root6 * r) / s)
            - math.log(4.0 + 2.0 * root6))


def _xi_by_quad(q, gamma, u):
    """xi(U) as the adaptive quadrature of 1/sqrt(2 W(t)) over [0, U].

    W(t) = expm1(gamma log t)/gamma - expm1(q log t)/q cancels only a
    factor 1 - t, where the polynomial form cancels (1 - t)^2.
    """
    def integrand(t):
        log_t = math.log(t)
        w = math.expm1(gamma * log_t) / gamma - math.expm1(q * log_t) / q
        return 1.0 / math.sqrt(2.0 * w)

    return np.array([quad(integrand, 0.0, x, epsabs=0.0, epsrel=5e-14,
                          limit=200)[0] for x in u])


# Tolerances: about ten times the largest error measured on the default
# grid (numpy 2.4.6, x86-64), rounded up.  Only U <= 0.99 is compared: there a
# rounding of U moves xi by under 1e-14, and both references agree with
# 50-digit mpmath quadrature to 2e-15.
@pytest.mark.parametrize(
    ("q", "gamma", "reference", "tol"),
    [(3.0, 4.0, _xi_closed_form_34, 4e-14),                       # 3.6e-15
     (2.5, 4.5, _xi_by_quad, 4e-14),                             # 4.0e-15
     (1.5, 6.0, _xi_by_quad, 3e-14)],                            # 3.6e-15
    ids=["closed_form_3_4", "quad_2.5_4.5", "quad_1.5_6"],
)
def test_layer_profile_against_independent_xi(q, gamma, reference, tol):
    prof = layer_profile_1d(q, gamma)
    _assert_profile_shape(prof)
    again = layer_profile_1d(q, gamma)
    assert again.values.tobytes() == prof.values.tobytes()
    keep = (prof.xi > 0.0) & (prof.values <= 0.99)
    assert keep.sum() >= 20
    err = np.abs(reference(q, gamma, prof.values[keep]) - prof.xi[keep])
    assert np.max(err) <= tol


@pytest.mark.parametrize(("q", "gamma", "tol"), [
    (3.0, 4.0, 7e-13),
    (2.5, 4.5, 3e-13),
    (1.05, 1.1, 1.3e-11),
])
def test_layer_integrand_against_mpmath(q, gamma, tol):
    """xi'(s) = delta / sqrt(2 W(1 - delta)), delta = exp(-s), against 40 digits.

    The range ends at the Taylor branch's cut, delta = 3e-3.  The tolerances
    are 10 times the measured error, rounded up (6.7e-14, 2.8e-14, 1.2e-12);
    the direct formula t^gamma/gamma - t^q/q + 1/q - 1/gamma is off by up to
    4.3e-12, 2.4e-12 and 2.5e-10.
    """
    mpmath = pytest.importorskip("mpmath")
    s = np.linspace(0.05, 5.8, 400)
    with mpmath.workdps(40):
        qm, gm = mpmath.mpf(q), mpmath.mpf(gamma)
        reference = []
        for x in s:
            delta = mpmath.exp(-mpmath.mpf(x))
            t = 1 - delta
            w = t**gm / gm - t**qm / qm + 1 / qm - 1 / gm
            reference.append(float(delta / mpmath.sqrt(2 * w)))
    got = _LayerPotential(q, gamma).integrand_log(s)
    assert np.max(np.abs(got / np.array(reference) - 1.0)) <= tol


def test_layer_profile_interpolation_clamps(tanh_profile):
    assert float(tanh_profile.values_at(1e6)) == 1.0
    with pytest.raises(InputError):
        tanh_profile.values_at(-0.5)


def test_composite_shape():
    mesh = build_mesh((0.0, 1.0), 501)
    prof = layer_profile_1d(3.0, 4.0)
    comp = composite_approx_1d(1e-4, mesh, prof)
    # Both endpoint arguments exceed the sampled range, so the tails clamp.
    assert comp.values[0] == 0.0 and comp.values[-1] == 0.0
    mid = mesh.n_nodes // 2
    assert abs(comp.values[mid] - 1.0) <= 1e-6


def test_composite_input_checks():
    prof = layer_profile_1d(3.0, 4.0)
    mesh2d = build_mesh(((0.0, 1.0), (0.0, 1.0)), (5, 5))
    with pytest.raises(InputError):
        composite_approx_1d(1e-4, mesh2d, prof)
    mesh = build_mesh((0.0, 1.0), 21)
    with pytest.raises(InputError):
        composite_approx_1d(0.0, mesh, prof)


def test_composite_tracks_ground_state():
    """Matched approximation vs solved ground state at small eps."""
    mesh = build_mesh((0.0, 1.0), 2001)
    spec = ProblemSpec(mesh, EX, 1e-4, ONE, ONE)
    report = solve_ground_state(spec, tol_res=1e-8)
    assert report.converged
    prof = layer_profile_1d(EX.q, EX.gamma)
    comp = composite_approx_1d(spec.epsilon, mesh, prof)
    assert np.max(np.abs(report.field.values - comp.values)) <= 5e-2
