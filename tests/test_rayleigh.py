"""Ray quotients, critical scalings, extremal constants, threshold estimation."""

import re

import numpy as np
import pytest

from pfiber import rayleigh
from pfiber.errors import DomainError, InputError
from pfiber.functionals import EnergyComponents, energy_components, phi, weak_residual
from pfiber.problem import (
    DiscreteField,
    Exponents,
    ProblemSpec,
    build_mesh,
    bump_coefficient,
    constant_coefficient,
)
from pfiber.rayleigh import (
    estimate_thresholds,
    extremal_constants,
    fiber_scalings,
    intersection_check,
    nonlinear_quotients,
    ray_quotients,
    scale_invariant_quotient,
)

EX = Exponents(2.0, 3.0, 4.0)


def random_exponents(rng):
    p = rng.uniform(1.05, 3.0)
    q = p + rng.uniform(0.05, 2.0)
    g = q + rng.uniform(0.05, 2.0)
    return Exponents(p, q, g)


def random_components(rng):
    return EnergyComponents(*rng.uniform(0.1, 5.0, 3))


# -- extremal_constants -------------------------------------------------------


def test_extremal_constants_reference_values():
    consts = extremal_constants(EX)
    assert abs(consts.constraint - 0.25) <= 1e-14
    assert abs(consts.zero_energy - 2.0 / 9.0) <= 1e-14


def test_extremal_constants_strict_order():
    rng = np.random.default_rng(30)
    for _ in range(500):
        consts = extremal_constants(random_exponents(rng))
        assert 0.0 < consts.zero_energy < consts.constraint


def test_extremal_constants_ratio_identity():
    rng = np.random.default_rng(31)
    for _ in range(200):
        ex = random_exponents(rng)
        consts = extremal_constants(ex)
        expected = (ex.q / ex.p) * (ex.q / ex.gamma) ** ((ex.q - ex.p) / (ex.gamma - ex.q))
        ratio = consts.constraint / consts.zero_energy
        assert abs(ratio - expected) <= 1e-12 * expected


# -- ray_quotients ------------------------------------------------------------


def test_ray_quotients_reference_point():
    rq = ray_quotients(EnergyComponents(1.0, 2.0, 1.0), 1.0, EX)
    assert rq.constraint == pytest.approx(1.0, abs=1e-15)
    assert rq.zero_energy == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_ray_quotients_balanced_components():
    rq = ray_quotients(EnergyComponents(2.0, 1.5, 1.5), 1.0, EX)
    assert rq.constraint == 0.0


def test_ray_quotients_vanish_at_origin():
    comps = EnergyComponents(1.0, 2.0, 1.0)
    for s in (1e-3, 1e-6, 1e-9):
        rq = ray_quotients(comps, s, EX)
        assert abs(rq.constraint) <= 3.0 * s
        assert abs(rq.zero_energy) <= 3.0 * s


def test_ray_quotients_input_checks():
    with pytest.raises(DomainError):
        ray_quotients(EnergyComponents(0.0, 1.0, 1.0), 1.0, EX)
    with pytest.raises(InputError):
        ray_quotients(EnergyComponents(1.0, 1.0, 1.0), 0.0, EX)
    with pytest.raises(InputError):
        ray_quotients(EnergyComponents(1.0, 1.0, 1.0), -2.0, EX)


# -- fiber_scalings -----------------------------------------------------------


def test_fiber_scalings_reference_values():
    scalings = fiber_scalings(EnergyComponents(1.0, 3.0, 1.0), EX)
    assert scalings.constraint == pytest.approx(1.5, abs=1e-15)
    assert scalings.zero_energy == pytest.approx(2.0, abs=1e-15)


def test_fiber_scaling_against_grid_oracle():
    """s_N maximizes R_N(s u); for (A,B) = (2,1) the parabola 2s - s^2 peaks at 1."""
    comps = EnergyComponents(1.0, 2.0, 1.0)
    scalings = fiber_scalings(comps, EX)
    assert scalings.constraint == pytest.approx(1.0, abs=1e-14)
    grid = np.linspace(0.01, 3.0, 10_000)
    values = 2.0 * grid - grid**2
    assert abs(grid[np.argmax(values)] - scalings.constraint) <= 1e-3


def test_fiber_scaling_ratio():
    rng = np.random.default_rng(32)
    for _ in range(200):
        ex = random_exponents(rng)
        scalings = fiber_scalings(random_components(rng), ex)
        expected = (ex.gamma / ex.q) ** (1.0 / (ex.gamma - ex.q))
        ratio = scalings.zero_energy / scalings.constraint
        assert abs(ratio - expected) <= 1e-12 * expected


def test_fiber_maximum_property():
    rng = np.random.default_rng(33)
    comps = random_components(rng)
    scalings = fiber_scalings(comps, EX)
    peak = ray_quotients(comps, scalings.constraint, EX).constraint
    for s in rng.uniform(0.01, 10.0, 1000):
        assert ray_quotients(comps, float(s), EX).constraint <= peak + 1e-12 * abs(peak)


def test_fiber_scalings_need_positive_terms():
    with pytest.raises(DomainError):
        fiber_scalings(EnergyComponents(1.0, 0.0, 1.0), EX)
    with pytest.raises(DomainError):
        fiber_scalings(EnergyComponents(1.0, 1.0, 0.0), EX)


# -- nonlinear_quotients ------------------------------------------------------


def test_nonlinear_quotients_reference_values():
    qq = nonlinear_quotients(EnergyComponents(1.0, 2.0, 1.0), EX)
    assert qq.constraint == pytest.approx(1.0, abs=1e-14)
    assert qq.zero_energy == pytest.approx(8.0 / 9.0, abs=1e-14)


def test_nonlinear_quotient_matches_grid_maximum():
    rng = np.random.default_rng(34)
    for _ in range(50):
        comps = random_components(rng)
        qq = nonlinear_quotients(comps, EX)
        s_peak = fiber_scalings(comps, EX).constraint
        s = np.geomspace(s_peak / 10.0, s_peak * 10.0, 10_000)
        grid_max = np.max((comps.gain * s - comps.loss * s**2))
        assert abs(qq.constraint - grid_max / comps.dirichlet) <= 1e-6 * qq.constraint


def test_nonlinear_quotients_scale_invariance():
    rng = np.random.default_rng(35)
    comps = random_components(rng)
    base = nonlinear_quotients(comps, EX)
    for t in (0.5, 2.0, 10.0):
        scaled = EnergyComponents(t**2 * comps.dirichlet, t**3 * comps.gain,
                                  t**4 * comps.loss)
        moved = nonlinear_quotients(scaled, EX)
        assert abs(moved.constraint - base.constraint) <= 1e-12 * base.constraint
        assert abs(moved.zero_energy - base.zero_energy) <= 1e-12 * base.zero_energy


def test_nonlinear_quotients_constant_ratio():
    rng = np.random.default_rng(36)
    consts = extremal_constants(EX)
    for _ in range(200):
        qq = nonlinear_quotients(random_components(rng), EX)
        assert abs(qq.zero_energy * consts.constraint
                   - qq.constraint * consts.zero_energy) <= 1e-14 * qq.constraint


def test_upper_bound_property():
    rng = np.random.default_rng(37)
    for _ in range(100):
        comps = random_components(rng)
        cap = nonlinear_quotients(comps, EX).constraint
        for s in rng.uniform(0.01, 10.0, 10):
            assert ray_quotients(comps, float(s), EX).constraint <= cap + 1e-12


def test_strict_gap():
    rng = np.random.default_rng(38)
    for _ in range(1000):
        qq = nonlinear_quotients(random_components(rng), random_exponents(rng))
        assert qq.constraint > qq.zero_energy


def test_quotients_require_admissible_components():
    with pytest.raises(DomainError):
        scale_invariant_quotient(EnergyComponents(1.0, 0.0, 1.0), EX)
    with pytest.raises(DomainError):
        nonlinear_quotients(EnergyComponents(1.0, 1.0, 0.0), EX)


# -- intersection_check -------------------------------------------------------


def test_intersection_reference_case():
    """The two quotients cross at s = 4/3 with common value 8/9."""
    report = intersection_check(EnergyComponents(1.0, 2.0, 1.0), EX)
    assert report.crossing_scale == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert report.value_constraint == pytest.approx(8.0 / 9.0, abs=1e-14)
    assert report.value_zero_energy == pytest.approx(8.0 / 9.0, abs=1e-14)


def test_intersection_residual_and_uniqueness():
    rng = np.random.default_rng(39)
    for _ in range(50):
        comps = random_components(rng)
        report = intersection_check(comps, EX)
        assert report.residual_at_crossing <= 1e-12 * (abs(report.value_constraint) + 1.0)
        # Unique crossing: every grid point 5% away keeps a positive gap.
        assert report.min_gap_off_crossing > 0.0


def test_intersection_derivative_identity():
    """d/ds of the zero-energy quotient equals (p/s)(R_N - R_e) along the ray."""
    comps = EnergyComponents(1.3, 2.1, 0.8)
    h = 1e-6
    for s in (0.5, 1.0, 2.0, 3.0):
        up = ray_quotients(comps, s + h, EX).zero_energy
        dn = ray_quotients(comps, s - h, EX).zero_energy
        fd = (up - dn) / (2.0 * h)
        rq = ray_quotients(comps, s, EX)
        exact = (EX.p / s) * (rq.constraint - rq.zero_energy)
        assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


def test_intersection_rejects_bad_grid():
    with pytest.raises(InputError):
        intersection_check(EnergyComponents(1.0, 2.0, 1.0), EX,
                           s_grid=np.array([-1.0, 1.0]))


# -- estimate_thresholds ------------------------------------------------------


def small_model_spec(n=41):
    one = constant_coefficient(1.0)
    mesh = build_mesh((0.0, 1.0), n)
    return ProblemSpec(mesh, EX, 1e-3, one, one)


def test_thresholds_deterministic():
    spec = small_model_spec()
    est1 = estimate_thresholds(spec, restarts=4, max_iters=120, seed=5)
    est2 = estimate_thresholds(spec, restarts=4, max_iters=120, seed=5)
    assert est1.sup_quotient == est2.sup_quotient
    assert est1.eps_critical == est2.eps_critical
    np.testing.assert_array_equal(est1.maximizer.values, est2.maximizer.values)


def test_thresholds_shared_supremum():
    spec = small_model_spec()
    est = estimate_thresholds(spec, restarts=4, max_iters=120, seed=0)
    consts = extremal_constants(EX)
    assert est.eps_critical == consts.constraint * est.sup_quotient
    assert est.eps_two_solutions == consts.zero_energy * est.sup_quotient
    assert est.eps_two_solutions < est.eps_critical
    assert est.sup_quotient > 0.0


def test_thresholds_monotone_under_refinement():
    """The coarse maximizer lies in the finer P1 space, so the sup grows.

    Nodal linear interpolation carries a 1D P1 field onto a mesh that
    contains its nodes exactly.
    """
    spec = small_model_spec(n=21)
    coarse = estimate_thresholds(spec, restarts=4, max_iters=200, seed=1)
    fine_mesh = build_mesh((0.0, 1.0), 41)
    fine_spec = ProblemSpec(fine_mesh, EX, 1e-3, spec.a, spec.b)
    carried = DiscreteField(fine_mesh, np.interp(
        fine_mesh.nodes[:, 0], spec.mesh.nodes[:, 0], coarse.maximizer.values))
    fine = estimate_thresholds(fine_spec, restarts=4, max_iters=200, seed=1,
                               extra_starts=(carried,))
    assert fine.sup_quotient >= coarse.sup_quotient - 1e-10


def test_thresholds_need_gain_term():
    mesh = build_mesh((0.0, 1.0), 21)
    zero_a = constant_coefficient(0.0)
    one = constant_coefficient(1.0)
    spec = ProblemSpec(mesh, EX, 1e-3, zero_a, one)
    with pytest.raises(DomainError):
        estimate_thresholds(spec, restarts=3, max_iters=50, seed=0)


def test_thresholds_validate_restarts_and_starts():
    spec = small_model_spec(n=21)
    with pytest.raises(InputError):
        estimate_thresholds(spec, restarts=-1, max_iters=50, seed=0)
    other = build_mesh((0.0, 1.0), 31)
    stray = DiscreteField(other, np.zeros(31))
    with pytest.raises(InputError):
        estimate_thresholds(spec, restarts=2, max_iters=50, seed=0,
                            extra_starts=(stray,))


def test_default_ascent_runs_from_the_flat_limit_alone():
    """At the default the flat limit is the one start, so the seed draws nothing."""
    spec = small_model_spec()
    one, other = (estimate_thresholds(spec, seed=seed) for seed in (0, 7))
    assert (one.restarts_used, one.best_start, one.restart_gain) == (1, 0, None)
    assert one.capped_restarts == 0
    assert one.sup_quotient == other.sup_quotient
    np.testing.assert_array_equal(one.maximizer.values, other.maximizer.values)


def test_thresholds_name_the_winning_start_and_the_restart_gain():
    """``best_start`` counts the extra starts, then the flat limit, then the
    sampled starts; ``restart_gain`` is the best sampled log Q less the flat
    limit's.

    One step each leaves the ascents apart: the fourth sampled start ends
    0.011 above the flat limit and wins.  From a single interior hat as an
    extra start one step ends below the flat limit's, so the flat limit,
    now second, wins.
    """
    spec = small_model_spec()
    flat = estimate_thresholds(spec, max_iters=1)
    sampled = estimate_thresholds(spec, restarts=4, max_iters=1, seed=0)
    assert sampled.restarts_used == 5
    assert sampled.best_start == 4
    assert sampled.restart_gain > 0.0
    assert np.log(sampled.sup_quotient) == pytest.approx(
        np.log(flat.sup_quotient) + sampled.restart_gain, rel=1e-14)

    hat = np.zeros(spec.mesh.n_nodes)
    hat[spec.mesh.n_nodes // 2] = 1.0
    behind = estimate_thresholds(spec, max_iters=1,
                                 extra_starts=(DiscreteField(spec.mesh, hat),))
    assert (behind.restarts_used, behind.best_start, behind.restart_gain) == (2, 1, None)
    assert behind.sup_quotient == flat.sup_quotient


def _time_map_eps0() -> float:
    """eps_0 of the (2, 3, 4) model with a = b = 1 on (0, 1), from the time map.

    A positive solution with maximum m satisfies eps/2 u'^2 = F(m) - F(u),
    F(u) = u^3/3 - u^4/4, and is symmetric about 1/2.  So its half-width is
    sqrt(eps/2) T(m), T(m) = int_0^m (F(m) - F(u))^(-1/2) du, and its energy
    is 2 sqrt(eps/2) I(m), I(m) = int_0^m (F(m) - 2 F(u)) (F(m) - F(u))^(-1/2) du.
    Zero energy fixes m_0 by I(m_0) = 0 whatever eps is, and the half-width
    1/2 then fixes eps_0 = 1 / (2 T(m_0)^2).  With u = m (1 - s^2) and
    F(m) - F(u) = (m - u) g(u), both integrands are smooth on s in [0, 1]:
    2 sqrt(m / g) and (F(m) - 2 F(u)) 2 sqrt(m / g), which 64-point
    Gauss-Legendre integrates to the rounding floor.
    """
    from scipy.optimize import brentq

    s, w = np.polynomial.legendre.leggauss(64)
    s, w = 0.5 * (s + 1.0), 0.5 * w

    def F(u):
        return u ** 3 / 3.0 - u ** 4 / 4.0

    def integrals(m):
        u = m * (1.0 - s * s)
        g = (m * m + m * u + u * u) / 3.0 - (m + u) * (m * m + u * u) / 4.0
        kernel = 2.0 * np.sqrt(m / g)
        return np.sum(w * kernel), np.sum(w * (F(m) - 2.0 * F(u)) * kernel)

    m0 = brentq(lambda m: integrals(m)[1], 0.3, 0.999, xtol=1e-15, rtol=1e-15)
    return 1.0 / (2.0 * integrals(m0)[0] ** 2)


def test_default_thresholds_extrapolate_to_the_time_map_eps0():
    """eps_two_solutions from the flat-limit ascent converges to eps_0 at order h^2.

    The time map is an oracle independent of the finite elements.  It
    gives eps_0 = 0.02164900879836, which agrees with an earlier quadrature
    prototype's 0.0216490088.  Richardson's (4 E_2001 - E_1001) / 3 of the
    thresholds at 1001 and 2001 nodes measured 9.4e-14 relative from it, and
    the errors fell by a factor of 4.0002 from 1001 to 2001 nodes.
    """
    eps0 = _time_map_eps0()
    assert eps0 == pytest.approx(0.0216490088, rel=1e-9)
    one = constant_coefficient(1.0)
    found = {n: estimate_thresholds(ProblemSpec(build_mesh((0.0, 1.0), n), EX, 1e-3,
                                                one, one)).eps_two_solutions
             for n in (1001, 2001)}
    richardson = (4.0 * found[2001] - found[1001]) / 3.0
    assert abs(richardson - eps0) <= 1e-9 * eps0
    assert 3.9 <= (eps0 - found[1001]) / (eps0 - found[2001]) <= 4.1


def test_ascent_assembles_weak_forms_only_at_accepted_points(monkeypatch):
    """Trial points cost a quotient evaluation; weak forms wait for acceptance.

    Each of the five ascents here, from the flat limit and from four
    sampled starts, is the start plus eight steps, all accepted, so the
    calls must read Q F (Q+ F)^8: one weak-form gradient (F) for the start
    and one per accepted step, each on the point whose quotient (Q) was just
    evaluated, and none after a rejected trial (Q Q).  The secant trial step
    is rarely rejected, and at 41 nodes no trial is.  At 1001 nodes the
    flat limit's first trial, t = 1, is (one Q Q); the later ascents start
    from the step it accepted.
    """
    events = []

    def counting(kind, real, grads_of):
        def wrapped(*args):
            events.append((kind, grads_of(*args).copy()))
            return real(*args)
        return wrapped

    # A point is identified by its element gradients.
    monkeypatch.setattr(rayleigh, "_log_quotient",
                        counting("Q", rayleigh._log_quotient,
                                 lambda values, grads, spec: grads))
    monkeypatch.setattr(rayleigh, "_log_quotient_gradient",
                        counting("F", rayleigh._log_quotient_gradient,
                                 lambda state, spec: state.grads))
    restarts, max_iters = 4, 8
    est = estimate_thresholds(small_model_spec(n=1001), restarts=restarts,
                              max_iters=max_iters, seed=0)
    starts = restarts + 1
    assert est.restarts_used == starts
    assert est.iterations == starts * max_iters
    kinds = "".join(kind for kind, _ in events)
    assert re.fullmatch(r"(QF(Q+F){%d}){%d}" % (max_iters, starts), kinds), kinds
    assert kinds.count("F") == starts * (1 + max_iters)
    assert kinds.count("Q") > kinds.count("F")
    for (kind, values), (prev_kind, prev_values) in zip(events[1:], events):
        if kind == "F":
            assert prev_kind == "Q"
            np.testing.assert_array_equal(values, prev_values)


def test_capped_restarts_count_ascents_stopped_by_max_iters():
    """Five steps leave every ascent still climbing; 120 let each one stop.

    Five ascents run: from the flat limit and from four sampled starts.  At
    eight steps the flat limit's ascent meets the rounding-floor stop on its
    last step: it used every step but was not stopped by the cap, while the
    four sampled ones were.
    """
    spec = small_model_spec()
    capped = estimate_thresholds(spec, restarts=4, max_iters=5, seed=0)
    assert capped.restarts_used == 5
    assert capped.iterations == 5 * 5
    assert capped.capped_restarts == 5
    edge = estimate_thresholds(spec, restarts=4, max_iters=8, seed=0)
    assert edge.iterations == 5 * 8
    assert edge.capped_restarts == 4
    free = estimate_thresholds(spec, restarts=4, max_iters=120, seed=0)
    assert free.iterations < 5 * 120
    assert free.capped_restarts == 0


def test_iterations_count_accepted_steps(monkeypatch):
    """``iterations`` counts accepted steps, and every accepted field gets one gradient.

    So it is the number of gradient assemblies less one per restart, for
    the start.
    """
    gradients = []

    def counting(state, spec):
        gradients.append(None)
        return real(state, spec)

    real = rayleigh._log_quotient_gradient
    monkeypatch.setattr(rayleigh, "_log_quotient_gradient", counting)
    spec = ProblemSpec(build_mesh((0.0, 1.0), 4001), EX, 1e-3,
                       constant_coefficient(1.0), constant_coefficient(1.0))
    est = estimate_thresholds(spec, seed=4)
    assert est.capped_restarts == 0
    assert est.iterations == len(gradients) - est.restarts_used


def test_ascent_spends_few_evaluations_on_its_first_and_last_steps(monkeypatch):
    """The (2, 3, 4) model at 4001 nodes, seed 0, 16 restarts: at most 400
    quotient and gradient evaluations in all.

    Each restart's first line search starts from the step the last one's
    first search accepted, so only the first restart backtracks from t = 1,
    and a restart stops where the secant model cannot raise log Q by half
    its rounding unit.  Measured: 326 evaluations over 144 steps, and 344
    over 152 since the flat limit's ascent runs first.  Starting every
    restart from t = 1 and stopping only on the 3-step stall took 530.
    The maximizer's accuracy is checked independently, by
    test_scaled_maximizer_is_a_zero_energy_critical_point.
    """
    calls = []

    def counting(real):
        def wrapped(*args):
            calls.append(None)
            return real(*args)
        return wrapped

    monkeypatch.setattr(rayleigh, "_log_quotient", counting(rayleigh._log_quotient))
    monkeypatch.setattr(rayleigh, "_log_quotient_gradient",
                        counting(rayleigh._log_quotient_gradient))
    spec = ProblemSpec(build_mesh((0.0, 1.0), 4001), EX, 1e-3,
                       constant_coefficient(1.0), constant_coefficient(1.0))
    est = estimate_thresholds(spec, restarts=16, seed=0)
    assert est.capped_restarts == 0
    assert len(calls) <= 400


def test_an_ascent_at_the_rounding_floor_ends_its_line_search_there(monkeypatch):
    """(2, 3, 4) at 41 nodes, seed 0, 16 restarts: each ascent stops at
    the rounding floor of log Q, "resolution", within 15 quotient
    evaluations.

    Every trial of the 13th ascent's last line search returns -log Q
    within rounding of its value, so Armijo rejects them all.  The search
    ends once t * slope falls to the resolution; halving on to the 60-trial
    cap took 76 evaluations.  The flat limit's ascent wins, so the
    thresholds are those of the default single ascent, bit for bit.
    """
    ascents = []

    def ascend(*args):
        ascents.append([0, None])
        ascent = real_ascend(*args)
        ascents[-1][1] = ascent.stop
        return ascent

    def log_quotient(*args):
        ascents[-1][0] += 1
        return real_log_quotient(*args)

    real_ascend, real_log_quotient = rayleigh._ascend_log_quotient, rayleigh._log_quotient
    monkeypatch.setattr(rayleigh, "_ascend_log_quotient", ascend)
    monkeypatch.setattr(rayleigh, "_log_quotient", log_quotient)
    spec = small_model_spec()
    est = estimate_thresholds(spec, restarts=16, seed=0)
    assert len(ascents) == 17
    assert all(stop == "resolution" and evaluations <= 15 for evaluations, stop in ascents)
    alone = estimate_thresholds(spec, seed=0)
    assert est.best_start == alone.best_start == 0
    assert (est.eps_critical, est.eps_two_solutions) == (alone.eps_critical,
                                                         alone.eps_two_solutions)


UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize(("mesh", "exponents", "a"), [
    (build_mesh((0.0, 1.0), 2001), Exponents(2.0, 3.0, 4.0), constant_coefficient(1.0)),
    (build_mesh((0.0, 1.0), 2001), Exponents(3.0, 4.0, 5.0), constant_coefficient(1.0)),
    (build_mesh(UNIT_SQUARE, 41), Exponents(3.0, 4.0, 5.0),
     bump_coefficient(0.5, 1.0, UNIT_SQUARE)),
], ids=["1d_p2", "1d_p3", "2d_p3_bump"])
def test_scaled_maximizer_is_a_zero_energy_critical_point(mesh, exponents, a):
    """At eps = eps_two_solutions the maximizer, scaled to zero energy, solves the problem.

    The nonlinear Rayleigh quotient method: the zero-energy quotient of the
    maximizer's ray peaks at eps_two_solutions, where the ray crosses zero
    energy, and a maximizer of the quotient is a critical point of the
    energy there.  The check uses only the public energy and residual.  The
    energy is zero up to rounding.  The ascent stops at the rounding floor
    of its value, or when it stalls at 1e-13 relative, which leaves a
    gradient of order sqrt(1e-13) ~ 3e-7; the residual sums measured
    1.1e-7, 1.9e-6 and 1.1e-7 (1D p = 2, 1D p = 3, 2D) from 16 sampled
    starts, and 2.9e-8, 1.1e-6 and 2.0e-7 from the flat limit alone; the
    bound is a decade above their largest.
    """
    spec = ProblemSpec(mesh, exponents, 1e-3, a, constant_coefficient(1.0))
    est = estimate_thresholds(spec, seed=0)
    scale = fiber_scalings(energy_components(est.maximizer, spec), exponents).zero_energy
    at = spec.with_epsilon(est.eps_two_solutions)
    u = est.maximizer.scaled(scale)
    comps = energy_components(u, at)
    size = at.epsilon * comps.dirichlet + comps.gain + comps.loss
    assert abs(phi(u, at)) <= 1e-14 * size
    assert np.sum(np.abs(weak_residual(u, at).values)) <= 1e-5 * size
