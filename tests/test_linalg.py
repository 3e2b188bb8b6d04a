"""The shared descent loop and its exits, Armijo line search, secant trial
step and preconditioned directions."""

import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pfiber.linalg import (
    ARMIJO_FACTOR,
    MAX_BACKTRACKS,
    MAX_STEP,
    Descent,
    InteriorSolver,
    armijo,
    descend,
    preconditioned_direction,
    secant_step,
    stalled,
)
from pfiber.problem import Exponents, ProblemSpec, build_mesh, constant_coefficient
from pfiber.rayleigh import _ascend_log_quotient
from pfiber.solver import _FLAT_STEPS, _default_seeds, _descend


def metric(mesh, alpha=1.0, beta=1.0, mass_weight=1.0):
    """alpha * K + beta * diag(mass_weight * m): the stiffness K = G^T M G
    (M the element measures, one per gradient component) and the lumped
    mass m_i = int hat_i."""
    measures = sp.diags(np.repeat(mesh.el_measures, mesh.dimension))
    stiffness = mesh.gradient_operator.T @ measures @ mesh.gradient_operator
    mass = mesh.assemble_point_term(np.ones_like(mesh.qp_weights))
    return (alpha * stiffness + beta * sp.diags(mass_weight * mass)).tocsc()


def recording(fn):
    """``fn`` as an Armijo trial that also records every step it is asked for."""
    steps = []

    def trial(t):
        steps.append(t)
        return fn(t)

    return trial, steps


def test_armijo_returns_first_halving_with_sufficient_decrease():
    # f(t) = (1 - t)^2 falls from f(0) = 1 with slope -2.  Steps 8, 4 and 2
    # fail the test (f(2) = 1 > 1 - 4e-4); step 1 is the first to pass.
    trial, steps = recording(lambda t: ((1.0 - t) ** 2, f"at {t:g}"))
    assert armijo(trial, 1.0, -2.0, 8.0) == (1.0, 0.0, "at 1")
    assert steps == [8.0, 4.0, 2.0, 1.0]


def test_armijo_skips_trials_without_a_value():
    # Step 1 would pass, but it has no value; the search halves past it.
    trial, steps = recording(lambda t: None if t == 1.0 else ((1.0 - t) ** 2, t))
    assert armijo(trial, 1.0, -2.0, 2.0) == (0.5, 0.25, 0.5)
    assert steps == [2.0, 1.0, 0.5]


def test_armijo_gives_up_after_the_backtrack_cap():
    trial, steps = recording(lambda t: (2.0, None))
    assert armijo(trial, 1.0, -2.0, 1.0) is None
    assert len(steps) == MAX_BACKTRACKS
    assert steps[-1] == ARMIJO_FACTOR ** (MAX_BACKTRACKS - 1)


def test_preconditioned_direction_and_its_fallbacks():
    mesh = build_mesh((0.0, 1.0), 21)
    pre = InteriorSolver(mesh, alpha=1.0, beta=1.0)
    rng = np.random.default_rng(3)
    grad = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    grad[mesh.boundary_nodes] = 0.0
    direction, slope = preconditioned_direction(pre, grad)
    np.testing.assert_array_equal(direction, pre.apply(grad))
    # The slope is grad . direction, summed without BLAS: within the
    # summation bound n * 2^-53 * sum |terms| of the correctly rounded sum.
    terms = grad * direction
    assert slope > 0.0
    assert abs(slope - math.fsum(terms)) <= terms.size * 2.0**-53 * math.fsum(np.abs(terms))

    # A gradient on the boundary alone has P^-1 g = 0, which does not
    # descend: stepping along -g would move the boundary values off zero.
    grad = np.zeros(mesh.n_nodes)
    grad[mesh.boundary_nodes] = [1.0, -2.0]
    assert preconditioned_direction(pre, grad) is None

    assert preconditioned_direction(pre, np.zeros(mesh.n_nodes)) is None


def test_secant_step_inverts_a_multiple_of_the_metric():
    """On a quadratic with Hessian c * P the secant step is exactly 1/c.

    P^-1 y then equals c * s, so (s.y)/(y.P^-1 y) = 1/c; the step is
    clipped to [1e-12, MAX_STEP], and a non-positive product keeps the
    fallback.
    """
    mesh = build_mesh((0.0, 1.0), 41)
    pre = InteriorSolver(mesh, alpha=1.0, beta=1.0)
    matrix = metric(mesh)
    rng = np.random.default_rng(4)
    s = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    s[mesh.boundary_nodes] = 0.0
    for c in (0.25, 1.0, 40.0):
        y = c * (matrix @ s)
        y[mesh.boundary_nodes] = 0.0
        assert secant_step(s, y, pre.apply(y), 7.0) == pytest.approx(1.0 / c, rel=1e-12)
    y = matrix @ s
    y[mesh.boundary_nodes] = 0.0
    assert secant_step(1e-20 * s, y, pre.apply(y), 7.0) == 1e-12
    assert secant_step(1e20 * s, y, pre.apply(y), 7.0) == MAX_STEP
    assert secant_step(-s, y, pre.apply(y), 7.0) == 7.0
    assert secant_step(s, y, -pre.apply(y), 7.0) == 7.0


class Quadratic:
    """f(u) = u.A u / 2 - b.u on zero-trace fields of a 41-node mesh of [0, 1].

    A is the stiffness plus the lumped mass weighted by 1 + 50 x, so the
    preconditioner's metric, stiffness plus mass, fits it only roughly and
    the descent takes a few dozen steps.  The minimizer comes from spsolve.
    """

    def __init__(self):
        mesh = build_mesh((0.0, 1.0), 41)
        x = mesh.nodes[:, 0]
        self.mesh = mesh
        self.pre = InteriorSolver(mesh, alpha=1.0, beta=1.0)
        self.matrix = metric(mesh, mass_weight=1.0 + 50.0 * x).tocsr()
        self.rhs = 1.0 + np.sin(3.0 * x)
        self.rhs[mesh.boundary_nodes] = 0.0
        idx = mesh.interior_nodes
        self.solution = np.zeros(mesh.n_nodes)
        self.solution[idx] = spla.spsolve(self.matrix.tocsc()[idx][:, idx], self.rhs[idx])
        self.accepted = []    # (value, gradient max-norm) at each gradient call

    def value(self, u):
        return 0.5 * u @ (self.matrix @ u) - self.rhs @ u

    def gradient(self, u):
        grad = self.matrix @ u - self.rhs
        grad[self.mesh.boundary_nodes] = 0.0
        self.accepted.append((self.value(u), np.max(np.abs(grad))))
        return grad

    def evaluate(self, u, t, d, value):
        """The change as the difference of two rounded values."""
        cand = u if d is None else u - t * d
        return self.value(cand) - value, cand, cand

    def change(self, u, t, d, value):
        """The exact change t (t d.A d / 2 - grad . d), free of that cancellation."""
        if d is None:
            return self.evaluate(u, t, d, value)
        cand = u - t * d
        grad = self.matrix @ u - self.rhs
        return t * (0.5 * t * (d @ (self.matrix @ d)) - grad @ d), cand, cand

    def descend(self, start, stop, max_iters=500, exact=False, **kwargs):
        evaluate = self.change if exact else self.evaluate
        return descend(start, evaluate, self.gradient, stop, self.pre, max_iters, **kwargs)


def below(tol):
    return lambda trace: "tolerance" if trace[-1][2] <= tol else None


def flat(trace):
    return "flat" if stalled(trace, 3) else None


def never(trace):
    return None


def test_descend_converges_at_the_start():
    quad = Quadratic()
    descent = quad.descend(quad.solution, below(1e-10))
    assert (descent.steps, descent.stop, descent.first) == (0, "tolerance", None)
    assert descent.field is quad.solution
    assert descent.trace == [(0, descent.value, quad.accepted[0][1])]


def test_descend_converges_to_the_sparse_solve_on_exact_changes():
    """Changes without cancellation reach a gradient 1e-13 of the solution."""
    quad = Quadratic()
    descent = quad.descend(np.zeros(quad.mesh.n_nodes), below(1e-13), exact=True)
    u, value, steps, trace = descent.field, descent.value, descent.steps, descent.trace
    assert 1 < steps < 500 and descent.stop == "tolerance"
    assert np.max(np.abs(u - quad.solution)) <= 1e-12 * np.max(np.abs(quad.solution))
    assert trace[-1][2] <= 1e-13
    # Rows are (iteration, value, gradient max-norm) at each accepted field,
    # and the value moves by the accepted changes.
    assert [row[0] for row in trace] == list(range(steps + 1))
    values = np.array([row[1] for row in trace])
    assert np.all(np.diff(values) <= 0.0)
    assert np.abs(values - [a[0] for a in quad.accepted]).max() <= 1e-13 * abs(value)
    assert [row[2] for row in trace] == [a[1] for a in quad.accepted]


def test_descend_stops_flat_where_the_changes_no_longer_move_the_value():
    """Exact changes keep lowering f, but the value, which moves by them,
    stops moving once they fall below half its rounding unit.

    The flat rule ends the descent there, near a gradient 1e-8; without a
    stop rule the descent goes on below it into the cap.  A flat stop on
    the last allowed step is "flat"; one step fewer is "max_iters".
    """
    quad = Quadratic()
    start = np.zeros(quad.mesh.n_nodes)
    descent = quad.descend(start, flat, exact=True)
    steps, trace = descent.steps, descent.trace
    assert steps < 500 and descent.stop == "flat"
    assert stalled(trace, 3) and not stalled(trace[:-1], 3)
    values = np.array([row[1] for row in trace])
    assert np.all(np.diff(values) <= 0.0)
    assert np.abs(values - [a[0] for a in quad.accepted]).max() <= 1e-13 * abs(descent.value)
    assert 1e-10 < trace[-1][2] and np.max(np.abs(descent.field - quad.solution)) <= 1e-6

    edge = quad.descend(start, flat, max_iters=steps, exact=True)
    assert (edge.steps, edge.trace, edge.stop, edge.first) == (steps, trace, "flat",
                                                               descent.first)
    np.testing.assert_array_equal(edge.field, descent.field)
    short = quad.descend(start, flat, max_iters=steps - 1, exact=True)
    assert (short.steps, short.trace, short.stop, short.first) == (steps - 1, trace[:-1],
                                                                   "max_iters", descent.first)

    capped = quad.descend(start, never, max_iters=60, exact=True)
    assert (capped.steps, capped.stop, len(capped.trace)) == (60, "max_iters", 61)
    assert capped.trace[-1][2] < 1e-3 * trace[-1][2]


def test_descend_starts_from_the_given_step_and_returns_the_first_accepted():
    """The first line search starts from ``step``, 1 by default, and
    ``first`` is the step it accepted: here 0.5 from 1 and from 8, and 0.25
    at once from 0.25."""
    start = np.zeros(Quadratic().mesh.n_nodes)
    for kwargs, halvings in (({}, 1), ({"step": 8.0}, 4), ({"step": 0.25}, 0)):
        quad = Quadratic()
        trials = []

        def evaluate(u, t, d, value):
            trials.append(t)
            return Quadratic.evaluate(quad, u, t, d, value)

        quad.evaluate = evaluate
        first = quad.descend(start, below(1e-10), **kwargs).first
        step = kwargs.get("step", 1.0)
        # Trials are the start (t = 0), then the first search from ``step``.
        assert trials[1:halvings + 2] == [step * ARMIJO_FACTOR**k for k in range(halvings + 1)]
        assert first == step * ARMIJO_FACTOR**halvings


def test_descend_stops_where_the_secant_model_is_below_the_rounding():
    """On differences of rounded values the descent goes on until its line
    search finds no trial below the value, "line_search".  With
    ``resolution`` = eps_mach it stops before, "resolution", and near the
    same field.

    Each difference is exact here, so the value moves to f at the accepted
    field bit for bit.  The floor is tested before the cap: with max_iters
    at the steps the floor stop takes, the stop is "resolution"; one step
    fewer is "max_iters".
    """
    quad = Quadratic()
    start = np.zeros(quad.mesh.n_nodes)
    eps = np.finfo(float).eps
    floor = quad.descend(start, never)
    assert floor.stop == "line_search"
    values = [row[1] for row in floor.trace]
    assert values == [a[0] for a in quad.accepted]
    assert np.all(np.diff(values) < 0.0)
    descent = quad.descend(start, never, resolution=eps)
    steps, trace = descent.steps, descent.trace
    assert descent.stop == "resolution" and steps < floor.steps
    assert np.max(np.abs(descent.field - quad.solution)) <= 1e-6
    assert trace[-1][2] < 1e-6 * trace[0][2]

    edge = quad.descend(start, never, max_iters=steps, resolution=eps)
    assert (edge.steps, edge.trace, edge.stop) == (steps, trace, "resolution")
    short = quad.descend(start, never, max_iters=steps - 1, resolution=eps)
    assert (short.steps, short.trace, short.stop) == (steps - 1, trace[:-1], "max_iters")


def test_descend_without_trial_values_accepts_no_step():
    quad = Quadratic()
    start = np.zeros(quad.mesh.n_nodes)

    def no_trials(u, t, d, value):
        return quad.evaluate(u, t, d, value) if d is None else None

    descent = descend(start, no_trials, quad.gradient, never, quad.pre, 10)
    assert (descent.field is start, descent.value, descent.steps, descent.stop,
            descent.first) == (True, 0.0, 0, "line_search", None)
    assert len(descent.trace) == 1
    # A start without a value ends the loop before any gradient.
    descent = descend(start, lambda *args: None, quad.gradient, never, quad.pre, 10)
    assert descent == Descent(start, None, 0, [], "no_value", None)
    assert len(quad.accepted) == 1


def test_descend_stops_where_the_direction_does_not_descend():
    """With b = 0 the gradient at the zero field is exactly 0: no step descends."""
    quad = Quadratic()
    quad.rhs[:] = 0.0
    descent = quad.descend(np.zeros(quad.mesh.n_nodes), never)
    assert (descent.steps, descent.stop, descent.first) == (0, "no_descent", None)
    assert descent.trace == [(0, 0.0, 0.0)]


def test_the_ground_state_descent_stops_on_tolerance_or_flat():
    """_descend stops on the residual rule, "tolerance"; at tol_res = 1e-17,
    below what rounding allows, it stops once _FLAT_STEPS accepted steps
    in a row leave the trace energy as it is, "flat"."""
    one = constant_coefficient(1.0)
    spec = ProblemSpec(build_mesh((0.0, 1.0), 41), Exponents(2.0, 3.0, 4.0), 1e-2, one, one)
    pre = InteriorSolver(spec.mesh, alpha=spec.epsilon, beta=1.0)
    start = _default_seeds(spec, 0, 0)[0]
    assert _descend(start, spec, pre, 1e-8, 3000)[0].stop == "tolerance"
    descent, *_ = _descend(start, spec, pre, 1e-17, 3000)
    assert descent.stop == "flat" and descent.steps < 3000
    assert len({row[1] for row in descent.trace[-_FLAT_STEPS - 1:]}) == 1


def test_the_threshold_ascent_stops_stalled_or_at_the_resolution():
    """From the flat limit on 41 nodes the (2, 3, 4) ascent reaches the
    rounding floor of log Q, "resolution", and the p = 1.5 ascent stalls
    first, "stalled"."""
    one = constant_coefficient(1.0)
    mesh = build_mesh((0.0, 1.0), 41)
    pre = InteriorSolver(mesh, alpha=1.0, beta=1.0)
    for exponents, reason in ((Exponents(2.0, 3.0, 4.0), "resolution"),
                              (Exponents(1.5, 2.5, 3.5), "stalled")):
        spec = ProblemSpec(mesh, exponents, 1e-3, one, one)
        ascent = _ascend_log_quotient(spec.flat_limit, spec, pre, 400, 1.0)
        assert ascent.stop == reason and ascent.steps < 400


@pytest.mark.parametrize(("domain", "resolution", "tol"), [
    ((0.0, 1.0), 2001, 4e-11),
    ((0.0, 1.0), 4001, 7e-11),
    ((-1.0, 3.0), 101, 6e-14),
    ((0.0, 1e-3), 41, 5e-14),
    # One interior node: the tridiagonal matrix has no off-diagonal.
    ((0.0, 1.0), 3, 4e-15),
], ids=["2001", "4001", "101_wide", "41_short", "3"])
def test_tridiagonal_solve_against_sparse_lu_on_intervals(domain, resolution, tol):
    """The 1D solve against spsolve of the assembled interior matrix.

    The difference is relative to the largest entry of the solution; the
    tolerances are 10 times the largest one measured over the four weight
    pairs, rounded up (3.2e-12, 6.1e-12, 5.8e-15, 4.7e-15 and 3.5e-16).
    SuperLU's own solve differs from spsolve by up to 3.1e-12 at 4001 nodes.
    """
    mesh = build_mesh(domain, resolution)
    idx = mesh.interior_nodes
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((mesh.n_nodes, 6))
    for alpha, beta in [(1e-3, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]:
        pre = InteriorSolver(mesh, alpha=alpha, beta=beta)
        matrix = metric(mesh, alpha, beta)[idx][:, idx]
        for rhs in stack.T:
            expected = np.zeros_like(rhs)
            expected[idx] = spla.spsolve(matrix, rhs[idx])
            got = pre.apply(rhs)
            assert np.all(got[mesh.boundary_nodes] == 0.0)
            assert np.max(np.abs(got - expected)) <= tol * np.max(np.abs(expected))


@pytest.mark.parametrize(("domain", "resolution", "tol"), [
    (((0.0, 1.0), (0.0, 1.0)), (81, 81), 5e-13),
    (((0.0, 2.0), (-1.0, 0.5)), (31, 17), 2e-13),
    # hx = 0.05 and hy = 1.25e-4: the stencil's weights hx/hy and hy/hx
    # differ by a factor 160 000.
    (((-1.0, 1.0), (0.0, 1e-3)), (41, 9), 4e-14),
    (((0.0, 1.0), (0.0, 1.0)), (3, 3), 2e-15),
], ids=["81x81", "31x17", "41x9_thin", "3x3"])
def test_sine_solve_against_sparse_lu_on_rectangles(domain, resolution, tol):
    """The 2D solve against spsolve of the assembled interior matrix.

    The difference is relative to the largest entry of the solution; the
    tolerances are 10 times the largest one measured over the three weight
    pairs, rounded up (4.9e-14, 1.0e-14, 3.2e-15 and 1.8e-16).
    """
    mesh = build_mesh(domain, resolution)
    idx = mesh.interior_nodes
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((mesh.n_nodes, 6))
    for alpha, beta in [(1e-3, 1.0), (1.0, 1.0), (1.0, 0.0)]:
        pre = InteriorSolver(mesh, alpha=alpha, beta=beta)
        matrix = metric(mesh, alpha, beta)[idx][:, idx]
        for rhs in stack.T:
            expected = np.zeros_like(rhs)
            expected[idx] = spla.spsolve(matrix, rhs[idx])
            got = pre.apply(rhs)
            assert np.all(got[mesh.boundary_nodes] == 0.0)
            assert np.max(np.abs(got - expected)) <= tol * np.max(np.abs(expected))


@pytest.mark.parametrize(("domain", "resolution"), [
    ((0.0, 1.0), 21),
    (((0.0, 1.0), (0.0, 1.0)), (9, 9)),
], ids=["1d", "2d"])
def test_a_dropped_solver_frees_its_mesh_at_once(domain, resolution):
    """No reference cycle holds a solver, so its mesh and the mesh's cached
    operators are freed when the last reference goes, not at the next
    cyclic collection; peak memory then stays flat over repeated solves."""
    mesh = build_mesh(domain, resolution)
    pre = InteriorSolver(mesh, alpha=1e-3, beta=1.0)
    pre.apply(np.ones(mesh.n_nodes))
    alive = weakref.ref(mesh)
    gc.disable()
    try:
        del mesh, pre
        assert alive() is None
    finally:
        gc.enable()
