"""The shared descent loop, Armijo line search, secant trial step and
preconditioned directions."""

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
    InteriorSolver,
    armijo,
    descend,
    preconditioned_direction,
    secant_step,
    stalled,
)
from pfiber.problem import build_mesh


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
    metric = mesh.stiffness + sp.diags(mesh.lumped_mass)
    rng = np.random.default_rng(4)
    s = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    s[mesh.boundary_nodes] = 0.0
    for c in (0.25, 1.0, 40.0):
        y = c * (metric @ s)
        y[mesh.boundary_nodes] = 0.0
        assert secant_step(s, y, pre.apply(y), 7.0) == pytest.approx(1.0 / c, rel=1e-12)
    y = metric @ s
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
        self.matrix = (mesh.stiffness + sp.diags((1.0 + 50.0 * x) * mesh.lumped_mass)).tocsr()
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
        cand = u if d is None else u - t * d
        return self.value(cand), cand, cand

    def change(self, u, t, d, value):
        """The exact change t (t d.A d / 2 - grad . d), for ``relative``."""
        if d is None:
            return self.value(u) - value, u, u
        cand = u - t * d
        grad = self.matrix @ u - self.rhs
        return t * (0.5 * t * (d @ (self.matrix @ d)) - grad @ d), cand, cand

    def descend(self, start, stop, max_iters=500, relative=False):
        evaluate = self.change if relative else self.evaluate
        return descend(start, evaluate, self.gradient, stop, self.pre, max_iters, relative)


def below(tol):
    return lambda trace: trace[-1][2] <= tol


def test_descend_converges_at_the_start():
    quad = Quadratic()
    u, value, steps, trace, capped = quad.descend(quad.solution, below(1e-10))
    assert (steps, capped) == (0, False)
    assert u is quad.solution
    assert trace == [(0, value, quad.accepted[0][1])]


def test_descend_converges_to_the_sparse_solve_in_relative_mode():
    """Changes without cancellation reach a gradient 1e-13 of the solution."""
    quad = Quadratic()
    u, value, steps, trace, capped = quad.descend(
        np.zeros(quad.mesh.n_nodes), below(1e-13), relative=True)
    assert 1 < steps < 500 and not capped
    assert np.max(np.abs(u - quad.solution)) <= 1e-12 * np.max(np.abs(quad.solution))
    assert trace[-1][2] <= 1e-13
    # Rows are (iteration, value, gradient max-norm) at each accepted field,
    # and the value moves by the accepted changes.
    assert [row[0] for row in trace] == list(range(steps + 1))
    values = np.array([row[1] for row in trace])
    assert np.all(np.diff(values) <= 0.0)
    assert np.abs(values - [a[0] for a in quad.accepted]).max() <= 1e-13 * abs(value)
    assert [row[2] for row in trace] == [a[1] for a in quad.accepted]


def test_descend_stops_flat_at_the_rounding_floor_of_absolute_values():
    """Compared as rounded values, f stops decreasing near a gradient 1e-6.

    The flat rule ends the descent there; a gradient tolerance alone runs
    into the cap.  A flat stop on the last allowed step is not capped.
    """
    quad = Quadratic()
    start = np.zeros(quad.mesh.n_nodes)
    u, value, steps, trace, capped = quad.descend(start, lambda trace: stalled(trace, 3))
    assert steps < 500 and not capped
    assert stalled(trace, 3) and not stalled(trace[:-1], 3)
    values = [row[1] for row in trace]
    assert values == [a[0] for a in quad.accepted]
    assert np.all(np.diff(values) <= 0.0)
    assert 1e-10 < trace[-1][2] and np.max(np.abs(u - quad.solution)) <= 1e-6

    edge = quad.descend(start, lambda trace: stalled(trace, 3), max_iters=steps)
    assert edge[2:] == (steps, trace, False)
    np.testing.assert_array_equal(edge[0], u)
    short = quad.descend(start, lambda trace: stalled(trace, 3), max_iters=steps - 1)
    assert short[2:] == (steps - 1, trace[:-1], True)

    u, value, steps, trace, capped = quad.descend(start, below(1e-10), max_iters=60)
    assert (steps, capped, len(trace)) == (60, True, 61)
    assert trace[-1][2] > 1e-10


def test_descend_without_trial_values_accepts_no_step():
    quad = Quadratic()
    start = np.zeros(quad.mesh.n_nodes)

    def no_trials(u, t, d, value):
        return quad.evaluate(u, t, d, value) if d is None else None

    u, value, steps, trace, capped = descend(start, no_trials, quad.gradient, below(0.0),
                                             quad.pre, 10)
    assert (u is start, value, steps, capped) == (True, 0.0, 0, False)
    assert len(trace) == 1
    # A start without a value ends the loop before any gradient.
    found = descend(start, lambda *args: None, quad.gradient, below(0.0), quad.pre, 10)
    assert found[0] is start and found[1:] == (None, 0, [], False)
    assert len(quad.accepted) == 1


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
        matrix = (alpha * mesh.stiffness + beta * sp.diags(mesh.lumped_mass)).tocsc()
        matrix = matrix[idx][:, idx]
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
