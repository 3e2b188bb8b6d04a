"""The shared Armijo line search and preconditioned directions."""

import math

import numpy as np

from pfiber.linalg import (
    ARMIJO_FACTOR,
    MAX_BACKTRACKS,
    InteriorSolver,
    armijo,
    preconditioned_direction,
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
    # descend; the raw gradient does.
    grad = np.zeros(mesh.n_nodes)
    grad[mesh.boundary_nodes] = [1.0, -2.0]
    direction, slope = preconditioned_direction(pre, grad)
    np.testing.assert_array_equal(direction, grad)
    assert slope == 5.0

    assert preconditioned_direction(pre, np.zeros(mesh.n_nodes)) is None


def test_interior_factor_fill_on_the_2d_benchmark_mesh():
    # The interior matrix is symmetric; a minimum-degree ordering of A^T + A
    # keeps L + U at 214 232 entries on 79^2 interior nodes, where COLAMD
    # gives 366 824.
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (81, 81))
    pre = InteriorSolver(mesh, alpha=1e-3, beta=1.0)
    assert pre._lu.L.nnz + pre._lu.U.nnz <= 250_000
