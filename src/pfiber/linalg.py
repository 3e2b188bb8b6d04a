"""Interior solves of the metric alpha * stiffness + beta * lumped mass, and
the one preconditioned Armijo descent loop that the ground state, the
Nehari-branch descent and the threshold ascent all run."""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .problem import Mesh, _sum_product

__all__ = ["Descent", "InteriorSolver", "armijo", "descend", "preconditioned_direction",
           "secant_step", "stalled"]

ARMIJO_SLOPE = 1e-4
ARMIJO_FACTOR = 0.5
MAX_BACKTRACKS = 60
MAX_STEP = 1e8    # largest trial step of descend and secant_step
_PANEL = 4 * 65536    # multiply-adds of one matrix product in the 2D solve


class InteriorSolver:
    """Solver for (alpha * stiffness + beta * lumped mass) on interior nodes.

    Applying the inverse to a weak-form vector turns the nodal residual into a
    Sobolev-type gradient: directions are measured in the metric
    alpha * int grad v . grad w + beta * int v w restricted to zero-trace
    fields, which keeps step quality independent of the mesh resolution.

    In 1D the matrix is tridiagonal and positive definite, with
    2 alpha / h + beta h on the diagonal and -alpha / h beside it: LAPACK's
    dpttrf factorizes it once as L D L^T, and dpttrs solves by two
    bidiagonal sweeps.  In 2D no factorization is needed.  Every cell of the
    uniform rectangle splits along its lower-left -> upper-right diagonal,
    where the P1 couplings are -cot(90 deg)/2 = 0, so the stiffness is
    exactly the 5-point stencil and the lumped mass is hx * hy at every
    interior node.  The orthonormal DST-I along each axis diagonalizes that
    matrix (Lynch, Rice & Thomas, Numer. Math. 6, 1964).  Written out as a
    matrix, S[j, k] = sqrt(2 / (n - 1)) sin(pi j k / (n - 1)) for
    j, k = 1 .. n - 2 is symmetric and its own inverse, so on the interior
    nodes as a (ny - 2) x (nx - 2) array X a solve is
    Sy ((Sy X Sx) / eigenvalues) Sx: four matrix products, each in row
    panels that a threaded BLAS runs on one thread (_product).  They cost
    O(n^3) against a fast transform's O(n^2 log n), but up to about 141
    nodes per axis they take less time than its call overhead (README).
    """

    def __init__(self, mesh: Mesh, alpha: float, beta: float):
        if alpha < 0 or beta < 0 or alpha + beta <= 0:
            raise NumericalError("preconditioner weights must be nonnegative, not both zero")
        self.mesh = mesh
        # Each branch stores a closure, not a method: a bound method stored on
        # self is a reference cycle, which keeps the mesh and its operators
        # alive until the cyclic garbage collector runs.  The closure writes
        # the interior entries of its zeroed output.
        if mesh.dimension == 1:
            from scipy.linalg import lapack

            (x0, x1), = mesh.bounds
            n, = mesh.resolution
            h = (x1 - x0) / (n - 1)
            # scipy's wrappers want an off-diagonal of at least one entry, also
            # for a single interior node, where LAPACK reads none.
            diag, off, info = lapack.dpttrf(np.full(n - 2, 2.0 * alpha / h + beta * h),
                                            np.full(max(n - 3, 1), -alpha / h))
            if info != 0:
                raise NumericalError(f"preconditioner factorization failed: info = {info}")

            def solve(nodal, out):
                out[1:-1] = lapack.dpttrs(diag, off, nodal[1:-1])[0]

            self._solve = solve
        else:
            (x0, x1), (y0, y1) = mesh.bounds
            nx, ny = mesh.resolution
            hx, hy = (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1)
            # Nodes run row-major, x fastest: axis 0 is y, axis 1 is x.
            ex = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, nx - 1) / (nx - 1))
            ey = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, ny - 1) / (ny - 1))
            eigenvalues = (alpha * ((hy / hx) * ex[None, :] + (hx / hy) * ey[:, None])
                           + beta * hx * hy)
            sx, sy = _sine_matrix(nx), _sine_matrix(ny)

            def interior(nodal):
                return nodal.reshape(ny, nx)[1:-1, 1:-1]

            def solve(nodal, out):
                left, coeffs = np.empty(eigenvalues.shape), np.empty(eigenvalues.shape)
                _product(sy, interior(nodal), left)
                _product(left, sx, coeffs)
                coeffs /= eigenvalues
                _product(sy, coeffs, left)
                _product(left, sx, interior(out))

            self._solve = solve

    def apply(self, nodal: np.ndarray) -> np.ndarray:
        """Solve the interior system for a nodal vector; boundary entries are 0."""
        out = np.zeros(self.mesh.n_nodes)
        self._solve(nodal, out)
        if not np.all(np.isfinite(out)):
            raise NumericalError("preconditioner solve produced non-finite values")
        return out


def _sine_matrix(n: int) -> np.ndarray:
    """The orthonormal DST-I of the n - 2 interior nodes of an n-node axis.

    Its entries are exactly symmetric, so S diag(1 / eigenvalues) S is
    symmetric positive definite even where rounding leaves S S a few units
    off the identity.
    """
    j = np.arange(1, n - 1)
    return np.sqrt(2.0 / (n - 1)) * np.sin(np.pi * np.outer(j, j) / (n - 1))


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """a @ b into ``out``, in row panels of at most _PANEL multiply-adds.

    OpenBLAS runs a product of at most GEMM_MULTITHREAD_THRESHOLD * 65536
    multiply-adds on one thread, 4 * 65536 in its default build.  A larger
    one splits its output among the threads, and the split moves the last
    bits of the result, so without the panels the solve's bytes would
    follow the BLAS thread count from about 121 nodes per axis on.
    """
    rows = max(1, _PANEL // (a.shape[1] * b.shape[1]))
    for i in range(0, a.shape[0], rows):
        np.matmul(a[i:i + rows], b, out=out[i:i + rows])


def preconditioned_direction(pre: InteriorSolver, grad: np.ndarray):
    """(d, grad . d > 0): stepping along -d lowers a function with gradient ``grad``.

    d is P^-1 grad; None when it has no positive slope, which for a gradient
    with zero boundary entries means grad = 0, since P is SPD on the interior.
    """
    direction = pre.apply(grad)
    slope = _sum_product(grad, direction)
    return (direction, slope) if slope > 0.0 else None


def secant_step(s: np.ndarray, y: np.ndarray, pre_y: np.ndarray, step: float) -> float:
    """Spectral (Barzilai-Borwein) trial step in the preconditioner metric.

    ``s`` is the change of the iterate, ``y`` the change of the gradient of
    the function being lowered and ``pre_y`` that of its preconditioned
    direction, P^-1 y, so no solve is added (Barzilai & Borwein, IMA J.
    Numer. Anal. 8, 1988; Raydan, SIAM J. Optim. 7, 1997).  Returns
    (s.y)/(y.P^-1 y) clipped to [1e-12, MAX_STEP] when both
    products are positive, else ``step``.
    """
    sy = _sum_product(s, y)
    y_pre = _sum_product(y, pre_y)
    if sy > 0.0 and y_pre > 0.0:
        return min(max(sy / y_pre, 1e-12), MAX_STEP)
    return step


def armijo(trial, value: float, slope: float, step: float):
    """Armijo backtracking (Pacific J. Math. 1966) from ``step``, negative ``slope``.

    ``trial(t)`` returns a tuple ``(value_at_t, ...)``, or None where there
    is no value.  Of the steps step * ARMIJO_FACTOR^k, k < MAX_BACKTRACKS,
    returns ``(t, value_at_t, ...)`` for the first with
    value_at_t <= value + ARMIJO_SLOPE * t * slope, or None.
    """
    t = step
    for _ in range(MAX_BACKTRACKS):
        found = trial(t)
        if found is not None and found[0] <= value + ARMIJO_SLOPE * t * slope:
            return (t, *found)
        found = None    # free the rejected payload before the next trial
        t *= ARMIJO_FACTOR
    return None


@dataclass(frozen=True)
class Descent:
    """Outcome of descend.

    ``field`` and ``value`` are the last accepted field and its value,
    ``steps`` counts accepted steps, and ``trace`` rows are
    (steps, value, gradient max-norm) at each accepted field.  ``stop``
    names the exit: the reason the caller's stop rule returned,
    "no_descent" (the direction does not descend), "resolution" (the
    rounding floor), "line_search" (Armijo found no step), "max_iters",
    or "no_value" (the start has none; then ``value`` is None and
    ``trace`` is empty).  ``first`` is the step the first line search
    accepted, None where it accepted none.
    """

    field: np.ndarray
    value: float | None
    steps: int
    trace: list
    stop: str
    first: float | None


class _BelowResolution(Exception):
    """A trial step of descend's line search is below its resolution."""


def descend(start: np.ndarray, evaluate, gradient, stop, pre: InteriorSolver,
            max_iters: int, step: float = 1.0, resolution: float = 0.0) -> Descent:
    """Preconditioned Armijo descent of a function f from ``start``.

    - ``evaluate(u, t, d, value)`` is (change, field, payload) at the trial
      field that the caller makes from u - t d, or None where f has no
      value.  The change is f(trial) - value, which the caller may compute
      without the cancellation of two rounded values; Armijo compares it
      with 0, and the value moves by it.  The loop evaluates the start
      itself, as evaluate(start, 0.0, None, 0.0), whose change is f(start).
    - ``gradient(payload)`` is the nodal gradient of f at an accepted field.
    - ``stop(trace)`` is the stop rule at an accepted field: None to go on,
      else the reason, which the Descent reports.

    Each line search goes along -preconditioned_direction.  The first
    starts from ``step``; each later one from secant_step, or from twice
    the last accepted step where there is no secant.  With a positive
    ``resolution`` the descent also stops, "resolution", where the secant
    model of f along the direction, whose decrease at the trial t is
    t (grad . P^-1 grad) / 2, cannot lower f by more than
    resolution (1 + |value|) / 2: a step that small does not show in the
    rounded value.  That holds for the first trial, and for any trial the
    line search halves down to without an accepted step, which ends it
    there.  At each accepted field these stops, and a direction that does
    not descend, come before max_iters ends the descent.  Only
    the field outlives its gradient, and the start is evaluated here: a
    payload kept through the line search would fragment the heap, and the
    peak RSS would grow with every descent.
    """
    found = evaluate(start, 0.0, None, 0.0)
    if found is None:
        return Descent(start, None, 0, [], "no_value", None)
    value, u, payload = found
    trace = []
    prev = first = None
    for steps in range(max_iters + 1):    # returns at the latest when steps == max_iters
        grad = gradient(payload)
        payload = found = None
        trace.append((steps, value, float(np.abs(grad).max())))
        reason = stop(trace)
        if reason is not None:
            return Descent(u, value, steps, trace, reason, first)
        found = preconditioned_direction(pre, grad)
        if found is None:
            return Descent(u, value, steps, trace, "no_descent", first)
        d, slope = found
        if prev is not None:
            step = secant_step(u - prev[0], grad - prev[1], d - prev[2], step)
        floor = resolution * (1.0 + abs(value))
        if step * slope <= floor:
            return Descent(u, value, steps, trace, "resolution", first)
        if steps == max_iters:
            return Descent(u, value, steps, trace, "max_iters", first)
        prev = u, grad, d

        def trial(t):
            if t * slope <= floor:
                raise _BelowResolution
            return evaluate(u, t, d, value)

        try:
            found = armijo(trial, 0.0, -slope, step)
        except _BelowResolution:
            return Descent(u, value, steps, trace, "resolution", first)
        if found is None:
            return Descent(u, value, steps, trace, "line_search", first)
        t, change, u, payload = found
        value += change
        if first is None:
            first = t
        step = min(2.0 * t, MAX_STEP)


def stalled(trace, steps: int, rel: float = 0.0) -> bool:
    """Whether each of the last ``steps`` trace steps fell by at most rel * (1 + |value|)."""
    return len(trace) > steps and all(  # newest first: most calls stop at one step
        trace[i - 1][1] - trace[i][1] <= rel * (1.0 + abs(trace[i][1]))
        for i in range(-1, -steps - 1, -1))
