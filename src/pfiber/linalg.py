"""Interior solves of the metric alpha * stiffness + beta * lumped mass, and
the one preconditioned Armijo descent loop that the ground state, the
Nehari-branch descent and the threshold ascent all run."""

import functools

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError
from .problem import Mesh, _sum_product

__all__ = ["InteriorSolver", "armijo", "descend", "preconditioned_direction", "secant_step",
           "stalled"]

ARMIJO_SLOPE = 1e-4
ARMIJO_FACTOR = 0.5
MAX_BACKTRACKS = 60
MAX_STEP = 1e8    # largest trial step of descend and secant_step


class InteriorSolver:
    """Solver for (alpha * stiffness + beta * lumped mass) on interior nodes.

    Applying the inverse to a weak-form vector turns the nodal residual into a
    Sobolev-type gradient: directions are measured in the metric
    alpha * int grad v . grad w + beta * int v w restricted to zero-trace
    fields, which keeps step quality independent of the mesh resolution.

    In 1D the tridiagonal matrix is factorized once by SuperLU.  In 2D no
    factorization is needed.  Every cell of the uniform rectangle splits
    along its lower-left -> upper-right diagonal, where the P1 couplings are
    -cot(90 deg)/2 = 0, so the stiffness is exactly the 5-point stencil and the
    lumped mass is hx * hy at every interior node.  The orthonormal DST-I
    along each axis diagonalizes that matrix, and it is its own inverse: a
    solve is two transforms and a division by the eigenvalues (Buzbee, Golub
    & Nielson, SIAM J. Numer. Anal. 1970).
    """

    def __init__(self, mesh: Mesh, alpha: float, beta: float):
        if alpha < 0 or beta < 0 or alpha + beta <= 0:
            raise NumericalError("preconditioner weights must be nonnegative, not both zero")
        self.mesh = mesh
        self._idx = mesh.interior_nodes
        if mesh.dimension == 1:
            import scipy.sparse.linalg as spla

            op = alpha * mesh.stiffness + beta * sp.diags(mesh.lumped_mass)
            interior = op.tocsc()[self._idx][:, self._idx]
            try:
                # The matrix is symmetric: order by minimum degree on A^T + A.
                self._solve = spla.splu(interior.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
            except RuntimeError as exc:  # singular factorization
                raise NumericalError(f"preconditioner factorization failed: {exc}") from exc
        else:
            import scipy.fft

            (x0, x1), (y0, y1) = mesh.bounds
            nx, ny = mesh.resolution
            hx, hy = (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1)
            # Interior nodes run row-major, x fastest: axis 0 is y, axis 1 is x.
            ex = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, nx - 1) / (nx - 1))
            ey = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, ny - 1) / (ny - 1))
            eigenvalues = (alpha * ((hy / hx) * ex[None, :] + (hx / hy) * ey[:, None])
                           + beta * hx * hy)
            dst = functools.partial(scipy.fft.dstn, type=1, axes=(0, 1), norm="ortho")

            # A closure, not a method: a bound method stored on self is a
            # reference cycle, which keeps the mesh and its operators alive
            # until the cyclic garbage collector runs.
            def solve(interior):
                return dst(dst(interior.reshape(eigenvalues.shape)) / eigenvalues).ravel()

            self._solve = solve

    def apply(self, nodal: np.ndarray) -> np.ndarray:
        """Solve the interior system for a nodal vector; boundary entries are 0."""
        out = np.zeros(self.mesh.n_nodes)
        out[self._idx] = self._solve(nodal[self._idx])
        if not np.all(np.isfinite(out)):
            raise NumericalError("preconditioner solve produced non-finite values")
        return out


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


def descend(start: np.ndarray, evaluate, gradient, stop, pre: InteriorSolver,
            max_iters: int, relative: bool = False):
    """Preconditioned Armijo descent of a function f from ``start``.

    - ``evaluate(u, t, d, value)`` is (f, field, payload) at the trial field
      that the caller makes from u - t d, or None where f has no value; the
      loop evaluates the start itself, as evaluate(start, 0.0, None, 0.0).
      With ``relative`` it returns the change f - value in place of f, which
      the caller may compute without the cancellation of two rounded
      values: Armijo then compares changes with 0, and the value moves by
      them.  Otherwise it compares f at the trial with f at u.
    - ``gradient(payload)`` is the nodal gradient of f at an accepted field.
    - ``stop(trace)`` is the stop rule at an accepted field.

    Each line search goes along -preconditioned_direction from secant_step,
    or from twice the last accepted step where there is no secant.  Only
    the field outlives its gradient, and the start is evaluated here: a
    payload kept through the line search would fragment the heap, and the
    peak RSS would grow with every descent.

    Returns (field, value, steps, trace, capped): ``steps`` counts accepted
    steps, ``trace`` rows are (steps, value, gradient max-norm) at each
    accepted field, and ``capped`` is True when max_iters ended the
    descent.  A start without a value returns (start, None, 0, [], False).
    """
    found = evaluate(start, 0.0, None, 0.0)
    if found is None:
        return start, None, 0, [], False
    value, u, payload = found
    step = 1.0
    trace = []
    prev = None
    for steps in range(max_iters + 1):
        grad = gradient(payload)
        payload = found = None
        trace.append((steps, value, float(np.abs(grad).max())))
        if stop(trace):
            break
        if steps == max_iters:
            return u, value, steps, trace, True
        found = preconditioned_direction(pre, grad)
        if found is None:
            break
        d, slope = found
        if prev is not None:
            step = secant_step(u - prev[0], grad - prev[1], d - prev[2], step)
        prev = u, grad, d
        found = armijo(lambda t: evaluate(u, t, d, value),
                       0.0 if relative else value, -slope, step)
        if found is None:
            break
        t, level, u, payload = found
        value = value + level if relative else level
        step = min(2.0 * t, MAX_STEP)
    return u, value, steps, trace, False


def stalled(trace, steps: int, rel: float = 0.0) -> bool:
    """Whether each of the last ``steps`` trace steps fell by at most rel * (1 + |value|)."""
    return len(trace) > steps and all(  # newest first: most calls stop at one step
        trace[i - 1][1] - trace[i][1] <= rel * (1.0 + abs(trace[i][1]))
        for i in range(-1, -steps - 1, -1))
