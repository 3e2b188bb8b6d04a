"""Sparse interior solves, and the preconditioned directions and Armijo line
search that every descent and ascent in the package steps with."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .problem import Mesh

__all__ = ["InteriorSolver", "armijo", "preconditioned_direction"]

ARMIJO_SLOPE = 1e-4
ARMIJO_FACTOR = 0.5
MAX_BACKTRACKS = 60
# Largest trial step; an accepted step t makes the next trial min(2t, MAX_STEP).
MAX_STEP = 1e8


class InteriorSolver:
    """Prefactorized solver for (alpha * stiffness + beta * mass) on interior nodes.

    Applying the inverse to a weak-form vector turns the nodal residual into a
    Sobolev-type gradient: directions are measured in the metric
    alpha * int grad v . grad w + beta * int v w restricted to zero-trace
    fields, which keeps step quality independent of the mesh resolution.
    """

    def __init__(self, mesh: Mesh, alpha: float, beta: float):
        if alpha < 0 or beta < 0 or alpha + beta <= 0:
            raise NumericalError("preconditioner weights must be nonnegative, not both zero")
        self.mesh = mesh
        idx = mesh.interior_nodes
        op = alpha * mesh.stiffness + beta * sp.diags(mesh.lumped_mass)
        interior = op.tocsc()[idx][:, idx]
        try:
            self._lu = spla.splu(interior.tocsc())
        except RuntimeError as exc:  # singular factorization
            raise NumericalError(f"preconditioner factorization failed: {exc}") from exc
        self._idx = idx

    def apply(self, nodal: np.ndarray) -> np.ndarray:
        """Solve the interior system for a nodal vector or an (n_nodes, k) stack.

        Each column of a stack is one right-hand side, all solved in one call;
        boundary entries of the result are 0.
        """
        out = np.zeros((self.mesh.n_nodes,) + np.shape(nodal)[1:])
        out[self._idx] = self._lu.solve(nodal[self._idx])
        if not np.all(np.isfinite(out)):
            raise NumericalError("preconditioner solve produced non-finite values")
        return out


def preconditioned_direction(pre: InteriorSolver, grad: np.ndarray):
    """(d, grad . d > 0): stepping along -d lowers a function with gradient ``grad``.

    d is P^-1 grad, or ``grad`` itself when P^-1 grad has no positive slope;
    None when neither has.
    """
    direction = pre.apply(grad)
    slope = float(np.dot(grad, direction))
    if slope <= 0.0:
        direction = grad
        slope = float(np.dot(grad, grad))
        if slope <= 0.0:
            return None
    return direction, slope


def armijo(trial, value: float, slope: float, step: float):
    """Armijo backtracking (Pacific J. Math. 1966) from ``step``, negative ``slope``.

    ``trial(t)`` returns ``(value_at_t, payload)``, or None where there is no
    value.  Of the steps step * ARMIJO_FACTOR^k, k < MAX_BACKTRACKS, returns
    ``(t, value_at_t, payload)`` for the first with
    value_at_t <= value + ARMIJO_SLOPE * t * slope, or None.
    """
    t = step
    for _ in range(MAX_BACKTRACKS):
        found = trial(t)
        if found is not None and found[0] <= value + ARMIJO_SLOPE * t * slope:
            return t, found[0], found[1]
        t *= ARMIJO_FACTOR
    return None
