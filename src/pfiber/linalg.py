"""Sparse interior solves used as descent/ascent preconditioners."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .problem import Mesh

__all__ = ["InteriorSolver"]


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
