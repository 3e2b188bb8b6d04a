"""Discretization layer: domains, meshes, nodal fields, and problem data.

The equation being discretized is

    -eps * div(|grad u|^(p-2) grad u) = a(x) |u|^(q-2) u - b(x) |u|^(gamma-2) u

on an interval or an axis-aligned rectangle with zero Dirichlet data,
where 1 < p < q < gamma and gamma stays below the critical exponent
p* = p*N/(N-p) (no restriction when p >= N).

Everything downstream works on continuous piecewise-linear interpolants over
uniform meshes: intervals in 1D, rectangle cells split into two triangles in
2D.  Each mesh precomputes its quadrature cloud (3-point Gauss per interval,
3-point mid-edge rule per triangle) together with basis values and constant
per-element basis gradients.  On first use it also assembles them into sparse
operators: B maps nodal values to quadrature values and G maps them to
element gradients.  Weak forms assemble through the transposes of B and G
with the quadrature weights and element measures folded in.  So functionals
and weak forms reduce to a few sparse products and vectorized array
contractions (Rahman & Valdman, Appl. Math. Comput. 2013).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, ContractViolation, InputError

__all__ = [
    "Exponents",
    "CoefficientField",
    "constant_coefficient",
    "affine_coefficient",
    "bump_coefficient",
    "Mesh",
    "build_mesh",
    "DiscreteField",
    "make_field",
    "lr_norm",
    "squared_norms",
    "ProblemSpec",
]

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Exponents:
    """Exponent triple (p, q, gamma) with 1 < p < q < gamma."""

    p: float
    q: float
    gamma: float

    def __post_init__(self):
        if not (1.0 < self.p < self.q < self.gamma):
            raise InputError(
                f"exponents must satisfy 1 < p < q < gamma, got "
                f"p={self.p}, q={self.q}, gamma={self.gamma}"
            )

    def critical_exponent(self, dimension: int) -> float:
        """Sobolev critical exponent p* for the given spatial dimension."""
        if self.p >= dimension:
            return np.inf
        return self.p * dimension / (dimension - self.p)

    def validate_for_dimension(self, dimension: int) -> None:
        """Check subcriticality of gamma on a mesh of the given dimension."""
        p_star = self.critical_exponent(dimension)
        if not self.gamma < p_star:
            raise InputError(
                f"gamma={self.gamma} must stay below the critical exponent "
                f"{p_star} for p={self.p} in dimension {dimension}"
            )


@dataclass(frozen=True)
class CoefficientField:
    """Spatially varying coefficient with user-declared two-sided bounds.

    ``evaluator`` must accept one coordinate array per axis (numpy-vectorized)
    and return values of the same shape.  The declared bounds are validated by
    sampling when the coefficient is attached to a mesh; they are never
    inferred from samples.
    """

    evaluator: Callable[..., np.ndarray]
    lower: float
    upper: float
    name: str = ""

    def __post_init__(self):
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise ConfigurationError("coefficient bounds must be finite")
        if self.lower > self.upper:
            raise ConfigurationError(
                f"coefficient lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    def __call__(self, points: np.ndarray) -> np.ndarray:
        coords = [np.asarray(points)[..., d] for d in range(points.shape[-1])]
        values = np.asarray(self.evaluator(*coords), dtype=float)
        if values.shape != coords[0].shape:
            values = np.broadcast_to(values, coords[0].shape).copy()
        return values


def constant_coefficient(value: float, name: str = "") -> CoefficientField:
    if value < 0:
        raise ConfigurationError("coefficients must be nonnegative")
    return CoefficientField(lambda *xs: np.full_like(xs[0], float(value)),
                            float(value), float(value), name)


def affine_coefficient(offset: float, slopes, domain, name: str = "") -> CoefficientField:
    """c(x) = offset + slopes . x with bounds taken over the domain corners."""
    bounds = _domain_bounds(domain)
    slopes = np.atleast_1d(np.asarray(slopes, dtype=float))
    if slopes.size != len(bounds):
        raise ConfigurationError("one slope per axis is required")
    corners = np.array(np.meshgrid(*bounds, indexing="ij")).reshape(len(bounds), -1).T
    corner_vals = offset + corners @ slopes
    return CoefficientField(
        lambda *xs: offset + sum(s * x for s, x in zip(slopes, xs)),
        float(corner_vals.min()), float(corner_vals.max()), name,
    )


def bump_coefficient(base: float, amplitude: float, domain, name: str = "") -> CoefficientField:
    """c(x) = base + amplitude * prod_d sin(pi (x_d - lo_d)/(hi_d - lo_d))."""
    bounds = _domain_bounds(domain)
    if amplitude < 0:
        raise ConfigurationError("bump amplitude must be nonnegative")

    def evaluate(*xs):
        prof = np.ones_like(xs[0])
        for (lo, hi), x in zip(bounds, xs):
            prof = prof * np.sin(np.pi * (x - lo) / (hi - lo))
        return base + amplitude * prof

    return CoefficientField(evaluate, float(base), float(base + amplitude), name)


def _domain_bounds(domain) -> list[tuple[float, float]]:
    """Normalize a domain description to a list of per-axis (lo, hi) pairs."""
    arr = np.asarray(domain, dtype=float)
    if arr.shape == (2,):
        bounds = [(arr[0], arr[1])]
    elif arr.shape == (2, 2):
        bounds = [tuple(arr[0]), tuple(arr[1])]
    else:
        raise ConfigurationError(
            "domain must be (x0, x1) or ((x0, x1), (y0, y1)), got shape "
            f"{arr.shape}"
        )
    for lo, hi in bounds:
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ConfigurationError(f"degenerate domain axis ({lo}, {hi})")
    return bounds


class Mesh:
    """Uniform simplicial mesh with a precomputed quadrature cloud.

    Attributes of interest:
      nodes          (n_nodes, dim) coordinates
      elements       (n_elements, dim + 1) vertex indices
      boundary_nodes sorted indices of nodes on the domain boundary
      qp_points      (n_elements, n_qp, dim) quadrature points
      qp_weights     (n_elements, n_qp) quadrature weights
      basis_at_qp    (n_qp, dim + 1) reference basis values
      grad_basis     (n_elements, dim + 1, dim) constant basis gradients

    The sparse operators ``qp_operator`` and ``gradient_operator``, and the
    weighted transposes that assemble weak forms, are built on first use and
    cached like ``stiffness``.
    """

    def __init__(self, bounds, resolution):
        self.bounds = [tuple(map(float, ax)) for ax in bounds]
        self.dimension = len(self.bounds)
        self.resolution = tuple(int(r) for r in resolution)
        if self.dimension == 1:
            self._build_interval()
        else:
            self._build_rectangle()
        self.n_nodes = self.nodes.shape[0]
        self.interior_nodes = np.setdiff1d(
            np.arange(self.n_nodes), self.boundary_nodes, assume_unique=True
        )
        self.volume = float(self.el_measures.sum())
        for arr in (self.nodes, self.elements, self.boundary_nodes,
                    self.interior_nodes, self.qp_points, self.qp_weights,
                    self.basis_at_qp, self.grad_basis, self.el_measures):
            arr.setflags(write=False)

    def _build_interval(self):
        (x0, x1), = self.bounds
        n, = self.resolution
        xs = np.linspace(x0, x1, n)
        self.nodes = xs[:, None].copy()
        self.elements = np.column_stack([np.arange(n - 1), np.arange(1, n)])
        self.boundary_nodes = np.array([0, n - 1])
        h = (x1 - x0) / (n - 1)
        self.el_measures = np.full(n - 1, h)

        # 3-point Gauss rule on [0, 1], exact through degree 5.
        gp, gw = np.polynomial.legendre.leggauss(3)
        ref_t = 0.5 * (gp + 1.0)
        ref_w = 0.5 * gw
        lefts = xs[:-1]
        self.qp_points = (lefts[:, None] + h * ref_t[None, :])[:, :, None]
        self.qp_weights = np.broadcast_to(h * ref_w, (n - 1, 3)).copy()
        self.basis_at_qp = np.column_stack([1.0 - ref_t, ref_t])
        grads = np.array([[-1.0 / h], [1.0 / h]])
        self.grad_basis = np.broadcast_to(grads, (n - 1, 2, 1)).copy()

    def _build_rectangle(self):
        (x0, x1), (y0, y1) = self.bounds
        nx, ny = self.resolution
        xs = np.linspace(x0, x1, nx)
        ys = np.linspace(y0, y1, ny)
        X, Y = np.meshgrid(xs, ys, indexing="xy")
        self.nodes = np.column_stack([X.ravel(), Y.ravel()])

        # Each cell splits along the lower-left -> upper-right diagonal.
        i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="xy")
        n00 = (j * nx + i).ravel()
        n10 = n00 + 1
        n01 = n00 + nx
        n11 = n01 + 1
        lower = np.column_stack([n00, n10, n11])
        upper = np.column_stack([n00, n11, n01])
        self.elements = np.vstack([lower, upper])

        on_edge = (
            np.isclose(self.nodes[:, 0], x0) | np.isclose(self.nodes[:, 0], x1)
            | np.isclose(self.nodes[:, 1], y0) | np.isclose(self.nodes[:, 1], y1)
        )
        self.boundary_nodes = np.flatnonzero(on_edge)

        verts = self.nodes[self.elements]            # (m, 3, 2)
        e1 = verts[:, 1] - verts[:, 0]
        e2 = verts[:, 2] - verts[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        self.el_measures = 0.5 * np.abs(det)

        # Barycentric gradients from the inverse edge map.
        inv = np.empty((len(det), 2, 2))
        inv[:, 0, 0] = e2[:, 1] / det
        inv[:, 0, 1] = -e2[:, 0] / det
        inv[:, 1, 0] = -e1[:, 1] / det
        inv[:, 1, 1] = e1[:, 0] / det
        grad12 = inv                                  # rows: grad lambda_1, lambda_2
        grad0 = -(grad12[:, 0, :] + grad12[:, 1, :])
        self.grad_basis = np.stack([grad0, grad12[:, 0, :], grad12[:, 1, :]], axis=1)

        # Mid-edge rule: degree-2 exact, weights measure/3.
        mids = 0.5 * np.stack(
            [verts[:, 0] + verts[:, 1], verts[:, 1] + verts[:, 2], verts[:, 0] + verts[:, 2]],
            axis=1,
        )
        self.qp_points = mids
        self.qp_weights = np.repeat(self.el_measures[:, None] / 3.0, 3, axis=1)
        self.basis_at_qp = np.array([
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
        ])

    # -- evaluation helpers -------------------------------------------------

    def values_at_qp(self, nodal: np.ndarray) -> np.ndarray:
        """Interpolant values on the quadrature cloud, shape (n_el, n_qp)."""
        return (self.qp_operator @ nodal).reshape(self.qp_weights.shape)

    def gradients(self, nodal: np.ndarray) -> np.ndarray:
        """Constant per-element interpolant gradients, shape (n_el, dim)."""
        return (self.gradient_operator @ nodal).reshape(self.el_measures.size, self.dimension)

    def integrate(self, qp_values: np.ndarray) -> float:
        return float(np.sum(self.qp_weights * qp_values))

    def assemble_point_term(self, qp_density: np.ndarray) -> np.ndarray:
        """Nodal vector with entries sum_qp w * density * basis_i."""
        return self._point_assembly @ qp_density.ravel()

    def assemble_flux_term(self, el_flux: np.ndarray) -> np.ndarray:
        """Nodal vector with entries sum_el measure * flux . grad basis_i."""
        return self._flux_assembly @ el_flux.ravel()

    @cached_property
    def qp_operator(self) -> sp.csr_matrix:
        """B: nodal values to quadrature values, one row per (element, qp)."""
        n_el, n_v = self.elements.shape
        n_qp = self.basis_at_qp.shape[0]
        return _rows_operator(
            np.broadcast_to(self.basis_at_qp, (n_el, n_qp, n_v)),
            np.broadcast_to(self.elements[:, None, :], (n_el, n_qp, n_v)),
            self.n_nodes,
        )

    @cached_property
    def gradient_operator(self) -> sp.csr_matrix:
        """G: nodal values to element gradients, one row per (element, axis)."""
        n_el, n_v = self.elements.shape
        return _rows_operator(
            self.grad_basis.transpose(0, 2, 1),
            np.broadcast_to(self.elements[:, None, :], (n_el, self.dimension, n_v)),
            self.n_nodes,
        )

    @cached_property
    def _point_assembly(self) -> sp.csr_matrix:
        """(W B)^T, W the quadrature weights: densities to nodal point forms."""
        return (sp.diags(self.qp_weights.ravel()) @ self.qp_operator).T.tocsr()

    @cached_property
    def _flux_assembly(self) -> sp.csr_matrix:
        """(M G)^T, M the element measures: element fluxes to nodal flux forms."""
        measures = np.repeat(self.el_measures, self.dimension)
        return (sp.diags(measures) @ self.gradient_operator).T.tocsr()

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """Assembled p=2 stiffness matrix (int grad phi_i . grad phi_j), G^T M G."""
        return self._flux_assembly @ self.gradient_operator

    @cached_property
    def lumped_mass(self) -> np.ndarray:
        """Diagonal (row-sum) mass vector: entries int phi_i."""
        return self.assemble_point_term(np.ones_like(self.qp_weights))


def _rows_operator(data: np.ndarray, cols: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """CSR matrix with one row per leading index of ``data``, entries in order.

    ``data`` and ``cols`` share a shape (..., k); every row holds its nonzero
    entries, stored unsorted in the order given.  A product sums each row
    from +0, so the dropped zeros would not have changed its bits.
    """
    k = data.shape[-1]
    values = np.asarray(data, dtype=float).reshape(-1, k)
    keep = values != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((values[keep], np.asarray(cols).reshape(-1, k)[keep], indptr),
                         shape=(values.shape[0], n_cols))


def _sum_product(weights: np.ndarray, values: np.ndarray) -> float:
    """sum(weights * values), ``values`` holding one entry per weight.

    A threaded BLAS dot splits sums of more than 10 000 terms by its thread
    count, so the last bits would depend on the machine; one einsum pass
    does not.
    """
    return float(np.einsum("i,i->", weights, values.ravel()))


def squared_norms(vectors: np.ndarray) -> np.ndarray:
    """Row-wise |v|^2 of an (n, dim) array, bit for bit einsum("ed,ed->e")."""
    out = vectors[:, 0] * vectors[:, 0]
    for d in range(1, vectors.shape[1]):
        out += vectors[:, d] * vectors[:, d]
    return out


def build_mesh(domain, resolution) -> Mesh:
    """Build a uniform mesh over an interval or rectangle.

    Args:
        domain: (x0, x1) for an interval, ((x0, x1), (y0, y1)) for a rectangle.
        resolution: node count per axis; an int, or a pair for rectangles.

    Raises:
        ConfigurationError: degenerate domain or fewer than 3 nodes per axis.
    """
    bounds = _domain_bounds(domain)
    if np.isscalar(resolution):
        res = (int(resolution),) * len(bounds)
    else:
        res = tuple(int(r) for r in resolution)
    if len(res) != len(bounds):
        raise ConfigurationError("resolution must provide one node count per axis")
    if any(r < 3 for r in res):
        raise ConfigurationError("at least 3 nodes per axis are required")
    return Mesh(bounds, res)


class DiscreteField:
    """Nodal values of a continuous piecewise-linear function on a mesh."""

    __slots__ = ("mesh", "values")

    def __init__(self, mesh: Mesh, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_nodes,):
            raise InputError(
                f"field needs {mesh.n_nodes} nodal values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InputError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteField is immutable")

    def scaled(self, factor: float) -> "DiscreteField":
        return DiscreteField(self.mesh, factor * self.values)

    def max_boundary_value(self) -> float:
        if self.mesh.boundary_nodes.size == 0:
            return 0.0
        return float(np.max(np.abs(self.values[self.mesh.boundary_nodes])))

    def require_mesh(self, mesh: Mesh, what: str = "field") -> None:
        # A uniform mesh is fixed by its bounds and node counts.
        if (self.mesh.bounds, self.mesh.resolution) != (mesh.bounds, mesh.resolution):
            raise InputError(f"{what} must live on the problem's mesh")

    def require_zero_boundary(self, what: str = "field") -> None:
        worst = self.max_boundary_value()
        if worst > _BOUNDARY_TOL:
            raise ContractViolation(
                f"{what} must vanish on the boundary; largest boundary value {worst:g}"
            )


def make_field(mesh: Mesh, f: Callable[..., np.ndarray],
               zero_boundary: bool = True) -> DiscreteField:
    """Interpolate a pointwise function onto the mesh nodes.

    ``f`` receives one coordinate array per axis and must be numpy-vectorized.
    With ``zero_boundary`` the boundary nodes are forced to exactly 0 so the
    result represents a zero-trace function regardless of roundoff in ``f``.
    """
    coords = [mesh.nodes[:, d] for d in range(mesh.dimension)]
    values = np.asarray(f(*coords), dtype=float)
    if values.shape != (mesh.n_nodes,):
        values = np.broadcast_to(values, (mesh.n_nodes,)).copy()
    if not np.all(np.isfinite(values)):
        raise InputError("make_field produced a non-finite nodal value")
    if zero_boundary:
        values = values.copy()
        values[mesh.boundary_nodes] = 0.0
    return DiscreteField(mesh, values)


def lr_norm(u: DiscreteField, r: float) -> float:
    """L^r norm of the interpolant, computed on the quadrature cloud."""
    if r < 1:
        raise InputError(f"L^r norms require r >= 1, got r={r}")
    vals = np.abs(u.mesh.values_at_qp(u.values))
    return float(u.mesh.integrate(vals**r) ** (1.0 / r))


class ProblemSpec:
    """Mesh, exponents, coefficients, and the perturbation parameter eps.

    Coefficient samples on the quadrature cloud and at the nodes are taken
    once at construction and validated against the declared bounds.  The
    lower bound of ``b`` must be positive; ``a`` must be nonnegative.
    ``flat_limit`` holds the nodal small-eps plateau (a/b)^(1/(gamma-q)).
    """

    __slots__ = ("mesh", "exponents", "epsilon", "a", "b",
                 "a_qp", "b_qp", "a_nodes", "b_nodes", "flat_limit",
                 "_weights_a", "_weights_b")

    def __init__(self, mesh: Mesh, exponents: Exponents, epsilon: float,
                 a: CoefficientField, b: CoefficientField, _samples=None):
        if not (np.isfinite(epsilon) and epsilon > 0):
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        exponents.validate_for_dimension(mesh.dimension)
        if a.lower < 0:
            raise ConfigurationError("coefficient a must be nonnegative (lower bound >= 0)")
        if b.lower <= 0:
            raise ConfigurationError("coefficient b needs a positive lower bound")
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "epsilon", float(epsilon))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if _samples is None:
            _samples = tuple(
                self._sample(coeff, label)
                for coeff, label in ((a, "a"), (b, "b"))
            )
        (a_qp, a_nodes), (b_qp, b_nodes) = _samples
        object.__setattr__(self, "a_qp", a_qp)
        object.__setattr__(self, "b_qp", b_qp)
        object.__setattr__(self, "a_nodes", a_nodes)
        object.__setattr__(self, "b_nodes", b_nodes)
        # Quadrature weights times a and b, flat: the energy kernels integrate
        # a|u|^q and b|u|^gamma as sums of products with these.
        for name, coeff in (("_weights_a", a_qp), ("_weights_b", b_qp)):
            weights = (mesh.qp_weights * coeff).ravel()
            weights.setflags(write=False)
            object.__setattr__(self, name, weights)
        flat = (a_nodes / b_nodes) ** (1.0 / (exponents.gamma - exponents.q))
        flat.setflags(write=False)
        object.__setattr__(self, "flat_limit", flat)

    def __setattr__(self, name, value):
        raise AttributeError("ProblemSpec is immutable")

    def _sample(self, coeff: CoefficientField, label: str):
        qp = coeff(self.mesh.qp_points)
        nodes = coeff(self.mesh.nodes)
        tol = 1e-12 * (1.0 + max(abs(coeff.lower), abs(coeff.upper)))
        lo = min(qp.min(), nodes.min())
        hi = max(qp.max(), nodes.max())
        if lo < coeff.lower - tol or hi > coeff.upper + tol:
            raise ConfigurationError(
                f"coefficient {label} leaves its declared range "
                f"[{coeff.lower}, {coeff.upper}]: sampled range [{lo}, {hi}]"
            )
        qp.setflags(write=False)
        nodes.setflags(write=False)
        return qp, nodes

    def with_epsilon(self, epsilon: float) -> "ProblemSpec":
        """Same mesh and coefficients under a different perturbation parameter."""
        return ProblemSpec(
            self.mesh, self.exponents, epsilon, self.a, self.b,
            _samples=((self.a_qp, self.a_nodes), (self.b_qp, self.b_nodes)),
        )
