"""Discretization layer: domains, meshes, nodal fields, and problem data.

The equation being discretized is

    -eps * div(|grad u|^(p-2) grad u) = a(x) |u|^(q-2) u - b(x) |u|^(gamma-2) u

on an interval or an axis-aligned rectangle with zero Dirichlet data,
where 1 < p < q < gamma and gamma stays below the critical exponent
p* = p*N/(N-p) (no restriction when p >= N).

Everything downstream works on continuous piecewise-linear interpolants over
uniform meshes: intervals in 1D, rectangle cells split into two triangles in
2D.  Each mesh builds its nodes, elements and quadrature cloud, together with
basis values and constant per-element basis gradients, from slices of its
coordinate and node-number grids; its boundary is the first and last node of
each grid axis.  The cloud is 3 Gauss points per interval in 1D.  In 2D it is
the mid-edge rule with every edge midpoint held once: a point shared by two
triangles carries both their weights, and a table gives each triangle its
three points.  On first use the mesh also builds sparse operators from the
same index pattern, and only then imports ``scipy.sparse``: B maps nodal
values to quadrature values and G maps them to element gradients.  Every row
of B and G holds exactly two entries: a quadrature point sits on two hats,
and a gradient component of a right triangle is a difference along one
axis-aligned edge.  Weak forms assemble through the transposes of B and G
with the quadrature weights and element measures folded in, each made by one
sparse format conversion.  So functionals and weak forms reduce to a few
sparse products and vectorized array contractions (Rahman & Valdman, Appl.
Math. Comput. 2013).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

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


# Vertex slots (columns of ``elements``) holding the two nonzeros of each
# operator row.  B in 1D: per Gauss point, the interval's two hats (2D rows
# are edges, ``_edge_ends``).  G: per element block and axis, the
# axis-aligned edge whose difference the gradient component is; 2D lists the
# lower triangles (n00, n10, n11) and then the upper ones (n00, n11, n01).
_INTERVAL_QP_SLOTS = [[0, 1], [0, 1], [0, 1]]
_GRADIENT_SLOTS = {1: [[[0, 1]]], 2: [[[0, 1], [1, 2]], [[1, 2], [0, 2]]]}


class Mesh:
    """Uniform simplicial mesh with a precomputed quadrature cloud.

    Attributes of interest:
      nodes          (n_nodes, dim) coordinates
      elements       (n_elements, dim + 1) vertex indices
      boundary_nodes sorted indices of the first and last nodes of each grid axis
      qp_points      (n_points, dim) quadrature points; (n_elements, 3, 1) in 1D
      qp_weights     quadrature weights, shaped like the cloud:
                     (n_elements, 3) in 1D, (n_points,) in 2D
      element_points (n_elements, 3) in 2D: indices into the cloud of each
                     triangle's points, in the order of ``basis_at_qp``
      element_weights (n_elements, n_qp) each element's own rule weights
      basis_at_qp    (n_qp, dim + 1) reference basis values
      grad_basis     (n_elements, dim + 1, dim) constant basis gradients

    The 1D cloud is each interval's 3 Gauss points.  The 2D cloud is the set
    of edge midpoints, each held once and weighted by the sum of |T|/3 over
    the one or two triangles sharing the edge: the per-triangle mid-edge rule
    with its shared points merged.  Every array is built from slices of the
    coordinate and node-number grids.  The sparse operators ``qp_operator``
    and ``gradient_operator``, and the weighted transposes that assemble weak
    forms, are built on first use and kept; every row of B and G holds
    exactly two entries (``_INTERVAL_QP_SLOTS`` or ``_edge_ends``,
    ``_GRADIENT_SLOTS``).
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
        self.volume = float(self.el_measures.sum())
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    def _build_interval(self):
        (x0, x1), = self.bounds
        n, = self.resolution
        xs = np.linspace(x0, x1, n)
        self.nodes = xs[:, None].copy()
        self.elements = np.column_stack([np.arange(n - 1), np.arange(1, n)])
        self.boundary_nodes = np.array([0, n - 1])
        self.interior_nodes = np.arange(1, n - 1)
        h = (x1 - x0) / (n - 1)
        self.el_measures = np.full(n - 1, h)

        # 3-point Gauss rule on [0, 1], exact through degree 5.
        gp, gw = np.polynomial.legendre.leggauss(3)
        ref_t = 0.5 * (gp + 1.0)
        ref_w = 0.5 * gw
        lefts = xs[:-1]
        self.qp_points = (lefts[:, None] + h * ref_t[None, :])[:, :, None]
        self.qp_weights = np.broadcast_to(h * ref_w, (n - 1, 3)).copy()
        self.element_weights = self.qp_weights
        self.basis_at_qp = np.column_stack([1.0 - ref_t, ref_t])
        grads = np.array([[-1.0 / h], [1.0 / h]])
        self.grad_basis = np.broadcast_to(grads, (n - 1, 2, 1)).copy()

    def _build_rectangle(self):
        (x0, x1), (y0, y1) = self.bounds
        nx, ny = self.resolution
        xs = np.linspace(x0, x1, nx)
        ys = np.linspace(y0, y1, ny)
        nodes = np.empty((ny, nx, 2))
        nodes[..., 0] = xs
        nodes[..., 1] = ys[:, None]
        self.nodes = nodes.reshape(-1, 2)

        on_edge = np.zeros((ny, nx), dtype=bool)
        on_edge[[0, -1], :] = True
        on_edge[:, [0, -1]] = True
        self.boundary_nodes = np.flatnonzero(on_edge)
        self.interior_nodes = np.flatnonzero(~on_edge)

        # Each cell splits along the lower-left -> upper-right diagonal into
        # a lower triangle (n00, n10, n11) and an upper one (n00, n11, n01);
        # all lower triangles come first.
        number = np.arange(nx * ny).reshape(ny, nx)
        n00, n10 = number[:-1, :-1], number[:-1, 1:]
        n01, n11 = number[1:, :-1], number[1:, 1:]
        self.elements = _triangle_table(
            [[[n00], [n10], [n11]], [[n00], [n11], [n01]]], n00.shape, number.dtype,
        ).reshape(-1, 3)

        # The inverse edge map of a right triangle with legs dx, dy:
        # det = dx*dy, and each basis gradient is (+-dy/det, +-dx/det) or a
        # signed zero, bit for bit what the general 2x2 inverse gives.
        dx = (xs[1:] - xs[:-1])[None, :]
        dy = (ys[1:] - ys[:-1])[:, None]
        det = dx * dy
        gx, gy = dy / det, dx / det
        self.grad_basis = _triangle_table(
            [[[-gx, -0.0], [gx, -gy], [-0.0, gy]], [[-0.0, -gy], [gx, -0.0], [-gx, gy]]],
            det.shape,
        )
        self.el_measures = np.tile((0.5 * det).ravel(), 2)

        # Mid-edge rule, degree-2 exact: a triangle's points are the midpoints
        # of its edges v0v1, v1v2 and v0v2, each weighted |T|/3.  The cloud
        # holds each edge's midpoint once, in the order of ``_edge_ends``,
        # and ``element_points`` gives each triangle its three points.  An
        # edge's weight sums the cells on its two sides, from a grid of |T|/3
        # padded by a ring of zero cells, and doubles on a diagonal, whose
        # two triangles share one cell.
        self.qp_points = np.concatenate(
            [(0.5 * (a + b)).reshape(-1, 2) for a, b in _edge_ends(nodes)])
        third = np.zeros((ny + 1, nx + 1))
        third[1:-1, 1:-1] = 0.5 * det / 3.0
        cells = third[1:-1, 1:-1]
        self.qp_weights = np.concatenate([
            (third[:-1, 1:-1] + third[1:, 1:-1]).ravel(),
            (third[1:-1, :-1] + third[1:-1, 1:]).ravel(),
            (cells + cells).ravel(),
        ])
        index, start = [], 0
        for first, _ in _edge_ends(number):
            index.append(start + np.arange(first.size).reshape(first.shape))
            start += first.size
        h, v, d = index
        self.element_points = _triangle_table(
            [[[h[:-1]], [v[:, 1:]], [d]], [[d], [h[1:]], [v[:, :-1]]]], det.shape, h.dtype,
        ).reshape(-1, 3)
        self.element_weights = np.broadcast_to(
            self.el_measures[:, None] / 3.0, self.element_points.shape)
        self.basis_at_qp = np.array([
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
        ])

    # -- evaluation helpers -------------------------------------------------

    def values_at_qp(self, nodal: np.ndarray) -> np.ndarray:
        """Interpolant values on the quadrature cloud, shaped like ``qp_weights``."""
        return (self.qp_operator @ nodal).reshape(self.qp_weights.shape)

    def gradients(self, nodal: np.ndarray) -> np.ndarray:
        """Constant per-element interpolant gradients, shape (n_el, dim)."""
        return (self.gradient_operator @ nodal).reshape(self.el_measures.size, self.dimension)

    def per_element(self, qp_values: np.ndarray) -> np.ndarray:
        """Values on the cloud as (n_el, n_qp): each element's own points, in
        the order of ``basis_at_qp``; the 1D cloud already is."""
        return qp_values if self.dimension == 1 else qp_values[self.element_points]

    def integrate(self, qp_values: np.ndarray) -> float:
        return float(np.sum(self.qp_weights * qp_values))

    def assemble_point_term(self, qp_density: np.ndarray) -> np.ndarray:
        """Nodal vector with entries sum_qp w * density * basis_i."""
        return self._point_assembly @ qp_density.ravel()

    def assemble_flux_term(self, el_flux: np.ndarray) -> np.ndarray:
        """Nodal vector with entries sum_el measure * flux . grad basis_i."""
        return self._flux_assembly @ el_flux.ravel()

    @cached_property
    def qp_operator(self) -> "scipy.sparse.csr_matrix":
        """B: nodal values to quadrature values, one row per point of the cloud."""
        if self.dimension == 2:
            # A mid-edge point sits on the hats of its edge's two ends.
            ends = _edge_ends(np.arange(self.n_nodes).reshape(self.resolution[::-1]))
            cols = np.concatenate([np.stack(pair, axis=-1).reshape(-1, 2) for pair in ends])
            return _two_entry_rows(np.full(cols.shape, 0.5), cols, self.n_nodes)
        values = np.broadcast_to(self.basis_at_qp,
                                 (len(self.elements),) + self.basis_at_qp.shape)
        return self._pair_operator([_INTERVAL_QP_SLOTS], values)

    @cached_property
    def gradient_operator(self) -> "scipy.sparse.csr_matrix":
        """G: nodal values to element gradients, one row per (element, axis)."""
        return self._pair_operator(_GRADIENT_SLOTS[self.dimension],
                                   self.grad_basis.transpose(0, 2, 1))

    def _pair_operator(self, blocks, values: np.ndarray) -> "scipy.sparse.csr_matrix":
        """CSR matrix with one row per (element, r) and two entries per row.

        ``elements`` splits into ``len(blocks)`` equal blocks.  In block b,
        row r of element e holds its vertex slots ``blocks[b][r]``, in that
        order, with the entries ``values[e, r, v]`` of an
        (n_elements, rows per element, dim + 1) array.
        """
        n_el = len(self.elements)
        data = np.empty((n_el, len(blocks[0]), 2))
        cols = np.empty(data.shape, dtype=self.elements.dtype)
        n_block = n_el // len(blocks)
        for b, slots in enumerate(blocks):
            rows = slice(b * n_block, (b + 1) * n_block)
            for r, pair in enumerate(slots):
                for k, v in enumerate(pair):
                    data[rows, r, k] = values[rows, r, v]
                    cols[rows, r, k] = self.elements[rows, v]
        return _two_entry_rows(data, cols, self.n_nodes)

    @cached_property
    def _point_assembly(self) -> "scipy.sparse.csr_matrix":
        """(W B)^T, W the quadrature weights: densities to nodal point forms."""
        return _weighted_transpose(self.qp_operator, self.qp_weights.ravel())

    @cached_property
    def _flux_assembly(self) -> "scipy.sparse.csr_matrix":
        """(M G)^T, M the element measures: element fluxes to nodal flux forms."""
        return _weighted_transpose(self.gradient_operator,
                                   np.repeat(self.el_measures, self.dimension))


def _triangle_table(table, cells: tuple, dtype=float) -> np.ndarray:
    """(2 * n_cells, 3, k) array with entry ``table[t][v][c]`` for triangle t of a cell.

    Each entry broadcasts to the cell grid shape ``cells``; rows run over
    the lower triangles of all cells and then the upper ones.
    """
    out = np.empty((len(table),) + cells + (3, len(table[0][0])), dtype=dtype)
    for t, vertices in enumerate(table):
        for v, components in enumerate(vertices):
            for c, entry in enumerate(components):
                out[t, ..., v, c] = entry
    return out.reshape(-1, 3, out.shape[-1])


def _edge_ends(grid: np.ndarray) -> list:
    """Values at the two ends of a rectangle's edges, from a per-node grid.

    ``grid`` holds node numbers or coordinates on leading axes (ny, nx).
    Horizontal edges come first, (ny, nx - 1) of them, then vertical ones,
    (ny - 1, nx), then the lower-left to upper-right diagonals,
    (ny - 1, nx - 1); each as a pair (lower-left end, upper-right end).
    """
    return [(grid[:, :-1], grid[:, 1:]), (grid[:-1], grid[1:]),
            (grid[:-1, :-1], grid[1:, 1:])]


def _two_entry_rows(data: np.ndarray, cols: np.ndarray, n_cols: int) -> "scipy.sparse.csr_matrix":
    """CSR matrix whose row r holds ``data`` entries 2r and 2r + 1 at ``cols`` 2r and 2r + 1."""
    import scipy.sparse as sp
    index = np.int32 if data.size <= np.iinfo(np.int32).max else np.int64
    return sp.csr_matrix(
        (data.ravel(), cols.ravel().astype(index, copy=False),
         np.arange(0, data.size + 1, 2, dtype=index)),
        shape=(data.size // 2, n_cols),
    )


def _weighted_transpose(op: "scipy.sparse.csr_matrix",
                        weights: np.ndarray) -> "scipy.sparse.csr_matrix":
    """(diag(weights) op)^T for a two-entry-per-row ``op``.

    Each entry is rounded once, weight times value, and the conversion's
    counting sort keeps every node's terms in ascending row order, as a
    sparse product with the diagonal matrix and the same conversion would.
    """
    import scipy.sparse as sp
    scaled = np.empty_like(op.data)
    for k in range(2):
        np.multiply(op.data[k::2], weights, out=scaled[k::2])
    return sp.csr_matrix((scaled, op.indices, op.indptr), shape=op.shape).T.tocsr()


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

    def require_mesh(self, mesh: Mesh, what: str = "field") -> None:
        # A uniform mesh is fixed by its bounds and node counts.
        if (self.mesh.bounds, self.mesh.resolution) != (mesh.bounds, mesh.resolution):
            raise InputError(f"{what} must live on the problem's mesh")

    def require_zero_boundary(self, what: str = "field") -> None:
        worst = float(np.max(np.abs(self.values[self.mesh.boundary_nodes])))
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
