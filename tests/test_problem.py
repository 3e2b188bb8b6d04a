"""Mesh construction, nodal fields, discrete norms, and problem assembly."""

import numpy as np
import pytest
import scipy.sparse as sp

from pfiber.errors import ConfigurationError, ContractViolation, InputError
from pfiber.problem import (
    CoefficientField,
    DiscreteField,
    Exponents,
    ProblemSpec,
    affine_coefficient,
    build_mesh,
    bump_coefficient,
    constant_coefficient,
    lr_norm,
    make_field,
    squared_norms,
)

ONE = constant_coefficient(1.0)


def model_spec(n=101, epsilon=1e-3, p=2.0, q=3.0, gamma=4.0):
    mesh = build_mesh((0.0, 1.0), n)
    return ProblemSpec(mesh, Exponents(p, q, gamma), epsilon, ONE, ONE)


# -- exponents ----------------------------------------------------------------


def test_exponent_ordering_enforced():
    Exponents(2.0, 3.0, 4.0)
    for bad in [(2.0, 2.0, 4.0), (3.0, 2.0, 4.0), (2.0, 4.0, 3.0), (1.0, 2.0, 3.0)]:
        with pytest.raises(InputError):
            Exponents(*bad)


def test_critical_exponent():
    ex = Exponents(2.0, 3.0, 4.0)
    assert ex.critical_exponent(1) == np.inf  # p >= N
    assert ex.critical_exponent(3) == pytest.approx(6.0, abs=1e-14)
    ex15 = Exponents(1.5, 2.0, 2.5)
    assert ex15.critical_exponent(2) == pytest.approx(6.0, abs=1e-14)


def test_subcriticality_check_in_2d():
    # gamma = 4 is critical for p = 4/3 in dimension 2: p* = pN/(N-p) = 4.
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (5, 5))
    with pytest.raises(InputError):
        ProblemSpec(mesh, Exponents(4.0 / 3.0, 2.0, 4.0), 1.0, ONE, ONE)


# -- build_mesh ---------------------------------------------------------------


def test_interval_mesh_nodes_and_boundary():
    """5 nodes on [0,1]: uniform partition with flagged endpoints."""
    mesh = build_mesh((0.0, 1.0), 5)
    assert mesh.dimension == 1
    np.testing.assert_allclose(mesh.nodes[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0],
                               rtol=0, atol=1e-15)
    assert mesh.boundary_nodes.tolist() == [0, 4]
    assert mesh.interior_nodes.tolist() == [1, 2, 3]


def test_rectangle_mesh_counts():
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (3, 3))
    assert mesh.n_nodes == 9
    assert len(mesh.boundary_nodes) == 8
    assert len(mesh.interior_nodes) == 1
    assert mesh.elements.shape == (8, 3)


def test_quadrature_weights_partition_unity():
    mesh = build_mesh((0.0, 1.0), 101)
    assert abs(mesh.qp_weights.sum() - 1.0) <= 1e-12


def test_quadrature_weights_cover_rectangle_measure():
    mesh = build_mesh(((0.0, 2.0), (0.0, 1.0)), (9, 5))
    assert abs(mesh.qp_weights.sum() - 2.0) <= 1e-12
    assert mesh.volume == pytest.approx(2.0, abs=1e-12)
    assert np.all(mesh.el_measures > 0)


def test_mesh_rejects_degenerate_input():
    with pytest.raises(ConfigurationError):
        build_mesh((1.0, 1.0), 5)
    with pytest.raises(ConfigurationError):
        build_mesh((0.0, 1.0), 2)
    with pytest.raises(ConfigurationError):
        build_mesh(((0.0, 1.0), (0.0, 1.0)), (3, 2))
    with pytest.raises(ConfigurationError):
        build_mesh(((0.0, 1.0), (1.0, 0.5)), (3, 3))


def test_interior_boundary_partition_covers_all_nodes():
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (7, 5))
    merged = np.union1d(mesh.boundary_nodes, mesh.interior_nodes)
    np.testing.assert_array_equal(merged, np.arange(mesh.n_nodes))


def higham_bound(count, magnitude):
    """Twice the summation bound (m + 3) * 2^-53 * sum |terms| of m terms
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, section
    4.2): two sums of the same terms in any order, each term rounded once,
    differ by at most this."""
    return 2.0 * (count + 3) * 2.0**-53 * magnitude


@pytest.mark.parametrize("domain, resolution", [
    ((0.0, 1.0), 57),
    (((0.0, 1.0), (0.0, 2.0)), (13, 9)),
    # Anisotropic cells, hx = 0.5 and hy = 0.025, both triangles per cell.
    (((-1.0, 2.0), (0.0, 0.25)), (7, 11)),
])
def test_sparse_kernels_against_gather_and_bincount(domain, resolution):
    """The mesh kernels against the einsum gather and bincount scatter.

    Gathers return exactly the einsum values: the cloud's values read per
    element are each element's own quadrature values.
    Assembly folds the quadrature weights and element measures into its
    operators and adds the terms in another order than the per-element
    bincount scatter, and in 2D one term per shared mid-edge point stands
    for two, so at node i the two may differ by ``higham_bound`` of the
    node's per-element term count m_i.
    """
    mesh = build_mesh(domain, resolution)
    rng = np.random.default_rng(31)
    n_el = mesh.elements.shape[0]
    n_qp = mesh.basis_at_qp.shape[0]
    flat = mesh.elements.ravel()

    def assert_within_bound(got, terms, per_element):
        oracle = np.bincount(flat, weights=terms.sum(axis=-1).ravel(),
                             minlength=mesh.n_nodes)
        magnitude = np.bincount(flat, weights=np.abs(terms).sum(axis=-1).ravel(),
                                minlength=mesh.n_nodes)
        count = per_element * np.bincount(flat, minlength=mesh.n_nodes)
        assert np.all(np.abs(got - oracle) <= higham_bound(count, magnitude))

    for _ in range(5):
        # Entries spread over twelve decades, so any reordering of a sum shows.
        nodal = rng.standard_normal(mesh.n_nodes) * 10.0 ** rng.uniform(-6, 6, mesh.n_nodes)
        gathered = nodal[mesh.elements]
        np.testing.assert_array_equal(
            mesh.per_element(mesh.values_at_qp(nodal)),
            np.einsum("ev,qv->eq", gathered, mesh.basis_at_qp))
        grads = mesh.gradients(nodal)
        np.testing.assert_array_equal(
            grads, np.einsum("ev,evd->ed", gathered, mesh.grad_basis))
        np.testing.assert_array_equal(
            squared_norms(grads), np.einsum("ed,ed->e", grads, grads))
        density = rng.standard_normal(mesh.qp_weights.shape) * 10.0 ** rng.uniform(
            -6, 6, mesh.qp_weights.shape)
        # terms[e, v, q]: the quadrature point q's term for vertex v.
        terms = np.einsum("eq,qv->evq",
                          mesh.element_weights * mesh.per_element(density),
                          mesh.basis_at_qp)
        assert_within_bound(mesh.assemble_point_term(density), terms, n_qp)
        flux = rng.standard_normal((n_el, mesh.dimension)) * 10.0 ** rng.uniform(
            -6, 6, (n_el, mesh.dimension))
        terms = mesh.el_measures[:, None, None] * np.einsum("ed,evd->evd", flux,
                                                            mesh.grad_basis)
        assert_within_bound(mesh.assemble_flux_term(flux), terms, mesh.dimension)


@pytest.mark.parametrize("domain, resolution", [
    (((0.0, 1.0), (0.0, 1.0)), (17, 17)),
    (((0.0, 2.0), (-1.0, 0.3)), (21, 13)),
    (((1000.0, 1001.0), (0.0, 1.0)), (21, 11)),
], ids=["unit_17x17", "21x13", "shifted_21x11"])
def test_rectangle_cloud_merges_the_per_triangle_mid_edge_points(domain, resolution):
    """The 2D cloud against the mid-edge rule built here triangle by triangle.

    The oracle takes each triangle's vertices from ``elements`` and the node
    coordinates, its edge midpoints and the weights |T|/3.  The cloud must
    hold one point per edge, with no two equal, and ``element_points`` must
    give each triangle its own three midpoints.  Each cloud weight is the sum
    of its triangles' weights, and the weights sum to the area.  Gathers
    match the per-triangle einsum exactly; integrals and point assembly
    match the per-triangle sums within ``higham_bound``.
    """
    mesh = build_mesh(domain, resolution)
    nx, ny = resolution
    (x0, x1), (y0, y1) = domain
    n_points = ny * (nx - 1) + (ny - 1) * nx + (ny - 1) * (nx - 1)
    assert mesh.qp_points.shape == (n_points, 2)
    assert mesh.qp_weights.shape == (n_points,)
    assert len(np.unique(mesh.qp_points, axis=0)) == n_points

    vertices = mesh.nodes[mesh.elements]
    edges = [(0, 1), (1, 2), (0, 2)]
    midpoints = np.stack([0.5 * (vertices[:, i] + vertices[:, j]) for i, j in edges], axis=1)
    np.testing.assert_array_equal(mesh.qp_points[mesh.element_points], midpoints)
    (ax, ay), (bx, by) = (vertices[:, 1] - vertices[:, 0]).T, (vertices[:, 2] - vertices[:, 0]).T
    weights = np.repeat((0.5 * np.abs(ax * by - bx * ay) / 3.0)[:, None], 3, axis=1)
    points = mesh.element_points.ravel()
    assert np.bincount(points, minlength=n_points).max() == 2
    np.testing.assert_allclose(
        mesh.qp_weights, np.bincount(points, weights=weights.ravel(), minlength=n_points),
        rtol=4 * 2.0**-53, atol=0.0)
    area = (x1 - x0) * (y1 - y0)
    assert abs(mesh.qp_weights.sum() - area) <= higham_bound(n_points, area)

    rng = np.random.default_rng(5)
    flat = mesh.elements.ravel()
    for _ in range(5):
        nodal = rng.standard_normal(mesh.n_nodes) * 10.0 ** rng.uniform(-6, 6, mesh.n_nodes)
        per_triangle = np.einsum("ev,qv->eq", nodal[mesh.elements], mesh.basis_at_qp)
        np.testing.assert_array_equal(mesh.values_at_qp(nodal)[mesh.element_points],
                                      per_triangle)
        density = rng.standard_normal(n_points) * 10.0 ** rng.uniform(-6, 6, n_points)
        terms = weights * density[mesh.element_points]
        assert (abs(mesh.integrate(density) - terms.sum())
                <= higham_bound(terms.size, np.abs(terms).sum()))
        # node_terms[e, v, q]: the point q's term for the triangle's vertex v.
        node_terms = np.einsum("eq,qv->evq", terms, mesh.basis_at_qp)
        oracle = np.bincount(flat, weights=node_terms.sum(axis=-1).ravel(),
                             minlength=mesh.n_nodes)
        magnitude = np.bincount(flat, weights=np.abs(node_terms).sum(axis=-1).ravel(),
                                minlength=mesh.n_nodes)
        count = 3 * np.bincount(flat, minlength=mesh.n_nodes)
        assert np.all(np.abs(mesh.assemble_point_term(density) - oracle)
                      <= higham_bound(count, magnitude))


def _generic_rows(data, cols, n_cols):
    """CSR with one row per leading index: the nonzero entries of each row in order."""
    k = data.shape[-1]
    values = np.asarray(data, dtype=float).reshape(-1, k)
    keep = values != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((values[keep], np.asarray(cols).reshape(-1, k)[keep], indptr),
                         shape=(values.shape[0], n_cols))


@pytest.mark.parametrize("domain, resolution", [
    ((0.0, 1.0), 11),
    ((-1.0, 2.5), 41),
    (((0.0, 1.0), (0.0, 1.0)), (17, 17)),
    (((0.0, 2.0), (-1.0, 0.3)), (21, 13)),
    (((0.0, 1.0), (0.0, 1.0)), (3, 3)),
])
def test_operators_match_the_generic_construction_bit_for_bit(domain, resolution):
    """The grid-built operators against masked gather rows and sparse products.

    The generic construction drops the zero basis values and gradient
    components from broadcast element arrays, keeps the first of the
    element rows that ``Mesh.per_element`` sends to each point of the cloud
    (in 2D, a mid-edge point shared by two triangles has two) with its
    columns in ascending order, weights by ``diags`` products and
    transposes by one conversion.  Every stored array must agree exactly,
    bit patterns of the values included.
    """
    mesh = build_mesh(domain, resolution)
    n_el, n_v = mesh.elements.shape
    n_qp, dim = mesh.basis_at_qp.shape[0], mesh.dimension
    per_element = _generic_rows(np.broadcast_to(mesh.basis_at_qp, (n_el, n_qp, n_v)),
                                np.broadcast_to(mesh.elements[:, None, :], (n_el, n_qp, n_v)),
                                mesh.n_nodes)
    cloud = np.arange(mesh.qp_weights.size).reshape(mesh.qp_weights.shape)
    element_points = mesh.per_element(cloud).ravel()
    points, first = np.unique(element_points, return_index=True)
    np.testing.assert_array_equal(points, np.arange(mesh.qp_weights.size))
    qp = per_element[first].sorted_indices()
    grad = _generic_rows(mesh.grad_basis.transpose(0, 2, 1),
                         np.broadcast_to(mesh.elements[:, None, :], (n_el, dim, n_v)),
                         mesh.n_nodes)
    expected = {
        "qp_operator": qp,
        "gradient_operator": grad,
        "_point_assembly": (sp.diags(mesh.qp_weights.ravel()) @ qp).T.tocsr(),
        "_flux_assembly": (sp.diags(np.repeat(mesh.el_measures, dim)) @ grad).T.tocsr(),
    }
    for name, want in expected.items():
        got = getattr(mesh, name)
        assert got.shape == want.shape, name
        np.testing.assert_array_equal(got.indptr, want.indptr, err_msg=name)
        np.testing.assert_array_equal(got.indices, want.indices, err_msg=name)
        np.testing.assert_array_equal(got.data.view(np.int64), want.data.view(np.int64),
                                      err_msg=name)
    # Every element row of a shared point is the point's row.
    np.testing.assert_array_equal(
        mesh.qp_operator[element_points].toarray(),
        per_element.toarray())
    assert np.all(np.diff(mesh.qp_operator.indptr) == 2)
    assert np.all(np.diff(mesh.gradient_operator.indptr) == 2)
    # Vertex 0's gradient has sign bits set in every component, vertex 1's only
    # in y and vertex 2's only in x; the zero components are -0.0.
    pattern = [[True], [False]] if dim == 1 else [[True, True], [False, True], [True, False]]
    np.testing.assert_array_equal(np.signbit(mesh.grad_basis),
                                  np.broadcast_to(pattern, mesh.grad_basis.shape))


def test_translated_rectangle_keeps_its_boundary():
    """The boundary is the grid's edge, wherever the rectangle sits."""
    unit = build_mesh(((0.0, 1.0), (0.0, 1.0)), (101, 21))
    grid = np.arange(unit.n_nodes).reshape(21, 101)
    edge = np.unique(np.concatenate([grid[0], grid[-1], grid[:, 0], grid[:, -1]]))
    np.testing.assert_array_equal(unit.boundary_nodes, edge)
    for domain in (((1000.0, 1001.0), (0.0, 1.0)), ((-7.5, -6.5), (3.0, 4.0)),
                   ((0.0, 1.0), (1e6, 1e6 + 1.0))):
        mesh = build_mesh(domain, (101, 21))
        np.testing.assert_array_equal(mesh.boundary_nodes, edge)
        np.testing.assert_array_equal(mesh.interior_nodes, unit.interior_nodes)


# -- make_field ---------------------------------------------------------------


def test_make_field_constant_no_boundary_zeroing():
    mesh = build_mesh((0.0, 1.0), 5)
    u = make_field(mesh, lambda x: np.ones_like(x), zero_boundary=False)
    np.testing.assert_array_equal(u.values, np.ones(5))


def test_make_field_constant_zeroed():
    mesh = build_mesh((0.0, 1.0), 5)
    u = make_field(mesh, lambda x: np.ones_like(x), zero_boundary=True)
    np.testing.assert_array_equal(u.values, [0.0, 1.0, 1.0, 1.0, 0.0])


def test_make_field_parabola():
    mesh = build_mesh((0.0, 1.0), 5)
    u = make_field(mesh, lambda x: x * (1.0 - x))
    np.testing.assert_allclose(u.values, [0.0, 0.1875, 0.25, 0.1875, 0.0],
                               rtol=0, atol=1e-15)


def test_make_field_rejects_non_finite():
    mesh = build_mesh((0.0, 1.0), 5)
    with pytest.raises(InputError):
        make_field(mesh, lambda x: np.where(x > 0, x, np.inf), zero_boundary=False)


def test_field_shape_and_finiteness_validated():
    mesh = build_mesh((0.0, 1.0), 5)
    with pytest.raises(InputError):
        DiscreteField(mesh, np.zeros(4))
    with pytest.raises(InputError):
        DiscreteField(mesh, np.array([0.0, np.nan, 0.0, 0.0, 0.0]))


def test_field_is_immutable():
    mesh = build_mesh((0.0, 1.0), 5)
    u = make_field(mesh, lambda x: x, zero_boundary=False)
    with pytest.raises(AttributeError):
        u.values = np.zeros(5)
    with pytest.raises(ValueError):
        u.values[0] = 1.0


def test_require_zero_boundary():
    mesh = build_mesh((0.0, 1.0), 5)
    ok = make_field(mesh, lambda x: x * (1 - x))
    ok.require_zero_boundary()
    bad = make_field(mesh, lambda x: np.ones_like(x), zero_boundary=False)
    with pytest.raises(ContractViolation):
        bad.require_zero_boundary()


# -- lr_norm ------------------------------------------------------------------


def test_lr_norm_constant():
    mesh = build_mesh((0.0, 1.0), 11)
    u = make_field(mesh, lambda x: 2.0 * np.ones_like(x), zero_boundary=False)
    assert lr_norm(u, 2.0) == pytest.approx(2.0, abs=1e-13)


def test_lr_norm_zero():
    mesh = build_mesh((0.0, 1.0), 11)
    z = make_field(mesh, lambda x: np.zeros_like(x))
    for r in (1.0, 2.0, 3.5):
        assert lr_norm(z, r) == 0.0


def test_lr_norm_linear_profile():
    """The interpolant of x is exact, so the L2 norm hits 1/sqrt(3)."""
    mesh = build_mesh((0.0, 1.0), 41)
    u = make_field(mesh, lambda x: x, zero_boundary=False)
    # 3-point Gauss integrates x^2 exactly per element.
    assert abs(lr_norm(u, 2.0) - 1.0 / np.sqrt(3.0)) <= 1e-12


def test_lr_norm_rejects_r_below_one():
    mesh = build_mesh((0.0, 1.0), 11)
    u = make_field(mesh, lambda x: x, zero_boundary=False)
    with pytest.raises(InputError):
        lr_norm(u, 0.5)


def test_lr_norm_absolute_homogeneity():
    rng = np.random.default_rng(7)
    mesh = build_mesh((0.0, 1.0), 33)
    vals = rng.normal(size=mesh.n_nodes)
    u = DiscreteField(mesh, vals)
    for t in (-3.0, 0.5, 17.0):
        for r in (1.0, 2.0, 4.0):
            base = lr_norm(u, r)
            assert abs(lr_norm(u.scaled(t), r) - abs(t) * base) <= 1e-12 * base


def test_lr_norm_refinement_order_two():
    """Quadrature+interpolation error for sin(pi x) drops by >= 3.5x per halving."""
    exact = 1.0 / np.sqrt(2.0)
    errs = []
    for n in (11, 21, 41):
        mesh = build_mesh((0.0, 1.0), n)
        u = make_field(mesh, lambda x: np.sin(np.pi * x))
        errs.append(abs(lr_norm(u, 2.0) - exact))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_lr_norm_2d_constant():
    mesh = build_mesh(((0.0, 2.0), (0.0, 1.0)), (9, 5))
    u = make_field(mesh, lambda x, y: np.ones_like(x), zero_boundary=False)
    # ||1||_3 = measure^(1/3) on a 2x1 rectangle
    assert lr_norm(u, 3.0) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-13)


# -- coefficients -------------------------------------------------------------


def test_constant_coefficient_bounds():
    c = constant_coefficient(2.5)
    assert c.lower == c.upper == 2.5
    with pytest.raises(ConfigurationError):
        constant_coefficient(-1.0)


def test_affine_coefficient_bounds_from_corners():
    c = affine_coefficient(1.0, [0.5], (0.0, 2.0))
    assert c.lower == pytest.approx(1.0)
    assert c.upper == pytest.approx(2.0)
    c2 = affine_coefficient(1.0, [1.0, -1.0], ((0.0, 1.0), (0.0, 1.0)))
    assert c2.lower == pytest.approx(0.0)
    assert c2.upper == pytest.approx(2.0)
    with pytest.raises(ConfigurationError):
        affine_coefficient(1.0, [1.0], ((0.0, 1.0), (0.0, 1.0)))


def test_bump_coefficient_bounds():
    c = bump_coefficient(1.0, 0.5, (0.0, 1.0))
    assert c.lower == 1.0
    assert c.upper == 1.5
    with pytest.raises(ConfigurationError):
        bump_coefficient(1.0, -0.5, (0.0, 1.0))


def test_invalid_declared_bounds_rejected():
    with pytest.raises(ConfigurationError):
        CoefficientField(lambda x: x, 2.0, 1.0)
    with pytest.raises(ConfigurationError):
        CoefficientField(lambda x: x, 0.0, np.inf)


def test_coefficient_sampling_stays_in_declared_range():
    """Quadrature and nodal samples never exit [lower, upper]."""
    mesh = build_mesh((0.0, 1.0), 67)
    for coeff in (
        constant_coefficient(2.0),
        affine_coefficient(1.0, [0.5], (0.0, 1.0)),
        bump_coefficient(1.0, 0.25, (0.0, 1.0)),
    ):
        spec = ProblemSpec(mesh, Exponents(2.0, 3.0, 4.0), 1.0, coeff, coeff)
        for samples in (spec.a_qp, spec.a_nodes):
            assert samples.min() >= coeff.lower - 1e-12
            assert samples.max() <= coeff.upper + 1e-12


def test_coefficient_sampling_detects_bound_violation():
    # Declared range [0.5, 0.9] but the evaluator reaches 1 at x = 0.5.
    lying = CoefficientField(lambda x: 0.5 + 0.5 * np.sin(np.pi * x), 0.5, 0.9)
    mesh = build_mesh((0.0, 1.0), 21)
    with pytest.raises(ConfigurationError):
        ProblemSpec(mesh, Exponents(2.0, 3.0, 4.0), 1.0, lying, ONE)


# -- ProblemSpec --------------------------------------------------------------


def test_spec_validation():
    mesh = build_mesh((0.0, 1.0), 5)
    ex = Exponents(2.0, 3.0, 4.0)
    with pytest.raises(ConfigurationError):
        ProblemSpec(mesh, ex, 0.0, ONE, ONE)
    with pytest.raises(ConfigurationError):
        ProblemSpec(mesh, ex, -1.0, ONE, ONE)
    # b needs a strictly positive lower bound; a may touch zero.
    zero = constant_coefficient(0.0)
    with pytest.raises(ConfigurationError):
        ProblemSpec(mesh, ex, 1.0, ONE, zero)
    ProblemSpec(mesh, ex, 1.0, zero, ONE)


def test_with_epsilon_shares_samples():
    spec = model_spec(n=31)
    moved = spec.with_epsilon(0.5)
    assert moved.epsilon == 0.5
    assert moved.a_qp is spec.a_qp
    assert moved.mesh is spec.mesh


def test_spec_is_immutable():
    spec = model_spec(n=11)
    with pytest.raises(AttributeError):
        spec.epsilon = 2.0
