"""Mesh construction, nodal fields, discrete norms, and problem assembly."""

import numpy as np
import pytest

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


@pytest.mark.parametrize("domain, resolution", [
    ((0.0, 1.0), 57),
    (((0.0, 1.0), (0.0, 2.0)), (13, 9)),
    # Anisotropic cells, hx = 0.5 and hy = 0.025, both triangles per cell.
    (((-1.0, 2.0), (0.0, 0.25)), (7, 11)),
])
def test_sparse_kernels_against_gather_and_bincount(domain, resolution):
    """The mesh kernels against the einsum gather and bincount scatter.

    Gathers return exactly the einsum values.  Assembly folds the quadrature
    weights and element measures into its operators and adds the terms in
    another order than the bincount scatter, so at node i the two may differ
    by twice the summation bound (m_i + 3) * 2^-53 * sum |terms|, m_i being
    the node's term count (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 4.2).
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
        bound = 2.0 * (count + 3) * 2.0**-53 * magnitude
        assert np.all(np.abs(got - oracle) <= bound)

    for _ in range(5):
        # Entries spread over twelve decades, so any reordering of a sum shows.
        nodal = rng.standard_normal(mesh.n_nodes) * 10.0 ** rng.uniform(-6, 6, mesh.n_nodes)
        gathered = nodal[mesh.elements]
        np.testing.assert_array_equal(
            mesh.values_at_qp(nodal),
            np.einsum("ev,qv->eq", gathered, mesh.basis_at_qp))
        grads = mesh.gradients(nodal)
        np.testing.assert_array_equal(
            grads, np.einsum("ev,evd->ed", gathered, mesh.grad_basis))
        np.testing.assert_array_equal(
            squared_norms(grads), np.einsum("ed,ed->e", grads, grads))
        density = rng.standard_normal(mesh.qp_weights.shape) * 10.0 ** rng.uniform(
            -6, 6, mesh.qp_weights.shape)
        # terms[e, v, q]: the quadrature point q's term for vertex v.
        terms = np.einsum("eq,qv->evq", mesh.qp_weights * density, mesh.basis_at_qp)
        assert_within_bound(mesh.assemble_point_term(density), terms, n_qp)
        flux = rng.standard_normal((n_el, mesh.dimension)) * 10.0 ** rng.uniform(
            -6, 6, (n_el, mesh.dimension))
        terms = mesh.el_measures[:, None, None] * np.einsum("ed,evd->evd", flux,
                                                            mesh.grad_basis)
        assert_within_bound(mesh.assemble_flux_term(flux), terms, mesh.dimension)


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
