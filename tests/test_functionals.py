"""Energy evaluation, weak residual, and the limit well density."""

import numpy as np
import pytest

from pfiber.errors import ContractViolation, InputError
from pfiber.functionals import (
    EnergyComponents,
    J_functional,
    energy_components,
    membership_tolerance,
    phi,
    phi_plus,
    w1p_norm,
    weak_residual,
    weak_residual_plus,
)
from pfiber.problem import (
    DiscreteField,
    Exponents,
    ProblemSpec,
    affine_coefficient,
    build_mesh,
    constant_coefficient,
    make_field,
)

ONE = constant_coefficient(1.0)


def model_spec(n=101, epsilon=1.0, p=2.0, q=3.0, gamma=4.0):
    mesh = build_mesh((0.0, 1.0), n)
    return ProblemSpec(mesh, Exponents(p, q, gamma), epsilon, ONE, ONE)


def random_zero_trace(spec, rng, lo=-1.0, hi=1.0):
    vals = rng.uniform(lo, hi, spec.mesh.n_nodes)
    vals[spec.mesh.boundary_nodes] = 0.0
    return DiscreteField(spec.mesh, vals)


def phi_from_components(comps, eps, ex):
    return (eps / ex.p) * comps.dirichlet - comps.gain / ex.q + comps.loss / ex.gamma


# -- energy_components --------------------------------------------------------


def test_components_of_zero_field():
    spec = model_spec(n=11)
    z = make_field(spec.mesh, lambda x: np.zeros_like(x))
    comps = energy_components(z, spec)
    assert (comps.dirichlet, comps.gain, comps.loss) == (0.0, 0.0, 0.0)


def test_components_of_sine_interpolant():
    """T, A, B of sin(pi x) against the exact sine-power integrals."""
    spec = model_spec(n=401)
    u = make_field(spec.mesh, lambda x: np.sin(np.pi * x))
    comps = energy_components(u, spec)
    assert abs(comps.dirichlet - np.pi**2 / 2.0) <= 1e-3
    assert abs(comps.gain - 4.0 / (3.0 * np.pi)) <= 1e-3
    assert abs(comps.loss - 3.0 / 8.0) <= 1e-3


def test_components_homogeneity():
    spec = model_spec(n=41, p=2.0, q=3.0, gamma=4.0)
    rng = np.random.default_rng(11)
    u = random_zero_trace(spec, rng)
    base = energy_components(u, spec)
    doubled = energy_components(u.scaled(2.0), spec)
    assert abs(doubled.dirichlet - 2.0**2 * base.dirichlet) <= 1e-12 * base.dirichlet
    assert abs(doubled.gain - 2.0**3 * base.gain) <= 1e-12 * base.gain
    assert abs(doubled.loss - 2.0**4 * base.loss) <= 1e-12 * base.loss


def test_components_reject_nonzero_boundary():
    spec = model_spec(n=11)
    bad = make_field(spec.mesh, lambda x: np.ones_like(x), zero_boundary=False)
    with pytest.raises(ContractViolation):
        energy_components(bad, spec)
    # The seminorm takes non-trace fields.
    assert w1p_norm(bad, spec) == 0.0


def test_loss_dominates_gamma_norm():
    # B >= sigma_b * ||u||_gamma^gamma with sigma_b = 1 here (equality).
    from pfiber.problem import lr_norm

    spec = model_spec(n=61)
    rng = np.random.default_rng(12)
    u = random_zero_trace(spec, rng)
    comps = energy_components(u, spec)
    assert comps.loss >= spec.b.lower * lr_norm(u, 4.0) ** 4.0 - 1e-12


# -- phi ----------------------------------------------------------------------


def test_phi_zero_field():
    spec = model_spec(n=11)
    z = make_field(spec.mesh, lambda x: np.zeros_like(x))
    assert phi(z, spec) == 0.0


def test_phi_recomposition_identity():
    spec = model_spec(n=81, epsilon=0.37)
    rng = np.random.default_rng(13)
    for _ in range(20):
        u = random_zero_trace(spec, rng, -2.0, 2.0)
        direct = phi(u, spec)
        recomposed = phi_from_components(energy_components(u, spec),
                                         spec.epsilon, spec.exponents)
        assert abs(direct - recomposed) <= 1e-14 * (1.0 + abs(direct))


def test_phi_component_arithmetic():
    # (T, A, B) = (1, 2, 1) at eps=1, (p,q,gamma)=(2,3,4): 1/2 - 2/3 + 1/4.
    comps = EnergyComponents(1.0, 2.0, 1.0)
    value = phi_from_components(comps, 1.0, Exponents(2.0, 3.0, 4.0))
    assert value == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_phi_is_even():
    spec = model_spec(n=51)
    rng = np.random.default_rng(14)
    u = random_zero_trace(spec, rng)
    assert phi(u, spec) == phi(u.scaled(-1.0), spec)


def test_phi_coercive_along_rays():
    """Energy blows up along every fixed ray: the loss term wins eventually."""
    spec = model_spec(n=51, epsilon=1e-3)
    rng = np.random.default_rng(15)
    u = random_zero_trace(spec, rng)
    base = phi(u, spec)
    prev = base
    for k in range(4, 10):
        cur = phi(u.scaled(2.0**k), spec)
        assert cur > base
        assert cur > prev
        prev = cur


# -- phi_plus -----------------------------------------------------------------


def test_phi_plus_on_nonnegative_field_equals_phi():
    spec = model_spec(n=41)
    u = make_field(spec.mesh, lambda x: x * (1.0 - x))
    assert phi_plus(u, spec) == pytest.approx(phi(u, spec), rel=1e-14)


def test_phi_plus_on_nonpositive_field_is_pure_gradient():
    spec = model_spec(n=41, epsilon=0.7)
    u = make_field(spec.mesh, lambda x: -x * (1.0 - x))
    comps = energy_components(u, spec)
    expected = (spec.epsilon / spec.exponents.p) * comps.dirichlet
    assert expected > 0.0
    assert phi_plus(u, spec) == pytest.approx(expected, rel=1e-14)


def test_phi_plus_mixed_sign_matches_direct_composition():
    spec = model_spec(n=61, epsilon=0.3)
    rng = np.random.default_rng(16)
    u = random_zero_trace(spec, rng, -1.0, 1.0)
    plus = DiscreteField(u.mesh, np.maximum(u.values, 0.0))
    full = energy_components(u, spec)
    pos = energy_components(plus, spec)
    ex = spec.exponents
    expected = ((spec.epsilon / ex.p) * full.dirichlet
                - pos.gain / ex.q + pos.loss / ex.gamma)
    assert phi_plus(u, spec) == pytest.approx(expected, rel=1e-14)


# -- weak_residual ------------------------------------------------------------


def test_weak_residual_zero_field():
    spec = model_spec(n=21)
    z = make_field(spec.mesh, lambda x: np.zeros_like(x))
    np.testing.assert_array_equal(weak_residual(z, spec).values, np.zeros(21))


def test_weak_residual_boundary_entries_are_zero():
    spec = model_spec(n=31)
    rng = np.random.default_rng(17)
    u = random_zero_trace(spec, rng)
    r = weak_residual(u, spec)
    assert r.values[0] == 0.0 and r.values[-1] == 0.0


def fd_directional(energy, u, v, h=1e-6):
    up = DiscreteField(u.mesh, u.values + h * v.values)
    dn = DiscreteField(u.mesh, u.values - h * v.values)
    return (energy(up) - energy(dn)) / (2.0 * h)


def test_gradient_matches_finite_differences_p2():
    spec = model_spec(n=101, epsilon=0.5)
    rng = np.random.default_rng(18)
    for _ in range(20):
        u = random_zero_trace(spec, rng)
        v = random_zero_trace(spec, rng)
        pairing = float(np.dot(weak_residual(u, spec).values, v.values))
        fd = fd_directional(lambda w: phi(w, spec), u, v)
        assert abs(pairing - fd) <= 1e-6 * (1.0 + abs(fd))


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
def test_gradient_matches_finite_differences_general_p(p):
    """For p != 2 the residual pairs with central differences of phi."""
    spec = model_spec(n=101, epsilon=0.5, p=p, q=3.5, gamma=4.5)
    rng = np.random.default_rng(19)
    for _ in range(20):
        u = random_zero_trace(spec, rng)
        v = random_zero_trace(spec, rng)
        pairing = float(np.dot(weak_residual(u, spec).values, v.values))
        fd = fd_directional(lambda w: phi(w, spec), u, v)
        assert abs(pairing - fd) <= 1e-5 * (1.0 + abs(fd))


def test_nehari_pairing_identity():
    """<residual(u), u> recovers eps*T - A + B as an algebraic identity."""
    spec = model_spec(n=71, epsilon=0.01)
    rng = np.random.default_rng(20)
    for _ in range(50):
        u = random_zero_trace(spec, rng, -2.0, 2.0)
        comps = energy_components(u, spec)
        lhs = float(np.dot(weak_residual(u, spec).values, u.values))
        rhs = spec.epsilon * comps.dirichlet - comps.gain + comps.loss
        scale = spec.epsilon * comps.dirichlet + comps.gain + comps.loss
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_weak_residual_flat_regions_p_below_two():
    # Zero-gradient elements must not poison the singular factor |g|^(p-2).
    spec = model_spec(n=21, p=1.5, q=2.0, gamma=3.0)
    vals = np.zeros(21)
    vals[5:16] = 1.0  # plateau: interior elements have zero gradient
    u = DiscreteField(spec.mesh, vals)
    r = weak_residual(u, spec)
    assert np.all(np.isfinite(r.values))


INTERVAL, SQUARE = (0.0, 1.0), ((0.0, 1.0), (0.0, 1.0))

# Relative bounds of the interior matrix and of the Newton step against
# central differences, per field; see test_jacobian_matches_central_differences.
JACOBIAN_BOUNDS = {"smooth": (1e-7, 2e-7), "sign_changing": (5e-7, 2e-7), "flat": (2e-5, 2e-3)}


def interior_matrix(mesh, blocks):
    """The interior Jacobian summed entry by entry from the element matrices."""
    position = {node: k for k, node in enumerate(mesh.interior_nodes)}
    jac = np.zeros((len(position),) * 2)
    for element, block in zip(mesh.elements, blocks):
        for a, i in enumerate(element):
            for b, j in enumerate(element):
                if i in position and j in position:
                    jac[position[i], position[j]] += block[a, b]
    return jac


@pytest.mark.parametrize(("domain", "resolution", "exponents", "field"), [
    *[pytest.param(INTERVAL, 41, (p, p + 1.0, p + 2.0), "smooth", id=f"domain0-41-{p}")
      for p in (1.5, 2.0, 3.0)],
    *[pytest.param(SQUARE, (9, 8), (p, p + 1.0, p + 2.0), "smooth",
                   id=f"domain1-resolution1-{p}") for p in (1.5, 2.0, 3.0)],
    *[pytest.param(INTERVAL, 101, (p, p + 1.0, p + 2.0), "sign_changing",
                   id=f"sign_changing-{p}") for p in (1.5, 2.0, 3.0)],
    pytest.param(INTERVAL, 101, (3.0, 4.0, 5.0), "flat", id="p3_flat"),
    pytest.param(SQUARE, (9, 8), (1.2, 1.5, 1.8), "smooth", id="square-p1.2-q1.5-gamma1.8"),
])
def test_jacobian_matches_central_differences(domain, resolution, exponents, field):
    """The interior Jacobian, summed here from _jacobian_blocks, against central
    differences of weak_residual; and the Newton step x = J^-1 r, against
    central differences of the residual along x.

    eps = 1e-2 and a = 1 + x/2 (+ y/2).  The smooth fields have no zero
    gradient on an element with an interior vertex, so |g|^(p-2) is smooth
    wherever the interior Jacobian sees it (an element with only boundary
    vertices, as at two corners of the square, carries g = 0).  The
    sign-changing field is sin(3 pi x)(1 + 0.3 x); ``flat`` holds it
    constant on 20 nodes, where the p = 3 block is 0.  On the square with
    q, gamma < 2, f'(0) is inf - inf at every boundary mid-edge point,
    which no interior entry may see.  Measured at a step of 1e-6 on the
    matrix: at most 8.8e-9 of max |J| on smooth fields, 7.1e-8 on the
    sign-changing one (f'' is singular where v = 0), and 4.1e-6 on the flat
    one, where the differences of |g| g across g = 0 are off by O(h).  On
    the step, at 1e-5 of max |u|: at most 2.3e-8 of max |r|, and 7.4e-4 on
    the flat field.
    """
    from pfiber.functionals import _evaluate, _jacobian_blocks
    from pfiber.solver import _newton_step

    mesh = build_mesh(domain, resolution)
    dim = mesh.dimension
    spec = ProblemSpec(mesh, Exponents(*exponents), 1e-2,
                       affine_coefficient(1.0, [0.5] * dim, domain), ONE)
    x = mesh.nodes[:, 0]
    if dim == 2:
        y = mesh.nodes[:, 1]
        u = np.sin(np.pi * x) * np.sin(np.pi * y) * (1.0 + 0.3 * x + 0.1 * y)
    elif field == "smooth":
        u = np.sin(np.pi * x) * (1.0 + 0.3 * x) + 0.2 * x * (1.0 - x)
    else:
        u = np.sin(3.0 * np.pi * x) * (1.0 + 0.3 * x)
        if field == "flat":
            u[40:60] = u[40]
    u[mesh.boundary_nodes] = 0.0
    seen = np.isin(mesh.elements, mesh.interior_nodes).any(axis=1)
    flat_elements = np.linalg.norm(mesh.gradients(u), axis=1)[seen] == 0.0
    assert np.count_nonzero(flat_elements) == (19 if field == "flat" else 0)
    matrix_bound, step_bound = JACOBIAN_BOUNDS[field]
    interior = mesh.interior_nodes

    def residual(values):
        return weak_residual(DiscreteField(mesh, values), spec).values[interior]

    state = _evaluate(u, spec)[1]
    jac = interior_matrix(mesh, _jacobian_blocks(state, spec))
    h = 1e-6
    fd = np.empty_like(jac)
    for k, i in enumerate(interior):
        step = np.zeros(mesh.n_nodes)
        step[i] = h
        fd[:, k] = (residual(u + step) - residual(u - step)) / (2.0 * h)
    assert np.max(np.abs(jac - fd)) <= matrix_bound * np.max(np.abs(jac))

    rhs = residual(u)
    direction = np.zeros(mesh.n_nodes)
    direction[interior] = _newton_step(state, rhs.copy(), spec)
    t = 1e-5 * np.max(np.abs(u)) / np.max(np.abs(direction))
    slope = (residual(u + t * direction) - residual(u - t * direction)) / (2.0 * t)
    assert np.max(np.abs(slope - rhs)) <= step_bound * np.max(np.abs(rhs))


def test_weak_residual_plus_on_signed_fields():
    """Truncated residual: full residual on u >= 0, flux only on u <= 0."""
    spec = model_spec(n=41)
    rng = np.random.default_rng(21)
    nonneg = random_zero_trace(spec, rng, 0.0, 2.0)
    np.testing.assert_array_equal(weak_residual_plus(nonneg, spec).values,
                                  weak_residual(nonneg, spec).values)
    neg = nonneg.scaled(-1.0)
    from pfiber.functionals import derivative_forms

    flux, _, _ = derivative_forms(neg, spec)
    np.testing.assert_allclose(weak_residual_plus(neg, spec).values,
                               spec.epsilon * flux, rtol=0, atol=1e-15)
    # On a strictly negative field the truncated energy is locally smooth.
    v = random_zero_trace(spec, rng)
    pairing = float(np.dot(weak_residual_plus(neg, spec).values, v.values))
    fd = fd_directional(lambda w: phi_plus(w, spec), neg, v)
    assert abs(pairing - fd) <= 1e-6 * (1.0 + abs(fd))


# -- truncated energy against a P1 oracle -------------------------------------


def p1_plus_energy(mesh, values, eps, ex, a, b):
    """phi_plus by per-element P1 quadrature, written out in plain numpy.

    Intervals use 3-point Gauss, triangles the mid-edge rule; the positive
    part is taken at the nodes, then interpolated.  ``a`` and ``b`` are the
    coefficient formulas, evaluated at the quadrature points built here.
    """
    verts = mesh.nodes[mesh.elements]                 # (n_el, dim + 1, dim)
    u = values[mesh.elements]
    plus = np.maximum(u, 0.0)
    if mesh.dimension == 1:
        x0, x1 = verts[:, 0, 0], verts[:, 1, 0]
        size = x1 - x0
        grad_sq = ((u[:, 1] - u[:, 0]) / size) ** 2
        nodes = 0.5 + 0.5 * np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
        weights = np.array([5.0, 8.0, 5.0]) / 18.0
        pts = (x0[:, None] + size[:, None] * nodes,)
        vals = plus[:, :1] * (1.0 - nodes) + plus[:, 1:] * nodes
        w = size[:, None] * weights
    else:
        e1, e2 = verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        size = 0.5 * np.abs(det)
        # Gradient from the two edge differences: J^T g = (du1, du2).
        du1, du2 = u[:, 1] - u[:, 0], u[:, 2] - u[:, 0]
        gx = (e2[:, 1] * du1 - e1[:, 1] * du2) / det
        gy = (-e2[:, 0] * du1 + e1[:, 0] * du2) / det
        grad_sq = gx**2 + gy**2
        pairs = [(0, 1), (1, 2), (0, 2)]
        mids = np.stack([0.5 * (verts[:, i] + verts[:, j]) for i, j in pairs], axis=1)
        pts = (mids[..., 0], mids[..., 1])
        vals = np.stack([0.5 * (plus[:, i] + plus[:, j]) for i, j in pairs], axis=1)
        w = np.repeat(size[:, None] / 3.0, 3, axis=1)
    dirichlet = np.sum(size * grad_sq ** (ex.p / 2.0))
    gain = np.sum(w * a(*pts) * vals**ex.q)
    loss = np.sum(w * b(*pts) * vals**ex.gamma)
    return (eps / ex.p) * dirichlet - gain / ex.q + loss / ex.gamma


def oracle_case(domain, resolution, p):
    """A bump-coefficient spec with its coefficient formulas for the oracle."""
    from pfiber.problem import bump_coefficient

    mesh = build_mesh(domain, resolution)
    spec = ProblemSpec(mesh, Exponents(p, p + 1.0, p + 2.0), 0.05,
                       bump_coefficient(0.5, 1.0, domain), constant_coefficient(1.3))
    bounds = np.atleast_2d(np.asarray(domain))

    def a(*xs):
        prof = 1.0
        for (lo, hi), x in zip(bounds, xs):
            prof = prof * np.sin(np.pi * (x - lo) / (hi - lo))
        return 0.5 + prof

    def b(*xs):
        return np.full_like(xs[0], 1.3)

    return spec, a, b


ORACLE_MESHES = pytest.mark.parametrize("domain, resolution", [
    ((0.0, 1.0), 41),
    (((0.0, 1.0), (0.0, 2.0)), (9, 8)),
])


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
@ORACLE_MESHES
def test_block_kernel_against_p1_oracle(domain, resolution, p):
    """phi_plus and weak_residual_plus of 19 signed fields, checked independently.

    Energies must match the oracle's quadrature; residuals must pair with
    directions like central differences of the oracle energy.
    """
    k = 19
    spec, a, b = oracle_case(domain, resolution, p)
    mesh, ex, eps = spec.mesh, spec.exponents, spec.epsilon
    rng = np.random.default_rng(41)
    # Nodal magnitudes stay >= 0.05, away from the kink of the positive part;
    # the fields mix all-positive, all-negative and signed ones.
    signs = np.where(rng.random((mesh.n_nodes, k)) < 0.5, -1.0, 1.0)
    signs[:, :3] = 1.0
    signs[:, 3:6] = -1.0
    fields = signs * rng.uniform(0.05, 1.5, (mesh.n_nodes, k))
    fields[mesh.boundary_nodes] = 0.0
    h = 1e-5
    for i in range(k):
        u = fields[:, i]
        field = DiscreteField(mesh, u)
        energy = phi_plus(field, spec)
        residual = weak_residual_plus(field, spec).values
        oracle = p1_plus_energy(mesh, u, eps, ex, a, b)
        assert abs(energy - oracle) <= 1e-12 * (1.0 + abs(oracle))
        v = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        v[mesh.boundary_nodes] = 0.0
        fd = (p1_plus_energy(mesh, u + h * v, eps, ex, a, b)
              - p1_plus_energy(mesh, u - h * v, eps, ex, a, b)) / (2.0 * h)
        pairing = float(np.dot(residual, v))
        assert abs(pairing - fd) <= 1e-7 * (1.0 + abs(fd))
        np.testing.assert_array_equal(residual[mesh.boundary_nodes], 0.0)

    bad = fields[:, 11].copy()
    bad[mesh.boundary_nodes[0]] = 1e-6
    with pytest.raises(ContractViolation):
        phi_plus(DiscreteField(mesh, bad), spec)
    with pytest.raises(ContractViolation):
        weak_residual_plus(DiscreteField(mesh, bad), spec)
    bad = fields[:, 17].copy()
    bad[mesh.interior_nodes[0]] = np.nan
    with pytest.raises(InputError):
        weak_residual_plus(DiscreteField(mesh, bad), spec)


# -- state kernel -------------------------------------------------------------


def zero_trace(mesh, values):
    values[mesh.boundary_nodes] = 0.0
    return values


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
@ORACLE_MESHES
def test_state_kernel_against_p1_oracle(domain, resolution, p):
    """Energy and residual of the state kernel, checked independently.

    On positive fields phi equals phi_plus, so phi_plus's P1 oracle
    applies.  phi and weak_residual wrap the kernel and return its bits.
    """
    from pfiber.functionals import _evaluate, _residual

    spec, a, b = oracle_case(domain, resolution, p)
    mesh, ex, eps = spec.mesh, spec.exponents, spec.epsilon
    rng = np.random.default_rng(43)
    h = 1e-5
    for _ in range(5):
        u = zero_trace(mesh, rng.uniform(0.05, 1.5, mesh.n_nodes))
        energy, state = _evaluate(u, spec)
        oracle = p1_plus_energy(mesh, u, eps, ex, a, b)
        assert abs(energy - oracle) <= 1e-12 * (1.0 + abs(oracle))
        residual = _residual(state, spec)
        field = DiscreteField(mesh, u)
        assert phi(field, spec) == energy
        np.testing.assert_array_equal(weak_residual(field, spec).values, residual)
        v = zero_trace(mesh, rng.uniform(-1.0, 1.0, mesh.n_nodes))
        fd = (p1_plus_energy(mesh, u + h * v, eps, ex, a, b)
              - p1_plus_energy(mesh, u - h * v, eps, ex, a, b)) / (2.0 * h)
        assert abs(float(np.dot(residual, v)) - fd) <= 1e-7 * (1.0 + abs(fd))
        np.testing.assert_array_equal(residual[mesh.boundary_nodes], 0.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
@ORACLE_MESHES
def test_energy_change_is_first_order_down_to_tiny_steps(domain, resolution, p):
    """phi(u - t d) - phi(u) = -t * slope + O(t^2), for t from 1e-4 to 1e-12.

    The relative first-order error must shrink with t down to 1e-12 (twice
    its t = 1e-4 value scaled by t, plus 1e-10 for rounding).  A difference
    of the two rounded energies misses the same bound at t = 1e-12: its
    rounding error is about 1e-16 of the energy scale, 1e-4 of t * slope.
    """
    from pfiber.functionals import _energy_change, _evaluate, _residual

    spec, _, _ = oracle_case(domain, resolution, p)
    mesh = spec.mesh
    rng = np.random.default_rng(47)
    u = zero_trace(mesh, rng.uniform(0.05, 1.5, mesh.n_nodes))
    d = zero_trace(mesh, rng.uniform(-1.0, 1.0, mesh.n_nodes))
    energy, state = _evaluate(u, spec)
    # The weak residual is the derivative: delta_reg(p) <= 1e-12 is far below
    # every element gradient of these fields.
    slope = float(np.dot(_residual(state, spec), d))
    steps = 10.0 ** -np.arange(4, 13)

    def rel_error(change, t):
        return abs(change + t * slope) / (t * abs(slope))

    changes = []
    for t in steps:
        cand_energy, cand_state = _evaluate(u - t * d, spec)
        changes.append((_energy_change(u, cand_state, -t, d, spec), cand_energy - energy))
    first = rel_error(changes[0][0], steps[0])
    for t, (change, _) in zip(steps, changes):
        assert rel_error(change, t) <= 2.0 * first * t / steps[0] + 1e-10, t
    t, (_, plain) = steps[-1], changes[-1]
    assert rel_error(plain, t) > 2.0 * first * t / steps[0] + 1e-10


BLAS_SCRIPT = """
import hashlib
import numpy as np
from pfiber.functionals import energy_components, phi, weak_residual
from pfiber.problem import (DiscreteField, Exponents, ProblemSpec, build_mesh,
                            constant_coefficient)
from pfiber.rayleigh import _normalize
from pfiber.solver import solve_ground_state
one = constant_coefficient(1.0)
mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (81, 81))
spec = ProblemSpec(mesh, Exponents(3.0, 4.0, 5.0), 1e-3, one, one)
values = np.random.default_rng(5).uniform(0.0, 1.0, mesh.n_nodes)
values[mesh.boundary_nodes] = 0.0
u = DiscreteField(mesh, values)
print(repr(phi(u, spec)), energy_components(u, spec))
print(hashlib.sha256(weak_residual(u, spec).values.tobytes()).hexdigest())
print(hashlib.sha256(_normalize(values, mesh, 3.0)[0].tobytes()).hexdigest())
line = build_mesh((0.0, 1.0), 20001)
report = solve_ground_state(ProblemSpec(line, Exponents(2.0, 3.0, 4.0), 1e-3, one, one),
                            random_restarts=0)
print(report.iterations, hashlib.sha256(report.field.values.tobytes()).hexdigest())
"""


def test_kernel_sums_do_not_depend_on_the_blas_thread_count():
    """Artifacts keep their bits on any machine.

    A threaded BLAS dot splits a sum of more than 10 000 terms by its thread
    count.  The 81x81 mesh has 12 800 elements, so energies, residuals and
    normalized fields must come out the same under 1 and 2 BLAS threads.  So must the field of a 20001-node
    solve, whose descent also sums nodal dot products: the directions'
    slopes and the Barzilai-Borwein products.
    """
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", BLAS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


# -- J ------------------------------------------------------------------------


def test_J_of_zero_field():
    spec = model_spec(n=21)
    z = make_field(spec.mesh, lambda x: np.zeros_like(x))
    assert J_functional(z, spec) == 0.0


def test_J_of_constant_one():
    # No boundary condition: J is evaluated on the flat profile directly.
    spec = model_spec(n=51)
    u = make_field(spec.mesh, lambda x: np.ones_like(x), zero_boundary=False)
    assert J_functional(u, spec) == pytest.approx(-1.0 / 12.0, abs=1e-13)


def test_J_minimized_by_flat_profile():
    spec = model_spec(n=31)
    floor = -1.0 / 12.0  # J of the flat profile for a = b = 1
    rng = np.random.default_rng(23)
    for _ in range(1000):
        u = DiscreteField(spec.mesh, rng.uniform(0.0, 3.0, spec.mesh.n_nodes))
        assert J_functional(u, spec) >= floor - 1e-10


# -- helpers ------------------------------------------------------------------


def test_membership_tolerance_formula():
    spec = model_spec(n=21)
    assert membership_tolerance(spec) == 1e-12 * (1.0 + 1.0 * spec.mesh.volume)


def test_w1p_norm_and_nontriviality():
    spec = model_spec(n=41, p=3.0, q=3.5, gamma=4.0)
    u = make_field(spec.mesh, lambda x: x * (1.0 - x))
    comps = energy_components(u, spec)
    assert w1p_norm(u, spec) == pytest.approx(comps.dirichlet ** (1.0 / 3.0), rel=1e-14)
