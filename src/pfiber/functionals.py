"""Energy functionals and their weak derivatives.

For a zero-trace field u the energy is

    phi(u) = (eps/p) * dirichlet - (1/q) * gain + (1/gamma) * loss

with the three components

    dirichlet = int |grad u|^p,
    gain      = int a(x) |u|^q,
    loss      = int b(x) |u|^gamma.

The truncated energy phi_plus replaces u by its positive part inside
``gain`` and ``loss`` but keeps the full Dirichlet term, which makes every
critical point nonnegative without changing the negative-energy landscape.
No solver uses it (the mountain pass projects onto nonnegative fields); it
and weak_residual_plus stay only because the benchmark's tracer names them.

Weak derivatives are assembled against the nodal hat functions.  For p < 2
the degenerate gradient factor |g|^(p-2) is evaluated as
(|g|^2 + delta^2)^((p-2)/2), with delta = delta_reg(p).

Every function here wraps one private kernel, ``_evaluate``: it returns the
energy of a field and a ``_State`` holding the gradients and quadrature
powers, from which the weak forms are assembled without a second pass over
the field.  ``_energy_change`` gives the energy difference of two fields
without the cancellation of subtracting two rounded energies.
``_jacobian_blocks`` gives the element matrices of the weak residual's
Jacobian, from which the mountain pass's Newton finish sums its matrix.
"""

from dataclasses import dataclass

import numpy as np

from .problem import DiscreteField, ProblemSpec, _sum_product, squared_norms

__all__ = [
    "EnergyComponents",
    "energy_components",
    "phi",
    "phi_plus",
    "weak_residual",
    "weak_residual_plus",
    "derivative_forms",
    "J_functional",
    "membership_tolerance",
    "w1p_norm",
]

DELTA_REG = 1e-12


@dataclass(frozen=True)
class EnergyComponents:
    """The three raw integrals entering the energy, before their prefactors."""

    dirichlet: float
    gain: float
    loss: float


def delta_reg(p: float) -> float:
    """The delta regularizing |g|^(p-2): DELTA_REG for p < 2, where it blows up, else 0."""
    return DELTA_REG if p < 2.0 else 0.0


def _power(x: np.ndarray, e: float) -> np.ndarray:
    """x**e for x >= 0, small integer exponents by repeated multiplication.

    For e == 1 this returns ``x`` itself, not a copy.
    """
    e = float(e)
    if not (e.is_integer() and 1.0 <= e <= 6.0):
        return x**e
    if e == 1.0:
        return x
    out = x * x
    for _ in range(int(e) - 2):
        out *= x
    return out


@dataclass(frozen=True)
class _State:
    """What one evaluation of a field computes, kept for its weak forms.

    ``grads`` are the element gradients and ``factor`` is |g|^(p-2) for
    integer p > 2, else None.  At the quadrature points ``signed_q1`` holds
    |v|^(q-2) v and ``pow_gq`` holds |v|^(gamma-q).
    """

    grads: np.ndarray
    factor: np.ndarray | None
    signed_q1: np.ndarray
    pow_gq: np.ndarray
    comps: EnergyComponents


def _energy(comps: EnergyComponents, spec: ProblemSpec) -> float:
    ex = spec.exponents
    return (spec.epsilon / ex.p) * comps.dirichlet - comps.gain / ex.q + comps.loss / ex.gamma


def _energy_scale(comps: EnergyComponents, spec: ProblemSpec) -> float:
    """Sum of the energy's three terms in absolute value; its rounding scale."""
    ex = spec.exponents
    return (spec.epsilon / ex.p) * comps.dirichlet + comps.gain / ex.q + comps.loss / ex.gamma


def _evaluate(values: np.ndarray, spec: ProblemSpec, grads=None):
    """(energy, state) of the nodal field ``values``; ``grads`` may be supplied.

    Integer exponents run as products: |v|^q and |v|^gamma are formed from
    |v|^(q-1), and |g|^p from |g|^(p-2) and |g|^2.  Nonnegative values skip
    the signs of |v|.
    """
    mesh = spec.mesh
    ex = spec.exponents
    if grads is None:
        grads = mesh.gradients(values)
    norm_sq = squared_norms(grads)
    factor = None
    if ex.p == 2.0:
        density = norm_sq
    elif ex.p > 2.0 and float(ex.p).is_integer():
        # |g|^(p-2) by products from |g|^2, times |g| for odd p.
        factor = _power(norm_sq, (ex.p - 2.0) // 2) if ex.p >= 4.0 else 1.0
        if ex.p % 2.0:
            factor = factor * np.sqrt(norm_sq)
        density = factor * norm_sq
    else:
        density = norm_sq ** (ex.p / 2.0)
    dirichlet = _sum_product(mesh.el_measures, density)
    qp = mesh.values_at_qp(values)
    # The basis values are nonnegative, so nonnegative nodes give |v| = v.
    signed = values.min(initial=0.0) < 0.0
    absqp = np.abs(qp) if signed else qp
    pow_gq = _power(absqp, ex.gamma - ex.q)
    signed_q1 = _power(absqp, ex.q - 1.0)
    if signed:
        signed_q1 = np.copysign(signed_q1, qp)
    dens = signed_q1 * qp
    gain = _sum_product(spec._weights_a, dens)
    dens *= pow_gq
    loss = _sum_product(spec._weights_b, dens)
    comps = EnergyComponents(dirichlet, gain, loss)
    return _energy(comps, spec), _State(grads, factor, signed_q1, pow_gq, comps)


def _flux_form(state: _State, spec: ProblemSpec) -> np.ndarray:
    """Assembled int |g|^(p-2) g . grad hat_i, regularized by delta_reg(p)."""
    p = spec.exponents.p
    factor = state.factor
    if p == 2.0:
        flux = state.grads
    else:
        if factor is None:
            factor = (squared_norms(state.grads) + delta_reg(p) ** 2) ** ((p - 2.0) / 2.0)
        flux = factor[:, None] * state.grads
    return spec.mesh.assemble_flux_term(flux)


def _point_form(state: _State, spec: ProblemSpec, gain_weight: float = 1.0,
                loss_weight: float = 1.0) -> np.ndarray:
    """Assembled gain_weight * a|v|^(q-2)v - loss_weight * b|v|^(gamma-2)v, one pass."""
    density = gain_weight * spec.a_qp - loss_weight * spec.b_qp * state.pow_gq
    density *= state.signed_q1
    return spec.mesh.assemble_point_term(density)


def _residual(state: _State, spec: ProblemSpec) -> np.ndarray:
    """Nodal weak residual eps*flux_form - gain_form + loss_form of a state."""
    out = spec.epsilon * _flux_form(state, spec) - _point_form(state, spec)
    out[spec.mesh.boundary_nodes] = 0.0
    return out


def _jacobian_blocks(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Element matrices of the weak residual's Jacobian at the nodal field ``values``.

    Element e couples its vertices i and j by
    eps |e| grad hat_i . H grad hat_j - sum_qp w f'(v) hat_i hat_j, with the
    flux block H = |g|^(p-2) (I + (p-2) g g^T / |g|^2) and the slope
    f'(v) = a (q-1) |v|^(q-2) - b (gamma-1) |v|^(gamma-2).  |g|^2 is
    regularized by delta_reg(p)^2, and (p-2) / |g|^2 is 0 where |g|^2 = 0,
    so for p > 2 an element with g = 0 gets H = 0, the limit of the block.
    f'(0) is infinite for q < 2 (inf - inf for gamma < 2), so a quadrature
    point where hat_i hat_j = 0 adds nothing to entry (i, j): the mid-edge
    point of a boundary edge, where v = 0, reaches no interior entry.
    Shape (n_el, dim + 1, dim + 1), each matrix symmetric.
    """
    mesh = spec.mesh
    ex = spec.exponents
    grads = mesh.gradients(values)
    dim = mesh.dimension
    # Elements run along the last axis, (row, column, element), so every
    # product is contiguous; the matrices return as a transposed view.
    flux = np.eye(dim)[:, :, None]
    if ex.p != 2.0:
        g = grads.T
        norm_sq = squared_norms(grads) + delta_reg(ex.p) ** 2
        inv = np.divide(ex.p - 2.0, norm_sq, out=np.zeros_like(norm_sq), where=norm_sq > 0.0)
        flux = (flux + inv * g[:, None] * g[None, :]) * norm_sq ** ((ex.p - 2.0) / 2.0)
    grad_basis = np.ascontiguousarray(mesh.grad_basis.transpose(1, 2, 0))
    blocks = np.einsum("iae,abe,jbe->ije", grad_basis,
                       spec.epsilon * mesh.el_measures * flux, grad_basis)

    absqp = np.abs(mesh.values_at_qp(values))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = ((ex.q - 1.0) * spec.a_qp * absqp ** (ex.q - 2.0)
                 - (ex.gamma - 1.0) * spec.b_qp * absqp ** (ex.gamma - 2.0))
    weighted = mesh.qp_weights * slope
    products = mesh.basis_at_qp.T[:, None] * mesh.basis_at_qp.T[None, :]
    for i in range(dim + 1):
        for j in range(i, dim + 1):
            seen = products[i, j] != 0.0
            # Indexing copies the columns in Fortran order, which BLAS sums
            # in another order; a product nonzero at every point is unindexed.
            blocks[i, j] -= (weighted @ products[i, j] if seen.all()
                             else weighted[:, seen] @ products[i, j, seen])
            blocks[j, i] = blocks[i, j]
    return blocks.transpose(2, 0, 1)


def _power_change(x: np.ndarray, y: np.ndarray, dx: np.ndarray, e: float) -> np.ndarray:
    """x^e - y^e for x, y >= 0, given dx = x - y, without cancellation.

    Integer e uses x^n - y^n = (x - y) * sum_k x^k y^(n-1-k); any other e
    uses y^e * expm1(e * log1p(dx / y)), and x^e where y = 0.
    """
    e = float(e)
    if e == 1.0:
        return dx
    if e.is_integer():
        acc = x + y
        y_pow = y * y
        for m in range(2, int(e)):
            acc *= x
            acc += y_pow
            if m + 1 < e:
                y_pow *= y
        acc *= dx
        return acc
    pos = y > 0.0
    # x >= 0 bounds dx / y below by -1; clip what rounding puts under it.
    with np.errstate(divide="ignore"):
        rel = np.log1p(np.maximum(dx / np.where(pos, y, 1.0), -1.0))
    return np.where(pos, y**e * np.expm1(e * rel), x**e)


def _energy_change(old: np.ndarray, new: np.ndarray, step: float, direction: np.ndarray,
                   spec: ProblemSpec) -> float:
    """phi(new) - phi(old) for nodal fields new = old + step * direction, without cancellation.

    The field's changes come from the direction's element gradients and
    quadrature values, so they are known without rounding.  Each term is a
    difference of powers formed by _power_change, so the result stays
    accurate where the two energies agree to every digit.
    """
    mesh = spec.mesh
    ex = spec.exponents
    old_grads = mesh.gradients(old)
    d_grads = step * mesh.gradients(direction)
    d_sq = squared_norms(d_grads) + 2.0 * np.sum(d_grads * old_grads, axis=1)
    dirichlet = _sum_product(mesh.el_measures, _power_change(
        squared_norms(mesh.gradients(new)), squared_norms(old_grads), d_sq, ex.p / 2.0))
    x, y = mesh.values_at_qp(new), mesh.values_at_qp(old)
    # Where the sign holds, |x| - |y| is +-step * B d; where it flips, no
    # digits cancel.
    flips = np.signbit(x) != np.signbit(y)
    dx = np.copysign(1.0, y)
    dx *= mesh.values_at_qp(direction)
    dx *= step
    x, y = np.abs(x, out=x), np.abs(y, out=y)
    np.subtract(x, y, out=dx, where=flips)
    gain = _sum_product(spec._weights_a, _power_change(x, y, dx, ex.q))
    loss = _sum_product(spec._weights_b, _power_change(x, y, dx, ex.gamma))
    return _energy(EnergyComponents(dirichlet, gain, loss), spec)


def energy_components(u: DiscreteField, spec: ProblemSpec) -> EnergyComponents:
    """Compute (dirichlet, gain, loss) for a zero-trace field."""
    u.require_zero_boundary("energy argument")
    return _evaluate(u.values, spec)[1].comps


def phi(u: DiscreteField, spec: ProblemSpec) -> float:
    """Energy of a zero-trace field."""
    u.require_zero_boundary("energy argument")
    return _evaluate(u.values, spec)[0]


def phi_plus(u: DiscreteField, spec: ProblemSpec) -> float:
    """Energy with the positive part in the gain and loss terms only."""
    u.require_zero_boundary("energy argument")
    return _evaluate(np.maximum(u.values, 0.0), spec, u.mesh.gradients(u.values))[0]


def derivative_forms(u: DiscreteField,
                     spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weak-form building blocks against the nodal basis, one triple per node.

        flux_form_i = int |grad u|^(p-2) grad u . grad hat_i
        gain_form_i = int a |u|^(q-2) u hat_i
        loss_form_i = int b |u|^(gamma-2) u hat_i

    The derivatives of the raw energy components are p, q, gamma times these,
    and the energy residual combines them as
    eps*flux_form - gain_form + loss_form.  Boundary entries are zeroed.
    """
    state = _evaluate(u.values, spec)[1]
    flux_form = _flux_form(state, spec)
    gain_form = _point_form(state, spec, 1.0, 0.0)
    loss_form = -_point_form(state, spec, 0.0, 1.0)
    for form in (flux_form, gain_form, loss_form):
        form[u.mesh.boundary_nodes] = 0.0
    return flux_form, gain_form, loss_form


def weak_residual(u: DiscreteField, spec: ProblemSpec) -> DiscreteField:
    """Nodal weak residual of the energy; zero exactly at critical points."""
    u.require_zero_boundary("residual argument")
    state = _evaluate(u.values, spec)[1]
    return DiscreteField(u.mesh, _residual(state, spec))


def weak_residual_plus(u: DiscreteField, spec: ProblemSpec) -> DiscreteField:
    """Weak residual of phi_plus: the gain/loss terms see the positive part."""
    u.require_zero_boundary("residual argument")
    state = _evaluate(np.maximum(u.values, 0.0), spec, u.mesh.gradients(u.values))[1]
    # phi_plus sees a node with u_i <= 0 only through the flux term.
    out = spec.epsilon * _flux_form(state, spec) - _point_form(state, spec) * (u.values > 0.0)
    out[u.mesh.boundary_nodes] = 0.0
    return DiscreteField(u.mesh, out)


def J_functional(u: DiscreteField, spec: ProblemSpec) -> float:
    """Integral of the pointwise well at |u|; no boundary condition required."""
    comps = _evaluate(u.values, spec)[1].comps
    return comps.loss / spec.exponents.gamma - comps.gain / spec.exponents.q


def membership_tolerance(spec: ProblemSpec) -> float:
    """Quadrature-floor tolerance deciding whether the gain term is positive."""
    return 1e-12 * (1.0 + spec.b.upper * spec.mesh.volume)


def w1p_norm(u: DiscreteField, spec: ProblemSpec) -> float:
    """Gradient-seminorm (int |grad u|^p)^(1/p); a norm on zero-trace fields."""
    return _evaluate(u.values, spec)[1].comps.dirichlet ** (1.0 / spec.exponents.p)
