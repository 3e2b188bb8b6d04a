"""Energy functionals and their weak derivatives.

For a zero-trace field u the energy is

    phi(u) = (eps/p) * dirichlet - (1/q) * gain + (1/gamma) * loss

with the three components

    dirichlet = int |grad u|^p,
    gain      = int a(x) |u|^q,
    loss      = int b(x) |u|^gamma.

The mountain-pass variant phi_plus replaces u by its positive part inside
``gain`` and ``loss`` but keeps the full Dirichlet term, which makes every
critical point nonnegative without changing the negative-energy landscape.

Weak derivatives are assembled against the nodal hat functions.  For p < 2
the degenerate gradient factor |g|^(p-2) is evaluated as
(|g|^2 + delta_reg^2)^((p-2)/2); energies passed to finite-difference checks
can be regularized the same way so the pairing stays exact.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DomainError, InputError
from .problem import _BOUNDARY_TOL, DiscreteField, ProblemSpec, squared_norms

__all__ = [
    "EnergyComponents",
    "energy_components",
    "phi",
    "phi_plus",
    "weak_residual",
    "weak_residual_plus",
    "derivative_forms",
    "j_pointwise",
    "J_functional",
    "membership_tolerance",
    "Admissibility",
    "admissibility",
    "w1p_norm",
]

DEFAULT_DELTA_REG = 1e-12


@dataclass(frozen=True)
class EnergyComponents:
    """The three raw integrals entering the energy, before their prefactors."""

    dirichlet: float
    gain: float
    loss: float


def _gradient_factor(norm_sq: np.ndarray, p: float, delta_reg: float) -> np.ndarray:
    """|g|^(p-2) from |g|^2, regularized when a delta is supplied."""
    if delta_reg > 0.0:
        return (norm_sq + delta_reg**2) ** ((p - 2.0) / 2.0)
    if p == 2.0:
        return np.ones_like(norm_sq)
    # For p > 2 the factor vanishes with the gradient; avoid 0**negative.
    out = np.zeros_like(norm_sq)
    nz = norm_sq > 0.0
    out[nz] = norm_sq[nz] ** ((p - 2.0) / 2.0)
    return out


def _resolve_delta(spec: ProblemSpec, delta_reg) -> float:
    if delta_reg is None:
        return DEFAULT_DELTA_REG if spec.exponents.p < 2.0 else 0.0
    if delta_reg < 0.0:
        raise InputError("delta_reg must be nonnegative")
    return float(delta_reg)


def energy_components(u: DiscreteField, spec: ProblemSpec,
                      check_boundary: bool = True) -> EnergyComponents:
    """Compute (dirichlet, gain, loss) for a zero-trace field."""
    if check_boundary:
        u.require_zero_boundary("energy argument")
    mesh = u.mesh
    ex = spec.exponents
    grads = mesh.gradients(u.values)
    gnorm = np.sqrt(squared_norms(grads))
    dirichlet = float(np.dot(mesh.el_measures, gnorm**ex.p))
    vals = np.abs(mesh.values_at_qp(u.values))
    gain = mesh.integrate(spec.a_qp * vals**ex.q)
    loss = mesh.integrate(spec.b_qp * vals**ex.gamma)
    return EnergyComponents(dirichlet, gain, loss)


def phi(u: DiscreteField, spec: ProblemSpec, delta_reg: float = 0.0) -> float:
    """Energy of a zero-trace field; positive delta_reg regularizes the p-term."""
    comps = energy_components(u, spec)
    ex = spec.exponents
    dirichlet = comps.dirichlet
    if delta_reg > 0.0:
        mesh = u.mesh
        grads = mesh.gradients(u.values)
        norm_sq = squared_norms(grads)
        dirichlet = float(np.dot(mesh.el_measures,
                                 (norm_sq + delta_reg**2) ** (ex.p / 2.0)))
    return (spec.epsilon / ex.p) * dirichlet - comps.gain / ex.q + comps.loss / ex.gamma


def phi_plus(u: DiscreteField, spec: ProblemSpec) -> float:
    """Energy with the positive part in the gain and loss terms only."""
    u.require_zero_boundary("energy argument")
    mesh = u.mesh
    ex = spec.exponents
    grads = mesh.gradients(u.values)
    gnorm = np.sqrt(squared_norms(grads))
    dirichlet = float(np.dot(mesh.el_measures, gnorm**ex.p))
    plus = np.maximum(mesh.values_at_qp(np.maximum(u.values, 0.0)), 0.0)
    gain = mesh.integrate(spec.a_qp * plus**ex.q)
    loss = mesh.integrate(spec.b_qp * plus**ex.gamma)
    return (spec.epsilon / ex.p) * dirichlet - gain / ex.q + loss / ex.gamma


def derivative_forms(u: DiscreteField, spec: ProblemSpec,
                     delta_reg=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weak-form building blocks against the nodal basis, one triple per node.

        flux_form_i = int |grad u|^(p-2) grad u . grad hat_i
        gain_form_i = int a |u|^(q-2) u hat_i
        loss_form_i = int b |u|^(gamma-2) u hat_i

    The derivatives of the raw energy components are p, q, gamma times these,
    and the energy residual combines them as
    eps*flux_form - gain_form + loss_form.  Boundary entries are zeroed.
    """
    mesh = u.mesh
    ex = spec.exponents
    delta = _resolve_delta(spec, delta_reg)
    grads = mesh.gradients(u.values)
    factor = _gradient_factor(squared_norms(grads), ex.p, delta)
    flux_form = mesh.assemble_flux_term(factor[:, None] * grads)
    vals = mesh.values_at_qp(u.values)
    absvals = np.abs(vals)
    gain_form = mesh.assemble_point_term(spec.a_qp * absvals ** (ex.q - 2.0) * vals)
    loss_form = mesh.assemble_point_term(spec.b_qp * absvals ** (ex.gamma - 2.0) * vals)
    for form in (flux_form, gain_form, loss_form):
        form[mesh.boundary_nodes] = 0.0
    return flux_form, gain_form, loss_form


def weak_residual(u: DiscreteField, spec: ProblemSpec, delta_reg=None) -> DiscreteField:
    """Nodal weak residual of the energy; zero exactly at critical points."""
    u.require_zero_boundary("residual argument")
    flux_form, gain_form, loss_form = derivative_forms(u, spec, delta_reg)
    return DiscreteField(u.mesh, spec.epsilon * flux_form - gain_form + loss_form)


def weak_residual_plus(u: DiscreteField, spec: ProblemSpec, delta_reg=None) -> DiscreteField:
    """Weak residual of phi_plus: the gain/loss terms see the positive part."""
    u.require_zero_boundary("residual argument")
    mesh = u.mesh
    ex = spec.exponents
    delta = _resolve_delta(spec, delta_reg)
    grads = mesh.gradients(u.values)
    factor = _gradient_factor(squared_norms(grads), ex.p, delta)
    flux_form = mesh.assemble_flux_term(factor[:, None] * grads)
    plus = np.maximum(mesh.values_at_qp(np.maximum(u.values, 0.0)), 0.0)
    # phi_plus sees a node with u_i <= 0 only through the flux term.
    pos = u.values > 0.0
    gain_form = mesh.assemble_point_term(spec.a_qp * plus ** (ex.q - 1.0)) * pos
    loss_form = mesh.assemble_point_term(spec.b_qp * plus ** (ex.gamma - 1.0)) * pos
    out = spec.epsilon * flux_form - gain_form + loss_form
    out[mesh.boundary_nodes] = 0.0
    return DiscreteField(mesh, out)


# Columns per pass of the block kernel.  At 2001 nodes eight columns make
# each quadrature-point array 384 KB, so a block's few live arrays fit a 2 MB
# L2 cache; sixteen ran the mountain pass no faster and hold twice the memory.
_BLOCK = 8


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


def _phi_plus_block(stack: np.ndarray, spec: ProblemSpec, delta_reg=None,
                    residual: bool = False):
    """phi_plus of every column of an (n_nodes, k) stack of nodal fields.

    With ``residual`` it returns ``(energies, residuals)``, the second being
    the columns' weak_residual_plus as an (n_nodes, k) array.  Columns pass
    through the mesh operators _BLOCK at a time, each block C-contiguous.
    Reductions run as matrix products, in another order than phi_plus and
    weak_residual_plus use, so each column agrees with them to rounding,
    not bit for bit.

    Raises:
        InputError: the stack has the wrong shape or a non-finite entry.
        ContractViolation: a column does not vanish on the boundary.
    """
    mesh = spec.mesh
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 2 or stack.shape[0] != mesh.n_nodes:
        raise InputError(
            f"field stack needs {mesh.n_nodes} rows, got shape {stack.shape}"
        )
    if not np.all(np.isfinite(stack)):
        raise InputError("field values must be finite")
    worst = float(np.max(np.abs(stack[mesh.boundary_nodes]), initial=0.0))
    if worst > _BOUNDARY_TOL:
        raise ContractViolation(
            f"energy argument must vanish on the boundary; largest boundary value {worst:g}"
        )
    ex = spec.exponents
    delta = _resolve_delta(spec, delta_reg)
    n_el = mesh.el_measures.size
    w_a = (mesh.qp_weights * spec.a_qp).ravel()
    w_b = (mesh.qp_weights * spec.b_qp).ravel()
    energies = np.empty(stack.shape[1])
    residuals = np.empty(stack.shape) if residual else None
    for lo in range(0, stack.shape[1], _BLOCK):
        block = np.ascontiguousarray(stack[:, lo:lo + _BLOCK])
        cols = slice(lo, lo + block.shape[1])
        grads = (mesh.gradient_operator @ block).reshape(n_el, mesh.dimension, -1)
        norm_sq = np.einsum("edk,edk->ek", grads, grads)
        # The basis values are nonnegative, so this is already the positive
        # part phi_plus takes a second time.
        plus = mesh.qp_operator @ np.maximum(block, 0.0)
        dirichlet = mesh.el_measures @ _power(np.sqrt(norm_sq), ex.p)
        dens = _power(plus, ex.q)
        gain = w_a @ dens
        dens *= _power(plus, ex.gamma - ex.q)
        loss = w_b @ dens
        energies[cols] = (spec.epsilon / ex.p) * dirichlet - gain / ex.q + loss / ex.gamma
        if residual:
            factor = mesh.el_measures[:, None] * _gradient_factor(norm_sq, ex.p, delta)
            grads *= factor[:, None, :]
            res = mesh.gradient_operator.T @ grads.reshape(-1, block.shape[1])
            res *= spec.epsilon
            # dens becomes (w_a - w_b * plus^(gamma-q)) * plus^(q-1) in place.
            np.multiply(w_b[:, None], _power(plus, ex.gamma - ex.q), out=dens)
            np.subtract(w_a[:, None], dens, out=dens)
            dens *= _power(plus, ex.q - 1.0)
            res -= (mesh.qp_operator.T @ dens) * (block > 0.0)
            res[mesh.boundary_nodes] = 0.0
            residuals[:, cols] = res
    return (energies, residuals) if residual else energies


def j_pointwise(alpha: float, beta: float, s, q: float, gamma: float):
    """Pointwise double-well density -(alpha/q) s^q + (beta/gamma) s^gamma, s >= 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise InputError("the well density is defined for nonnegative amplitudes")
    out = -(alpha / q) * s**q + (beta / gamma) * s**gamma
    return float(out) if out.ndim == 0 else out


def J_functional(u: DiscreteField, spec: ProblemSpec) -> float:
    """Integral of the pointwise well at |u|; no boundary condition required."""
    mesh = u.mesh
    ex = spec.exponents
    vals = np.abs(mesh.values_at_qp(u.values))
    density = -(spec.a_qp / ex.q) * vals**ex.q + (spec.b_qp / ex.gamma) * vals**ex.gamma
    return mesh.integrate(density)


def membership_tolerance(spec: ProblemSpec) -> float:
    """Quadrature-floor tolerance deciding whether the gain term is positive."""
    return 1e-12 * (1.0 + spec.b.upper * spec.mesh.volume)


@dataclass(frozen=True)
class Admissibility:
    """Whether a field's ray can meet the constraint manifold (gain > tol)."""

    admissible: bool
    gain: float
    tol: float


def admissibility(u: DiscreteField, spec: ProblemSpec) -> Admissibility:
    comps = energy_components(u, spec)
    tol = membership_tolerance(spec)
    return Admissibility(comps.gain > tol, comps.gain, tol)


def w1p_norm(u: DiscreteField, spec: ProblemSpec) -> float:
    """Gradient-seminorm (int |grad u|^p)^(1/p); a norm on zero-trace fields."""
    comps = energy_components(u, spec, check_boundary=False)
    return comps.dirichlet ** (1.0 / spec.exponents.p)


def require_nontrivial(comps: EnergyComponents, what: str = "field") -> None:
    if comps.dirichlet <= 0.0:
        raise DomainError(f"{what} must be nontrivial (positive gradient energy)")
