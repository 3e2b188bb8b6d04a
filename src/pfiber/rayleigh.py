"""Fiber-ray quotients and the solvability thresholds they determine.

Restricting the problem to the ray {s * u : s > 0} through a fixed field u
with components (dirichlet, gain, loss) produces two scalar quotients in the
scale variable s:

    constraint  (gain s^(q-p) - loss s^(gamma-p)) / dirichlet
    zero-energy (p/dirichlet) (gain/q s^(q-p) - loss/gamma s^(gamma-p))

The constraint quotient equals eps exactly when s*u satisfies the natural
constraint at parameter eps; the zero-energy quotient equals eps exactly when
s*u has zero energy.  Both are maximized in closed form; their maxima share
the scale-invariant quotient

    gain^((gamma-p)/(gamma-q)) / (dirichlet * loss^((q-p)/(gamma-q)))

up to the two extremal constants returned by :func:`extremal_constants`.
Maximizing that quotient over all admissible fields yields the two
thresholds: no nontrivial critical points exist above ``eps_critical``, and a
negative-energy ground state together with a second positive solution exists
below ``eps_two_solutions``.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, InputError
from .functionals import EnergyComponents, derivative_forms, energy_components
from .linalg import MAX_STEP, InteriorSolver, armijo, preconditioned_direction
from .problem import DiscreteField, Exponents, Mesh, ProblemSpec, squared_norms

__all__ = [
    "ExtremalConstants",
    "extremal_constants",
    "RayQuotients",
    "ray_quotients",
    "FiberScalings",
    "fiber_scalings",
    "NonlinearQuotients",
    "nonlinear_quotients",
    "scale_invariant_quotient",
    "IntersectionReport",
    "intersection_check",
    "ThresholdEstimate",
    "estimate_thresholds",
]


@dataclass(frozen=True)
class ExtremalConstants:
    """Peak values of the two ray quotients per unit scale-invariant quotient."""

    constraint: float
    zero_energy: float


def extremal_constants(exponents: Exponents) -> ExtremalConstants:
    p, q, g = exponents.p, exponents.q, exponents.gamma
    m = (q - p) / (g - q)
    constraint = (g - q) / (g - p) * ((q - p) / (g - p)) ** m
    zero_energy = (p * (g - q)) / (q * (g - p)) * ((g * (q - p)) / (q * (g - p))) ** m
    return ExtremalConstants(constraint, zero_energy)


def _require_components(comps: EnergyComponents) -> None:
    if comps.dirichlet <= 0.0:
        raise DomainError("ray quotients need a nontrivial field (dirichlet > 0)")


@dataclass(frozen=True)
class RayQuotients:
    constraint: float
    zero_energy: float


def ray_quotients(comps: EnergyComponents, s: float,
                  exponents: Exponents) -> RayQuotients:
    """Evaluate both quotients at the point s*u of the ray."""
    _require_components(comps)
    if s <= 0.0:
        raise InputError(f"ray scale must be positive, got s={s}")
    p, q, g = exponents.p, exponents.q, exponents.gamma
    dir_, gain, loss = comps.dirichlet, comps.gain, comps.loss
    constraint = (gain * s ** (q - p) - loss * s ** (g - p)) / dir_
    zero_energy = (p / dir_) * (gain / q * s ** (q - p) - loss / g * s ** (g - p))
    return RayQuotients(constraint, zero_energy)


@dataclass(frozen=True)
class FiberScalings:
    """Scales where the constraint quotient peaks and where the quotients cross."""

    constraint: float
    zero_energy: float


def fiber_scalings(comps: EnergyComponents, exponents: Exponents) -> FiberScalings:
    _require_components(comps)
    if comps.gain <= 0.0 or comps.loss <= 0.0:
        raise DomainError("fiber scalings need positive gain and loss terms")
    p, q, g = exponents.p, exponents.q, exponents.gamma
    gain, loss = comps.gain, comps.loss
    root = 1.0 / (g - q)
    s_constraint = ((q - p) * gain / ((g - p) * loss)) ** root
    s_zero = (g * (q - p) * gain / (q * (g - p) * loss)) ** root
    return FiberScalings(s_constraint, s_zero)


@dataclass(frozen=True)
class NonlinearQuotients:
    """Maximal quotient values along the ray: thresholds seen from one field."""

    constraint: float
    zero_energy: float


def scale_invariant_quotient(comps: EnergyComponents, exponents: Exponents) -> float:
    """Degree-zero quotient shared by both ray maxima; invariant under u -> s*u."""
    _require_components(comps)
    if comps.gain <= 0.0:
        raise DomainError("the scale-invariant quotient needs a positive gain term")
    if comps.loss <= 0.0:
        raise DomainError("the scale-invariant quotient needs a positive loss term")
    e_gain, e_loss = _log_exponents(exponents)
    return comps.gain ** e_gain / (comps.dirichlet * comps.loss ** e_loss)


def nonlinear_quotients(comps: EnergyComponents,
                        exponents: Exponents) -> NonlinearQuotients:
    ups = scale_invariant_quotient(comps, exponents)
    consts = extremal_constants(exponents)
    return NonlinearQuotients(consts.constraint * ups, consts.zero_energy * ups)


@dataclass(frozen=True)
class IntersectionReport:
    """Certificate that the two quotients cross exactly once, at the zero-energy scale."""

    crossing_scale: float
    value_constraint: float
    value_zero_energy: float
    residual_at_crossing: float
    min_gap_off_crossing: float
    max_gap_off_crossing: float


def intersection_check(comps: EnergyComponents, exponents: Exponents,
                       s_grid: np.ndarray | None = None) -> IntersectionReport:
    """Probe the constraint-minus-zero-energy quotient gap along the ray.

    The difference vanishes only at the zero-energy scale; the report carries
    the residual there and the smallest/largest gap over grid points at least
    5% away from it, so a unique crossing shows up as residual ~ 0 with a
    strictly positive minimum gap.
    """
    scalings = fiber_scalings(comps, exponents)
    s_star = scalings.zero_energy
    if s_grid is None:
        s_grid = np.geomspace(s_star / 10.0, s_star * 10.0, 200)
    s_grid = np.asarray(s_grid, dtype=float)
    if np.any(s_grid <= 0.0):
        raise InputError("the probing grid must consist of positive scales")

    def gap(s):
        rq = ray_quotients(comps, float(s), exponents)
        return rq.constraint - rq.zero_energy

    at_root = ray_quotients(comps, s_star, exponents)
    residual = abs(at_root.constraint - at_root.zero_energy)
    off = s_grid[np.abs(s_grid - s_star) > 0.05 * s_star]
    gaps = np.array([abs(gap(s)) for s in off]) if off.size else np.array([np.nan])
    return IntersectionReport(
        crossing_scale=s_star,
        value_constraint=at_root.constraint,
        value_zero_energy=at_root.zero_energy,
        residual_at_crossing=residual,
        min_gap_off_crossing=float(np.min(gaps)),
        max_gap_off_crossing=float(np.max(gaps)),
    )


@dataclass(frozen=True)
class ThresholdEstimate:
    """Discrete maximization of the scale-invariant quotient.

    ``eps_critical``      no nontrivial critical points above this value
    ``eps_two_solutions`` two positive solutions below this value
    """

    sup_quotient: float
    eps_critical: float
    eps_two_solutions: float
    maximizer: DiscreteField
    restarts_used: int
    iterations: int

    def to_json_dict(self, include_maximizer: bool = True) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "maximizer"}
        if include_maximizer:
            out["maximizer"] = self.maximizer.to_json_dict(include_mesh=False)
        return out


def _log_quotient(u: DiscreteField, spec: ProblemSpec):
    """(log of the scale-invariant quotient, components), or None."""
    comps = energy_components(u, spec, check_boundary=False)
    if comps.dirichlet <= 0.0 or comps.gain <= 0.0 or comps.loss <= 0.0:
        return None
    e_gain, e_loss = _log_exponents(spec.exponents)
    value = e_gain * np.log(comps.gain) - np.log(comps.dirichlet) - e_loss * np.log(comps.loss)
    return value, comps


def _log_quotient_gradient(u: DiscreteField, comps: EnergyComponents,
                           spec: ProblemSpec) -> np.ndarray:
    """Nodal gradient of the log-quotient at u, whose components are ``comps``."""
    ex = spec.exponents
    e_gain, e_loss = _log_exponents(ex)
    flux_form, gain_form, loss_form = derivative_forms(u, spec)
    return (
        e_gain * (ex.q / comps.gain) * gain_form
        - (ex.p / comps.dirichlet) * flux_form
        - e_loss * (ex.gamma / comps.loss) * loss_form
    )


def _log_exponents(ex: Exponents) -> tuple[float, float]:
    return (ex.gamma - ex.p) / (ex.gamma - ex.q), (ex.q - ex.p) / (ex.gamma - ex.q)


def _normalize(values: np.ndarray, mesh: Mesh, p: float) -> np.ndarray:
    """Scale a field to int |grad u|^p = 1; a field without gradient is kept."""
    grads = mesh.gradients(values)
    gnorm = np.sqrt(squared_norms(grads))
    t = float(np.dot(mesh.el_measures, gnorm**p))
    if t <= 0.0:
        return values
    return values / t ** (1.0 / p)


def _ascend_log_quotient(start: np.ndarray, mesh: Mesh, p: float, quotient, gradient,
                         solver: InteriorSolver, max_iters: int):
    """Preconditioned Armijo ascent; returns (best_value, best_field, iters).

    Iterates are nonnegative zero-trace fields with int |grad u|^p = 1.
    ``quotient(field)`` gives ``(value, state)`` of a log-quotient of degree
    zero, or None, and ``gradient(field, state)`` its nodal gradient, needed
    only at the start and at accepted points.  The line search minimizes
    the negated value.
    """
    u = start.copy()
    u[mesh.boundary_nodes] = 0.0
    u = _normalize(np.abs(u), mesh, p)
    field = DiscreteField(mesh, u)
    found = quotient(field)
    if found is None:
        return None, None, 0
    value, state = found
    grad = gradient(field, state)
    step = 1.0
    stalls = 0
    iters = 0
    for iters in range(1, max_iters + 1):
        found = preconditioned_direction(solver, grad)
        if found is None:
            break
        direction, slope = found

        def trial(t):
            cand = np.abs(u + t * direction)
            cand[mesh.boundary_nodes] = 0.0
            cand_field = DiscreteField(mesh, _normalize(cand, mesh, p))
            q = quotient(cand_field)
            return None if q is None else (-q[0], (cand_field, q[1]))

        found = armijo(trial, -value, -slope, step)
        if found is None:
            break
        t, neg_value, (cand_field, state) = found
        grad = gradient(cand_field, state)
        gain = -neg_value - value
        u, value = cand_field.values, -neg_value
        step = min(t * 2.0, MAX_STEP)
        if gain <= 1e-13 * (1.0 + abs(value)):
            stalls += 1
            if stalls >= 3:
                break
        else:
            stalls = 0
    return value, DiscreteField(mesh, u), iters


def estimate_thresholds(spec: ProblemSpec, restarts: int = 16, max_iters: int = 400,
                        seed: int = 0, extra_starts=()) -> ThresholdEstimate:
    """Maximize the scale-invariant quotient over the discrete space.

    Multi-start projected gradient ascent on the log-quotient: nodal absolute
    value and gradient-norm renormalization after every accepted step, ascent
    directions preconditioned by an interior stiffness-plus-mass solve,
    deterministic reduction in restart order with ties broken toward the
    earliest restart.  ``extra_starts`` fields (e.g. solver outputs) are
    prepended to the random starts.

    Raises:
        DomainError: no restart produced a field with a positive gain term.
    """
    if restarts < 1 and not extra_starts:
        raise InputError("at least one restart is required")
    mesh = spec.mesh
    solver = InteriorSolver(mesh, alpha=1.0, beta=1.0)
    starts: list[np.ndarray] = []
    for extra in extra_starts:
        if extra.mesh is not mesh and extra.mesh.to_json_dict() != mesh.to_json_dict():
            raise InputError("extra starts must live on the problem's mesh")
        starts.append(np.asarray(extra.values, dtype=float).copy())
    for i in range(restarts):
        rng = np.random.default_rng((seed, i))
        starts.append(rng.uniform(0.0, 1.0, size=mesh.n_nodes))

    best_value = None
    best_field = None
    total_iters = 0
    for values in starts:
        value, field, iters = _ascend_log_quotient(
            values, mesh, spec.exponents.p, lambda u: _log_quotient(u, spec),
            lambda u, comps: _log_quotient_gradient(u, comps, spec), solver, max_iters)
        total_iters += iters
        if value is None:
            continue
        # Ties within 1e-12 keep the earliest restart.
        if best_value is None or value > best_value + 1e-12 * (1.0 + abs(best_value)):
            best_value = value
            best_field = field
    if best_value is None:
        raise DomainError("no restart reached a field with positive gain; "
                          "is the coefficient a nonzero on the domain?")
    sup_quotient = float(np.exp(best_value))
    consts = extremal_constants(spec.exponents)
    return ThresholdEstimate(
        sup_quotient=sup_quotient,
        eps_critical=consts.constraint * sup_quotient,
        eps_two_solutions=consts.zero_energy * sup_quotient,
        maximizer=best_field,
        restarts_used=len(starts),
        iterations=total_iters,
    )
