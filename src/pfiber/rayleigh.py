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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .functionals import EnergyComponents, _evaluate, _flux_form, _point_form
from .linalg import Descent, InteriorSolver, descend, stalled
from .problem import DiscreteField, Exponents, Mesh, ProblemSpec, _sum_product, squared_norms

__all__ = [
    "RayPair",
    "extremal_constants",
    "ray_quotients",
    "fiber_scalings",
    "nonlinear_quotients",
    "scale_invariant_quotient",
    "IntersectionReport",
    "intersection_check",
    "ThresholdEstimate",
    "estimate_thresholds",
]


@dataclass(frozen=True)
class RayPair:
    """One number for each of the two ray quotients.

    - :func:`extremal_constants`: each quotient's peak value per unit
      scale-invariant quotient;
    - :func:`ray_quotients`: both quotients at one point s*u of the ray;
    - :func:`fiber_scalings`: the scale where the constraint quotient peaks,
      and the scale where the two quotients cross (zero energy);
    - :func:`nonlinear_quotients`: each quotient's peak value along the ray,
      the thresholds seen from one field.
    """

    constraint: float
    zero_energy: float


def extremal_constants(exponents: Exponents) -> RayPair:
    p, q, g = exponents.p, exponents.q, exponents.gamma
    m = (q - p) / (g - q)
    constraint = (g - q) / (g - p) * ((q - p) / (g - p)) ** m
    zero_energy = (p * (g - q)) / (q * (g - p)) * ((g * (q - p)) / (q * (g - p))) ** m
    return RayPair(constraint, zero_energy)


def _require_components(comps: EnergyComponents) -> None:
    if comps.dirichlet <= 0.0:
        raise DomainError("ray quotients need a nontrivial field (dirichlet > 0)")


def ray_quotients(comps: EnergyComponents, s: float, exponents: Exponents) -> RayPair:
    """Evaluate both quotients at the point s*u of the ray."""
    _require_components(comps)
    if s <= 0.0:
        raise InputError(f"ray scale must be positive, got s={s}")
    p, q, g = exponents.p, exponents.q, exponents.gamma
    dir_, gain, loss = comps.dirichlet, comps.gain, comps.loss
    constraint = (gain * s ** (q - p) - loss * s ** (g - p)) / dir_
    zero_energy = (p / dir_) * (gain / q * s ** (q - p) - loss / g * s ** (g - p))
    return RayPair(constraint, zero_energy)


def fiber_scalings(comps: EnergyComponents, exponents: Exponents) -> RayPair:
    _require_components(comps)
    if comps.gain <= 0.0 or comps.loss <= 0.0:
        raise DomainError("fiber scalings need positive gain and loss terms")
    p, q, g = exponents.p, exponents.q, exponents.gamma
    gain, loss = comps.gain, comps.loss
    root = 1.0 / (g - q)
    s_constraint = ((q - p) * gain / ((g - p) * loss)) ** root
    s_zero = (g * (q - p) * gain / (q * (g - p) * loss)) ** root
    return RayPair(s_constraint, s_zero)


def scale_invariant_quotient(comps: EnergyComponents, exponents: Exponents) -> float:
    """Degree-zero quotient shared by both ray maxima; invariant under u -> s*u."""
    _require_components(comps)
    if comps.gain <= 0.0:
        raise DomainError("the scale-invariant quotient needs a positive gain term")
    if comps.loss <= 0.0:
        raise DomainError("the scale-invariant quotient needs a positive loss term")
    e_gain, e_loss = _log_exponents(exponents)
    return comps.gain ** e_gain / (comps.dirichlet * comps.loss ** e_loss)


def nonlinear_quotients(comps: EnergyComponents, exponents: Exponents) -> RayPair:
    ups = scale_invariant_quotient(comps, exponents)
    consts = extremal_constants(exponents)
    return RayPair(consts.constraint * ups, consts.zero_energy * ups)


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
    ``restarts_used``     ascents run: the extra starts, the flat limit
                          and the sampled starts
    ``capped_restarts``   ascents that ``max_iters`` stopped before they
                          reached the rounding floor of their value or
                          stalled
    ``best_start``        index of the winning start in that order
    ``restart_gain``      the best log-quotient of a sampled start less
                          the flat limit's; None when no sampled start ran
                          or the flat limit has no value
    ``stop``              why the winning ascent stopped (linalg.Descent)
    """

    sup_quotient: float
    eps_critical: float
    eps_two_solutions: float
    maximizer: DiscreteField
    restarts_used: int
    iterations: int
    capped_restarts: int
    best_start: int
    restart_gain: float | None
    stop: str


def _log_quotient(values: np.ndarray, grads: np.ndarray, spec: ProblemSpec):
    """(log of the scale-invariant quotient, state), or None."""
    _, state = _evaluate(values, spec, grads)
    comps = state.comps
    if comps.dirichlet <= 0.0 or comps.gain <= 0.0 or comps.loss <= 0.0:
        return None
    e_gain, e_loss = _log_exponents(spec.exponents)
    value = e_gain * np.log(comps.gain) - np.log(comps.dirichlet) - e_loss * np.log(comps.loss)
    return value, state


def _log_quotient_gradient(state, spec: ProblemSpec) -> np.ndarray:
    """Nodal gradient of the log-quotient at the field of ``state``."""
    ex = spec.exponents
    comps = state.comps
    e_gain, e_loss = _log_exponents(ex)
    grad = (_point_form(state, spec, e_gain * ex.q / comps.gain,
                        e_loss * ex.gamma / comps.loss)
            - (ex.p / comps.dirichlet) * _flux_form(state, spec))
    grad[spec.mesh.boundary_nodes] = 0.0
    return grad


def _log_exponents(ex: Exponents) -> tuple[float, float]:
    return (ex.gamma - ex.p) / (ex.gamma - ex.q), (ex.q - ex.p) / (ex.gamma - ex.q)


def _normalize(values: np.ndarray, mesh: Mesh, p: float):
    """(values, grads) scaled to int |grad u|^p = 1; a field without gradient is kept."""
    grads = mesh.gradients(values)
    t = _sum_product(mesh.el_measures, squared_norms(grads) ** (p / 2.0))
    if t <= 0.0:
        return values, grads
    scale = t ** (1.0 / p)
    return values / scale, grads / scale


def _ascend_log_quotient(start: np.ndarray, spec: ProblemSpec, solver: InteriorSolver,
                         max_iters: int, step: float) -> Descent:
    """linalg.descend of -_log_quotient: its value is -log Q.

    Each trial field is |u - t d| with zero boundary values, renormalized to
    int |grad u|^p = 1, and its change is -log Q(trial) - value, so a trial
    that leaves -log Q unchanged is rejected.  The first line search starts
    from ``step``.  The ascent stops where the secant model cannot raise
    log Q by half its rounding unit, eps_mach (1 + |log Q|) / 2,
    "resolution", or else after 3 steps in a row that each raise it by at
    most 1e-13 (1 + |log Q|), "stalled".
    """
    mesh, p = spec.mesh, spec.exponents.p

    def evaluate(u, t, d, value):
        cand = np.abs(u if d is None else u - t * d)
        cand[mesh.boundary_nodes] = 0.0
        cand, grads = _normalize(cand, mesh, p)
        found = _log_quotient(cand, grads, spec)
        return None if found is None else (-found[0] - value, cand, found[1])

    return descend(start, evaluate, lambda state: -_log_quotient_gradient(state, spec),
                   lambda trace: "stalled" if stalled(trace, 3, 1e-13) else None,
                   solver, max_iters, step=step, resolution=np.finfo(float).eps)


def estimate_thresholds(spec: ProblemSpec, restarts: int = 0, max_iters: int = 400,
                        seed: int = 0, extra_starts=()) -> ThresholdEstimate:
    """Maximize the scale-invariant quotient over the discrete space.

    Projected gradient ascent on the log-quotient: nodal absolute value,
    zero boundary values and gradient-norm renormalization of every trial
    field, ascent directions preconditioned by an interior
    stiffness-plus-mass solve.  The ascent runs from each ``extra_starts``
    field (e.g. solver outputs), then from the flat limit
    ``spec.flat_limit``, then from ``restarts`` random fields drawn with
    ``seed``.  Sampled starts can only find other local maxima of the
    quotient, and ``seed`` matters only with them.  The best value wins,
    ties within 1e-12 keeping the earliest start.

    Raises:
        InputError: ``restarts``, ``max_iters`` or ``seed`` is negative, or
            an extra start lives on another mesh.
        DomainError: no start produced a field with a positive gain term.
    """
    if min(restarts, seed) < 0:
        raise InputError(f"restarts and seed must be >= 0, got {restarts} and {seed}")
    mesh = spec.mesh
    solver = InteriorSolver(mesh, alpha=1.0, beta=1.0)
    starts: list[np.ndarray] = []
    for extra in extra_starts:
        extra.require_mesh(mesh, "extra start")
        starts.append(np.asarray(extra.values, dtype=float).copy())
    flat = len(starts)
    starts.append(spec.flat_limit)
    for i in range(restarts):
        rng = np.random.default_rng((seed, i))
        starts.append(rng.uniform(0.0, 1.0, size=mesh.n_nodes))

    reached = []    # each start's value, None where it has none
    best = None
    total_iters = 0
    capped_restarts = 0
    step = 1.0    # each restart's first trial: the step the last first search took
    for index, start in enumerate(starts):
        ascent = _ascend_log_quotient(start, spec, solver, max_iters, step)
        step = step if ascent.first is None else ascent.first
        total_iters += ascent.steps
        capped_restarts += ascent.stop == "max_iters"
        value = None if ascent.value is None else -ascent.value
        reached.append(value)
        if value is None:
            continue
        # Ties within 1e-12 keep the earliest start.
        if best is None or value > best[0] + 1e-12 * (1.0 + abs(best[0])):
            best = value, ascent, index
    sampled = [v for v in reached[flat + 1:] if v is not None]
    restart_gain = (float(max(sampled) - reached[flat])
                    if sampled and reached[flat] is not None else None)
    if best is None:
        raise DomainError("no start reached a field with positive gain; "
                          "is the coefficient a nonzero on the domain?")
    best_value, best_ascent, best_start = best
    sup_quotient = float(np.exp(best_value))
    consts = extremal_constants(spec.exponents)
    return ThresholdEstimate(
        sup_quotient=sup_quotient,
        eps_critical=consts.constraint * sup_quotient,
        eps_two_solutions=consts.zero_energy * sup_quotient,
        maximizer=DiscreteField(mesh, best_ascent.field),
        restarts_used=len(starts),
        iterations=total_iters,
        capped_restarts=capped_restarts,
        best_start=best_start,
        restart_gain=restart_gain,
        stop=best_ascent.stop,
    )
