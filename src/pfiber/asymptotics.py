"""Small-eps limit: flat profile, convergence metrics, layers, scalings.

As eps -> 0 the ground state flattens onto the pointwise minimizer of the
well density j_x(s) = -(a(x)/q) s^q + (b(x)/gamma) s^gamma, namely
(a/b)^(1/(gamma-q)), except inside boundary layers of width O(eps^(1/p)).
This module provides that profile, the metrics quantifying the approach
(bad-set measure, L^r errors, energy gaps), the separation constant that links
the bad-set measure to the well-energy gap, per-eps sweeps, the equivalent
lambda/nu scalings of the equation, and the 1D layer profile obtained by
integrating the first integral U' = sqrt(2 W(U)) of the p = 2 layer equation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation, InputError, NumericalError
from .functionals import J_functional, _evaluate
from .problem import (
    DiscreteField,
    Exponents,
    Mesh,
    ProblemSpec,
)
from .solver import solve_ground_state

__all__ = [
    "LimitProfile",
    "limit_profile",
    "AsymptoticMetrics",
    "asymptotic_metrics",
    "separation_constant",
    "SweepRow",
    "SweepReport",
    "epsilon_sweep",
    "ScaledSolution",
    "scale_solution",
    "LayerProfile",
    "layer_profile_1d",
    "composite_approx_1d",
]


@dataclass(frozen=True)
class LimitProfile:
    """Nodal interpolant of the flat limit (a/b)^(1/(gamma-q)) and its bounds."""

    field: DiscreteField
    rho_minus: float
    rho_plus: float
    equation_residual_max: float


def limit_profile(spec: ProblemSpec) -> LimitProfile:
    """Interpolate the pointwise well minimizer onto the mesh.

    Raises:
        HypothesisViolation: the gain coefficient is not uniformly positive,
            so the flat limit is not bounded away from zero.
    """
    if spec.a.lower <= 0.0:
        raise HypothesisViolation(
            "the flat limit requires a uniformly positive gain coefficient "
            f"(declared lower bound {spec.a.lower})"
        )
    ex = spec.exponents
    root = 1.0 / (ex.gamma - ex.q)
    values = spec.flat_limit
    field = DiscreteField(spec.mesh, values)
    rho_minus = (spec.a.lower / spec.b.upper) ** root
    rho_plus = (spec.a.upper / spec.b.lower) ** root
    residual = np.abs(
        spec.a_nodes * values ** (ex.q - 1.0)
        - spec.b_nodes * values ** (ex.gamma - 1.0)
    )
    return LimitProfile(field, rho_minus, rho_plus, float(residual.max()))


@dataclass(frozen=True)
class AsymptoticMetrics:
    """How far a field sits from the flat limit.

    ``measure_bad`` is the quadrature measure of {|u - limit| >= eta};
    ``lr_errors`` holds (r, ||u - limit||_r) pairs; ``energy_gap`` is the
    energy of u minus J_functional(limit) and ``J_gap`` is J_functional(u)
    minus the same baseline.  No zero-trace requirement: both gaps are
    well defined for the limit profile itself.
    """

    eta: float
    measure_bad: float
    lr_errors: tuple
    energy_gap: float
    J_gap: float
    limit_value: float


def asymptotic_metrics(u: DiscreteField, profile: LimitProfile, spec: ProblemSpec,
                       eta: float = 0.1, r_list=(1.0, 2.0)) -> AsymptoticMetrics:
    """Evaluate the convergence metrics on the quadrature cloud.

    Every finite r >= 1 is accepted, beyond the paper's 1 <= r < gamma: a
    positive solution satisfies sup u <= sup limit (test the equation with
    (u - sup limit)+), so with convergence in measure it converges in every
    such L^r.

    Raises:
        InputError: eta <= 0, or an r that is below 1 or not finite.
    """
    if eta <= 0.0:
        raise InputError("the bad-set threshold eta must be positive")
    for r in r_list:
        if not (1.0 <= r < np.inf):
            raise InputError(f"L^r errors are tracked for finite r >= 1, got r={r}")
    mesh = u.mesh
    diff_qp = mesh.values_at_qp(u.values - profile.field.values)
    measure_bad = mesh.integrate((np.abs(diff_qp) >= eta).astype(float))
    lr_errors = tuple(
        (float(r), mesh.integrate(np.abs(diff_qp) ** r) ** (1.0 / r))
        for r in r_list
    )
    limit_value = J_functional(profile.field, spec)
    # No zero-trace requirement: the metrics are evaluated on the profile too.
    energy, state = _evaluate(u.values, spec)
    comps, ex = state.comps, spec.exponents
    energy_gap = energy - limit_value
    j_gap = comps.loss / ex.gamma - comps.gain / ex.q - limit_value    # J_functional(u)
    return AsymptoticMetrics(
        eta=float(eta), measure_bad=float(measure_bad), lr_errors=lr_errors,
        energy_gap=float(energy_gap), J_gap=float(j_gap),
        limit_value=float(limit_value),
    )


def separation_constant(exponents: Exponents, a_lower: float, a_upper: float,
                        b_lower: float, b_upper: float, eta: float) -> float:
    """Uniform well-energy margin outside the eta-window around the minimizer.

    For coefficients (alpha, beta) the well -(alpha/q) s^q + (beta/gamma) s^gamma
    falls on [0, rho] and rises after its minimizer rho = (alpha/beta)^(1/(gamma-q)).
    So over amplitudes s >= 0 with |s - rho| >= eta its excess over the minimum
    is least at s = rho + eta, or at s = rho - eta when rho - eta >= 0.  That
    excess is beta * rho^gamma * W(1 +- eta/rho), W(t) = t^gamma/gamma -
    t^q/q + 1/q - 1/gamma, which grows with beta at fixed rho.  Every ray of
    fixed rho enters the coefficient box on the edge alpha = a_lower or the
    edge beta = b_lower, so the margin is the least excess on those two
    edges, each searched in one variable by _edge_min.

    Raises:
        InputError: invalid bounds, eta <= 0, or a_lower <= 0 (the uniform
            positivity hypothesis).
    """
    if eta <= 0.0:
        raise InputError("eta must be positive")
    if not (0.0 < a_lower <= a_upper) or not (0.0 < b_lower <= b_upper):
        raise InputError("coefficient box needs 0 < lower <= upper on both axes")
    q, g = exponents.q, exponents.gamma

    def excess(alpha, beta):
        rho = (alpha / beta) ** (1.0 / (g - q))

        def well(s):
            return -(alpha / q) * s**q + (beta / g) * s**g

        well_min = well(rho)
        right = well(rho + eta) - well_min
        left = np.where(rho >= eta, well(np.maximum(rho - eta, 0.0)) - well_min, np.inf)
        return np.minimum(left, right)

    return min(_edge_min(lambda beta: excess(a_lower, beta), b_lower, b_upper),
               _edge_min(lambda alpha: excess(alpha, b_lower), a_lower, a_upper))


def _edge_min(f, lo: float, hi: float) -> float:
    """Least value of the vectorized f on [lo, hi].

    A 257-point grid is zoomed 8 times onto the two cells around its least
    point, each zoom narrowing the bracket 128-fold, past the last bit.  It
    finds the least value unless f has a second dip narrower than one cell
    of the first grid.
    """
    best = np.inf
    for _ in range(8):
        grid = np.linspace(lo, hi, 257)
        values = f(grid)
        k = int(np.argmin(values))
        best = min(best, float(values[k]))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 256)]
    return best


@dataclass(frozen=True)
class SweepRow:
    eps: float
    energy: float
    energy_gap: float
    J_gap: float
    measure_bad: float
    lr_errors: tuple
    linf_interior_err: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    eta: float
    r_list: tuple
    limit_value: float


def _boundary_distance(mesh: Mesh) -> np.ndarray:
    dists = []
    for d, (lo, hi) in enumerate(mesh.bounds):
        x = mesh.nodes[:, d]
        dists.append(np.minimum(x - lo, hi - x))
    return np.min(dists, axis=0)


def _sweep_row(spec: ProblemSpec, eps: float, profile: LimitProfile, eta: float,
               r_list, solver_options: dict, row_seed: int,
               interior_mask: np.ndarray) -> SweepRow:
    sub = spec.with_epsilon(eps)
    opts = dict(solver_options)
    opts.setdefault("seed", 0)
    opts["seed"] = opts["seed"] + row_seed
    report = solve_ground_state(sub, **opts)
    metrics = asymptotic_metrics(report.field, profile, sub, eta, r_list)
    diff = np.abs(report.field.values - profile.field.values)
    linf_int = float(diff[interior_mask].max()) if interior_mask.any() else 0.0
    return SweepRow(
        eps=float(eps), energy=report.energy, energy_gap=metrics.energy_gap,
        J_gap=metrics.J_gap, measure_bad=metrics.measure_bad,
        lr_errors=metrics.lr_errors, linf_interior_err=linf_int,
        converged=report.converged, iterations=report.iterations,
    )


def epsilon_sweep(spec: ProblemSpec, eps_list, eta: float = 0.1,
                  r_list=(1.0, 2.0), solver_options: dict | None = None,
                  threads: int = 1) -> SweepReport:
    """Ground-state solve plus limit metrics for each eps in a decreasing list.

    Rows are independent (each eps is solved from the default seeds with a
    per-row derived seed) and may be computed in ``threads`` parallel workers;
    the report always lists rows in ``eps_list`` order.  The interior sup
    error ignores nodes within 10% of the domain diameter of the boundary,
    where the layers live.

    Raises:
        InputError: eps_list empty, nonpositive, or not strictly decreasing.
    """
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr:
        raise InputError("eps_list must not be empty")
    if any(e <= 0 for e in eps_arr):
        raise InputError("every eps must be positive")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise InputError("eps_list must be strictly decreasing")
    solver_options = dict(solver_options or {})
    profile = limit_profile(spec)
    span = np.array([hi - lo for lo, hi in spec.mesh.bounds], dtype=float)
    margin = 0.1 * float(np.linalg.norm(span))
    interior_mask = _boundary_distance(spec.mesh) >= margin

    def row(i):
        return _sweep_row(spec, eps_arr[i], profile, eta, r_list, solver_options,
                          i, interior_mask)

    # Both maps return results in input order, so rows follow eps_list.
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = tuple(pool.map(row, range(len(eps_arr))))
    else:
        rows = tuple(map(row, range(len(eps_arr))))
    return SweepReport(
        rows=rows, eta=float(eta), r_list=tuple(float(r) for r in r_list),
        limit_value=J_functional(profile.field, spec),
    )


@dataclass(frozen=True)
class ScaledSolution:
    """A solution moved to one of the two equivalent one-parameter forms."""

    field: DiscreteField
    parameter: float
    target: str


def scale_solution(u: DiscreteField, eps: float, exponents: Exponents,
                   target: str) -> ScaledSolution:
    """Transform a solution of the eps-form into the lambda- or nu-form.

    lambda-form: -div(|grad v|^(p-2) grad v) = lambda a |v|^(q-2) v - b |v|^(gamma-2) v
        with v = eps^(-1/(gamma-p)) u and lambda = eps^(-(gamma-q)/(gamma-p)).
    nu-form: the loss term is scaled instead,
        with v = eps^(-1/(q-p)) u and nu = eps^((gamma-q)/(q-p)).
    """
    if eps <= 0:
        raise InputError("eps must be positive")
    p, q, g = exponents.p, exponents.q, exponents.gamma
    if target == "lambda":
        factor, parameter = eps ** (-1.0 / (g - p)), eps ** (-(g - q) / (g - p))
    elif target == "nu":
        factor, parameter = eps ** (-1.0 / (q - p)), eps ** ((g - q) / (q - p))
    else:
        raise InputError(f"target must be 'lambda' or 'nu', got {target!r}")
    return ScaledSolution(u.scaled(factor), float(parameter), target)


# -- 1D boundary-layer profile (p = 2) ---------------------------------------


def _potential_derivatives_at_one(q: float, g: float, order: int) -> list[float]:
    """W^(k)(1) for k = 2..order, W(t) = t^g/g - t^q/q + 1/q - 1/g."""
    out = []
    for k in range(2, order + 1):
        fg = np.prod([g - 1 - j for j in range(k - 1)])
        fq = np.prod([q - 1 - j for j in range(k - 1)])
        out.append(float(fg - fq))
    return out


class _LayerPotential:
    """Stable evaluation of W(t) = t^g/g - t^q/q + 1/q - 1/g on [0, 1].

    W has a double zero at t = 1: the direct formula sums terms of order 1
    to a value of order delta^2, delta = 1 - t.  Written as
    expm1(g log t)/g - expm1(q log t)/q, with log t = log1p(-delta), its
    terms are of order delta, so the cancellation costs one factor delta,
    not two.  Within SERIES_CUT of t = 1 a Taylor expansion in delta takes
    over.
    """

    SERIES_CUT = 3e-3

    def __init__(self, q: float, g: float):
        self.q = q
        self.g = g
        self.derivs = _potential_derivatives_at_one(q, g, 6)

    def gap_factor(self, delta: np.ndarray) -> np.ndarray:
        """g with W(1 - delta) = delta^2 g(delta); positive for small delta."""
        w2, w3, w4, w5, w6 = self.derivs
        return (
            w2 / 2.0
            - delta * (w3 / 6.0
                       - delta * (w4 / 24.0
                                  - delta * (w5 / 120.0 - delta * w6 / 720.0)))
        )

    def integrand_log(self, s: np.ndarray) -> np.ndarray:
        """d(xi)/ds after substituting t = 1 - exp(-s): exp(-s)/sqrt(2 W).

        Factoring delta = exp(-s) out of sqrt(W) keeps the tail finite even
        when delta underflows the double-rounding gap below 1.
        """
        s = np.asarray(s, dtype=float)
        delta = np.exp(-s)
        near = delta < self.SERIES_CUT
        with np.errstate(divide="ignore"):  # log t = -inf at s = 0, where W = 1/q - 1/g
            log_t = np.log1p(-delta)
        direct_w = np.where(
            near, 1.0,
            np.expm1(self.g * log_t) / self.g - np.expm1(self.q * log_t) / self.q,
        )
        factor = self.gap_factor(np.minimum(delta, self.SERIES_CUT))
        return np.where(near, 1.0 / np.sqrt(2.0 * factor),
                        delta / np.sqrt(2.0 * direct_w))


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GAUSS_T = 0.5 * (_GAUSS_NODES + 1.0)
_GAUSS_W = 0.5 * _GAUSS_WEIGHTS

# Panel breaks over s = -log(1 - U).  For non-integer q, t^q has a branch
# point at s = 0, so the panels halve 40 times toward it; unit panels follow
# out to s = 64, where exp(-s) < 2^-92 and the integrand is constant to
# rounding.  Past that, one panel as long as the table doubles its reach, at
# most 64 times.
_LAYER_BREAKS = np.concatenate(
    [[0.0], 2.0 ** np.arange(-40.0, 0.0), np.arange(1.0, 65.0)])
# Newton from the table's linear interpolant reaches the rounding floor of
# xi(s) within 4 steps for every exponent pair tried, 1.01 <= q < gamma <= 200;
# two more steps are spare.
_LAYER_NEWTON_STEPS = 6


def _gauss_panels(pot: _LayerPotential, lo: np.ndarray,
                  length: np.ndarray) -> np.ndarray:
    """16-point Gauss integral of pot.integrand_log over each [lo, lo + length]."""
    nodes = lo[:, None] + length[:, None] * _GAUSS_T
    return pot.integrand_log(nodes) @ _GAUSS_W * length


@dataclass(frozen=True)
class LayerProfile:
    """Sampled boundary-layer profile U(xi) rising from 0 toward 1.

    Values saturate at the largest double below 1 once 1 - U drops under
    machine precision; interpolation past the sampled range clamps to 1.
    """

    xi: np.ndarray
    values: np.ndarray
    q: float
    gamma: float

    def values_at(self, xi_query) -> np.ndarray:
        xi_query = np.asarray(xi_query, dtype=float)
        if np.any(xi_query < 0.0):
            raise InputError("the layer profile is defined for xi >= 0")
        return np.interp(xi_query, self.xi, self.values, right=1.0)

    def validate(self) -> None:
        below = self.values < 1.0 - 1e-12
        diffs = np.diff(self.values)
        if self.xi[0] == 0.0 and self.values[0] != 0.0:
            raise InputError("profile must start at U(0) = 0")
        if np.any(diffs < 0.0):
            raise InputError("profile values must be nondecreasing")
        if np.any(diffs[below[:-1]] <= 0.0):
            raise InputError("profile must be strictly increasing below saturation")
        if np.any((self.values < 0.0) | (self.values >= 1.0)):
            raise InputError("profile values must lie in [0, 1)")


def layer_profile_1d(q: float, gamma: float, xi_max: float = 40.0,
                     points: int = 401) -> LayerProfile:
    """Solve the p = 2 layer equation for U(xi) on a uniform xi grid.

    The first integral gives xi as the integral of 1/sqrt(2 W(t)) from 0 to
    U.  After substituting t = 1 - exp(-s), the integrand xi'(s) is smooth
    into the tail.  One table holds its 16-point Gauss integrals over fixed
    panels in s, graded toward the branch point of t^q at s = 0, summed
    cumulatively until they pass xi_max.  Each grid value of xi is then found by
    Newton's method in s, started from linear interpolation in the table.
    An iterate's xi(s) is the table entry at its panel's left end plus one
    Gauss integral over the part of the panel below s.  Every iterate stays
    inside its panel: a step that would leave the bracket known so far
    bisects it instead.  The step count is fixed, so the result depends on
    nothing but the inputs.

    Raises:
        InputError: exponents outside 1 < q < gamma, a non-finite or
            nonpositive xi_max, or points < 2.
        NumericalError: the table does not reach xi_max.
    """
    if not (1.0 < q < gamma):
        raise InputError(f"layer profile needs 1 < q < gamma, got q={q}, gamma={gamma}")
    if not (0.0 < xi_max < np.inf) or points < 2:
        raise InputError("xi_max must be positive and finite, and points >= 2")
    pot = _LayerPotential(q, gamma)
    xi_grid = np.linspace(0.0, xi_max, points)

    breaks = _LAYER_BREAKS
    table = np.concatenate(
        [[0.0], np.cumsum(_gauss_panels(pot, breaks[:-1], np.diff(breaks)))])
    for _ in range(64):
        if table[-1] >= xi_max:
            break
        reach = breaks[-1:]
        table = np.append(table, table[-1] + _gauss_panels(pot, reach, reach))
        breaks = np.append(breaks, 2.0 * reach)
    if not table[-1] >= xi_max:
        raise NumericalError(f"layer quadrature failed to bracket xi = {xi_max}")

    targets = xi_grid[1:]
    k = np.minimum(np.searchsorted(table, targets, side="right"),
                   breaks.size - 1) - 1
    start, lo, hi = breaks[k], breaks[k], breaks[k + 1]
    offset = table[k] - targets
    s = start - offset / (table[k + 1] - table[k]) * (hi - lo)
    for _ in range(_LAYER_NEWTON_STEPS):
        residual = offset + _gauss_panels(pot, start, s - start)
        lo = np.where(residual < 0.0, s, lo)
        hi = np.where(residual > 0.0, s, hi)
        step = s - residual / pot.integrand_log(s)
        s = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
    u = -np.expm1(-s)
    u = np.minimum(u, np.nextafter(1.0, 0.0))
    values = np.concatenate([[0.0], np.maximum.accumulate(u)])
    return LayerProfile(xi=xi_grid, values=values, q=float(q), gamma=float(gamma))


def composite_approx_1d(eps: float, mesh: Mesh, profile: LayerProfile) -> DiscreteField:
    """Two-sided composite U(d0/sqrt(eps)) + U(d1/sqrt(eps)) - 1 on a 1D mesh.

    d0 and d1 are the distances to the interval endpoints.  The profile is
    interpolated linearly in xi with its tail clamped to 1, so a profile
    sampled past the active layer suffices for any smaller eps.
    """
    if mesh.dimension != 1:
        raise InputError("the composite approximation is one-dimensional")
    if eps <= 0.0:
        raise InputError("eps must be positive")
    (x0, x1), = mesh.bounds
    x = mesh.nodes[:, 0]
    scale = 1.0 / np.sqrt(eps)
    vals = (profile.values_at((x - x0) * scale)
            + profile.values_at((x1 - x) * scale) - 1.0)
    return DiscreteField(mesh, vals)
