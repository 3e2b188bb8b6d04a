"""Small-eps limit: flat profile, convergence metrics, layers, scalings.

As eps -> 0 the ground state flattens onto the pointwise minimizer of the
well density j_x(s) = -(a(x)/q) s^q + (b(x)/gamma) s^gamma, namely
(a/b)^(1/(gamma-q)), except inside O(sqrt(eps)) boundary layers.  This module
provides that profile, the metrics quantifying the approach (bad-set measure,
L^r errors, energy gaps), the brute-force separation constant that links the
bad-set measure to the well-energy gap, per-eps sweeps, the equivalent
lambda/nu scalings of the equation, and the 1D layer profile obtained by
integrating the first integral U' = sqrt(2 W(U)) of the p = 2 layer equation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation, InputError, NumericalError
from .functionals import J_functional, energy_components
from .problem import (
    CoefficientField,
    DiscreteField,
    Exponents,
    Mesh,
    ProblemSpec,
)
from .solver import SolveReport, solve_ground_state

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
    "scaled_problem",
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

    Raises:
        InputError: eta <= 0, or an r outside [1, gamma); the well density
            controls |u|^r only below the saturation exponent gamma.
    """
    if eta <= 0.0:
        raise InputError("the bad-set threshold eta must be positive")
    ex = spec.exponents
    for r in r_list:
        if not (1.0 <= r < ex.gamma):
            raise InputError(
                f"L^r errors are tracked for 1 <= r < gamma={ex.gamma} "
                f"(strong convergence region), got r={r}"
            )
    mesh = u.mesh
    diff_qp = mesh.values_at_qp(u.values - profile.field.values)
    measure_bad = mesh.integrate((np.abs(diff_qp) >= eta).astype(float))
    lr_errors = tuple(
        (float(r), mesh.integrate(np.abs(diff_qp) ** r) ** (1.0 / r))
        for r in r_list
    )
    limit_value = J_functional(profile.field, spec)
    # No zero-trace requirement: the metrics are evaluated on the profile too.
    comps = energy_components(u, spec, check_boundary=False)
    energy = ((spec.epsilon / ex.p) * comps.dirichlet
              - comps.gain / ex.q + comps.loss / ex.gamma)
    energy_gap = energy - limit_value
    j_gap = J_functional(u, spec) - limit_value
    return AsymptoticMetrics(
        eta=float(eta), measure_bad=float(measure_bad), lr_errors=lr_errors,
        energy_gap=float(energy_gap), J_gap=float(j_gap),
        limit_value=float(limit_value),
    )


def separation_constant(exponents: Exponents, a_lower: float, a_upper: float,
                        b_lower: float, b_upper: float, eta: float,
                        n_box: int = 64, n_s: int = 512) -> float:
    """Brute-force uniform well-energy margin outside the eta-window.

    Minimizes the well density minus its minimum value over an
    n_box x n_box coefficient grid and an n_s-point amplitude grid on [0, M]
    (plus the exact window edges minimizer +/- eta), excluding the window
    of radius eta around the per-coefficient minimizer.  M is pushed far
    enough out that the growth bound
    -(a_upper/q) s^q + (b_lower/gamma) s^gamma already exceeds every well
    minimum by 1, and the result is capped at 1.

    Raises:
        InputError: invalid bounds, eta <= 0, or a_lower <= 0 (the uniform
            positivity hypothesis).
    """
    if eta <= 0.0:
        raise InputError("eta must be positive")
    if not (0.0 < a_lower <= a_upper) or not (0.0 < b_lower <= b_upper):
        raise InputError("coefficient box needs 0 < lower <= upper on both axes")
    q, g = exponents.q, exponents.gamma
    root = 1.0 / (g - q)

    alpha_grid, beta_grid = np.meshgrid(
        np.linspace(a_lower, a_upper, n_box),
        np.linspace(b_lower, b_upper, n_box),
        indexing="ij",
    )
    alpha = alpha_grid.ravel()[:, None]
    beta = beta_grid.ravel()[:, None]
    rho = (alpha / beta) ** root

    def well(s):
        return -(alpha / q) * s**q + (beta / g) * s**g

    well_min = well(rho)

    # Growth bound beyond M: the worst-case density already clears the minima by 1.
    def well_floor(s):
        return -(a_upper / q) * s**q + (b_lower / g) * s**g

    m = (a_upper * g / (b_lower * q)) ** root + eta
    target = 1.0 + float(well_min.max())
    while well_floor(m) < target:
        m *= 2.0
        if m > 1e12:
            raise InputError("could not bracket the growth region; check exponents")

    s_grid = np.linspace(0.0, m, n_s)[None, :]
    edges = np.concatenate(
        [np.clip(rho - eta, 0.0, m), np.clip(rho + eta, 0.0, m)], axis=1
    )
    samples = np.concatenate([np.broadcast_to(s_grid, (rho.shape[0], n_s)), edges],
                             axis=1)
    gaps = well(samples) - well_min
    gaps = np.where(np.abs(samples - rho) >= eta, gaps, np.inf)
    margin = float(np.min(gaps))
    return min(margin, 1.0)


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

    def column(self, name: str) -> np.ndarray:
        if name.startswith("l") and name.endswith("_err") and name != "linf_interior_err":
            r = float(name[1:-4])
            idx = [i for i, (rr, _) in enumerate(self.rows[0].lr_errors) if rr == r]
            if not idx:
                raise InputError(f"no L^r error tracked for r={r}")
            return np.array([row.lr_errors[idx[0]][1] for row in self.rows])
        if name == "measure_bad_eta":
            name = "measure_bad"
        return np.array([getattr(row, name) for row in self.rows])

    def csv_header(self) -> list[str]:
        cols = ["eps", "energy", "energy_gap", "J_gap", "measure_bad_eta"]
        cols += [f"l{r:g}_err" for r, _ in self.rows[0].lr_errors]
        cols += ["linf_interior_err", "converged"]
        return cols

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(self.csv_header()) + "\n")
            for row in self.rows:
                cells = ["%.17g" % row.eps, "%.17g" % row.energy,
                         "%.17g" % row.energy_gap, "%.17g" % row.J_gap,
                         "%.17g" % row.measure_bad]
                cells += ["%.17g" % err for _, err in row.lr_errors]
                cells += ["%.17g" % row.linf_interior_err,
                          "true" if row.converged else "false"]
                fh.write(",".join(cells) + "\n")

    def to_json_dict(self) -> dict:
        return {
            "eta": self.eta,
            "r_list": list(self.r_list),
            "limit_value": self.limit_value,
            "rows": [
                {
                    "eps": row.eps, "energy": row.energy,
                    "energy_gap": row.energy_gap, "J_gap": row.J_gap,
                    "measure_bad_eta": row.measure_bad,
                    "lr_errors": [[r, e] for r, e in row.lr_errors],
                    "linf_interior_err": row.linf_interior_err,
                    "converged": row.converged, "iterations": row.iterations,
                }
                for row in self.rows
            ],
        }


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

    def run(i_eps):
        i, eps = i_eps
        return i, _sweep_row(spec, eps, profile, eta, r_list, solver_options,
                             i, interior_mask)

    indexed = list(enumerate(eps_arr))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = dict(pool.map(run, indexed))
    else:
        results = dict(map(run, indexed))
    rows = tuple(results[i] for i in range(len(eps_arr)))
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
    factor, parameter = _scalings(eps, exponents, target)
    return ScaledSolution(u.scaled(factor), float(parameter), target)


def _scalings(eps: float, exponents: Exponents, target: str) -> tuple[float, float]:
    """(field factor, parameter) that move the eps-form into ``target``'s form."""
    p, q, g = exponents.p, exponents.q, exponents.gamma
    if target == "lambda":
        return eps ** (-1.0 / (g - p)), eps ** (-(g - q) / (g - p))
    if target == "nu":
        return eps ** (-1.0 / (q - p)), eps ** ((g - q) / (q - p))
    raise InputError(f"target must be 'lambda' or 'nu', got {target!r}")


def _scaled_coefficient(coeff: CoefficientField, factor: float) -> CoefficientField:
    inner = coeff.evaluator
    return CoefficientField(
        lambda *xs: factor * np.asarray(inner(*xs), dtype=float),
        factor * coeff.lower, factor * coeff.upper, coeff.name,
    )


def scaled_problem(spec: ProblemSpec, target: str) -> ProblemSpec:
    """The eps = 1 problem whose solutions are the scaled solutions.

    In the lambda-form the gain coefficient absorbs lambda; in the nu-form the
    loss coefficient absorbs nu.
    """
    ex = spec.exponents
    _, parameter = _scalings(spec.epsilon, ex, target)
    if target == "lambda":
        return ProblemSpec(spec.mesh, ex, 1.0, _scaled_coefficient(spec.a, parameter), spec.b)
    return ProblemSpec(spec.mesh, ex, 1.0, spec.a, _scaled_coefficient(spec.b, parameter))


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

    W has a double zero at t = 1; within SERIES_CUT of it a Taylor expansion
    in 1 - t avoids the catastrophic cancellation of the direct formula.
    """

    SERIES_CUT = 3e-3

    def __init__(self, q: float, g: float):
        self.q = q
        self.g = g
        self.offset = 1.0 / q - 1.0 / g
        self.derivs = _potential_derivatives_at_one(q, g, 6)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        delta = 1.0 - t
        direct = t**self.g / self.g - t**self.q / self.q + self.offset
        series = delta**2 * self.gap_factor(delta)
        return np.where(delta < self.SERIES_CUT, series, direct)

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
        t = 1.0 - delta
        near = delta < self.SERIES_CUT
        direct_w = np.where(
            near, 1.0, t**self.g / self.g - t**self.q / self.q + self.offset
        )
        factor = self.gap_factor(np.minimum(delta, self.SERIES_CUT))
        return np.where(near, 1.0 / np.sqrt(2.0 * factor),
                        delta / np.sqrt(2.0 * direct_w))


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GAUSS_T = 0.5 * (_GAUSS_NODES + 1.0)
_GAUSS_W = 0.5 * _GAUSS_WEIGHTS


def _xi_of_logdepth(pot: _LayerPotential, s_upper: np.ndarray) -> np.ndarray:
    """xi(U) for s_upper = -log(1 - U), vectorized over many upper limits.

    Panelized 16-point Gauss: unit panels resolve the transition region near
    s = 0; the tail integrand is constant up to O(exp(-s)) so long panels are
    safe there.
    """
    s_upper = np.atleast_1d(np.asarray(s_upper, dtype=float))
    n = s_upper.shape[0]
    n_active, n_tail = 12, 12
    split = np.minimum(s_upper, float(n_active))
    active = np.linspace(0.0, 1.0, n_active + 1)[None, :] * split[:, None]
    tail = split[:, None] + np.linspace(0.0, 1.0, n_tail + 1)[None, :] * (
        s_upper - split
    )[:, None]
    breaks = np.concatenate([active, tail[:, 1:]], axis=1)   # (n, panels + 1)
    lo = breaks[:, :-1]
    length = breaks[:, 1:] - lo
    nodes = lo[:, :, None] + length[:, :, None] * _GAUSS_T[None, None, :]
    vals = pot.integrand_log(nodes.reshape(n, -1)).reshape(nodes.shape)
    weights = length[:, :, None] * _GAUSS_W[None, None, :]
    return np.einsum("npk,npk->n", vals, weights)


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

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("xi,U\n")
            for x, u in zip(self.xi, self.values):
                fh.write("%.17g,%.17g\n" % (x, u))


def layer_profile_1d(q: float, gamma: float, xi_max: float = 40.0,
                     points: int = 401) -> LayerProfile:
    """Solve the p = 2 layer equation for U(xi) on a uniform xi grid.

    The first integral gives xi as the integral of 1/sqrt(2 W(t)) from 0 to
    U; after substituting t = 1 - exp(-s) the integrand is smooth all the way
    into the tail, and a bracketing bisection in s inverts the relation for
    each grid value of xi.

    Raises:
        InputError: exponents outside 1 < q < gamma, or a degenerate grid.
    """
    if not (1.0 < q < gamma):
        raise InputError(f"layer profile needs 1 < q < gamma, got q={q}, gamma={gamma}")
    if xi_max <= 0.0 or points < 2:
        raise InputError("xi_max must be positive and points >= 2")
    pot = _LayerPotential(q, gamma)
    xi_grid = np.linspace(0.0, xi_max, points)

    # Bracket: the transformed integrand is bounded below on [0, hi].
    hi = max(4.0 * xi_max, 8.0)
    for _ in range(200):
        if float(_xi_of_logdepth(pot, np.array([hi]))[0]) >= xi_max:
            break
        hi *= 2.0
    else:
        raise NumericalError(
            f"layer quadrature failed to bracket xi = {xi_max}"
        )

    targets = xi_grid[1:]
    lo = np.zeros_like(targets)
    hi_arr = np.full_like(targets, hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi_arr)
        too_small = _xi_of_logdepth(pot, mid) < targets
        new_lo = np.where(too_small, mid, lo)
        new_hi = np.where(too_small, hi_arr, mid)
        # Brackets that all stayed put sit on adjacent doubles: every later
        # sweep would repeat this one.
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi_arr):
            break
        lo, hi_arr = new_lo, new_hi
    s_sol = 0.5 * (lo + hi_arr)
    u = -np.expm1(-s_sol)
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
