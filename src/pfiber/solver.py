"""Critical-point solvers: negative-energy ground state and mountain pass.

Ground state.  Preconditioned descent on the energy: the nodal weak residual
is mapped to a Sobolev-type gradient through an interior solve with
eps * stiffness + mass, then Armijo backtracking (factor 0.5, slope
parameter 1e-4) fixes the step.  Seeds are the fiber-optimal scaling of the
interpolated flat-limit profile plus random nonnegative restarts; candidates
are compared by energy and the zero field wins whenever no candidate goes
strictly below zero, which is exactly the nonexistence regime.

Second solution.  A min-max over polyline paths from the zero field to the
ground state.  Knots start clustered around the energy peak along the
straight ray, every interior knot takes one Armijo step along the negative
weak residual of the positive-part energy, and dense samples inside each
segment are promoted to knots whenever one tops the knot maximum, so the ridge
crossing stays resolved.  Sweeps repeat until the knot carrying the path
maximum is residual-stationary, or until that knot is close enough for
Newton's method on the assembled Jacobian to finish the search (Choi &
McKenna, Nonlinear Anal. 20, 1993); the sweeps are the globalization and
the fallback.  The positive-part nonlinearity makes the limiting critical
point nonnegative.

Both solvers stop on one rule, _tolerance, and finish through one
re-evaluation, _finish, of the field they return.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import InputError
from .functionals import (
    EnergyComponents,
    energy_components,
    membership_tolerance,
    phi_plus,
    _BLOCK,
    _energy_change,
    _energy_scale,
    _evaluate,
    _jacobian,
    _phi_plus_block,
    _residual,
    delta_reg,
)
from .linalg import (ARMIJO_FACTOR, ARMIJO_SLOPE, MAX_BACKTRACKS, MAX_STEP,
                     InteriorSolver, armijo, preconditioned_direction, secant_step)
from .problem import DiscreteField, Exponents, Mesh, ProblemSpec
from .rayleigh import fiber_scalings

__all__ = [
    "SolveReport",
    "solve_ground_state",
    "MountainPassReport",
    "solve_mountain_pass",
]

# Accepted descent steps in a row that leave the trace energy unchanged before
# the descent gives up: at the rounding floor an accepted step's energy change
# no longer moves it.  Of the descents in the test suite and the benchmark
# workloads, those that converge take at most 4 such steps in a row.
_FLAT_STEPS = 10

# Fraction of _energy_scale below which the difference of two rounded
# energies, each off by a few 1e-16 of that scale, keeps too few digits for
# the Armijo test (Hager & Zhang, SIAM J. Optim. 16, 2005).
_RESOLUTION = 1e-13

# The mountain pass hands its top knot to Newton once the knot's residual is
# within _NEWTON_HANDOFF times the tolerance; after a refusal it tries again
# only when that residual has fallen _NEWTON_RETRY_DROP times lower, which
# bounds the number of attempts.  Newton itself takes at most _NEWTON_STEPS
# steps: from a hand-off on the test and benchmark models it reaches the
# rounding floor in 4 to 7.
_NEWTON_HANDOFF = 1e4
_NEWTON_RETRY_DROP = 10.0
_NEWTON_STEPS = 10


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a ground-state solve.

    ``nehari_residual`` is |eps*dirichlet - gain + loss| normalized by
    eps*dirichlet + gain + loss; the constraint holds exactly at critical
    points.  ``fiber_second_derivative`` is
    (p - q)*eps*dirichlet + (gamma - q)*loss, the curvature of the energy
    along the ray through the solution; positive values mark the ground-state
    branch.  ``trace`` rows are (iteration, energy, residual_norm) for the
    winning descent run.
    """

    field: DiscreteField
    energy: float
    residual_norm: float
    nehari_residual: float
    fiber_second_derivative: float
    iterations: int
    converged: bool
    tol_effective: float
    delta_reg: float
    trace: list = dataclass_field(default_factory=list, repr=False)

    def is_zero(self) -> bool:
        return not np.any(self.field.values)


def _zero_boundary(values: np.ndarray, mesh: Mesh) -> np.ndarray:
    out = np.asarray(values, dtype=float).copy()
    out[mesh.boundary_nodes] = 0.0
    return out


def _tolerance(tol_res: float, energy: float) -> float:
    """The stop rule: a field is critical when its residual max-norm is at most this."""
    return tol_res * (1.0 + abs(energy))


def _finish(values: np.ndarray, spec: ProblemSpec, tol_res: float):
    """(field, energy, residual max-norm, tolerance, components) of a returned field."""
    energy, state = _evaluate(values, spec)
    res_norm = float(np.max(np.abs(_residual(state, spec))))
    return (DiscreteField(spec.mesh, values), energy, res_norm,
            _tolerance(tol_res, energy), state.comps)


def _descend(start: np.ndarray, spec: ProblemSpec, pre: InteriorSolver,
             tol_res: float, max_iters: int):
    """Armijo descent from one seed; returns (values, iterations, trace).

    The trial step is linalg.secant_step, the spectral (Barzilai-Borwein)
    estimate in the preconditioner metric; backtracking keeps every accepted
    step monotone.  P^-1 y falls out of the direction solves already done.
    The accepted trial's state gives the next residual.  Where a trial's
    energy is within _RESOLUTION of the current one, the Armijo test uses
    the cancellation-free change of _energy_change instead of the difference
    of the two rounded energies, and the trace energy moves by that change.
    The descent stops unconverged after _FLAT_STEPS accepted steps in a row
    without a strict decrease of the trace energy.
    """
    mesh = spec.mesh
    u = _zero_boundary(start, mesh)
    energy, state = _evaluate(u, spec)
    step = 1.0
    trace = []
    flat_steps = 0
    prev_u = prev_residual = prev_pre_grad = None
    for iterations in range(max_iters + 1):
        residual = _residual(state, spec)
        resolution = _RESOLUTION * _energy_scale(state.comps, spec)
        # Only u outlives the residual.  A state kept through the line search
        # would fragment the heap, and the peak RSS grows with every solve.
        state = found = None
        res_norm = float(np.max(np.abs(residual)))
        trace.append((iterations, energy, res_norm))
        if (res_norm <= _tolerance(tol_res, energy) or iterations == max_iters
                or flat_steps >= _FLAT_STEPS):
            break
        found = preconditioned_direction(pre, residual)
        if found is None:
            break
        pre_grad, slope = found
        if prev_u is not None:
            step = secant_step(u - prev_u, residual - prev_residual,
                               pre_grad - prev_pre_grad, step)
        prev_u, prev_residual, prev_pre_grad = u, residual, pre_grad
        products = []    # the direction's gradients and quadrature values

        def trial(t):
            cand_energy, cand = _evaluate(u - t * pre_grad, spec)
            change = cand_energy - energy
            if abs(change) <= resolution:
                if not products:
                    products.extend((mesh.gradients(pre_grad), mesh.values_at_qp(pre_grad)))
                change = _energy_change(u, cand.values, -t, *products, spec)
            return change, cand

        found = armijo(trial, 0.0, -slope, step)
        if found is None:
            break
        t, change, state = found
        flat_steps = flat_steps + 1 if energy + change >= energy else 0
        u, energy = state.values, energy + change
        step = min(2.0 * t, MAX_STEP)
    return u, iterations, trace


def _amplitude(spec: ProblemSpec) -> float:
    """Largest flat-limit value the declared bounds allow; 1 if that is 0 or not finite."""
    ex = spec.exponents
    amplitude = (spec.a.upper / spec.b.lower) ** (1.0 / (ex.gamma - ex.q))
    return amplitude if amplitude > 0.0 and np.isfinite(amplitude) else 1.0


def _default_seeds(spec: ProblemSpec, seed: int, random_restarts: int) -> list[np.ndarray]:
    mesh = spec.mesh
    seeds = []
    w = _zero_boundary(spec.flat_limit, mesh)
    comps = energy_components(DiscreteField(mesh, w), spec)
    if comps.dirichlet > 0.0 and comps.gain > membership_tolerance(spec) and comps.loss > 0.0:
        scalings = fiber_scalings(comps, spec.exponents)
        w = scalings.zero_energy * w
    seeds.append(w)
    amplitude = _amplitude(spec)
    for i in range(random_restarts):
        rng = np.random.default_rng((seed, 101 + i))
        seeds.append(_zero_boundary(rng.uniform(0.0, amplitude, mesh.n_nodes), mesh))
    return seeds


def solve_ground_state(spec: ProblemSpec, init: DiscreteField | None = None,
                       tol_res: float = 1e-8, max_iters: int = 50_000,
                       seed: int = 0, random_restarts: int = 4) -> SolveReport:
    """Locate the minimal-energy critical point, or the zero field.

    ``tol_res`` is the factor in the dynamic tolerance
    tol_res * (1 + |energy|) applied to the residual max-norm.  When every
    converged candidate has nonnegative energy the zero field is the global
    minimizer and is returned with ``converged=True``; this is the expected
    outcome above the critical threshold.

    Raises:
        InputError: ``init`` lives on a different mesh.
    """
    if tol_res <= 0:
        raise InputError("tol_res must be positive")
    mesh = spec.mesh
    pre = InteriorSolver(mesh, alpha=spec.epsilon, beta=1.0)
    if init is not None:
        if init.values.shape != (mesh.n_nodes,):
            raise InputError("init field does not match the problem's mesh")
        seeds = [init.values]
    else:
        seeds = _default_seeds(spec, seed, random_restarts)

    tiny = 1e-8 * _amplitude(spec)
    candidates = []    # (field, energy, res_norm, tol, comps, trace), in seed order
    iterations = 0
    for start in seeds:
        values, iters, trace = _descend(start, spec, pre, tol_res, max_iters)
        iterations += iters
        values = np.abs(values)
        if float(values.max(initial=0.0)) <= tiny:
            # Nontrivial critical points are bounded away from zero; a field
            # this small can only be the zero basin, and |u| kinks must not
            # push its re-evaluated residual over tolerance.
            values = np.zeros_like(values)
        candidates.append((*_finish(values, spec, tol_res), trace))

    converged = [c for c in candidates if c[2] <= c[3]]
    best = min(converged or candidates, key=lambda c: c[1])
    if converged:
        comps = best[4]
        zero_floor = 1e-12 * (1.0 + spec.epsilon * comps.dirichlet + comps.gain + comps.loss)
        if best[1] >= -zero_floor:
            return SolveReport(
                field=DiscreteField(mesh, np.zeros(mesh.n_nodes)), energy=0.0,
                residual_norm=0.0, nehari_residual=0.0, fiber_second_derivative=0.0,
                iterations=iterations, converged=True, tol_effective=tol_res,
                delta_reg=delta_reg(spec.exponents.p), trace=best[5],
            )
        # Ties keep the earliest seed.
        tie_tol = 1e-10 * (1.0 + abs(best[1]))
        best = next(c for c in converged if abs(c[1] - best[1]) <= tie_tol)
    field, energy, res_norm, tol_eff, comps, trace = best
    ex, eps = spec.exponents, spec.epsilon
    dir_, gain, loss = comps.dirichlet, comps.gain, comps.loss
    return SolveReport(
        field=field, energy=energy, residual_norm=res_norm,
        nehari_residual=abs(eps * dir_ - gain + loss) / (eps * dir_ + gain + loss),
        fiber_second_derivative=(ex.p - ex.q) * eps * dir_ + (ex.gamma - ex.q) * loss,
        iterations=iterations, converged=res_norm <= tol_eff,
        tol_effective=tol_eff, delta_reg=delta_reg(ex.p), trace=trace,
    )


@dataclass(frozen=True)
class MountainPassReport:
    """Outcome of the path min-max for the second solution.

    ``path_level`` is the path maximum of the positive-part energy when the
    sweeps stopped, an upper bound of the discrete mountain-pass level.
    ``iterations`` counts the sweeps and ``newton_steps`` the Newton steps
    that finished the search, 0 when the sweeps finished it alone.
    """

    field: DiscreteField
    energy: float
    path_level: float
    residual_norm: float
    iterations: int
    newton_steps: int
    converged: bool
    tol_effective: float
    delta_reg: float


def _ray_peak_scale(comps: EnergyComponents, eps: float,
                    exponents: Exponents) -> float:
    """Scale of the energy maximum along the ray through a Nehari point.

    With (T, A, B) the components at the endpoint, h(t) = eps T - A t^(q-p)
    + B t^(g-p) vanishes at t = 1 by the Nehari identity and at the energy
    peak along the ray, t < 1; bisection between a sign change brackets the
    smaller root.
    """
    p, q, g = exponents.p, exponents.q, exponents.gamma
    eT, A, B = eps * comps.dirichlet, comps.gain, comps.loss

    def h(t: float) -> float:
        return eT - A * t ** (q - p) + B * t ** (g - p)

    grid = np.geomspace(1e-10, 1.0 - 1e-9, 400)
    sign = np.array([h(t) for t in grid])
    neg = np.nonzero(sign < 0.0)[0]
    if neg.size == 0:
        return 1e-2
    lo, hi = grid[max(neg[0] - 1, 0)], grid[neg[0]]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


def _step_knots(knots: np.ndarray, steps: np.ndarray, energies: np.ndarray,
                residuals: np.ndarray, spec: ProblemSpec, pre: InteriorSolver) -> None:
    """Move every interior knot one Armijo step down the positive-part energy.

    ``knots`` holds one path knot per column, ``energies`` their
    positive-part energies and ``residuals`` the interior knots' residuals,
    one column each.  The directions come from one preconditioner solve, and
    the knots still searching backtrack in lockstep; each knot's search
    depends only on that knot.  ``knots`` and ``steps`` are updated in place.
    """
    interior = np.arange(1, knots.shape[1] - 1)
    directions = -pre.apply(residuals)
    slopes = np.einsum("ik,ik->k", residuals, directions)
    searching = np.flatnonzero(slopes < 0.0)
    t = steps[interior[searching]]
    for _ in range(MAX_BACKTRACKS):
        if searching.size == 0:
            break
        j = interior[searching]
        cand = knots[:, j] + t * directions[:, searching]
        ok = (_phi_plus_block(cand, spec)
              <= energies[j] + ARMIJO_SLOPE * t * slopes[searching])
        knots[:, j[ok]] = cand[:, ok]
        steps[j[ok]] = np.minimum(2.0 * t[ok], MAX_STEP)
        searching, t = searching[~ok], t[~ok] * ARMIJO_FACTOR


def _newton(start: np.ndarray, spec: ProblemSpec, tol_res: float):
    """Newton's method on the plain weak residual from ``start``.

    Each step solves the interior Jacobian of _jacobian by SuperLU.  The
    iteration runs until a step no longer halves the residual max-norm,
    which is the rounding floor once it converges, or for _NEWTON_STEPS
    steps; a step that lowers the norm is kept.  Returns (values, energy,
    steps) of the last field kept, ``steps`` counting the solves, or None
    unless that field meets _tolerance.
    """
    import scipy.sparse.linalg as spla

    idx = spec.mesh.interior_nodes
    u = _zero_boundary(start, spec.mesh)
    energy, state = _evaluate(u, spec)
    residual = _residual(state, spec)
    res_norm = float(np.max(np.abs(residual)))
    for steps in range(1, _NEWTON_STEPS + 1):
        jac = _jacobian(u, spec)
        if not np.all(np.isfinite(jac.data)):
            return None
        try:
            delta = spla.splu(jac, permc_spec="MMD_AT_PLUS_A").solve(residual[idx])
        except RuntimeError:    # singular Jacobian
            return None
        cand = u.copy()
        cand[idx] -= delta
        if not np.all(np.isfinite(cand)):
            return None
        cand_energy, state = _evaluate(cand, spec)
        cand_residual = _residual(state, spec)
        cand_norm = float(np.max(np.abs(cand_residual)))
        if cand_norm < res_norm:
            halved = cand_norm <= 0.5 * res_norm
            u, energy, residual, res_norm = cand, cand_energy, cand_residual, cand_norm
            if halved:
                continue
        break
    return (u, energy, steps) if res_norm <= _tolerance(tol_res, energy) else None


def _newton_from_top(top: np.ndarray, spec: ProblemSpec, tol_res: float):
    """(values, Newton steps, path level) of _newton from max(top, 0), or None.

    The path level is phi_plus of the top knot.  Newton's field is refused
    unless it is nonnegative and nonzero with 0 < energy <= that level: a
    field above the level is not the critical point the path straddles.
    """
    found = _newton(np.maximum(top, 0.0), spec, tol_res)
    if found is None:
        return None
    values, energy, steps = found
    if values.min() < 0.0 or not values.any():
        return None
    level = phi_plus(DiscreteField(spec.mesh, top), spec)
    return (values, steps, level) if 0.0 < energy <= level else None


def solve_mountain_pass(spec: ProblemSpec, ground_state: SolveReport,
                        tol_res: float = 1e-8, path_points: int = 21,
                        max_iters: int = 600) -> MountainPassReport:
    """Min-max over polyline paths joining the zero field to the ground state.

    Initial knots cluster around the energy peak along the ray through the
    endpoint, where the path maximum lives.  Every sweep moves each interior
    knot one Armijo step down the positive-part energy, then re-maximizes
    over knots and dense samples inside each segment; a segment interior that
    beats every knot is promoted to a knot in place of the lowest-energy one.
    The sweep loop stops when the knot carrying the path maximum is
    residual-stationary and no sampled point exceeds it; the returned field
    is then the nodal positive part of that knot.  Before the knots move,
    a top knot within _NEWTON_HANDOFF times the tolerance is handed to
    _newton_from_top; its field, when accepted, is returned instead and
    ends the sweeps.  A refused attempt leaves the knots to step exactly as
    without it.  Either field is rechecked against the plain residual.

    A sweep evaluates its knots, segment samples and interior-knot residuals
    as column stacks through the block kernel, building the samples a block
    at a time; _step_knots moves the knots.

    Raises:
        InputError: the supplied ground state is unusable as the far endpoint
            (not converged, or its energy is not negative).
    """
    if tol_res <= 0:
        raise InputError("tol_res must be positive")
    if path_points < 3:
        raise InputError("the path needs at least 3 knots")
    if not ground_state.converged or ground_state.energy >= 0.0 or ground_state.is_zero():
        raise InputError("mountain-pass endpoint must be a converged negative-energy "
                         "ground state")
    mesh = spec.mesh
    pre = InteriorSolver(mesh, alpha=spec.epsilon, beta=1.0)
    end = ground_state.field
    t_peak = _ray_peak_scale(energy_components(end, spec), spec.epsilon,
                             spec.exponents)
    n_ridge = (path_points - 1) // 2
    n_lin = path_points - 2 - n_ridge
    ridge = np.clip(t_peak * np.geomspace(0.2, 5.0, n_ridge), 1e-12, 1.0 - 1e-12)
    lin = np.linspace(0.0, 1.0, n_lin + 2)[1:-1]
    ts = np.sort(np.concatenate([[0.0, 1.0], ridge, lin]))
    knots = end.values[:, None] * ts[None, :]      # one column per knot
    steps = np.ones(path_points)

    seg_fracs = np.linspace(0.0, 1.0, 10)[1:-1]
    n_samples = (path_points - 1) * seg_fracs.size

    def samples(idx: np.ndarray) -> np.ndarray:
        """Segment samples by flat index (segment-major), as columns."""
        j, f = np.divmod(idx, seg_fracs.size)
        f = seg_fracs[f]
        return (1.0 - f) * knots[:, j] + f * knots[:, j + 1]

    converged = False
    newton = None
    retry_below = np.inf    # a refused Newton start waits for a 10x lower residual
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        energies = _phi_plus_block(knots, spec)
        # Promote a segment-interior maximum so the ridge is always
        # knot-resolved; argmax keeps the first maximal sample.
        seg_vals = np.concatenate([
            _phi_plus_block(samples(np.arange(lo, min(lo + _BLOCK, n_samples))), spec)
            for lo in range(0, n_samples, _BLOCK)
        ])
        best = int(np.argmax(seg_vals))
        seg_j, seg_val = best // seg_fracs.size, float(seg_vals[best])
        knot_max = float(energies.max())
        if seg_val > knot_max + 1e-12 * (1.0 + abs(knot_max)):
            knots = np.insert(knots, seg_j + 1, samples(np.array([best]))[:, 0], axis=1)
            steps = np.insert(steps, seg_j + 1, 1.0)
            energies = np.insert(energies, seg_j + 1, seg_val)
            drop = 1 + int(np.argmin(energies[1:-1]))
            knots = np.delete(knots, drop, axis=1)
            steps = np.delete(steps, drop)
            energies = np.delete(energies, drop)
        _, residuals = _phi_plus_block(knots[:, 1:-1], spec, residual=True)
        k_star = int(np.argmax(energies))
        if 0 < k_star < knots.shape[1] - 1:
            res_norm = float(np.max(np.abs(residuals[:, k_star - 1])))
            tol = _tolerance(tol_res, energies[k_star])
            if res_norm <= tol:
                converged = True
                break
            if res_norm <= min(_NEWTON_HANDOFF * tol, retry_below):
                newton = _newton_from_top(knots[:, k_star], spec, tol_res)
                if newton is not None:
                    break
                retry_below = res_norm / _NEWTON_RETRY_DROP
        _step_knots(knots, steps, energies, residuals, spec, pre)
    if newton is not None:
        values, newton_steps, path_level = newton
        converged = True
    else:
        if not converged:    # the steps moved the knots since their energies
            energies = _phi_plus_block(knots, spec)
        top = knots[:, int(np.argmax(energies))]
        # The level and the energy come from the single-field kernel, whose
        # sums run in another order than the stack's: so the level of a
        # nonnegative top knot equals the energy of its positive part to the
        # last bit.
        path_level = phi_plus(DiscreteField(mesh, top), spec)
        values, newton_steps = np.maximum(top, 0.0), 0
    field, energy, res_norm, tol_eff, _ = _finish(values, spec, tol_res)
    return MountainPassReport(
        field=field, energy=energy, path_level=path_level,
        residual_norm=res_norm, iterations=sweeps, newton_steps=newton_steps,
        converged=converged and res_norm <= tol_eff,
        tol_effective=tol_eff, delta_reg=delta_reg(spec.exponents.p),
    )
