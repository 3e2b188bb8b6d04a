"""Critical-point solvers: negative-energy ground state and mountain pass.

Ground state.  Preconditioned descent on the energy: the nodal weak residual
is mapped to a Sobolev-type gradient through a prefactorized interior solve
with eps * stiffness + mass, then Armijo backtracking (factor 0.5, slope
parameter 1e-4) fixes the step.  Seeds are the fiber-optimal scaling of the
interpolated flat-limit profile plus random nonnegative restarts; candidates
are compared by energy and the zero field wins whenever no candidate goes
strictly below zero, which is exactly the nonexistence regime.

Second solution.  A min-max over polyline paths from the zero field to the
ground state.  Knots start clustered around the barrier peak of the straight
ray, every interior knot takes one Armijo step along the negative weak
residual of the positive-part energy, and dense samples inside each segment
are promoted to knots whenever one tops the knot maximum, so the ridge
crossing stays resolved.  Sweeps repeat until the knot carrying the path
maximum is residual-stationary.  The positive-part nonlinearity makes the
limiting critical point nonnegative.
"""

from dataclasses import dataclass, field as dataclass_field, fields

import numpy as np

from .errors import DomainError, InputError
from .functionals import (
    EnergyComponents,
    energy_components,
    phi,
    weak_residual,
    _BLOCK,
    _gradient_factor,
    _phi_plus_block,
    _resolve_delta,
)
from .linalg import (ARMIJO_FACTOR, ARMIJO_SLOPE, MAX_BACKTRACKS, MAX_STEP,
                     InteriorSolver, armijo, preconditioned_direction)
from .problem import DiscreteField, Exponents, Mesh, ProblemSpec, squared_norms
from .rayleigh import _ascend_log_quotient, fiber_scalings, ray_quotients

__all__ = [
    "SolveReport",
    "solve_ground_state",
    "MountainPassReport",
    "solve_mountain_pass",
    "NehariDiagnostics",
    "nehari_diagnostics",
    "embedding_constant",
    "BarrierEstimate",
    "barrier_estimate",
]

# Accepted descent steps in a row that leave the energy unchanged before the
# descent gives up: at the rounding floor the Armijo test passes with no
# progress.  Of the descents in the test suite and the benchmark workloads,
# those that converge take at most 4 such steps in a row.
_FLAT_STEPS = 10


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
    multiplicity_flagged: bool = False
    trace: list = dataclass_field(default_factory=list, repr=False)

    def is_zero(self) -> bool:
        return not np.any(self.field.values)

    def to_json_dict(self, include_field: bool = True) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("field", "trace")}
        out["zero_field"] = self.is_zero()
        if include_field:
            out["field"] = self.field.to_json_dict(include_mesh=False)
        return out

    def trace_to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iteration,energy,residual_norm\n")
            for it, energy, res in self.trace:
                fh.write("%d,%.17g,%.17g\n" % (it, energy, res))


def _zero_boundary(values: np.ndarray, mesh: Mesh) -> np.ndarray:
    out = np.asarray(values, dtype=float).copy()
    out[mesh.boundary_nodes] = 0.0
    return out


def _descend(start: np.ndarray, spec: ProblemSpec, pre: InteriorSolver,
             tol_res: float, max_iters: int, delta_reg) -> dict:
    """Armijo descent from one seed; returns the raw candidate record.

    The trial step is the spectral (Barzilai-Borwein) secant estimate in the
    preconditioner metric, (s.y)/(y.P^-1 y); backtracking keeps every accepted
    step monotone.  P^-1 y falls out of the direction solves already done.
    The descent stops unconverged after _FLAT_STEPS accepted steps in a row
    without a strict energy decrease.
    """
    mesh = spec.mesh
    u = _zero_boundary(start, mesh)
    energy = phi(DiscreteField(mesh, u), spec)
    step = 1.0
    trace = []
    converged = False
    iterations = 0
    flat_steps = 0
    prev_u = prev_residual = prev_pre_grad = None
    for iterations in range(max_iters + 1):
        residual = weak_residual(DiscreteField(mesh, u), spec, delta_reg).values
        res_norm = float(np.max(np.abs(residual))) if residual.size else 0.0
        trace.append((iterations, energy, res_norm))
        if res_norm <= tol_res * (1.0 + abs(energy)):
            converged = True
            break
        if iterations == max_iters or flat_steps >= _FLAT_STEPS:
            break
        found = preconditioned_direction(pre, residual)
        if found is None:
            break
        pre_grad, slope = found
        if prev_u is not None:
            s = u - prev_u
            y = residual - prev_residual
            sy = float(np.dot(s, y))
            y_pre = float(np.dot(y, pre_grad - prev_pre_grad))
            if sy > 0.0 and y_pre > 0.0:
                step = min(max(sy / y_pre, 1e-12), MAX_STEP)
        prev_u, prev_residual, prev_pre_grad = u, residual, pre_grad

        def trial(t):
            cand = u - t * pre_grad
            return phi(DiscreteField(mesh, cand), spec), cand

        found = armijo(trial, energy, -slope, step)
        if found is None:
            break
        t, cand_energy, cand = found
        flat_steps = flat_steps + 1 if cand_energy >= energy else 0
        u, energy = cand, cand_energy
        step = min(2.0 * t, MAX_STEP)
    return {"values": u, "energy": energy, "converged": converged,
            "iterations": iterations, "trace": trace}


def _finalize_candidate(cand: dict, spec: ProblemSpec, tol_res: float,
                        delta_reg) -> dict:
    """Apply the final nodal absolute value and refresh the diagnostics."""
    mesh = spec.mesh
    values = np.abs(cand["values"])
    if float(values.max(initial=0.0)) <= 1e-8 * _amplitude(spec):
        # Nontrivial critical points stay outside the small-sphere barrier;
        # a field this small can only be the zero basin, and |u| kinks must
        # not push its re-evaluated residual over tolerance.
        values = np.zeros_like(values)
    field = DiscreteField(mesh, values)
    energy = phi(field, spec)
    residual = weak_residual(field, spec, delta_reg).values
    res_norm = float(np.max(np.abs(residual)))
    tol_eff = tol_res * (1.0 + abs(energy))
    cand = dict(cand)
    cand.update(values=values, field=field, energy=energy,
                res_norm=res_norm, tol_eff=tol_eff,
                converged=res_norm <= tol_eff)
    return cand


def _zero_report(spec: ProblemSpec, tol_res: float, delta_reg: float,
                 iterations: int, trace: list) -> SolveReport:
    field = DiscreteField(spec.mesh, np.zeros(spec.mesh.n_nodes))
    return SolveReport(
        field=field, energy=0.0, residual_norm=0.0, nehari_residual=0.0,
        fiber_second_derivative=0.0, iterations=iterations, converged=True,
        tol_effective=tol_res, delta_reg=delta_reg, trace=trace,
    )


def _report_from_candidate(cand: dict, spec: ProblemSpec, tol_res: float,
                           delta_reg: float, multiplicity: bool) -> SolveReport:
    diag = nehari_diagnostics(cand["field"], spec)
    return SolveReport(
        field=cand["field"], energy=cand["energy"],
        residual_norm=cand["res_norm"], nehari_residual=diag.nehari_residual,
        fiber_second_derivative=diag.fiber_second_derivative,
        iterations=cand["iterations"], converged=cand["converged"],
        tol_effective=cand["tol_eff"], delta_reg=delta_reg,
        multiplicity_flagged=multiplicity, trace=cand["trace"],
    )


def _amplitude(spec: ProblemSpec) -> float:
    """Largest flat-limit value the declared bounds allow; 1 if that is 0 or not finite."""
    ex = spec.exponents
    amplitude = (spec.a.upper / spec.b.lower) ** (1.0 / (ex.gamma - ex.q))
    return amplitude if amplitude > 0.0 and np.isfinite(amplitude) else 1.0


def _default_seeds(spec: ProblemSpec, seed: int, random_restarts: int) -> list[np.ndarray]:
    from .functionals import membership_tolerance

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
    delta_reg = _resolve_delta(spec, None)
    pre = InteriorSolver(mesh, alpha=spec.epsilon, beta=1.0)
    if init is not None:
        if init.values.shape != (mesh.n_nodes,):
            raise InputError("init field does not match the problem's mesh")
        seeds = [init.values]
    else:
        seeds = _default_seeds(spec, seed, random_restarts)

    candidates = []
    for idx, start in enumerate(seeds):
        cand = _descend(start, spec, pre, tol_res, max_iters, delta_reg)
        cand["seed_index"] = idx
        candidates.append(_finalize_candidate(cand, spec, tol_res, delta_reg))

    converged = [c for c in candidates if c["converged"]]
    total_iters = sum(c["iterations"] for c in candidates)
    if not converged:
        best = min(candidates, key=lambda c: c["energy"])
        best = dict(best, iterations=total_iters)
        return _report_from_candidate(best, spec, tol_res, delta_reg, False)

    best = min(converged, key=lambda c: (c["energy"], c["seed_index"]))
    comps = energy_components(best["field"], spec)
    zero_floor = 1e-12 * (1.0 + spec.epsilon * comps.dirichlet + comps.gain + comps.loss)
    if best["energy"] >= -zero_floor:
        return _zero_report(spec, tol_res, delta_reg, total_iters, best["trace"])

    tie_tol = 1e-10 * (1.0 + abs(best["energy"]))
    ties = [c for c in converged if abs(c["energy"] - best["energy"]) <= tie_tol]
    first = min(ties, key=lambda c: c["seed_index"])
    value_scale = 1.0 + float(np.max(np.abs(first["values"])))
    multiplicity = any(
        float(np.max(np.abs(c["values"] - first["values"]))) > 1e-6 * value_scale
        for c in ties
    )
    first = dict(first, iterations=total_iters)
    return _report_from_candidate(first, spec, tol_res, delta_reg, multiplicity)


@dataclass(frozen=True)
class MountainPassReport:
    """Outcome of the path min-max for the second solution.

    ``path_level`` is the minimized path maximum of the positive-part energy,
    the discrete mountain-pass level.
    """

    field: DiscreteField
    energy: float
    path_level: float
    residual_norm: float
    iterations: int
    converged: bool
    tol_effective: float
    delta_reg: float

    def to_json_dict(self, include_field: bool = True) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "field"}
        if include_field:
            out["field"] = self.field.to_json_dict(include_mesh=False)
        return out


def _ray_peak_scale(comps: EnergyComponents, eps: float,
                    exponents: Exponents) -> float:
    """Scale of the energy maximum along the ray through a Nehari point.

    With (T, A, B) the components at the endpoint, h(t) = eps T - A t^(q-p)
    + B t^(g-p) vanishes at t = 1 by the Nehari identity and at the barrier
    peak t < 1; bisection between a sign change brackets the smaller root.
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
                spec: ProblemSpec, pre: InteriorSolver, delta_reg: float,
                tol_res: float) -> bool:
    """Stop at a stationary top knot, or move every interior knot one step.

    ``knots`` holds one path knot per column and ``energies`` their
    positive-part energies.  The interior knots' residuals come from one
    block-kernel call and their directions from one preconditioner solve.
    When the knot carrying the path maximum is residual-stationary, nothing
    moves and True is returned.  Otherwise every interior knot takes one
    Armijo step down its direction, backtracking in lockstep over the knots
    still searching; each knot's search depends only on that knot.  ``knots``
    and ``steps`` are updated in place.
    """
    interior = np.arange(1, knots.shape[1] - 1)
    _, residuals = _phi_plus_block(knots[:, interior], spec, delta_reg, residual=True)
    k_star = int(np.argmax(energies))
    if 0 < k_star < knots.shape[1] - 1:
        res_norm = float(np.max(np.abs(residuals[:, k_star - 1])))
        if res_norm <= tol_res * (1.0 + abs(energies[k_star])):
            return True
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
    return False


def solve_mountain_pass(spec: ProblemSpec, ground_state: SolveReport,
                        tol_res: float = 1e-8, path_points: int = 21,
                        max_iters: int = 600) -> MountainPassReport:
    """Min-max over polyline paths joining the zero field to the ground state.

    Initial knots cluster around the barrier peak of the ray through the
    endpoint, where the path maximum lives.  Every sweep moves each interior
    knot one Armijo step down the positive-part energy, then re-maximizes
    over knots and dense samples inside each segment; a segment interior that
    beats every knot is promoted to a knot in place of the lowest-energy one.
    The sweep loop stops when the knot carrying the path maximum is
    residual-stationary and no sampled point exceeds it.  The returned field
    is the nodal positive part of that knot, rechecked against the plain
    residual.

    A sweep evaluates its knots and segment samples as column stacks through
    the block kernel, building the samples a block at a time; _step_knots
    does the stationarity check and the knot steps.

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
    delta_reg = _resolve_delta(spec, None)
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

    result = None
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
        if _step_knots(knots, steps, energies, spec, pre, delta_reg, tol_res):
            k_star = int(np.argmax(energies))
            result = (knots[:, k_star], float(energies[k_star]))
            break

    if result is None:
        energies = _phi_plus_block(knots, spec)
        k_star = int(np.argmax(energies))
        result = (knots[:, k_star], float(energies[k_star]))
        converged = False
    else:
        converged = True

    values = np.maximum(result[0], 0.0)
    field = DiscreteField(mesh, values)
    energy = phi(field, spec)
    res_norm = float(np.max(np.abs(weak_residual(field, spec, delta_reg).values)))
    tol_eff = tol_res * (1.0 + abs(energy))
    return MountainPassReport(
        field=field, energy=energy, path_level=result[1],
        residual_norm=res_norm, iterations=sweeps,
        converged=converged and res_norm <= tol_eff,
        tol_effective=tol_eff, delta_reg=delta_reg,
    )


@dataclass(frozen=True)
class NehariDiagnostics:
    nehari_residual: float
    fiber_second_derivative: float
    ray_constraint: float
    ray_zero_energy: float


def nehari_diagnostics(u: DiscreteField, spec: ProblemSpec) -> NehariDiagnostics:
    """Constraint residual and fiber curvature at s = 1 for a nontrivial field.

    Raises:
        DomainError: the field is trivial (no gradient energy).
    """
    comps = energy_components(u, spec)
    if comps.dirichlet <= 0.0:
        raise DomainError("Nehari diagnostics need a nontrivial field")
    ex = spec.exponents
    dir_, gain, loss = comps.dirichlet, comps.gain, comps.loss
    eps = spec.epsilon
    nehari = abs(eps * dir_ - gain + loss) / (eps * dir_ + gain + loss)
    second = (ex.p - ex.q) * eps * dir_ + (ex.gamma - ex.q) * loss
    ray = ray_quotients(comps, 1.0, ex)
    return NehariDiagnostics(nehari, second, ray.constraint, ray.zero_energy)


def embedding_constant(mesh: Mesh, p: float, r: float, restarts: int = 4,
                       max_iters: int = 200, seed: int = 0) -> float:
    """Estimate sup ||u||_r / ||grad u||_p over zero-trace fields on the mesh.

    The threshold search's ascent, run on the logarithm of the quotient.  The
    estimate is a lower bound up to ascent accuracy; callers inflating it for
    safety should do so explicitly.
    """
    if r < 1 or p <= 1:
        raise InputError("embedding constant needs p > 1 and r >= 1")
    solver = InteriorSolver(mesh, alpha=1.0, beta=1.0)

    def quotient(u: DiscreteField):
        vals = mesh.values_at_qp(u.values)
        lr_int = mesh.integrate(vals**r)
        grads = mesh.gradients(u.values)
        gnorm_sq = squared_norms(grads)
        grad_int = float(np.dot(mesh.el_measures, gnorm_sq ** (p / 2.0)))
        if lr_int <= 0.0 or grad_int <= 0.0:
            return None
        value = np.log(lr_int) / r - np.log(grad_int) / p
        return value, (vals, lr_int, grads, gnorm_sq, grad_int)

    def gradient(u: DiscreteField, state) -> np.ndarray:
        # Iterates are nonnegative, so |u|^(r-2) u is u^(r-1).
        vals, lr_int, grads, gnorm_sq, grad_int = state
        point_form = mesh.assemble_point_term(vals ** (r - 1.0))
        factor = _gradient_factor(gnorm_sq, p, 0.0)
        flux_form = mesh.assemble_flux_term(factor[:, None] * grads)
        grad = point_form / lr_int - flux_form / grad_int
        grad[mesh.boundary_nodes] = 0.0
        return grad

    best = None
    for i in range(restarts):
        rng = np.random.default_rng((seed, 7 + i))
        value, _, _ = _ascend_log_quotient(rng.uniform(0.0, 1.0, mesh.n_nodes), mesh, p,
                                           quotient, gradient, solver, max_iters)
        if value is not None and (best is None or value > best):
            best = value
    if best is None:
        raise DomainError("embedding-constant ascent found no usable field")
    return float(np.exp(best))


@dataclass(frozen=True)
class BarrierEstimate:
    """Sphere radius and energy floor certifying the mountain-pass geometry.

    On the sphere ||grad u||_p = radius the positive-part energy is at least
    ``level``; both follow from the embedding bound
    gain(u) <= sup(a) * C^q * ||grad u||_p^q.
    """

    radius: float
    level: float
    embedding_used: float


def barrier_estimate(spec: ProblemSpec, embedding: float | None = None,
                     safety: float = 1.5, seed: int = 0) -> BarrierEstimate:
    """Compute the small-sphere barrier below the mountain-pass level."""
    ex = spec.exponents
    if embedding is None:
        embedding = embedding_constant(spec.mesh, ex.p, ex.q, seed=seed)
    c_used = safety * embedding
    a_hat = spec.a.upper
    if a_hat <= 0.0:
        raise DomainError("the barrier needs a nontrivial gain coefficient")
    eps = spec.epsilon
    radius = (eps * ex.q / (2.0 * ex.p * a_hat * c_used**ex.q)) ** (1.0 / (ex.q - ex.p))
    level = (eps / (2.0 * ex.p)) * radius**ex.p
    return BarrierEstimate(radius=radius, level=level, embedding_used=c_used)
