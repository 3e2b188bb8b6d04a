"""Critical-point solvers: negative-energy ground state and mountain pass.

Ground state.  Preconditioned descent on the energy: the nodal weak residual
is mapped to a Sobolev-type gradient through an interior solve with
eps * stiffness + mass, then Armijo backtracking (factor 0.5, slope
parameter 1e-4) fixes the step.  Seeds are the fiber-optimal scaling of the
interpolated flat-limit profile plus random nonnegative restarts; candidates
are compared by energy and the zero field wins whenever no candidate goes
strictly below zero, which is exactly the nonexistence regime.

Second solution.  Along a ray t -> t u, u >= 0, the energy has at most one
local maximum, on the Nehari branch N-, and one local minimum, on N+, where
the ground state lies.  The peak selection P(u), the maximum along the ray
of u's positive part, maps onto N-, and the same preconditioned descent
run on phi o P finds a critical point of Morse index 1 (the local minimax
method with L = {0}: Li & Zhou, SIAM J. Sci. Comput. 23, 2001).  It starts
from P(ground state).  Newton's method on the Jacobian, summed from one
set of element matrices in 1D and 2D, then finishes the search, and its
field is kept only if it lies on N- below the starting level.
N- is bounded away from the zero field, so the search cannot collapse onto
it.

Both solvers stop on one rule, _tolerance, and finish through one
re-evaluation, _finish, of the field they return.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import InputError, NumericalError
from .functionals import (
    energy_components,
    membership_tolerance,
    _energy_change,
    _energy_scale,
    _evaluate,
    _jacobian_blocks,
    _residual,
    delta_reg,
)
from .linalg import InteriorSolver, descend, stalled
from .problem import DiscreteField, Mesh, ProblemSpec
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

# Newton takes at most _NEWTON_STEPS steps: from the descent field on the
# test and benchmark models it stops after 1 to 8.  A step whose full length
# does not lower the residual max-norm is halved up to _NEWTON_HALVINGS times.
_NEWTON_STEPS = 10
_NEWTON_HALVINGS = 3

# Largest Nehari defect, relative to eps T + A + B, of a Newton field that
# the mountain pass accepts as lying on N-.  Accepted fields on the test and
# benchmark models measure at most 1.1e-6; a field collapsing onto 0
# measures nearly 1.
_NEHARI_DEFECT = 1e-3


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
             tol_res: float, max_iters: int, project=None):
    """linalg.descend of phi from a zero-trace seed; returns (values, iterations, trace).

    The gradient is the weak residual.  The descent stops on _tolerance, or
    after _FLAT_STEPS accepted steps in a row without a strict decrease of
    the trace energy.  Trial values are energy changes: within _RESOLUTION
    of the trial's energy scale, the cancellation-free _energy_change
    replaces the difference of the two rounded energies.  With ``project``,
    each trial field is project(u - t d), None has no value, and the change
    is always that difference.
    """
    def evaluate(u, t, d, energy):
        cand = u if d is None else u - t * d
        if d is not None and project is not None:
            cand = project(cand)
            if cand is None:
                return None
        cand_energy, state = _evaluate(cand, spec)
        change = cand_energy - energy
        if (d is not None and project is None
                and abs(change) <= _RESOLUTION * _energy_scale(state.comps, spec)):
            change = _energy_change(u, cand, -t, d, spec)
        return change, cand, state

    def stop(trace):
        _, energy, res_norm = trace[-1]
        return res_norm <= _tolerance(tol_res, energy) or stalled(trace, _FLAT_STEPS)

    values, _, iterations, trace, _ = descend(start, evaluate, lambda s: _residual(s, spec),
                                              stop, pre, max_iters, relative=True)
    return values, iterations, trace


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
        init.require_mesh(mesh, "init field")
        seeds = [_zero_boundary(init.values, mesh)]
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
    """Outcome of the descent on the Nehari branch N- for the second solution.

    ``path_level`` is the energy of the projected ground state, where the
    descent starts: the maximum of the energy along the ray through the
    ground state, an upper bound of the mountain-pass level.
    ``iterations`` counts the descent steps on N- and ``newton_steps`` the
    Newton steps of an accepted finish, 0 when Newton's field was refused.
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


def _peak_projection(values: np.ndarray, spec: ProblemSpec) -> np.ndarray | None:
    """P(v) = t1 * v+, the energy peak along the ray through v+ = max(v, 0).

    With (T, A, B) the components of v+, d/dt phi(t v+) has the sign of
    h(t) = eps T - A t^(q-p) + B t^(gamma-p).  h falls from eps T > 0 at
    t = 0+ to its minimum at s_c, the constraint scale of
    rayleigh.fiber_scalings, and rises beyond it.  So the ray has a peak
    iff h(s_c) < 0, at the smaller root t1 in (0, s_c), which bisection
    finds to the last bit.  Returns None where there is no peak.
    """
    plus = _zero_boundary(np.maximum(values, 0.0), spec.mesh)
    comps = _evaluate(plus, spec)[1].comps
    if not (comps.dirichlet > 0.0 and comps.gain > 0.0 and comps.loss > 0.0):
        return None
    ex = spec.exponents
    e_t, gain, loss = spec.epsilon * comps.dirichlet, comps.gain, comps.loss

    def h(t: float) -> float:
        return e_t - gain * t ** (ex.q - ex.p) + loss * t ** (ex.gamma - ex.p)

    lo, hi = 0.0, fiber_scalings(comps, ex).constraint
    if h(hi) >= 0.0:
        return None
    mid = 0.5 * hi
    while lo < mid < hi:
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return hi * plus


def _newton_step(u: np.ndarray, rhs: np.ndarray, spec: ProblemSpec) -> np.ndarray | None:
    """The solution of J(u) x = rhs on interior nodes, or None.

    J is the interior Jacobian of the weak residual, summed from the
    _jacobian_blocks; None marks a J that is not finite or is exactly
    singular.  On an interval J is tridiagonal: node i sums elements i - 1
    and i, and LAPACK's dgtsv solves it by LU with partial pivoting.  In 2D
    SuperLU factors J as one sparse matrix.  ``rhs`` is overwritten.
    """
    mesh = spec.mesh
    blocks = _jacobian_blocks(u, spec)
    if mesh.dimension == 1:
        from scipy.linalg import lapack

        diag = blocks[:-1, 1, 1] + blocks[1:, 0, 0]
        off = blocks[1:-1, 0, 1]
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            return None
        # scipy's wrapper wants an off-diagonal of at least one entry, also
        # for a single interior node, where LAPACK reads none.
        if off.size == 0:
            off = np.zeros(1)
        *_, x, info = lapack.dgtsv(off, diag, off, rhs, overwrite_d=True, overwrite_b=True)
        return x if info == 0 else None
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = mesh.interior_nodes.size
    position = np.full(mesh.n_nodes, -1)
    position[mesh.interior_nodes] = np.arange(n)
    vertex = position[mesh.elements]
    rows, cols = np.broadcast_arrays(vertex[:, :, None], vertex[:, None, :])
    keep = (rows >= 0) & (cols >= 0)
    jac = sp.csc_matrix((blocks[keep], (rows[keep], cols[keep])), shape=(n, n))
    if not np.all(np.isfinite(jac.data)):
        return None
    try:
        return spla.splu(jac, permc_spec="MMD_AT_PLUS_A").solve(rhs)
    except RuntimeError:    # singular Jacobian
        return None


def _newton(start: np.ndarray, spec: ProblemSpec, tol_res: float):
    """Damped Newton's method on the plain weak residual from ``start``.

    Each step solves the interior Jacobian by _newton_step, then
    tries the full step and, while the residual max-norm does not fall,
    up to _NEWTON_HALVINGS halvings of it; the first trial that lowers the
    norm is kept.  The iteration stops when no trial lowers the norm, which
    is the rounding floor once it converges, when a kept step does not halve
    the norm and its field meets _tolerance, or after _NEWTON_STEPS steps.
    Returns (values, energy, steps) of the last field kept, ``steps``
    counting the solves, or None unless that field meets _tolerance; also
    None at a Jacobian that _newton_step cannot solve.
    """
    idx = spec.mesh.interior_nodes
    u = _zero_boundary(start, spec.mesh)
    energy, state = _evaluate(u, spec)
    residual = _residual(state, spec)
    res_norm = float(np.max(np.abs(residual)))
    for steps in range(1, _NEWTON_STEPS + 1):
        delta = _newton_step(u, residual[idx], spec)
        if delta is None:
            return None
        for _ in range(_NEWTON_HALVINGS + 1):
            cand = u.copy()
            cand[idx] -= delta
            if not np.all(np.isfinite(cand)):
                return None
            cand_energy, state = _evaluate(cand, spec)
            cand_residual = _residual(state, spec)
            cand_norm = float(np.max(np.abs(cand_residual)))
            if cand_norm < res_norm:
                break
            delta = 0.5 * delta
        else:
            break
        halved = cand_norm <= 0.5 * res_norm
        u, energy, residual, res_norm = cand, cand_energy, cand_residual, cand_norm
        if not halved and res_norm <= _tolerance(tol_res, energy):
            break
    return (u, energy, steps) if res_norm <= _tolerance(tol_res, energy) else None


def _on_peak_branch(values: np.ndarray, energy: float, path_level: float,
                    spec: ProblemSpec) -> bool:
    """Whether Newton's field may replace the descent field.

    It must be nonnegative with 0 < energy <= path_level and lie on N-: in
    the notation of _peak_projection, h'(1) < 0 and the Nehari defect
    |h(1)| = |eps T - A + B| is at most _NEHARI_DEFECT times
    eps T + A + B.  A field near 0 has h'(1) < 0 as well, but a defect
    near 1, since eps T dominates A and B there.
    """
    if values.min() < 0.0 or not 0.0 < energy <= path_level:
        return False
    comps = _evaluate(values, spec)[1].comps
    ex = spec.exponents
    e_t, gain, loss = spec.epsilon * comps.dirichlet, comps.gain, comps.loss
    return (abs(e_t - gain + loss) <= _NEHARI_DEFECT * (e_t + gain + loss)
            and (ex.q - ex.p) * gain > (ex.gamma - ex.p) * loss)


def solve_mountain_pass(spec: ProblemSpec, ground_state: SolveReport,
                        tol_res: float = 1e-8, max_iters: int = 600) -> MountainPassReport:
    """Second solution by descent on the Nehari branch N-, finished by Newton.

    P = _peak_projection maps a field to the energy peak of its ray, on N-.
    The descent starts from P(ground state): the ground state lies on N+,
    the valley of its ray, and has negative energy, so its ray has a peak.
    It steps as _descend does, each trial field projected by P: a local
    minimizer of phi o P is a critical point of phi (the local minimax
    method with L = {0}: Li & Zhou, SIAM J. Sci. Comput. 23, 2001), and on
    N- the gradient of phi o P is the plain weak residual, so the descent
    stops on _tolerance.  Then _newton runs once from the descent field.
    Its field is returned when _on_peak_branch accepts it, the descent
    field otherwise; either is rechecked by _finish.

    Raises:
        InputError: the supplied ground state is unusable as the start
            (not converged, its energy is not negative, or it lives on
            another mesh).
        NumericalError: rounding leaves the ray through the ground state
            without a peak.
    """
    if tol_res <= 0:
        raise InputError("tol_res must be positive")
    if not ground_state.converged or ground_state.energy >= 0.0 or ground_state.is_zero():
        raise InputError("mountain-pass start must be a converged negative-energy "
                         "ground state")
    ground_state.field.require_mesh(spec.mesh, "ground state")
    start = _peak_projection(ground_state.field.values, spec)
    if start is None:
        raise NumericalError("the ray through the ground state has no energy peak")
    pre = InteriorSolver(spec.mesh, alpha=spec.epsilon, beta=1.0)
    values, iterations, trace = _descend(start, spec, pre, tol_res, max_iters,
                                         project=lambda v: _peak_projection(v, spec))
    path_level = trace[0][1]    # the energy of the start
    newton_steps = 0
    found = _newton(values, spec, tol_res)
    if found is not None and _on_peak_branch(*found[:2], path_level, spec):
        values, _, newton_steps = found
    field, energy, res_norm, tol_eff, _ = _finish(values, spec, tol_res)
    return MountainPassReport(
        field=field, energy=energy, path_level=path_level,
        residual_norm=res_norm, iterations=iterations, newton_steps=newton_steps,
        converged=res_norm <= tol_eff,
        tol_effective=tol_eff, delta_reg=delta_reg(spec.exponents.p),
    )
