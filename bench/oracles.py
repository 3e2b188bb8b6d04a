"""Output checks against oracles that share no code with pfiber.

Every check reads the artifacts a subcommand wrote and returns a list of
failure messages (empty when the output is correct).  The oracles:

* the energy integrals of a P1 field, recomputed here from its nodal values
  with the same quadrature rules (3-point Gauss per interval, mid-edge rule
  per triangle), give the Nehari identity eps*dirichlet = gain - loss that
  every nontrivial critical point satisfies;
* the equipartition constant C_E = int_0^1 sqrt(2 W(t)) dt with
  W(t) = t^4/4 - t^3/3 + 1/12 gives the leading-order sweep energy gap
  2*sqrt(eps)*C_E of the (2, 3, 4) model, two boundary layers each carrying
  sqrt(eps)*C_E;
* the extremal constants of the two fiber conditions, found by maximizing
  the fiber maps numerically, give eps_critical / eps_two_solutions;
* the first integral of the (3, 4) layer equation has the closed form
  xi(U) = log((12 - 8s + 2*sqrt(6)*R(s)) / s) - log(4 + 2*sqrt(6)) with
  s = 1 - U and R(s) = sqrt(3s^2 - 8s + 6).
"""

import json
import math
from pathlib import Path

import numpy as np

# Nehari identity.  The discrete weak residual r of a P1 field pairs with the
# field itself to exactly eps*dirichlet - gain + loss, so a critical point
# accepted at residual max-norm tol_effective satisfies
# |eps*dirichlet - (gain - loss)| <= tol_effective * sum_i |u_i|.  The check
# applies that bound, plus rounding of the three sums.  Measured: the bound
# holds with a factor of 13 to 40 to spare; relative to eps*dirichlet the
# identity holds to 8e-5 (1D ground state), 4e-5 (2D p = 3 ground state) and
# 6e-3 (1D second solution, whose Dirichlet energy is small).
NEHARI_ROUNDING = 1e-12
# Sweep energy gap against 2*sqrt(eps)*C_E on 4001 nodes.  Measured relative
# errors: 1.1e-3 at eps = 1e-2 and 1.8e-5 at 5e-3, where the two layers still
# interact across the interval; then 1.8e-7 to 7.4e-6 for eps from 2e-3 down
# to 5e-5, growing like h^2/eps.  Tolerances: twice the interacting-layer
# error for eps >= 5e-3, and 5e-5 (seven times the worst) below.
GAP_RTOL_WIDE = 2.5e-3
GAP_RTOL_NARROW = 5e-5
GAP_NARROW_BELOW = 5e-3
# Threshold ratio and recomputed quotient: both are algebra on stored
# doubles, so only rounding separates them from the oracle.
RATIO_RTOL = 1e-9
QUOTIENT_RTOL = 1e-9
# Layer profile: xi recomputed from U by the closed form, for U <= 1 - 1e-6
# (past that, the rounding of U dominates the inverse).  Measured 4e-11.
LAYER_XI_ATOL = 1e-9
# Layer comparison: sup |ground state - composite| at compare_eps.  The
# composite is a leading-order approximation; measured 1.9e-4 at eps = 1e-4
# on 4001 nodes.
LAYER_SUP_TOL = 1e-3


def _load(path):
    return json.loads(Path(path).read_text())


def _gauss3():
    x, w = np.polynomial.legendre.leggauss(3)
    return 0.5 * (x + 1.0), 0.5 * w


def _coefficient(entry, bounds):
    """Pointwise evaluator of a resolved coefficient entry."""
    kind = entry["kind"]
    if kind == "constant":
        value = float(entry["value"])
        return lambda *xs: np.full_like(xs[0], value)
    if kind == "sinusoidal-bump":
        base, amp = float(entry["base"]), float(entry["amplitude"])

        def bump(*xs):
            prof = np.ones_like(xs[0])
            for (lo, hi), x in zip(bounds, xs):
                prof = prof * np.sin(math.pi * (x - lo) / (hi - lo))
            return base + amp * prof
        return bump
    raise ValueError(f"no oracle for coefficient kind {kind!r}")


def energy_integrals(values, resolved):
    """(dirichlet, gain, loss) of the P1 interpolant of nodal ``values``."""
    ex = resolved["exponents"]
    p, q, g = ex["p"], ex["q"], ex["gamma"]
    domain = resolved["domain"]
    u = np.asarray(values, dtype=float)
    if isinstance(domain[0], list):
        bounds = [tuple(ax) for ax in domain]
        nx, ny = resolved["resolution"]
        xs = np.linspace(*bounds[0], nx)
        ys = np.linspace(*bounds[1], ny)
        grid = u.reshape(ny, nx)
        X, Y = np.meshgrid(xs, ys)
        # Two triangles per cell, split along the lower-left to upper-right
        # diagonal: (00, 10, 11) and (00, 11, 01).
        corners = {
            "00": (X[:-1, :-1], Y[:-1, :-1], grid[:-1, :-1]),
            "10": (X[:-1, 1:], Y[:-1, 1:], grid[:-1, 1:]),
            "11": (X[1:, 1:], Y[1:, 1:], grid[1:, 1:]),
            "01": (X[1:, :-1], Y[1:, :-1], grid[1:, :-1]),
        }
        a = _coefficient(resolved["coefficients"]["a"], bounds)
        b = _coefficient(resolved["coefficients"]["b"], bounds)
        dirichlet = gain = loss = 0.0
        for tri in (("00", "10", "11"), ("00", "11", "01")):
            (x0, y0, u0), (x1, y1, u1), (x2, y2, u2) = (corners[k] for k in tri)
            det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
            area = 0.5 * np.abs(det)
            gx = ((u1 - u0) * (y2 - y0) - (u2 - u0) * (y1 - y0)) / det
            gy = ((u2 - u0) * (x1 - x0) - (u1 - u0) * (x2 - x0)) / det
            dirichlet += float(np.sum(area * np.hypot(gx, gy) ** p))
            for (xa, ya, ua), (xb, yb, ub) in (((x0, y0, u0), (x1, y1, u1)),
                                               ((x1, y1, u1), (x2, y2, u2)),
                                               ((x0, y0, u0), (x2, y2, u2))):
                xm, ym, um = 0.5 * (xa + xb), 0.5 * (ya + yb), 0.5 * (ua + ub)
                w = area / 3.0
                gain += float(np.sum(w * a(xm, ym) * np.abs(um) ** q))
                loss += float(np.sum(w * b(xm, ym) * np.abs(um) ** g))
        return dirichlet, gain, loss
    x0, x1 = domain
    n = int(resolved["resolution"])
    bounds = [(x0, x1)]
    h = (x1 - x0) / (n - 1)
    xs = np.linspace(x0, x1, n)
    a = _coefficient(resolved["coefficients"]["a"], bounds)
    b = _coefficient(resolved["coefficients"]["b"], bounds)
    dirichlet = float(np.sum(h * np.abs(np.diff(u) / h) ** p))
    t, w = _gauss3()
    qp_x = xs[:-1, None] + h * t[None, :]
    qp_u = u[:-1, None] * (1.0 - t[None, :]) + u[1:, None] * t[None, :]
    weights = h * w[None, :]
    gain = float(np.sum(weights * a(qp_x) * np.abs(qp_u) ** q))
    loss = float(np.sum(weights * b(qp_x) * np.abs(qp_u) ** g))
    return dirichlet, gain, loss


def nehari_gap(values, resolved, eps):
    """(|eps*dirichlet - (gain - loss)|, eps*dirichlet, gain + loss)."""
    dirichlet, gain, loss = energy_integrals(values, resolved)
    return abs(eps * dirichlet - (gain - loss)), eps * dirichlet, gain + loss


def equipartition_constant():
    """C_E = int_0^1 sqrt(2 W(t)) dt for W(t) = t^4/4 - t^3/3 + 1/12.

    sqrt(2 W(t)) = (1 - t) sqrt((3t^2 + 2t + 1) / 6) is smooth on [0, 1], so
    a 64-point Gauss-Legendre rule reaches double precision.
    """
    x, w = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (x + 1.0)
    integrand = (1.0 - t) * np.sqrt((3.0 * t**2 + 2.0 * t + 1.0) / 6.0)
    return float(0.5 * np.dot(w, integrand))


def _fiber_peak(f):
    """max over t > 0 of a smooth fiber map, by a grid and golden refinement."""
    ts = np.geomspace(1e-6, 1e3, 4001)
    vals = f(ts)
    k = int(np.argmax(vals))
    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        m1 = hi - phi * (hi - lo)
        m2 = lo + phi * (hi - lo)
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return float(f(0.5 * (lo + hi)))


def extremal_ratio(p, q, g):
    """eps_critical / eps_two_solutions for unit scale-invariant quotient.

    On the ray t*u with components (T, A, B) = (1, 1, 1) the Nehari point
    exists while eps <= max_t (t^(q-p) - t^(g-p)), and the energy dips below
    zero while eps <= max_t p (t^(q-p)/q - t^(g-p)/g).
    """
    constraint = _fiber_peak(lambda t: t ** (q - p) - t ** (g - p))
    zero_energy = _fiber_peak(lambda t: p * (t ** (q - p) / q - t ** (g - p) / g))
    return constraint / zero_energy, constraint


def layer_xi(u):
    """Closed-form xi(U) of the (q, gamma) = (3, 4) layer profile."""
    s = 1.0 - np.asarray(u, dtype=float)
    r = np.sqrt(3.0 * s**2 - 8.0 * s + 6.0)
    root6 = math.sqrt(6.0)
    return np.log((12.0 - 8.0 * s + 2.0 * root6 * r) / s) - math.log(4.0 + 2.0 * root6)


# -- per-subcommand checks -------------------------------------------------------


def _check_critical_point(report, resolved, eps, label):
    errors = []
    if not report["converged"]:
        errors.append(f"{label}: not converged")
    if not report["residual_norm"] <= report["tol_effective"]:
        errors.append(f"{label}: residual {report['residual_norm']:.3g} above "
                      f"tol_effective {report['tol_effective']:.3g}")
    values = np.asarray(report["field"]["values"])
    gap, eps_dirichlet, gain_loss = nehari_gap(values, resolved, eps)
    bound = (report["tol_effective"] * float(np.sum(np.abs(values)))
             + NEHARI_ROUNDING * (eps_dirichlet + gain_loss))
    if not gap <= bound:
        errors.append(f"{label}: Nehari identity off by {gap:.3g} "
                      f"({gap / eps_dirichlet:.3g} of eps*dirichlet), above the "
                      f"bound {bound:.3g} its residual allows")
    return errors


def check_solve(out):
    resolved = _load(out / "resolved_config.json")
    doc = _load(out / "ground_state.json")
    report = doc["report"]
    errors = _check_critical_point(report, resolved, doc["epsilon"], "ground state")
    if report["zero_field"] or not report["energy"] < 0.0:
        errors.append(f"ground state: expected a nontrivial negative-energy "
                      f"state, got energy {report['energy']!r}")
    return errors


def check_second(out):
    resolved = _load(out / "resolved_config.json")
    errors = check_solve(out)
    ground = _load(out / "ground_state.json")["report"]
    doc = _load(out / "second_solution.json")
    second = doc["report"]
    errors += _check_critical_point(second, resolved, doc["epsilon"],
                                    "second solution")
    if not ground["energy"] < 0.0 < second["path_level"]:
        errors.append(f"second: expected ground energy < 0 < path level, got "
                      f"{ground['energy']!r} and {second['path_level']!r}")
    return errors


def check_thresholds(out):
    resolved = _load(out / "resolved_config.json")
    est = _load(out / "thresholds.json")
    ex = resolved["exponents"]
    p, q, g = ex["p"], ex["q"], ex["gamma"]
    errors = []
    ratio, constraint = extremal_ratio(p, q, g)
    got = est["eps_critical"] / est["eps_two_solutions"]
    if not abs(got - ratio) <= RATIO_RTOL * ratio:
        errors.append(f"thresholds: eps_critical/eps_two_solutions = {got!r}, "
                      f"oracle {ratio!r}")
    dirichlet, gain, loss = energy_integrals(est["maximizer"]["values"], resolved)
    quotient = gain ** ((g - p) / (g - q)) / (dirichlet * loss ** ((q - p) / (g - q)))
    if not abs(quotient - est["sup_quotient"]) <= QUOTIENT_RTOL * quotient:
        errors.append(f"thresholds: sup_quotient {est['sup_quotient']!r} but the "
                      f"maximizer's quotient is {quotient!r}")
    if not abs(est["eps_critical"] - constraint * quotient) <= QUOTIENT_RTOL * est["eps_critical"]:
        errors.append(f"thresholds: eps_critical {est['eps_critical']!r}, oracle "
                      f"{constraint * quotient!r}")
    return errors


def check_sweep(out):
    resolved = _load(out / "resolved_config.json")
    ex = resolved["exponents"]
    if (ex["p"], ex["q"], ex["gamma"]) != (2.0, 3.0, 4.0):
        raise ValueError("the equipartition oracle covers the (2, 3, 4) model")
    c_e = equipartition_constant()
    doc = _load(out / "sweep.json")
    errors = []
    if [row["eps"] for row in doc["rows"]] != resolved["eps_list"]:
        errors.append("sweep: rows do not follow eps_list")
    for row in doc["rows"]:
        eps = row["eps"]
        if not row["converged"]:
            errors.append(f"sweep: row eps={eps:g} not converged")
        expected = 2.0 * math.sqrt(eps) * c_e
        rel = abs(row["energy_gap"] - expected) / expected
        tol = GAP_RTOL_WIDE if eps >= GAP_NARROW_BELOW else GAP_RTOL_NARROW
        if not rel <= tol:
            errors.append(f"sweep: row eps={eps:g} energy gap {row['energy_gap']!r} "
                          f"is {rel:.3g} relative from 2*sqrt(eps)*C_E "
                          f"(tolerance {tol:.3g})")
    return errors


def check_layer(out):
    resolved = _load(out / "resolved_config.json")
    ex = resolved["exponents"]
    if (ex["p"], ex["q"], ex["gamma"]) != (2.0, 3.0, 4.0):
        raise ValueError("the closed-form layer oracle covers the (2, 3, 4) model")
    table = np.loadtxt(out / "layer_profile.csv", delimiter=",", skiprows=1)
    xi, u = table[:, 0], table[:, 1]
    errors = []
    keep = u <= 1.0 - 1e-6
    worst = float(np.max(np.abs(layer_xi(u[keep]) - xi[keep])))
    if not worst <= LAYER_XI_ATOL:
        errors.append(f"layer: profile is {worst:.3g} in xi from the closed form")
    comp = _load(out / "layer_compare.json").get("comparison")
    if comp is None:
        errors.append("layer: no comparison written")
    else:
        if not comp["ground_converged"]:
            errors.append("layer: comparison ground state not converged")
        if not comp["sup_diff"] <= LAYER_SUP_TOL:
            errors.append(f"layer: sup |ground - composite| = {comp['sup_diff']:.3g} "
                          f"above {LAYER_SUP_TOL:g}")
    return errors


CHECKS = {
    "solve": check_solve,
    "second": check_second,
    "thresholds": check_thresholds,
    "sweep": check_sweep,
    "layer": check_layer,
}
