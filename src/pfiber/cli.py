"""Batch front door: JSON-configured experiments emitting deterministic artifacts.

Every run materializes all defaults into ``resolved_config.json`` next to its
outputs, so each artifact records exactly the inputs that produced it.  JSON
artifacts are written with sorted keys and CSV numbers with 17 significant
digits; reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 1 failed invariant checks (``check``), 2 configuration
error, 3 a requested solve did not converge (partial artifacts are kept),
4 internal numerical failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    ContractViolation,
    DomainError,
    HypothesisViolation,
    InputError,
    NumericalError,
)
from .problem import (
    CoefficientField,
    DiscreteField,
    Exponents,
    ProblemSpec,
    affine_coefficient,
    build_mesh,
    bump_coefficient,
    constant_coefficient,
    dump_json,
)
from .functionals import energy_components, phi, weak_residual
from .rayleigh import (
    extremal_constants,
    fiber_scalings,
    nonlinear_quotients,
    ray_quotients,
    estimate_thresholds,
)
from .solver import nehari_diagnostics, solve_ground_state, solve_mountain_pass
from .asymptotics import (
    composite_approx_1d,
    epsilon_sweep,
    layer_profile_1d,
    scale_solution,
)

__all__ = ["main", "run", "resolve_config", "load_config"]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"config key '{path}': expected a number")
    return float(value)


def _integer_from(low: int):
    """Checker for integers >= low."""
    def check(value, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"config key '{path}': expected an integer")
        if value < low:
            raise ConfigurationError(
                f"config key '{path}': expected an integer >= {low}")
        return value
    return check


_integer = _integer_from(0)


def _numbers(value, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigurationError(f"config key '{path}': expected a list")
    return [_number(v, path) for v in value]


def _nonempty_numbers(value, path: str) -> list[float]:
    if value == []:
        raise ConfigurationError(f"config key '{path}': expected a list")
    return _numbers(value, path)


def _positive(value, path: str) -> float:
    value = _number(value, path)
    if not value > 0.0:
        raise ConfigurationError(f"config key '{path}': expected a positive number")
    return value


def _positive_or_null(value, path: str) -> float | None:
    return None if value is None else _positive(value, path)


def _decreasing_positive_numbers(value, path: str) -> list[float]:
    values = _numbers(value, path)
    if not all(v > 0.0 for v in values) or any(
            not b < a for a, b in zip(values, values[1:])):
        raise ConfigurationError(
            f"config key '{path}': expected positive, strictly decreasing numbers")
    return values


# Each section maps key -> (checker, default).  Subcommands pass a resolved
# section to the solvers as keyword arguments, so keys are parameter names.
_SECTIONS = {
    "exponents": {"p": (_number, 2.0), "q": (_number, 3.0),
                  "gamma": (_number, 4.0)},
    "solver": {"tol_res": (_positive, 1e-8), "max_iters": (_integer, 50_000),
               "random_restarts": (_integer, 4), "seed": (_integer, 0)},
    "mountain_pass": {"tol_res": (_positive, 1e-8),
                      "path_points": (_integer_from(3), 21),
                      "max_iters": (_integer, 600)},
    "thresholds": {"restarts": (_integer_from(1), 16),
                   "max_iters": (_integer, 400)},
    "asymptotics": {"eta": (_positive, 0.1),
                    "r_list": (_nonempty_numbers, [1.0, 2.0])},
    "layer": {"xi_max": (_positive, 40.0), "points": (_integer_from(2), 401),
              "compare_eps": (_positive_or_null, None)},
}
_SCALARS = {"epsilon": (_number, 1e-3),
            "eps_list": (_decreasing_positive_numbers, [])}

# Coefficient kind -> (parameter schema, builder(*parameters, domain, name)).
_COEFF_KINDS = {
    "constant": ({"value": (_number, 1.0)},
                 lambda value, domain, name: constant_coefficient(value, name)),
    "affine": ({"offset": (_number, 1.0), "slopes": (_nonempty_numbers, [0.0])},
               affine_coefficient),
    "sinusoidal-bump": ({"base": (_number, 1.0), "amplitude": (_number, 1.0)},
                        bump_coefficient),
}

_TOP_KEYS = {*_SECTIONS, *_SCALARS, "domain", "resolution", "coefficients"}


def _expect_map(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"config key '{path}': expected an object")
    return value


def _apply_schema(raw: dict, schema: dict, prefix: str) -> dict:
    return {key: check(raw.get(key, default), prefix + key)
            for key, (check, default) in schema.items()}


def _resolve_section(raw: dict, name: str) -> dict:
    section = _expect_map(raw.get(name, {}), name)
    out = _apply_schema(section, _SECTIONS[name], f"{name}.")
    extra = set(section) - set(out)
    if extra:
        raise ConfigurationError(
            f"config key '{name}.{sorted(extra)[0]}': unknown key"
        )
    return out


def load_config(path) -> dict:
    """Parse a JSON config file, pointing at the offending line on failure."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    return _expect_map(raw, "<root>")


def _resolve_coefficient(raw: dict, label: str) -> dict:
    path = f"coefficients.{label}"
    entry = _expect_map(raw.get(label, {}), path)
    kind = entry.get("kind", "constant")
    if not isinstance(kind, str) or kind not in _COEFF_KINDS:
        raise ConfigurationError(
            f"config key '{path}.kind': unknown kind {kind!r}; "
            f"choose one of {', '.join(_COEFF_KINDS)}"
        )
    out = {"kind": kind,
           **_apply_schema(entry, _COEFF_KINDS[kind][0], f"{path}.")}
    for bound in ("lower", "upper"):
        if bound in entry:
            out[bound] = _number(entry[bound], f"{path}.{bound}")
    extra = set(entry) - set(out)
    if extra:
        raise ConfigurationError(
            f"config key '{path}.{sorted(extra)[0]}': unknown parameter for "
            f"kind {kind!r}"
        )
    return out


def _build_coefficient(resolved: dict, domain, label: str) -> CoefficientField:
    schema, build = _COEFF_KINDS[resolved["kind"]]
    coeff = build(*(resolved[key] for key in schema), domain, label)
    lower = resolved.get("lower", coeff.lower)
    upper = resolved.get("upper", coeff.upper)
    return CoefficientField(coeff.evaluator, lower, upper, label)


def resolve_config(raw: dict) -> dict:
    """Materialize every default; validate shapes and orderings up front."""
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigurationError(
            f"config key '{sorted(unknown)[0]}': unknown top-level key"
        )
    exponents = _resolve_section(raw, "exponents")

    domain = raw.get("domain", [0.0, 1.0])
    if not isinstance(domain, list):
        raise ConfigurationError("config key 'domain': expected a list")
    if len(domain) == 2 and all(isinstance(v, (int, float)) for v in domain):
        domain_res = [float(domain[0]), float(domain[1])]
        default_res = 201
    elif len(domain) == 2 and all(isinstance(v, list) and len(v) == 2 for v in domain):
        domain_res = [[float(v[0]), float(v[1])] for v in domain]
        default_res = [41, 41]
    else:
        raise ConfigurationError(
            "config key 'domain': expected [x0, x1] or [[x0, x1], [y0, y1]]"
        )

    resolution = raw.get("resolution", default_res)
    counts = resolution if isinstance(resolution, list) else [resolution]
    if not all(isinstance(r, int) and not isinstance(r, bool) for r in counts):
        raise ConfigurationError(
            "config key 'resolution': expected an integer or list of integers"
        )

    coeffs_raw = _expect_map(raw.get("coefficients", {}), "coefficients")
    unknown = set(coeffs_raw) - {"a", "b"}
    if unknown:
        raise ConfigurationError(
            f"config key 'coefficients.{sorted(unknown)[0]}': only 'a' and 'b' "
            "are recognized"
        )
    coefficients = {label: _resolve_coefficient(coeffs_raw, label) for label in "ab"}

    sections = {name: _resolve_section(raw, name) for name in _SECTIONS
                if name != "exponents"}
    gamma = exponents["gamma"]
    if not all(1.0 <= r < gamma for r in sections["asymptotics"]["r_list"]):
        raise ConfigurationError(
            f"config key 'asymptotics.r_list': expected numbers in [1, gamma={gamma:g})")
    resolved = {
        "exponents": exponents,
        **_apply_schema(raw, _SCALARS, ""),
        "domain": domain_res,
        "resolution": resolution,
        "coefficients": coefficients,
        **sections,
    }
    # Fail fast on orderings and bound signs before any compute.
    _make_problem(resolved)
    return resolved


def _make_problem(resolved: dict) -> ProblemSpec:
    domain, coeffs = resolved["domain"], resolved["coefficients"]
    try:
        exponents = Exponents(**resolved["exponents"])
        mesh = build_mesh(domain, resolved["resolution"])
        a, b = (_build_coefficient(coeffs[label], domain, label) for label in "ab")
        problem = ProblemSpec(mesh, exponents, resolved["epsilon"], a, b)
        # Resolved bounds become part of the provenance record.
        for coeff in (a, b):
            coeffs[coeff.name].update(lower=coeff.lower, upper=coeff.upper)
        return problem
    except (InputError, ContractViolation) as exc:
        raise ConfigurationError(str(exc)) from exc


# -- subcommands --------------------------------------------------------------


def _cmd_solve(resolved: dict, out_dir: Path, svg: bool, threads: int) -> int:
    problem = _make_problem(resolved)
    dump_json(resolved, out_dir / "resolved_config.json")
    report = solve_ground_state(problem, **resolved["solver"])
    doc = {"epsilon": problem.epsilon, "report": report.to_json_dict()}
    dump_json(doc, out_dir / "ground_state.json")
    report.trace_to_csv(out_dir / "trace.csv")
    if not report.converged:
        print("ground state did not converge; partial artifacts written",
              file=sys.stderr)
        return 3
    print(f"ground state: energy {report.energy:.12g}, "
          f"residual {report.residual_norm:.3g}, "
          f"iterations {report.iterations}")
    return 0


def _cmd_second(resolved: dict, out_dir: Path, svg: bool, threads: int) -> int:
    problem = _make_problem(resolved)
    dump_json(resolved, out_dir / "resolved_config.json")
    ground = solve_ground_state(problem, **resolved["solver"])
    dump_json({"epsilon": problem.epsilon, "report": ground.to_json_dict()},
              out_dir / "ground_state.json")
    if not ground.converged:
        print("ground state did not converge; no mountain pass attempted",
              file=sys.stderr)
        return 3
    second = solve_mountain_pass(problem, ground, **resolved["mountain_pass"])
    dump_json({"epsilon": problem.epsilon, "report": second.to_json_dict()},
              out_dir / "second_solution.json")
    if not second.converged:
        print("mountain pass did not converge; partial artifacts written",
              file=sys.stderr)
        return 3
    print(f"second solution: energy {second.energy:.12g} at path level "
          f"{second.path_level:.12g} (ground {ground.energy:.12g})")
    return 0


def _cmd_thresholds(resolved: dict, out_dir: Path, svg: bool, threads: int) -> int:
    problem = _make_problem(resolved)
    dump_json(resolved, out_dir / "resolved_config.json")
    estimate = estimate_thresholds(problem, **resolved["thresholds"],
                                   seed=resolved["solver"]["seed"])
    dump_json(estimate.to_json_dict(), out_dir / "thresholds.json")
    print(f"thresholds: critical {estimate.eps_critical:.12g}, "
          f"two-solutions {estimate.eps_two_solutions:.12g}")
    return 0


def _cmd_sweep(resolved: dict, out_dir: Path, svg: bool, threads: int) -> int:
    problem = _make_problem(resolved)
    if not resolved["eps_list"]:
        raise ConfigurationError("config key 'eps_list': sweep needs a "
                                 "non-empty decreasing list")
    dump_json(resolved, out_dir / "resolved_config.json")
    report = epsilon_sweep(
        problem, resolved["eps_list"], **resolved["asymptotics"],
        solver_options=resolved["solver"], threads=threads,
    )
    report.to_csv(out_dir / "sweep.csv")
    dump_json(report.to_json_dict(), out_dir / "sweep.json")
    if svg:
        eps = report.column("eps")
        names = ["energy_gap", "measure_bad_eta", "linf_interior_err"]
        names += [f"l{r:g}_err" for r, _ in report.rows[0].lr_errors]
        series = [(name, eps, report.column(name)) for name in names]
        _svg_line_chart(series, out_dir / "sweep.svg",
                        title="convergence to the flat limit",
                        x_label="eps", y_label="metric",
                        log_x=True, log_y=True)
    bad = [row.eps for row in report.rows if not row.converged]
    if bad:
        print(f"sweep finished with non-converged rows at eps {bad}",
              file=sys.stderr)
        return 3
    print(f"sweep: {len(report.rows)} rows, final energy gap "
          f"{report.rows[-1].energy_gap:.6g}")
    return 0


def _cmd_layer(resolved: dict, out_dir: Path, svg: bool, threads: int) -> int:
    problem = _make_problem(resolved)
    exp = problem.exponents
    if exp.p != 2.0:
        raise ConfigurationError(
            "config key 'exponents.p': the layer profile is derived for p = 2"
        )
    if problem.mesh.dimension != 1:
        raise ConfigurationError(
            "config key 'domain': the layer comparison needs a 1D domain"
        )
    dump_json(resolved, out_dir / "resolved_config.json")
    lay = dict(resolved["layer"])
    compare_eps = lay.pop("compare_eps")
    profile = layer_profile_1d(exp.q, exp.gamma, **lay)
    profile.to_csv(out_dir / "layer_profile.csv")

    doc = {"q": exp.q, "gamma": exp.gamma, **lay,
           "tail_gap": 1.0 - float(profile.values[-1])}
    status = 0
    if compare_eps is not None:
        ground = solve_ground_state(problem.with_epsilon(compare_eps),
                                    **resolved["solver"])
        composite = composite_approx_1d(compare_eps, problem.mesh, profile)
        sup_diff = float(np.max(np.abs(ground.field.values - composite.values)))
        doc["comparison"] = {
            "eps": compare_eps,
            "sup_diff": sup_diff,
            "ground_energy": ground.energy,
            "ground_converged": ground.converged,
        }
        if not ground.converged:
            status = 3
    dump_json(doc, out_dir / "layer_compare.json")
    if svg:
        series = [("profile", profile.xi, profile.values)]
        _svg_line_chart(series, out_dir / "layer.svg",
                        title="boundary-layer profile", x_label="xi",
                        y_label="value", log_x=False, log_y=False)
    if status:
        print("layer comparison solve did not converge; partial artifacts "
              "written", file=sys.stderr)
    else:
        print(f"layer profile written; tail gap {doc['tail_gap']:.3g}")
    return status


_COMMANDS = {
    "solve": _cmd_solve,
    "second": _cmd_second,
    "thresholds": _cmd_thresholds,
    "sweep": _cmd_sweep,
    "layer": _cmd_layer,
}


# -- invariant check suite -----------------------------------------------------


def _model_problem(resolution: int = 201, epsilon: float = 1e-3) -> ProblemSpec:
    mesh = build_mesh((0.0, 1.0), resolution)
    one = constant_coefficient(1.0)
    return ProblemSpec(mesh, Exponents(2.0, 3.0, 4.0), epsilon, one, one)


def _random_interior_field(problem: ProblemSpec, rng, lo: float,
                           hi: float) -> DiscreteField:
    vals = rng.uniform(lo, hi, problem.mesh.n_nodes)
    vals[problem.mesh.boundary_nodes] = 0.0
    return DiscreteField(problem.mesh, vals)


def _check_extremal_constants() -> None:
    consts = extremal_constants(Exponents(2.0, 3.0, 4.0))
    assert abs(consts.constraint - 0.25) <= 1e-14, consts
    assert abs(consts.zero_energy - 2.0 / 9.0) <= 1e-14, consts
    rng = np.random.default_rng(2024)
    for _ in range(200):
        p = rng.uniform(1.01, 4.0)
        q = p + rng.uniform(0.01, 2.0)
        g = q + rng.uniform(0.01, 2.0)
        c = extremal_constants(Exponents(p, q, g))
        assert 0.0 < c.zero_energy < c.constraint, (p, q, g, c)


def _check_quotient_ratio() -> None:
    rng = np.random.default_rng(11)
    ex = Exponents(2.0, 3.0, 4.0)
    consts = extremal_constants(ex)
    from .functionals import EnergyComponents

    for _ in range(100):
        comps = EnergyComponents(*rng.uniform(0.1, 5.0, 3))
        quots = nonlinear_quotients(comps, ex)
        ratio = quots.zero_energy / quots.constraint
        assert abs(ratio - consts.zero_energy / consts.constraint) <= 1e-12


def _check_fiber_maximum() -> None:
    from .functionals import EnergyComponents

    ex = Exponents(2.0, 3.0, 4.0)
    comps = EnergyComponents(1.0, 2.0, 1.0)
    scalings = fiber_scalings(comps, ex)
    peak = ray_quotients(comps, scalings.constraint, ex).constraint
    for s in np.geomspace(0.05, 20.0, 400):
        val = ray_quotients(comps, float(s), ex).constraint
        assert val <= peak + 1e-12, (s, val, peak)


def _check_energy_identity() -> None:
    problem = _model_problem()
    rng = np.random.default_rng(5)
    u = _random_interior_field(problem, rng, -1.0, 1.0)
    comps = energy_components(u, problem)
    ex = problem.exponents
    recomposed = (problem.epsilon / ex.p) * comps.dirichlet \
        - comps.gain / ex.q + comps.loss / ex.gamma
    direct = phi(u, problem)
    assert abs(recomposed - direct) <= 1e-14 * (1.0 + abs(direct))


def _check_gradient_pairing() -> None:
    problem = _model_problem(101)
    rng = np.random.default_rng(7)
    u = _random_interior_field(problem, rng, -1.0, 1.0)
    v = _random_interior_field(problem, rng, -1.0, 1.0)
    pairing = float(np.dot(weak_residual(u, problem).values, v.values))
    h = 1e-6
    up = u.with_values(u.values + h * v.values)
    dn = u.with_values(u.values - h * v.values)
    fd = (phi(up, problem) - phi(dn, problem)) / (2.0 * h)
    assert abs(pairing - fd) <= 1e-6 * (1.0 + abs(fd)), (pairing, fd)


def _check_nehari_pairing() -> None:
    problem = _model_problem(101)
    rng = np.random.default_rng(9)
    u = _random_interior_field(problem, rng, 0.0, 1.0)
    comps = energy_components(u, problem)
    lhs = float(np.dot(weak_residual(u, problem).values, u.values))
    rhs = problem.epsilon * comps.dirichlet - comps.gain + comps.loss
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs)), (lhs, rhs)


def _check_quadrature() -> None:
    mesh = build_mesh((0.0, 1.0), 101)
    total = mesh.integrate(np.ones_like(mesh.qp_weights))
    assert abs(total - 1.0) <= 1e-12, total
    mesh2 = build_mesh(((0.0, 2.0), (0.0, 1.0)), (9, 7))
    total2 = mesh2.integrate(np.ones_like(mesh2.qp_weights))
    assert abs(total2 - 2.0) <= 1e-12, total2


def _check_ground_state() -> None:
    problem = _model_problem(201, 1e-3)
    report = solve_ground_state(problem, tol_res=1e-8, max_iters=5000,
                                random_restarts=1)
    assert report.converged, report.residual_norm
    assert report.energy < 0.0, report.energy
    assert report.nehari_residual <= 1e-6, report.nehari_residual
    assert report.fiber_second_derivative > 0.0
    diag = nehari_diagnostics(report.field, problem)
    # residual tol 1e-8 leaves |(gain-loss)/dirichlet - eps| at the 1e-5 level
    assert abs(diag.ray_constraint - problem.epsilon) <= 1e-4 * problem.epsilon, diag


def _check_layer_profile() -> None:
    profile = layer_profile_1d(2.0, 4.0, xi_max=10.0, points=101)
    expected = np.tanh(profile.xi / np.sqrt(2.0))
    assert float(np.max(np.abs(profile.values - expected))) <= 1e-6


def _check_scaling_round_trip() -> None:
    problem = _model_problem(101, 0.01)
    rng = np.random.default_rng(3)
    u = _random_interior_field(problem, rng, 0.0, 1.0)
    ex = problem.exponents
    lam = scale_solution(u, 0.01, ex, "lambda")
    assert abs(lam.parameter - 10.0) <= 1e-12
    back = lam.field.scaled(lam.parameter ** (-1.0 / (ex.gamma - ex.q)))
    err = np.max(np.abs(back.values - u.values))
    assert err <= 1e-14 * (1.0 + np.max(np.abs(u.values))), err


_CHECKS = [
    ("extremal constants", _check_extremal_constants),
    ("quotient ratio", _check_quotient_ratio),
    ("fiber maximum", _check_fiber_maximum),
    ("energy identity", _check_energy_identity),
    ("gradient pairing", _check_gradient_pairing),
    ("constraint pairing", _check_nehari_pairing),
    ("quadrature partition", _check_quadrature),
    ("ground state model case", _check_ground_state),
    ("layer profile closed form", _check_layer_profile),
    ("scaling round trip", _check_scaling_round_trip),
]


def _cmd_check(out_dir: Path | None) -> int:
    results = []
    failed = 0
    for name, fn in _CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - each check reports its own failure
            failed += 1
            results.append({"name": name, "ok": False, "detail": str(exc)})
            print(f"FAIL - {name}: {exc}")
        else:
            results.append({"name": name, "ok": True, "detail": ""})
            print(f"ok - {name}")
    if out_dir is not None:
        dump_json({"checks": results, "failed": failed},
                  out_dir / "check_report.json")
    print(f"{len(_CHECKS) - failed}/{len(_CHECKS)} checks passed")
    return 1 if failed else 0


# -- SVG emission ---------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        first = int(np.ceil(lo - 1e-9))
        last = int(np.floor(hi + 1e-9))
        if first > last:
            return [lo, hi]
        return [float(t) for t in range(first, last + 1)]
    raw = np.linspace(lo, hi, 5)
    return [float(t) for t in raw]


def _svg_line_chart(series, path, title: str, x_label: str, y_label: str,
                    log_x: bool, log_y: bool) -> None:
    """Static line chart; text output is deterministic for golden files."""
    width, height = 640, 420
    ml, mr, mt, mb = 70, 24, 42, 52
    plot_w, plot_h = width - ml - mr, height - mt - mb

    cleaned = []
    for name, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if log_x:
            keep &= xs > 0
        if log_y:
            keep &= ys > 0
        if keep.any():
            tx = np.log10(xs[keep]) if log_x else xs[keep]
            ty = np.log10(ys[keep]) if log_y else ys[keep]
            cleaned.append((name, tx, ty))
    if not cleaned:
        cleaned = [("empty", np.array([0.0, 1.0]), np.array([0.0, 0.0]))]

    all_x = np.concatenate([c[1] for c in cleaned])
    all_y = np.concatenate([c[2] for c in cleaned])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_x, pad_y = 0.04 * (x_hi - x_lo), 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def sx(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return mt + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi, log_x):
        if not (x_lo <= t <= x_hi):
            continue
        label = f"1e{int(t)}" if log_x else f"{t:.3g}"
        parts.append(f'<line x1="{sx(t):.2f}" y1="{mt + plot_h}" '
                     f'x2="{sx(t):.2f}" y2="{mt + plot_h + 5}" stroke="#333333"/>')
        parts.append(f'<text x="{sx(t):.2f}" y="{mt + plot_h + 20}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    for t in _ticks(y_lo, y_hi, log_y):
        if not (y_lo <= t <= y_hi):
            continue
        label = f"1e{int(t)}" if log_y else f"{t:.3g}"
        parts.append(f'<line x1="{ml - 5}" y1="{sy(t):.2f}" x2="{ml}" '
                     f'y2="{sy(t):.2f}" stroke="#333333"/>')
        parts.append(f'<text x="{ml - 8}" y="{sy(t) + 4:.2f}" '
                     'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append(f'<text x="{ml + plot_w / 2:.1f}" y="{height - 14}" '
                 'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{x_label}</text>')
    parts.append(f'<text x="18" y="{mt + plot_h / 2:.1f}" text-anchor="middle" '
                 'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 18 {mt + plot_h / 2:.1f})">{y_label}</text>')

    for i, (name, xs, ys) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = mt + 16 + 16 * i
        parts.append(f'<line x1="{ml + plot_w - 150}" y1="{ly - 4}" '
                     f'x2="{ml + plot_w - 126}" y2="{ly - 4}" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + plot_w - 120}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# -- entry point ----------------------------------------------------------------


def run(subcommand: str, config: dict, out_dir=None, svg: bool = False,
        threads: int = 1) -> int:
    """Execute one subcommand against a raw config dict; returns the exit code."""
    try:
        if subcommand == "check":
            out = None
            if out_dir is not None:
                out = Path(out_dir)
                out.mkdir(parents=True, exist_ok=True)
            return _cmd_check(out)
        resolved = resolve_config(config)
        if out_dir is None:
            raise ConfigurationError("an output directory is required")
        if subcommand not in _COMMANDS:
            raise ConfigurationError(f"unknown subcommand {subcommand!r}")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[subcommand](resolved, out, svg, threads)
    except (ConfigurationError, InputError, HypothesisViolation) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, DomainError, ContractViolation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pfiber",
        description="Experiments for the perturbed p-Laplacian two-solution "
                    "problem: ground states, mountain passes, thresholds, "
                    "small-eps sweeps, and boundary layers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in (*_COMMANDS, "check"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=name != "check",
                        help="path to the JSON experiment config")
        sp.add_argument("--out", default=None,
                        help="directory for artifacts")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the solver seed")
        sp.add_argument("--threads", type=int, default=1,
                        help="parallel sweep rows")
        sp.add_argument("--svg", action="store_true",
                        help="emit SVG charts where supported")
    args = parser.parse_args(argv)

    config: dict = {}
    if args.config is not None:
        try:
            config = load_config(args.config)
        except ConfigurationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"configuration error: cannot read {args.config}: {exc}",
                  file=sys.stderr)
            return 2
    if args.seed is not None:
        solver = config.setdefault("solver", {})
        if isinstance(solver, dict):  # anything else is reported by resolve_config
            solver["seed"] = args.seed
    if args.threads < 1:
        print("configuration error: --threads must be at least 1",
              file=sys.stderr)
        return 2
    return run(args.subcommand, config, out_dir=args.out, svg=args.svg,
               threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
