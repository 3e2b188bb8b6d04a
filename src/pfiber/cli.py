"""Batch front door: JSON-configured experiments emitting deterministic artifacts.

Every run materializes all defaults into ``resolved_config.json`` next to its
outputs, so each artifact records exactly the inputs that produced it.  The
solvers return plain frozen records; this module alone decides how they look
on disk.  JSON artifacts are written with sorted keys, and CSV cells hold
integers as %d, booleans as true/false and other numbers with 17 significant
digits; reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 a solve did not converge or
second met a zero ground state (partial artifacts are kept), 4 internal numerical failure.
"""

import argparse
import dataclasses
import json
import math
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
)
from .rayleigh import estimate_thresholds
from .solver import solve_ground_state, solve_mountain_pass
from .asymptotics import composite_approx_1d, epsilon_sweep, layer_profile_1d

__all__ = ["main", "run", "resolve_config", "load_config"]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"config key '{path}': expected a number")
    if not abs(value) <= sys.float_info.max:
        raise ConfigurationError(f"config key '{path}': expected a finite number")
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


def _r_list(value, path: str) -> list[float]:
    """Checker for r_list: each entry names its own sweep.csv column l{r:g}_err."""
    values = _nonempty_numbers(value, path)
    if len({f"{r:g}" for r in values}) < len(values):
        raise ConfigurationError(f"config key '{path}': expected entries that differ "
                                 "in 6 significant digits, one sweep.csv column each")
    return values


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


def _domain(value, path: str) -> list:
    if isinstance(value, list) and len(value) == 2:
        if all(isinstance(v, (int, float)) for v in value):
            return [_number(v, path) for v in value]
        if all(isinstance(v, list) and len(v) == 2 for v in value):
            return [[_number(x, path) for x in v] for v in value]
    raise ConfigurationError(
        f"config key '{path}': expected [x0, x1] or [[x0, x1], [y0, y1]]")


def _resolution(value, path: str):
    counts = value if isinstance(value, list) else [value]
    if not all(isinstance(r, int) and not isinstance(r, bool) for r in counts):
        raise ConfigurationError(
            f"config key '{path}': expected an integer or list of integers")
    return value


def _expect_map(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"config key '{path}': expected an object")
    return value


# A schema maps key -> (checker, default); a key whose default is _NO_DEFAULT
# stays out of the result when the config omits it.
_NO_DEFAULT = object()


def _apply_schema(raw, schema: dict, path: str, unknown: str = "unknown key") -> dict:
    """Check an object against a schema, refusing the first unknown key."""
    prefix = f"{path}." if path else ""
    extra = sorted(set(_expect_map(raw, path or "<root>")) - set(schema))
    if extra:
        raise ConfigurationError(f"config key '{prefix}{extra[0]}': {unknown}")
    return {key: check(raw.get(key, default), prefix + key)
            for key, (check, default) in schema.items()
            if key in raw or default is not _NO_DEFAULT}


def _section(schema: dict, unknown: str = "unknown key"):
    """Checker for an object whose keys follow ``schema``."""
    return lambda value, path: _apply_schema(value, schema, path, unknown)


# Coefficient kind -> (parameter schema, builder(*parameters, domain, name)).
_COEFF_KINDS = {
    "constant": ({"value": (_number, 1.0)},
                 lambda value, domain, name: constant_coefficient(value, name)),
    "affine": ({"offset": (_number, 1.0), "slopes": (_nonempty_numbers, [0.0])},
               affine_coefficient),
    "sinusoidal-bump": ({"base": (_number, 1.0), "amplitude": (_number, 1.0)},
                        bump_coefficient),
}


def _coefficient(value, path: str) -> dict:
    """Checker for one coefficient: its kind, then that kind's parameters and bounds."""
    kind = _expect_map(value, path).get("kind", "constant")
    if not isinstance(kind, str) or kind not in _COEFF_KINDS:
        raise ConfigurationError(
            f"config key '{path}.kind': unknown kind {kind!r}; "
            f"choose one of {', '.join(_COEFF_KINDS)}"
        )
    schema = {"kind": (lambda v, p: v, kind), **_COEFF_KINDS[kind][0],
              "lower": (_number, _NO_DEFAULT), "upper": (_number, _NO_DEFAULT)}
    return _apply_schema(value, schema, path, f"unknown parameter for kind {kind!r}")


# The whole config, checked in this order.  Subcommands pass a resolved
# section to the solvers as keyword arguments, so its keys are parameter names.
_CONFIG = {
    "exponents": (_section({"p": (_number, 2.0), "q": (_number, 3.0),
                            "gamma": (_number, 4.0)}), {}),
    "epsilon": (_positive, 1e-3),
    "eps_list": (_decreasing_positive_numbers, []),
    "domain": (_domain, [0.0, 1.0]),
    # Its default depends on the domain; _resolve fills it in.
    "resolution": (_resolution, _NO_DEFAULT),
    "coefficients": (_section({"a": (_coefficient, {}), "b": (_coefficient, {})},
                              "only 'a' and 'b' are recognized"), {}),
    "solver": (_section({"tol_res": (_positive, 1e-8), "max_iters": (_integer, 50_000),
                         "random_restarts": (_integer, 0), "seed": (_integer, 0)}), {}),
    "mountain_pass": (_section({"tol_res": (_positive, 1e-8),
                                "max_iters": (_integer, 600)}), {}),
    "thresholds": (_section({"restarts": (_integer, 0),
                             "max_iters": (_integer, 400)}), {}),
    "asymptotics": (_section({"eta": (_positive, 0.1),
                              "r_list": (_r_list, [1.0, 2.0])}), {}),
    "layer": (_section({"xi_max": (_positive, 40.0), "points": (_integer_from(2), 401),
                        "compare_eps": (_positive_or_null, None)}), {}),
}


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


def _build_coefficient(resolved: dict, domain, label: str) -> CoefficientField:
    schema, build = _COEFF_KINDS[resolved["kind"]]
    coeff = build(*(resolved[key] for key in schema), domain, label)
    lower = resolved.get("lower", coeff.lower)
    upper = resolved.get("upper", coeff.upper)
    return CoefficientField(coeff.evaluator, lower, upper, label)


def resolve_config(raw: dict) -> dict:
    """Materialize every default; validate shapes and orderings up front."""
    return _resolve(raw)[0]


def _resolve(raw: dict) -> tuple[dict, ProblemSpec]:
    """resolve_config's dict and the problem it describes, built once."""
    resolved = _apply_schema(raw, _CONFIG, "", "unknown top-level key")
    resolved.setdefault("resolution",
                        [41, 41] if isinstance(resolved["domain"][0], list) else 201)
    gamma = resolved["exponents"]["gamma"]
    if not all(1.0 <= r < gamma for r in resolved["asymptotics"]["r_list"]):
        raise ConfigurationError(
            f"config key 'asymptotics.r_list': expected numbers in [1, gamma={gamma:g})")
    # Fail fast on orderings and bound signs before any compute.
    return resolved, _make_problem(resolved)


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


# -- artifact writers ---------------------------------------------------------


def _record(obj):
    """The JSON value of a result: dataclass fields by name, a field as its values."""
    if isinstance(obj, DiscreteField):
        return {"values": obj.values.tolist()}
    if dataclasses.is_dataclass(obj):
        return {f.name: _record(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [_record(v) for v in obj]
    return obj


def _json_text(obj, indent: str = "") -> str:
    """``obj``, whose keys are strings, as ``json.dumps(obj, indent=2,
    sort_keys=True)`` writes it at ``indent``.

    The stdlib writes an indented document with its pure-Python encoder.  A
    list of finite floats, such as a field's nodal values, is written here
    by one join over ``float.__repr__``, which is what that encoder writes
    for each; keys, scalars and empty containers go through ``json.dumps``.
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(obj.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if all(type(v) is float and math.isfinite(v) for v in obj):
            items = map(float.__repr__, obj)
        else:
            items = (_json_text(v, inner) for v in obj)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return json.dumps(obj)


def _dump_json(obj: dict, path) -> None:
    """Write a JSON document deterministically (sorted keys, fixed format)."""
    with open(path, "w") as fh:
        fh.write(_json_text(obj) + "\n")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%d" % value if isinstance(value, int) else "%.17g" % value


def _write_csv(path, columns: dict) -> None:
    """Write equal-length columns under a header row of their names."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(map(_cell, row)) + "\n")


def _ground_state_doc(report, epsilon: float) -> dict:
    """ground_state.json: the report without its trace, flagged when it is the zero field."""
    record = _record(report)
    del record["trace"]
    record["zero_field"] = report.is_zero()
    return {"epsilon": epsilon, "report": record}


def _sweep_columns(report) -> dict:
    """One column per sweep.csv header, in file order; rows follow eps_list."""
    rows = report.rows
    columns = {name: [getattr(row, name) for row in rows]
               for name in ("eps", "energy", "energy_gap", "J_gap")}
    columns["measure_bad_eta"] = [row.measure_bad for row in rows]
    for i, (r, _) in enumerate(rows[0].lr_errors):
        columns[f"l{r:g}_err"] = [row.lr_errors[i][1] for row in rows]
    columns["linf_interior_err"] = [row.linf_interior_err for row in rows]
    columns["converged"] = [row.converged for row in rows]
    return columns


# -- subcommands --------------------------------------------------------------


def _cmd_solve(resolved: dict, problem: ProblemSpec, out_dir: Path, svg: bool,
              threads: int) -> int:
    _dump_json(resolved, out_dir / "resolved_config.json")
    report = solve_ground_state(problem, **resolved["solver"])
    _dump_json(_ground_state_doc(report, problem.epsilon), out_dir / "ground_state.json")
    _write_csv(out_dir / "trace.csv",
               dict(zip(("iteration", "energy", "residual_norm"), zip(*report.trace))))
    if not report.converged:
        print("ground state did not converge; partial artifacts written "
              f"(descent stopped: {report.stop})", file=sys.stderr)
        return 3
    print(f"ground state: energy {report.energy:.12g}, "
          f"residual {report.residual_norm:.3g}, "
          f"iterations {report.iterations}")
    return 0


def _cmd_second(resolved: dict, problem: ProblemSpec, out_dir: Path, svg: bool,
               threads: int) -> int:
    _dump_json(resolved, out_dir / "resolved_config.json")
    ground = solve_ground_state(problem, **resolved["solver"])
    _dump_json(_ground_state_doc(ground, problem.epsilon), out_dir / "ground_state.json")
    if not ground.converged:
        print("ground state did not converge; no mountain pass attempted "
              f"(descent stopped: {ground.stop})", file=sys.stderr)
        return 3
    if ground.is_zero():
        print("ground state is the zero field (is epsilon above eps_critical?); "
              "no mountain pass attempted", file=sys.stderr)
        return 3
    second = solve_mountain_pass(problem, ground, **resolved["mountain_pass"])
    _dump_json({"epsilon": problem.epsilon, "report": _record(second)},
               out_dir / "second_solution.json")
    if not second.converged:
        print("mountain pass did not converge; partial artifacts written "
              f"(descent stopped: {second.stop})", file=sys.stderr)
        return 3
    print(f"second solution: energy {second.energy:.12g} after {second.iterations} "
          f"descent steps on N- from level {second.path_level:.12g} and "
          f"{second.newton_steps} Newton steps (ground {ground.energy:.12g})")
    return 0


def _cmd_thresholds(resolved: dict, problem: ProblemSpec, out_dir: Path, svg: bool,
                   threads: int) -> int:
    _dump_json(resolved, out_dir / "resolved_config.json")
    estimate = estimate_thresholds(problem, **resolved["thresholds"],
                                   seed=resolved["solver"]["seed"])
    _dump_json(_record(estimate), out_dir / "thresholds.json")
    if estimate.capped_restarts:
        print(f"thresholds: {estimate.capped_restarts} of {estimate.restarts_used} "
              f"ascents stopped at thresholds.max_iters = "
              f"{resolved['thresholds']['max_iters']} before the ascent reached "
              f"the rounding floor of log Q or stalled", file=sys.stderr)
    print(f"thresholds: critical {estimate.eps_critical:.12g}, "
          f"two-solutions {estimate.eps_two_solutions:.12g}")
    return 0


def _cmd_sweep(resolved: dict, problem: ProblemSpec, out_dir: Path, svg: bool,
              threads: int) -> int:
    if not resolved["eps_list"]:
        raise ConfigurationError("config key 'eps_list': sweep needs a "
                                 "non-empty decreasing list")
    if problem.a.lower <= 0.0:
        raise ConfigurationError("config key 'coefficients.a': the flat limit of sweep "
                                 "needs a positive lower bound")
    _dump_json(resolved, out_dir / "resolved_config.json")
    report = epsilon_sweep(
        problem, resolved["eps_list"], **resolved["asymptotics"],
        solver_options=resolved["solver"], threads=threads,
    )
    columns = _sweep_columns(report)
    _write_csv(out_dir / "sweep.csv", columns)
    doc = _record(report)
    for row in doc["rows"]:
        row["measure_bad_eta"] = row.pop("measure_bad")
    _dump_json(doc, out_dir / "sweep.json")
    if svg:
        names = ["energy_gap", "measure_bad_eta", "linf_interior_err"]
        names += [f"l{r:g}_err" for r, _ in report.rows[0].lr_errors]
        series = [(name, columns["eps"], columns[name]) for name in names]
        _svg_line_chart(series, out_dir / "sweep.svg",
                        title="convergence to the flat limit",
                        x_label="eps", y_label="metric",
                        log_x=True, log_y=True)
    bad = [row for row in report.rows if not row.converged]
    if bad:
        print(f"sweep finished with non-converged rows at eps {[row.eps for row in bad]} "
              f"(descents stopped: {[row.stop for row in bad]})", file=sys.stderr)
        return 3
    print(f"sweep: {len(report.rows)} rows, final energy gap "
          f"{report.rows[-1].energy_gap:.6g}")
    return 0


def _cmd_layer(resolved: dict, problem: ProblemSpec, out_dir: Path, svg: bool,
              threads: int) -> int:
    exp = problem.exponents
    if exp.p != 2.0:
        raise ConfigurationError(
            "config key 'exponents.p': the layer profile is derived for p = 2"
        )
    if problem.mesh.dimension != 1:
        raise ConfigurationError(
            "config key 'domain': the layer comparison needs a 1D domain"
        )
    lay = dict(resolved["layer"])
    compare_eps = lay.pop("compare_eps")
    a, b = problem.a, problem.b
    if compare_eps is not None and {a.lower, a.upper, b.lower, b.upper} != {1.0}:
        raise ConfigurationError("config key 'layer.compare_eps': the composite "
                                 "U(d/sqrt(eps)) solves the layer equation for a = b = 1")
    try:
        profile = layer_profile_1d(exp.q, exp.gamma, **lay)
    except NumericalError as exc:  # xi_max beyond the table's reach
        raise ConfigurationError(f"config key 'layer.xi_max': {exc}") from exc
    _dump_json(resolved, out_dir / "resolved_config.json")
    _write_csv(out_dir / "layer_profile.csv", {"xi": profile.xi, "U": profile.values})

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
            "ground_stop": ground.stop,
        }
        if not ground.converged:
            status = 3
    _dump_json(doc, out_dir / "layer_compare.json")
    if svg:
        series = [("profile", profile.xi, profile.values)]
        _svg_line_chart(series, out_dir / "layer.svg",
                        title="boundary-layer profile", x_label="xi",
                        y_label="value", log_x=False, log_y=False)
    if status:
        print("layer comparison solve did not converge; partial artifacts "
              f"written (descent stopped: {ground.stop})", file=sys.stderr)
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
        resolved, problem = _resolve(config)
        if out_dir is None:
            raise ConfigurationError("an output directory is required")
        if subcommand not in _COMMANDS:
            raise ConfigurationError(f"unknown subcommand {subcommand!r}")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[subcommand](resolved, problem, out, svg, threads)
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
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
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
