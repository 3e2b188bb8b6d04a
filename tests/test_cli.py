"""Config resolution, subcommand artifacts, exit codes, and determinism."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pfiber.asymptotics import epsilon_sweep
from pfiber.cli import (_dump_json, _ground_state_doc, _resolve, load_config, main,
                        resolve_config, run)
from pfiber.errors import ConfigurationError
from pfiber.rayleigh import estimate_thresholds
from pfiber.solver import solve_ground_state

# Small enough to converge in well under a second per solve.
MODEL = {
    "epsilon": 1e-3,
    "domain": [0.0, 1.0],
    "resolution": 201,
    "solver": {"max_iters": 5000, "random_restarts": 1},
}


def model_config(**overrides):
    cfg = json.loads(json.dumps(MODEL))
    cfg.update(overrides)
    return cfg


BACKENDS = ("scipy.fft", "scipy.linalg", "scipy.sparse.linalg")


def _loaded_backends(script, backends=BACKENDS):
    """The ``backends`` loaded after ``script`` runs in a fresh interpreter."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    script += f"; print([m for m in {backends!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_solver_backends_unloaded():
    """Every run pays for what ``import pfiber.cli`` loads.

    The 1D preconditioner imports ``scipy.linalg`` when a solver is built
    and a 2D Newton ``scipy.sparse.linalg``; the 2D preconditioner is
    matrix products in numpy.  So a run loads only what it uses, and config
    errors exit before any loads.
    """
    assert _loaded_backends("import pfiber.cli, sys") == "[]"


def test_cli_import_and_config_resolution_load_no_scipy():
    """Set-up, ``import pfiber.cli`` plus ``resolve_config``, needs numpy
    alone: the mesh kernels import ``scipy.sparse`` when a field is first
    evaluated."""
    script = f"import pfiber.cli, sys; pfiber.cli.resolve_config({TINY!r})"
    assert _loaded_backends(script, backends=("scipy",)) == "[]"


@pytest.mark.parametrize("subcommand", ["solve", "second"])
def test_1d_run_loads_lapack_but_no_sparse_solver(tmp_path, subcommand):
    """A 1D ``solve`` factorizes by LAPACK alone, and the Newton finish of a
    1D ``second`` solves its tridiagonal Jacobian by LAPACK too; only a 2D
    Newton loads ``scipy.sparse.linalg``."""
    script = ("import pfiber.cli, sys; "
              f"pfiber.cli.run({subcommand!r}, {TINY!r}, out_dir={str(tmp_path)!r})")
    assert _loaded_backends(script) == "['scipy.linalg']"


def test_2d_solve_loads_no_solver_backend(tmp_path):
    """A 2D ``solve`` diagonalizes its preconditioner by numpy matrix
    products and runs no Newton finish, so it loads none of BACKENDS."""
    config = dict(TINY, domain=[[0.0, 1.0], [0.0, 1.0]], resolution=[21, 21])
    script = ("import pfiber.cli, sys; "
              f"pfiber.cli.run('solve', {config!r}, out_dir={str(tmp_path)!r})")
    assert _loaded_backends(script) == "[]"
    assert json.loads((tmp_path / "ground_state.json").read_text())["report"]["converged"]


def test_2d_solve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """On 161x81 nodes one product of the 2D preconditioner's sine matrices
    is large enough for a threaded BLAS to split, and the split moves its
    last bits; the solve multiplies in row panels that stay on one thread,
    so the bytes must not move."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    config = {"epsilon": 1e-2, "domain": [[0.0, 2.0], [0.0, 1.0]], "resolution": [161, 81]}
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        script = f"import pfiber.cli; pfiber.cli.run('solve', {config!r}, out_dir={str(out)!r})"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       capture_output=True)
        written.append((out / "ground_state.json").read_bytes())
    assert written[0] == written[1]


# -- resolve_config -----------------------------------------------------------


def test_resolve_fills_every_default():
    resolved = resolve_config({})
    assert resolved["exponents"] == {"p": 2.0, "q": 3.0, "gamma": 4.0}
    assert resolved["epsilon"] == 1e-3
    assert resolved["eps_list"] == []
    assert resolved["domain"] == [0.0, 1.0]
    assert resolved["resolution"] == 201
    assert resolved["solver"] == {
        "tol_res": 1e-8, "max_iters": 50_000, "random_restarts": 0, "seed": 0,
    }
    assert resolved["mountain_pass"] == {"tol_res": 1e-8, "max_iters": 600}
    assert resolved["thresholds"] == {"restarts": 0, "max_iters": 400}
    assert resolved["asymptotics"] == {"eta": 0.1, "r_list": [1.0, 2.0]}
    assert resolved["layer"] == {"xi_max": 40.0, "points": 401,
                                 "compare_eps": None}


def test_resolve_materializes_coefficient_bounds():
    resolved = resolve_config(
        {"coefficients": {"a": {"kind": "affine", "offset": 1.0,
                                "slopes": [0.5]}}})
    a = resolved["coefficients"]["a"]
    assert a["kind"] == "affine"
    # _make_problem writes the sampled bounds back for provenance.
    assert a["lower"] == pytest.approx(1.0, abs=1e-12)
    assert a["upper"] == pytest.approx(1.5, abs=1e-12)
    assert resolved["coefficients"]["b"] == {
        "kind": "constant", "value": 1.0, "lower": 1.0, "upper": 1.0,
    }


def test_resolve_2d_domain_default_resolution():
    resolved = resolve_config({"domain": [[0.0, 1.0], [0.0, 2.0]]})
    assert resolved["domain"] == [[0.0, 1.0], [0.0, 2.0]]
    assert resolved["resolution"] == [41, 41]


@pytest.mark.parametrize(
    ("raw", "fragment"),
    [
        ({"epsilonn": 1e-3}, "unknown top-level key"),
        ({"coefficients": {"c": {}}}, "only 'a' and 'b'"),
        ({"coefficients": {"a": {"kind": "gaussian"}}}, "kind"),
        ({"coefficients": {"a": {"kind": "constant", "slope": 2.0}}},
         "unknown parameter"),
        ({"domain": [0.0, 1.0, 2.0]}, "domain"),
        ({"resolution": 10.5}, "resolution"),
        ({"eps_list": "many"}, "eps_list"),
        ({"asymptotics": {"r_list": []}}, "r_list"),
        ({"exponents": {"p": 3.0, "q": 2.0}}, "1 < p < q < gamma"),
        ({"coefficients": {"b": {"kind": "constant", "value": 0.0}}},
         "positive lower bound"),
        ({"solver": {"max_iter": 5}}, "'solver.max_iter': unknown key"),
        ({"layer": {"compare": 1e-4}}, "'layer.compare': unknown key"),
        ({"exponents": {"P": 3}}, "'exponents.P': unknown key"),
        ({"coefficients": {"a": {"kind": ["x"]}}}, "unknown kind"),
        # An absent bound is derived; an explicit null is not a bound.
        ({"coefficients": {"a": {"lower": None}}},
         "'coefficients.a.lower': expected a number"),
        ({"solver": {"max_iters": 1.5}}, "'solver.max_iters': expected an integer"),
        ({"solver": {"seed": True}}, "'solver.seed': expected an integer"),
        ({"solver": [1]}, "'solver': expected an object"),
    ],
)
def test_resolve_rejects_bad_config(raw, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        resolve_config(raw)


def _assert_same_typed(got, want, path="<root>"):
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert set(got) == set(want), (path, sorted(got), sorted(want))
        for key in want:
            _assert_same_typed(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), (path, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_typed(g, w, f"{path}[{i}]")
    else:
        assert got == want, (path, got, want)


def test_resolve_round_trips_every_documented_key():
    # Every key of the README's config reference, each set away from its
    # default; numbers are given as JSON integers where the key takes a
    # number, so the resolved value must come back as a float.
    raw = {
        "exponents": {"p": 3, "q": 4.5, "gamma": 6},
        "epsilon": 2e-3,
        "eps_list": [1, 1e-2],
        "domain": [0, 2],
        "resolution": 51,
        "coefficients": {
            "a": {"kind": "affine", "offset": 2, "slopes": [0.25]},
            "b": {"kind": "sinusoidal-bump", "base": 1, "amplitude": 0.5,
                  "lower": 0.5, "upper": 2},
        },
        "solver": {"tol_res": 1e-9, "max_iters": 123, "random_restarts": 2,
                   "seed": 7},
        "mountain_pass": {"tol_res": 1e-7, "max_iters": 99},
        "thresholds": {"restarts": 3, "max_iters": 77},
        "asymptotics": {"eta": 0.25, "r_list": [1, 3]},
        "layer": {"xi_max": 30, "points": 201, "compare_eps": 1e-4},
    }
    want = {
        "exponents": {"p": 3.0, "q": 4.5, "gamma": 6.0},
        "epsilon": 2e-3,
        "eps_list": [1.0, 1e-2],
        "domain": [0.0, 2.0],
        "resolution": 51,
        "coefficients": {
            "a": {"kind": "affine", "offset": 2.0, "slopes": [0.25],
                  "lower": 2.0, "upper": 2.5},
            "b": {"kind": "sinusoidal-bump", "base": 1.0, "amplitude": 0.5,
                  "lower": 0.5, "upper": 2.0},
        },
        "solver": {"tol_res": 1e-9, "max_iters": 123, "random_restarts": 2,
                   "seed": 7},
        "mountain_pass": {"tol_res": 1e-7, "max_iters": 99},
        "thresholds": {"restarts": 3, "max_iters": 77},
        "asymptotics": {"eta": 0.25, "r_list": [1.0, 3.0]},
        "layer": {"xi_max": 30.0, "points": 201, "compare_eps": 1e-4},
    }
    _assert_same_typed(resolve_config(raw), want)
    constant = resolve_config(
        {"coefficients": {"a": {"kind": "constant", "value": 3}}})
    _assert_same_typed(constant["coefficients"]["a"],
                       {"kind": "constant", "value": 3.0, "lower": 3.0,
                        "upper": 3.0})


def test_load_config_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "epsilon": 1e-3,\n}\n')
    with pytest.raises(ConfigurationError, match=r"broken\.json:3:1"):
        load_config(str(path))


# -- solve --------------------------------------------------------------------


def test_solve_writes_ground_state_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("solve", model_config(), out_dir=out) == 0
    assert (out / "resolved_config.json").is_file()
    doc = json.loads((out / "ground_state.json").read_text())
    assert doc["epsilon"] == 1e-3
    report = doc["report"]
    assert report["converged"] is True
    assert report["energy"] < 0.0
    assert report["nehari_residual"] <= 1e-6
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,energy,residual_norm"
    # Trace rows log the winning descent only; restart probes are not kept.
    final = trace[-1].split(",")
    assert float(final[2]) <= 1e-8 * (1.0 + abs(report["energy"]))
    assert "ground state: energy" in capsys.readouterr().out


def test_report_serialization(tmp_path):
    """ground_state.json holds the report's fields and its field's values; trace.csv its trace."""
    out = tmp_path / "run"
    assert run("solve", model_config(), out_dir=out) == 0
    resolved, problem = _resolve(model_config())
    report = solve_ground_state(problem, **resolved["solver"])
    data = json.loads((out / "ground_state.json").read_text())["report"]
    assert set(data) == {
        "energy", "residual_norm", "nehari_residual", "fiber_second_derivative",
        "iterations", "converged", "tol_effective", "delta_reg", "zero_field", "field",
        "best_start", "stop",
    }
    assert data["best_start"] == report.best_start
    assert data["stop"] == report.stop == "tolerance"
    assert data["converged"] is True
    assert data["zero_field"] is False
    assert len(data["field"]["values"]) == 201
    assert data["field"] == {"values": report.field.values.tolist()}
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,energy,residual_norm"
    assert len(lines) == len(report.trace) + 1
    assert lines[1].startswith("0,")


def test_solve_artifacts_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    run("solve", model_config(), out_dir=out1)
    run("solve", model_config(), out_dir=out2)
    for name in ("resolved_config.json", "ground_state.json", "trace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_default_runs_do_not_depend_on_the_seed(tmp_path):
    """With no sampled restart the seed draws nothing: artifacts match byte for byte."""
    def artifact(subcommand, name, seed):
        out = tmp_path / f"{subcommand}-seed{seed}"
        cfg = model_config(solver={"max_iters": 5000, "seed": seed})
        assert run(subcommand, cfg, out_dir=out) == 0
        return (out / name).read_bytes()

    for subcommand, name in (("solve", "ground_state.json"),
                             ("thresholds", "thresholds.json")):
        assert artifact(subcommand, name, 1) == artifact(subcommand, name, 2)


def test_solve_seed_changes_restart_draws_not_result(tmp_path):
    # Restarts explore from seeded noise but the model case has one basin:
    # both seeds must land on the same energy to solver tolerance.
    out1, out2 = tmp_path / "one", tmp_path / "two"
    cfg = model_config()
    cfg["solver"] = dict(cfg["solver"], seed=7)
    run("solve", model_config(), out_dir=out1)
    run("solve", cfg, out_dir=out2)
    e1 = json.loads((out1 / "ground_state.json").read_text())["report"]["energy"]
    e2 = json.loads((out2 / "ground_state.json").read_text())["report"]["energy"]
    assert e1 == pytest.approx(e2, rel=1e-6)


def test_solve_non_convergence_exits_3_with_partial_artifacts(tmp_path, capsys):
    cfg = model_config()
    cfg["solver"] = {"max_iters": 3, "random_restarts": 0}
    out = tmp_path / "run"
    assert run("solve", cfg, out_dir=out) == 3
    assert "did not converge" in capsys.readouterr().err
    doc = json.loads((out / "ground_state.json").read_text())
    assert doc["report"]["converged"] is False
    assert (out / "trace.csv").is_file()


def test_solve_requires_out_dir(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(model_config()))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(path)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["config.json", "config.json/run"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, out):
    """An --out naming a file, or below one, is a one-line configuration
    error, and nothing is written."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(model_config()))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot create output directory")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]
    assert json.loads(path.read_text()) == model_config()


# -- second -------------------------------------------------------------------


def test_second_writes_both_solutions(tmp_path):
    out = tmp_path / "run"
    assert run("second", model_config(), out_dir=out) == 0
    ground = json.loads((out / "ground_state.json").read_text())["report"]
    second = json.loads((out / "second_solution.json").read_text())["report"]
    assert ground["energy"] < 0.0 < second["energy"]
    assert second["converged"] is True
    assert second["path_level"] >= second["energy"] - 1e-15


def test_second_at_its_sweep_cap_exits_3_with_partial_artifacts(tmp_path, capsys):
    """One descent step with a tolerance that no field reaches ends at the cap.

    Newton finishes the model's search from any descent field, so the cap is
    driven by a tol_res of 1e-20, below the rounding floor of the residual
    (about 1e-18 at 201 nodes): neither the descent nor Newton can meet it.
    """
    out = tmp_path / "run"
    cfg = model_config(mountain_pass={"max_iters": 1, "tol_res": 1e-20})
    assert run("second", cfg, out_dir=out) == 3
    assert "mountain pass did not converge" in capsys.readouterr().err
    second = json.loads((out / "second_solution.json").read_text())["report"]
    assert second["converged"] is False
    assert second["iterations"] == 1
    assert second["residual_norm"] > second["tol_effective"]


def test_second_without_a_converged_ground_state_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = model_config(solver={"max_iters": 1, "random_restarts": 0})
    assert run("second", cfg, out_dir=out) == 3
    assert "no mountain pass attempted" in capsys.readouterr().err
    report = json.loads((out / "ground_state.json").read_text())["report"]
    assert report["converged"] is False
    assert not (out / "second_solution.json").exists()


# -- thresholds ---------------------------------------------------------------


@pytest.fixture(scope="module")
def thresholds_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("thr")
    cfg = model_config(resolution=101,
                       thresholds={"restarts": 4, "max_iters": 300})
    assert run("thresholds", cfg, out_dir=out) == 0
    return json.loads((out / "thresholds.json").read_text())


def test_thresholds_artifact_fields(thresholds_doc):
    assert set(thresholds_doc) >= {"eps_critical", "eps_two_solutions",
                                   "sup_quotient", "restarts_used"}
    assert 0.0 < thresholds_doc["eps_two_solutions"] \
        < thresholds_doc["eps_critical"]


def test_threshold_estimate_serializes(tmp_path):
    cfg = model_config(resolution=21, thresholds={"restarts": 2, "max_iters": 60})
    out = tmp_path / "run"
    assert run("thresholds", cfg, out_dir=out) == 0
    resolved, problem = _resolve(cfg)
    est = estimate_thresholds(problem, **resolved["thresholds"],
                              seed=resolved["solver"]["seed"])
    data = json.loads((out / "thresholds.json").read_text())
    assert data["eps_critical"] == est.eps_critical
    assert len(data["maximizer"]["values"]) == 21
    assert data["maximizer"] == {"values": est.maximizer.values.tolist()}


def test_thresholds_reports_capped_restarts(tmp_path, capsys):
    """An ascent cut by thresholds.max_iters is counted and named on stderr.

    Four sampled restarts run after the flat limit's ascent: five in all.
    """
    cfg = model_config(resolution=41, thresholds={"restarts": 4, "max_iters": 5})
    assert run("thresholds", cfg, out_dir=tmp_path / "capped") == 0
    data = json.loads((tmp_path / "capped" / "thresholds.json").read_text())
    assert data["restarts_used"] == 5
    assert data["capped_restarts"] == 5
    err = capsys.readouterr().err
    assert "5 of 5 ascents stopped at thresholds.max_iters = 5" in err

    cfg = model_config(resolution=41, thresholds={"restarts": 4, "max_iters": 120})
    assert run("thresholds", cfg, out_dir=tmp_path / "free") == 0
    data = json.loads((tmp_path / "free" / "thresholds.json").read_text())
    assert data["capped_restarts"] == 0
    assert capsys.readouterr().err == ""


def test_thresholds_with_zero_gain_exits_4_without_artifact(tmp_path, capsys):
    """With a = 0 no restart has a positive gain: a numerical failure, exit 4."""
    cfg = model_config(resolution=41, thresholds={"restarts": 2},
                       coefficients={"a": {"kind": "constant", "value": 0.0}})
    out = tmp_path / "run"
    assert run("thresholds", cfg, out_dir=out) == 4
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / "thresholds.json").exists()


def test_thresholds_ratio_matches_constants(thresholds_doc):
    # c_e/c = 8/9 at (2, 3, 4); both thresholds share one sup estimate.
    ratio = thresholds_doc["eps_two_solutions"] / thresholds_doc["eps_critical"]
    assert ratio == pytest.approx(8.0 / 9.0, rel=1e-12)


def test_solve_at_twice_critical_reports_zero_field(thresholds_doc, tmp_path):
    cfg = model_config(resolution=101,
                       epsilon=2.0 * thresholds_doc["eps_critical"])
    out = tmp_path / "run"
    assert run("solve", cfg, out_dir=out) == 0
    report = json.loads((out / "ground_state.json").read_text())["report"]
    assert report["zero_field"] is True
    assert report["energy"] == 0.0


def test_second_at_twice_critical_exits_3_without_a_second_solution(
        thresholds_doc, tmp_path, capsys):
    """A zero ground state has no peak to start from: exit 3, not a config error."""
    cfg = model_config(resolution=101,
                       epsilon=2.0 * thresholds_doc["eps_critical"])
    out = tmp_path / "run"
    assert run("second", cfg, out_dir=out) == 3
    assert "ground state is the zero field" in capsys.readouterr().err
    report = json.loads((out / "ground_state.json").read_text())["report"]
    assert report["zero_field"] is True
    assert not (out / "second_solution.json").exists()


# -- sweep --------------------------------------------------------------------


def test_sweep_artifacts(tmp_path):
    cfg = model_config(eps_list=[1e-2, 1e-3])
    out = tmp_path / "run"
    assert run("sweep", cfg, out_dir=out) == 0
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == ("eps,energy,energy_gap,J_gap,measure_bad_eta,"
                      "l1_err,l2_err,linf_interior_err,converged")
    doc = json.loads((out / "sweep.json").read_text())
    assert [row["eps"] for row in doc["rows"]] == [1e-2, 1e-3]


def test_sweep_threads_do_not_change_bytes(tmp_path):
    cfg = model_config(eps_list=[1e-2, 1e-3])
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run("sweep", cfg, out_dir=out1) == 0
    assert run("sweep", cfg, out_dir=out2, threads=2) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "sweep.json").read_bytes() == (out2 / "sweep.json").read_bytes()


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """A two-row sweep's output directory, and the library's report of the same sweep."""
    cfg = model_config(eps_list=[1e-2, 1e-3])
    out = tmp_path_factory.mktemp("sweep")
    assert run("sweep", cfg, out_dir=out) == 0
    resolved, problem = _resolve(cfg)
    report = epsilon_sweep(problem, resolved["eps_list"], **resolved["asymptotics"],
                           solver_options=resolved["solver"])
    return out, report


def test_sweep_csv_schema(sweep_run):
    out, _ = sweep_run
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("eps,energy,energy_gap,J_gap,measure_bad_eta,"
                        "l1_err,l2_err,linf_interior_err,converged")
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 1e-2
    assert all(line.split(",")[-1] in ("true", "false") for line in lines[1:])


def test_sweep_json_round_trip(sweep_run):
    out, report = sweep_run
    data = json.loads((out / "sweep.json").read_text())
    assert data["eta"] == 0.1
    assert len(data["rows"]) == 2
    assert data["rows"][0]["eps"] == 1e-2
    assert [row["measure_bad_eta"] for row in data["rows"]] == [
        row.measure_bad for row in report.rows]
    assert "measure_bad" not in data["rows"][0]


def test_sweep_csv_numbers_are_the_json_numbers(sweep_run):
    out, _ = sweep_run
    header, *lines = (out / "sweep.csv").read_text().splitlines()
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        cells = dict(zip(header.split(","), line.split(",")))
        expected = {name: row[name] for name in (
            "eps", "energy", "energy_gap", "J_gap", "measure_bad_eta", "linf_interior_err")}
        expected.update((f"l{r:g}_err", err) for r, err in row["lr_errors"])
        assert set(cells) == {*expected, "converged"}
        for name, value in expected.items():
            assert float(cells[name]).hex() == float(value).hex(), name
        assert cells["converged"] == ("true" if row["converged"] else "false")


def test_sweep_with_a_non_converged_row_exits_3_with_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = model_config(eps_list=[1e-2, 1e-3],
                       solver={"max_iters": 3, "random_restarts": 0})
    assert run("sweep", cfg, out_dir=out) == 3
    assert "non-converged rows" in capsys.readouterr().err
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert not all(row["converged"] for row in rows)
    assert len((out / "sweep.csv").read_text().splitlines()) == 3


def test_sweep_without_eps_list_is_config_error(tmp_path, capsys):
    assert run("sweep", model_config(), out_dir=tmp_path / "run") == 2
    assert "eps_list" in capsys.readouterr().err


# -- layer --------------------------------------------------------------------


def test_layer_profile_and_comparison(tmp_path):
    cfg = model_config(layer={"xi_max": 20.0, "points": 201,
                              "compare_eps": 1e-3})
    out = tmp_path / "run"
    assert run("layer", cfg, out_dir=out) == 0
    lines = (out / "layer_profile.csv").read_text().splitlines()
    assert lines[0] == "xi,U"
    assert len(lines) == 202
    doc = json.loads((out / "layer_compare.json").read_text())
    assert doc["tail_gap"] < 1e-4
    assert doc["comparison"]["ground_converged"] is True
    assert doc["comparison"]["ground_stop"] == "tolerance"
    # eps = 1e-3 on 201 nodes: layers are resolved but not sharp.
    assert doc["comparison"]["sup_diff"] < 0.1


def test_layer_comparison_without_convergence_exits_3(tmp_path, capsys):
    cfg = model_config(layer={"xi_max": 20.0, "points": 201, "compare_eps": 1e-3},
                       solver={"max_iters": 3, "random_restarts": 0})
    out = tmp_path / "run"
    assert run("layer", cfg, out_dir=out) == 3
    err = capsys.readouterr().err
    assert "layer comparison solve did not converge" in err
    assert "(descent stopped: max_iters)" in err
    doc = json.loads((out / "layer_compare.json").read_text())
    assert doc["comparison"]["ground_converged"] is False
    assert doc["comparison"]["ground_stop"] == "max_iters"


def test_layer_rejects_p_not_two(tmp_path, capsys):
    cfg = model_config(exponents={"p": 1.5, "q": 3.0, "gamma": 4.0})
    assert run("layer", cfg, out_dir=tmp_path / "run") == 2
    assert "p = 2" in capsys.readouterr().err


def test_layer_rejects_2d_domain(tmp_path, capsys):
    cfg = model_config(domain=[[0.0, 1.0], [0.0, 1.0]], resolution=[9, 9])
    assert run("layer", cfg, out_dir=tmp_path / "run") == 2
    assert "1D" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("subcommand", "overrides"),
    [
        ("sweep", {}),
        ("layer", {"exponents": {"p": 1.5, "q": 3.0, "gamma": 4.0}}),
        ("layer", {"domain": [[0.0, 1.0], [0.0, 1.0]], "resolution": [9, 9]}),
        ("layer", {"layer": {"compare_eps": 1e-3},
                   "coefficients": {"a": {"kind": "constant", "value": 2.0}}}),
        ("sweep", {"eps_list": [1e-2, 5e-3],
                   "coefficients": {"a": {"kind": "affine", "offset": 0.0,
                                          "slopes": [1.0]}}}),
    ],
)
def test_subcommand_check_failure_writes_no_resolved_config(
        tmp_path, subcommand, overrides):
    out = tmp_path / "run"
    assert run(subcommand, model_config(**overrides), out_dir=out) == 2
    assert not (out / "resolved_config.json").exists()


# -- the artifact set ---------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"

# Every subcommand finishes on this config in well under a second.
TINY = {
    "epsilon": 1e-2,
    "resolution": 41,
    "eps_list": [1e-2, 5e-3],
    "solver": {"random_restarts": 0},
    "thresholds": {"restarts": 1, "max_iters": 20},
    "layer": {"xi_max": 10.0, "points": 21},
}


def readme_artifacts(subcommand):
    """The names in the README's artifact table row for ``subcommand``."""
    for line in README.read_text().splitlines():
        if line.startswith(f"| `{subcommand}`"):
            return set(re.findall(r"`([^`]+)`", line.split("|")[2]))
    raise AssertionError(f"README has no artifact row for {subcommand}")


@pytest.mark.parametrize("through_main", [False, True])
@pytest.mark.parametrize("subcommand", ["solve", "second", "thresholds", "sweep", "layer"])
def test_artifacts_match_the_readme_table(tmp_path, subcommand, through_main):
    """The library call run(...) and the command line both write exactly
    the README row's files next to resolved_config.json."""
    names = readme_artifacts(subcommand)
    assert names
    out = tmp_path / "run"
    if through_main:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(TINY))
        assert main([subcommand, "--config", str(path), "--out", str(out)]) == 0
    else:
        assert run(subcommand, json.loads(json.dumps(TINY)), out_dir=out) == 0
    assert {path.name for path in out.iterdir()} == {"resolved_config.json", *names}


@pytest.mark.parametrize("subcommand", ["solve", "second", "thresholds", "sweep", "layer"])
def test_readme_flags_are_the_parser_flags(subcommand, capsys):
    """The backticked flags of the README's "Flags:" paragraph are exactly
    the option strings in the subcommand's --help, apart from -h/--help."""
    text = README.read_text()
    paragraph = text[text.index("\nFlags: "):].split("\n\n")[0]
    documented = set(re.findall(r"`(-[\w-]+)", paragraph))
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0
    # An option line of the help starts "  -h, --help" or "  --out OUT".
    heads = [line.split("  ")[1] for line in capsys.readouterr().out.splitlines()
             if line.startswith("  -")]
    flags = {option.split()[0] for head in heads for option in head.split(", ")}
    assert documented and flags - {"-h", "--help"} == documented


def test_a_capped_solve_says_why_it_stopped(tmp_path, capsys):
    """solver.max_iters = 3 leaves the TINY descent unconverged: exit 3, and
    both ground_state.json and stderr name the reason."""
    cfg = json.loads(json.dumps(TINY))
    cfg["solver"]["max_iters"] = 3
    out = tmp_path / "run"
    assert run("solve", cfg, out_dir=out) == 3
    assert "(descent stopped: max_iters)" in capsys.readouterr().err
    assert json.loads((out / "ground_state.json").read_text())["report"]["stop"] == "max_iters"


def test_dump_json_is_deterministic(tmp_path):
    payload = {"b": 2, "a": [1.5, {"z": [0.0, 0.5], "y": {"x": 1}}]}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    _dump_json(payload, p1)
    _dump_json({"a": [1.5, {"y": {"x": 1}, "z": [0.0, 0.5]}], "b": 2}, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _plain(obj):
    """``obj`` with every ndarray as its list, which json.dump can take."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_plain(v) for v in obj)
    return obj


def test_dump_json_writes_the_stdlib_bytes(tmp_path):
    """_dump_json writes what json.dump(indent=2, sort_keys=True) writes of
    the document with its arrays as lists, plus a newline, on its fast
    float arrays and on the general path.  The arrays repeat values, put
    -0.0 beside 0.0, which compare equal and print differently, hold the
    least subnormal and values where repr switches to exponent form, and
    a non-finite entry sends one down the general path."""
    problem = _resolve(json.loads(json.dumps(TINY)))[1]
    record = _ground_state_doc(solve_ground_state(problem), problem.epsilon)
    assert isinstance(record["report"]["field"]["values"], np.ndarray)
    documents = [
        {"repeated": np.array([0.25, 0.5, 0.25, 0.25, 0.5]), "single": np.array([3.0])},
        {"signed_zeros": np.array([-0.0, 0.0, -0.0, 1.0, 0.0])},
        {"subnormal": np.array([5e-324, -5e-324, 5e-324, 0.0])},
        {"exponent_form": np.array([1e15, 9999999999999998.0, 1e16, 1.0000000000000002e16,
                                    1e17, 1e-4, 0.00011, 1e-5, 9.9e-5, -1e16, 1e16])},
        {"nan": np.array([1.0, np.nan, 1.0]), "inf": np.array([np.inf, 0.5]),
         "minus_inf": np.array([-np.inf, -np.inf])},
        {"empty": np.array([]), "nested": [np.array([]), {"x": np.array([2.0, 2.0])}]},
        {"nested": {"empty": {}, "list": [], "deeper": {"b": [[]], "a": [{}, ()]}},
         "tuple": (1, (2.5, "x"))},
        {"ints": [0, -3, 2**70], "flags": [True, False, None], "one": 1, "none": None},
        {"numpy": np.float64(0.1), "numpy_list": [np.float64(1.5), 2.5]},
        {"specials": [1.0, float("nan"), float("inf"), -float("inf")],
         "floats": [0.1, -0.0, 1e300, 5e-324]},
        {"text": "h\u00e9llo \"quoted\" \\ \n\t\u2028 \u2202u", "minus_zero": -0.0,
         "\u043a\u043b\u044e\u0447": []},
        record,
    ]
    for i, doc in enumerate(documents):
        path = tmp_path / f"{i}.json"
        _dump_json(doc, path)
        expected = io.StringIO()
        json.dump(_plain(doc), expected, indent=2, sort_keys=True)
        assert path.read_bytes() == (expected.getvalue() + "\n").encode()


# -- run dispatch and main ----------------------------------------------------


def test_run_rejects_unknown_subcommand(tmp_path, capsys):
    assert run("tabulate", model_config(), out_dir=tmp_path / "r") == 2
    assert "unknown subcommand" in capsys.readouterr().err


def test_main_solve_from_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(model_config()))
    out = tmp_path / "run"
    code = main(["solve", "--config", str(path), "--out", str(out)])
    assert code == 0
    assert (out / "ground_state.json").is_file()


@pytest.mark.parametrize(
    ("solver", "key"),
    [
        ({"seed": -1}, "solver.seed"),
        ({"max_iters": -3}, "solver.max_iters"),
    ],
)
def test_negative_integers_are_config_errors(tmp_path, capsys, solver, key):
    message = f"config key '{key}': expected an integer >= 0"
    cfg = model_config()
    cfg["solver"] = dict(cfg["solver"], **solver)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(path), "--out",
                 str(tmp_path / "main")]) == 2
    assert message in capsys.readouterr().err
    assert run("solve", cfg, out_dir=tmp_path / "run") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    ("subcommand", "overrides", "message"),
    [
        # An unknown key fails before any artifact, as a bad count does.
        ("second", {"mountain_pass": {"path_points": 21}},
         "'mountain_pass.path_points': unknown key"),
        ("layer", {"layer": {"points": 1}},
         "'layer.points': expected an integer >= 2"),
        ("thresholds", {"thresholds": {"restarts": -1}},
         "'thresholds.restarts': expected an integer >= 0"),
        ("sweep", {"eps_list": [1e-3, 1e-2]},
         "'eps_list': expected positive, strictly decreasing numbers"),
        ("sweep", {"eps_list": [1e-2, 1e-2]},
         "'eps_list': expected positive, strictly decreasing numbers"),
        ("sweep", {"eps_list": [1e-2, 0.0]},
         "'eps_list': expected positive, strictly decreasing numbers"),
        # Other subcommands ignore eps_list, but it is checked all the same.
        ("solve", {"eps_list": [-1e-2]},
         "'eps_list': expected positive, strictly decreasing numbers"),
        ("solve", {"solver": {"tol_res": 0.0}},
         "'solver.tol_res': expected a positive number"),
        ("second", {"mountain_pass": {"tol_res": -1.0}},
         "'mountain_pass.tol_res': expected a positive number"),
        ("layer", {"layer": {"xi_max": 0.0}},
         "'layer.xi_max': expected a positive number"),
        ("layer", {"layer": {"compare_eps": -1e-4}},
         "'layer.compare_eps': expected a positive number"),
        ("layer", {"layer": {"xi_max": float("inf")}},
         "'layer.xi_max': expected a finite number"),
        ("layer", {"layer": {"xi_max": 1e300}},
         "'layer.xi_max': layer quadrature failed to bracket xi = 1e+300"),
        ("sweep", {"eps_list": [1e-2], "asymptotics": {"eta": float("inf")}},
         "'asymptotics.eta': expected a finite number"),
        ("solve", {"domain": [0.0, 10**400]},
         "'domain': expected a finite number"),
        ("sweep", {"eps_list": [1e-2], "asymptotics": {"eta": 0.0}},
         "'asymptotics.eta': expected a positive number"),
        ("sweep", {"eps_list": [1e-2], "asymptotics": {"r_list": [0.5]}},
         "'asymptotics.r_list': expected numbers in [1, gamma=4)"),
        ("sweep", {"eps_list": [1e-2], "asymptotics": {"r_list": [1.0, 4.0]}},
         "'asymptotics.r_list': expected numbers in [1, gamma=4)"),
        # Both would write their L^r error under one sweep.csv column, l1_err.
        ("sweep", {"eps_list": [1e-2],
                   "asymptotics": {"r_list": [1.0, 1.000000001, 2.0]}},
         "'asymptotics.r_list': expected entries that differ in 6 significant digits"),
        ("sweep", {"eps_list": [1e-2], "asymptotics": {"r_list": [1.0, 1.0]}},
         "'asymptotics.r_list': expected entries that differ in 6 significant digits"),
        ("solve", {"epsilon": 0.0}, "'epsilon': expected a positive number"),
    ],
    ids=["path_points", "layer_points", "restarts", "eps_rising",
         "eps_repeated", "eps_zero", "eps_negative", "tol_res_zero",
         "mp_tol_res_negative", "xi_max_zero", "compare_eps_negative",
         "xi_max_infinite", "xi_max_huge", "eta_infinite", "domain_overflows",
         "eta_zero", "r_below_one", "r_at_gamma", "r_columns_collide",
         "r_repeated", "epsilon_zero"],
)
def test_bad_counts_and_eps_lists_fail_before_any_artifact(
        tmp_path, capsys, subcommand, overrides, message):
    out = tmp_path / "run"
    out.mkdir()
    assert run(subcommand, model_config(**overrides), out_dir=out) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_main_malformed_config_exits_2_before_any_output(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{\n  "epsilon": ,\n}\n')
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    assert f"{path}:2:14" in capsys.readouterr().err
    assert not out.exists()


def test_main_missing_config_file(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_main_rejects_nonpositive_threads(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(model_config()))
    assert main(["sweep", "--config", str(path), "--out",
                 str(tmp_path / "run"), "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("threads", [0, -5])
def test_run_rejects_nonpositive_threads(tmp_path, capsys, threads):
    """The check is run's, so a library caller meets it as main does."""
    out = tmp_path / "run"
    cfg = model_config(eps_list=[1e-2, 1e-3])
    assert run("sweep", cfg, out_dir=out, threads=threads) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_svg_flag_is_gone(tmp_path, capsys):
    """The CLI writes data only: --svg is an unknown argument, and no --out is made."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(model_config(eps_list=[1e-2, 1e-3])))
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(path), "--out", str(out), "--svg"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --svg" in capsys.readouterr().err
    assert not out.exists()
