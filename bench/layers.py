"""Per-layer metrics from traced passes.

A traced run alternates untraced and traced passes of the same workload.
Each traced pass yields, per span name, its call count and self time, plus
the counters below.  Calls and counters must repeat exactly in every traced
pass; times are medians over the traced passes, in raw seconds.
``trace.overhead_s`` is the median traced pass wall time minus the median
untraced one, both probe-scaled like the end-to-end times.

Counters (per pass):
  problem.kernels.flops_computed / bytes_computed
      summed over mesh-kernel calls, computed from array shapes
  solver.ground.iterations      descent iterations of every ground-state
                                solve (all seeds), as the solver reports them
  solver.ground.energy_evals    phi calls inside ground-state solves,
                                including one start and one final
                                evaluation per seed
  solver.ground.accept_ratio    iterations / energy_evals: accepted steps
                                per energy trial, base energy_evals
  solver.mp.sweeps              mountain-pass sweeps
  solver.mp.energy_evals        phi_plus calls inside the mountain pass
  solver.mp.evals_per_sweep     energy_evals / sweeps
  rayleigh.ascent.iterations    quotient-ascent iterations, all restarts
  rayleigh.ascent.quotient_evals
                                quotient evaluations (one energy_components
                                call each) inside the threshold estimate
  rayleigh.ascent.accept_ratio  iterations / quotient_evals, base
                                quotient_evals
  asymptotics.sweep.row_parallelism
                                summed sweep-row span time / sweep span time
  cli.artifact_bytes            bytes of artifacts written
"""

import csv
import importlib
import statistics
import sys

import tracing

# Spans reported with calls and self time, then spans reported with self
# time only.
SPAN_METRICS = [
    "problem.Mesh.values_at_qp",
    "problem.Mesh.gradients",
    "problem.Mesh.assemble_point_term",
    "problem.Mesh.assemble_flux_term",
    "problem.Mesh.integrate",
    "problem.DiscreteField",
    "functionals.phi",
    "functionals.phi_plus",
    "functionals.energy_components",
    "functionals.derivative_forms",
    "functionals.weak_residual",
    "functionals.weak_residual_plus",
    "linalg.InteriorSolver.factor",
    "linalg.InteriorSolver.apply",
    "solver.solve_ground_state",
    "solver.solve_mountain_pass",
    "rayleigh.estimate_thresholds",
    "asymptotics.epsilon_sweep",
    "asymptotics.asymptotic_metrics",
    "asymptotics.layer_profile_1d",
]
SELF_ONLY = ["problem.build_mesh", "problem.ProblemSpec", "cli.resolve_config",
             "cli.run"]
COUNTERS = [
    ("problem.kernels.flops_computed", "flop"),
    ("problem.kernels.bytes_computed", "B"),
    ("solver.ground.iterations", "count"),
    ("solver.ground.energy_evals", "count"),
    ("solver.ground.accept_ratio", "ratio"),
    ("solver.mp.sweeps", "count"),
    ("solver.mp.energy_evals", "count"),
    ("solver.mp.evals_per_sweep", "ratio"),
    ("rayleigh.ascent.iterations", "count"),
    ("rayleigh.ascent.quotient_evals", "count"),
    ("rayleigh.ascent.accept_ratio", "ratio"),
    ("cli.artifact_bytes", "B"),
]
TIMED = [("asymptotics.sweep.row_parallelism", "ratio"),
         ("trace.overhead_s", "s")]


def metric_names():
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for span in SPAN_METRICS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    names += [(f"{span}.self_s", "s") for span in SELF_ONLY]
    return names + COUNTERS + TIMED


def _ratio(num, den):
    return num / den if den else 0.0


def pass_figures(spans, counters, artifact_bytes):
    """Counts, counters and times of one traced pass."""
    by_name, index = tracing.summarize(spans)
    ground_it = counters["solver.ground.iterations"]
    ground_ev = tracing.count_under(spans, index, "functionals.phi",
                                    "solver.solve_ground_state")
    mp_sweeps = counters["solver.mp.sweeps"]
    mp_ev = tracing.count_under(spans, index, "functionals.phi_plus",
                                "solver.solve_mountain_pass")
    asc_it = counters["rayleigh.ascent.iterations"]
    asc_ev = tracing.count_under(spans, index, "functionals.energy_components",
                                 "rayleigh.estimate_thresholds")
    figures = {
        "problem.kernels.flops_computed": counters["flops"],
        "problem.kernels.bytes_computed": counters["bytes"],
        "solver.ground.iterations": ground_it,
        "solver.ground.energy_evals": ground_ev,
        "solver.ground.accept_ratio": _ratio(ground_it, ground_ev),
        "solver.mp.sweeps": mp_sweeps,
        "solver.mp.energy_evals": mp_ev,
        "solver.mp.evals_per_sweep": _ratio(mp_ev, mp_sweeps),
        "rayleigh.ascent.iterations": asc_it,
        "rayleigh.ascent.quotient_evals": asc_ev,
        "rayleigh.ascent.accept_ratio": _ratio(asc_it, asc_ev),
        "cli.artifact_bytes": artifact_bytes,
    }
    times = {name: entry["self_s"] for name, entry in by_name.items()}
    rows = by_name.get("asymptotics.sweep_row", {}).get("total_s", 0.0)
    sweep = by_name.get("asymptotics.epsilon_sweep", {}).get("total_s", 0.0)
    times["asymptotics.sweep.row_parallelism"] = _ratio(rows, sweep)
    return {"counts": {name: entry["calls"] for name, entry in by_name.items()},
            "counters": figures, "times": times,
            "totals": {name: entry["total_s"] for name, entry in by_name.items()}}


class TracedRun:
    """Alternating untraced and traced passes of one workload."""

    def __init__(self):
        modules = {}
        for name in ("problem", "functionals", "linalg", "solver", "rayleigh",
                     "asymptotics", "cli"):
            modules[name] = importlib.import_module(f"pfiber.{name}")
        self.modules = modules
        self.tracer = tracing.Tracer()
        self.untraced_walls = []
        self.traced_walls = []
        self.traced = []        # pass_figures of each traced pass

    def run_untraced_pass(self, runner):
        results = runner.run_pass(0)
        self.untraced_walls.append(sum(t["norm_wall_s"] for t in results))

    def run_traced_pass(self, runner):
        first_span = len(self.tracer.spans)
        self.tracer.install(self.modules)
        try:
            results = runner.run_pass(0, self.tracer)
        finally:
            self.tracer.uninstall()
        self.traced_walls.append(sum(t["norm_wall_s"] for t in results))
        size = sum(t["artifact_bytes"] for t in results)
        self.traced.append(pass_figures(self.tracer.spans[first_span:],
                                        self.tracer.take_counters(), size))

    def report(self, workload, out_dir, stem):
        """Per-layer metrics, the span file and the layer table.

        Returns ``(metrics, consistent)``; ``consistent`` is False when a
        call count or counter differs between traced passes.
        """
        first = self.traced[0]
        consistent = all(p["counts"] == first["counts"]
                         and p["counters"] == first["counters"]
                         for p in self.traced[1:])
        if not consistent:
            print("FAILED call counts or counters differ between traced passes",
                  file=sys.stderr)
        overhead = (statistics.median(self.traced_walls)
                    - statistics.median(self.untraced_walls))

        def median_time(name):
            return statistics.median(p["times"].get(name, 0.0) for p in self.traced)

        metrics = {}
        for name, unit in metric_names():
            if name == "trace.overhead_s":
                value = overhead
            elif name.endswith(".calls"):
                value = first["counts"].get(name.removesuffix(".calls"), 0)
            elif name.endswith(".self_s"):
                value = median_time(name.removesuffix(".self_s"))
            elif name in first["counters"]:
                value = first["counters"][name]
            else:
                value = median_time(name)
            metrics[name] = {"value": value, "unit": unit}

        n = len(self.traced)
        print(f"{n} traced and {len(self.untraced_walls)} untraced passes after 1 "
              f"warm-up pass; per-layer figures are per pass")
        for name, m in metrics.items():
            print(f"{name:<44} {m['value']:.6g} {m['unit']}")

        with open(out_dir / f"{workload}-layers.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "calls_per_pass", "self_s_per_pass",
                             "total_s_per_pass", "self_us_per_call"])
            for name in sorted(first["counts"]):
                calls = first["counts"][name]
                self_s = median_time(name)
                total = statistics.median(p["totals"][name] for p in self.traced)
                writer.writerow([name, calls, f"{self_s:.6g}", f"{total:.6g}",
                                 f"{1e6 * self_s / calls:.4g}"])
        self.tracer.write_spans(out_dir / f"{stem}-spans.csv.gz")
        return metrics, consistent
