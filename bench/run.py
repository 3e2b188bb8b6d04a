"""pfiber benchmark: wall time of CLI subcommands on pinned workloads.

Usage (from the repository root):

    python3 bench/run.py --workload mp-1d --seed 1 --seconds 30 --trace 0

The benchmark drives ``pfiber.cli.run`` in this process, closed loop with
one client: a pass runs the workload's subcommands back to back, and the
next pass starts when the previous one has returned.  One untimed warm-up
pass comes first, then passes repeat until ``--seconds`` have elapsed,
cycling through the workload's solver-seed variants (``workloads.py``).
Every task (one subcommand call) is checked against independent oracles
(``oracles.py``) and its artifacts are hashed; a task fails if it exits
nonzero or fails a check, and every pass must reproduce the artifact hashes
of the first pass of its variant byte for byte.

Speed probe.  The cores this runs on are shared, and their speed drifts by
20% over seconds; a process's CPU time drifts with them, so it cannot
separate the program's cost from the machine's.  A fixed numpy kernel
(``calibrate``) is timed right before and right after every task, and the
task's times are scaled by CALIB_REF_S over the mean of the two probe
times: they read as seconds on a machine where the probe takes CALIB_REF_S.
Raw wall times are printed and recorded next to them.

``--trace 0`` reports the end-to-end metrics, measured untraced:
  norm_wall_s  wall seconds per pass, probe-scaled (median over passes)
  norm_cpu_s   process CPU seconds per pass, probe-scaled (median)
  peak_rss_mb  peak resident memory of this process
  setup_s      ``import pfiber.cli`` plus ``resolve_config`` on the
               workload's configs in a fresh interpreter, probe-scaled
               (median of SETUP_SAMPLES)
``--trace 1`` runs variant 0 only, alternating untraced and traced passes,
and reports the per-layer metrics (``layers.py``), including the tracing
overhead.

The BLAS thread pool is pinned to one thread before numpy loads.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it report every
metric by name, with its unit and sample count.  Records go to
``.bench_out/`` in the repository root: the environment, the per-task
timings, and for traced runs the spans and a per-layer table.
"""

import os
import sys

# Pin the BLAS pool before numpy is imported here or in a set-up child.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Probe time, in seconds, of the scale that probe-scaled times are given in;
# about the probe's time on an idle core of the 2-core x86 machine the
# baselines were taken on.
CALIB_REF_S = 0.01


def calibrate(reps=5):
    """Seconds of a fixed numpy kernel (median of ``reps``), a speed probe.

    The kernel does what the mesh kernels do (gather, contraction, power,
    scatter by bincount) on arrays of a few thousand entries, so the machine
    slows it down as it slows a pass.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    vals = rng.random(4000)
    idx = rng.integers(0, 4000, (4000, 2))
    basis = np.array([[0.5, 0.5], [0.8, 0.2], [0.2, 0.8]])
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(60):
            qp = np.einsum("ev,qv->eq", vals[idx], basis)
            dens = np.abs(qp) ** 3.0
            np.bincount(idx.ravel(), weights=np.repeat(dens[:, 0], 2),
                        minlength=4000)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _describe(name, values, unit):
    q = statistics.quantiles(values, n=4)
    return (f"{name:<20} median {statistics.median(values):.6g} {unit}  "
            f"quartiles {q[0]:.6g} .. {q[2]:.6g}  n={len(values)}")


def _hash_dir(path):
    """sha256 and size of every file a task wrote, by relative name."""
    hashes, size = {}, 0
    for f in sorted(path.rglob("*")):
        if f.is_file():
            data = f.read_bytes()
            hashes[str(f.relative_to(path))] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return hashes, size


def measure_setup(configs):
    """Probe-scaled set-up seconds in SETUP_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = calibrate()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_timer.py"), str(SRC),
             json.dumps(configs)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw = float(done.stdout.strip().splitlines()[-1])
        probe = 0.5 * (probe + calibrate())
        samples.append({"raw_s": raw, "probe_s": probe,
                        "scaled_s": raw * CALIB_REF_S / probe})
    return samples


class Runner:
    """Runs passes of one workload and checks every task's output."""

    def __init__(self, cli, oracles, variants):
        self.cli = cli
        self.oracles = oracles
        self.variants = variants
        self.reference = {}     # variant -> artifact hashes of its first pass
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.passes = 0

    def run_pass(self, variant, tracer=None):
        """One pass over a variant's tasks; returns per-task records."""
        pass_dir = WORK / f"pass{self.passes}"
        self.passes += 1
        results = []
        hashes_by_task = []
        for i, (sub, config, threads) in enumerate(self.variants[variant]):
            out = pass_dir / f"{i}-{sub}"
            if tracer is not None:
                tracer.task += 1
            self.attempted += 1
            errors = []
            probe = calibrate()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.run(sub, json.loads(json.dumps(config)), out,
                                        threads=threads)
            except Exception:  # noqa: BLE001 - a crashed task is a failed task
                traceback.print_exc()
                code = None
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            probe = 0.5 * (probe + calibrate())
            if code != 0:
                errors.append(f"{sub}: exit code {code}")
            else:
                try:
                    errors += self.oracles.CHECKS[sub](out)
                except Exception as exc:  # noqa: BLE001 - unreadable output fails the task
                    errors.append(f"{sub}: output check raised {exc!r}")
            hashes, size = _hash_dir(out) if out.exists() else ({}, 0)
            hashes_by_task.append(hashes)
            if errors:
                self.failed += 1
                for line in errors:
                    print(f"FAILED {line}", file=sys.stderr)
            scale = CALIB_REF_S / probe
            results.append({"subcommand": sub, "wall_s": wall, "cpu_s": cpu,
                            "probe_s": probe, "norm_wall_s": wall * scale,
                            "norm_cpu_s": cpu * scale, "artifact_bytes": size})
        reference = self.reference.setdefault(variant, hashes_by_task)
        if hashes_by_task != reference:
            self.mismatches += 1
            print(f"FAILED artifacts of variant {variant} differ from its "
                  "first pass", file=sys.stderr)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return results

    def digest(self):
        """One sha256 over the reference artifact hashes of every variant."""
        text = json.dumps(sorted(self.reference.items()), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def environment(args):
    import numpy
    import scipy

    cache = {}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except OSError:
        conf = ""
    for line in conf.splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip().isdigit():
            cache[key.lower()] = int(value.strip())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "pfiber").glob("*.py")):
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cache_bytes": cache,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calib_ref_s": CALIB_REF_S,
    }


def report_untraced(passes, setup):
    """Print the end-to-end figures; returns the metrics."""
    def per_pass(key):
        return [sum(t[key] for t in p) for p in passes]

    by_sub = {}
    for p in passes:
        for t in p:
            by_sub.setdefault(t["subcommand"], []).append(t)
    print(f"{len(passes)} timed passes after 1 warm-up pass")
    for sub, tasks in by_sub.items():
        print(_describe(f"{sub}_s (scaled)", [t["norm_wall_s"] for t in tasks], "s"))
        print(_describe(f"{sub}_s (raw)", [t["wall_s"] for t in tasks], "s"))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    for name in ("norm_wall_s", "norm_cpu_s"):
        values = per_pass(name)
        print(_describe(name, values, "s"))
        metrics[name] = {"value": statistics.median(values), "unit": "s"}
    print(_describe("wall_s (raw)", per_pass("wall_s"), "s"))
    print(_describe("cpu_s (raw)", per_pass("cpu_s"), "s"))
    print(_describe("probe_s", [t["probe_s"] for p in passes for t in p], "s"))
    print(f"{'peak_rss_mb':<20} {rss_mb:.6g} MB")
    scaled = [s["scaled_s"] for s in setup]
    print(_describe("setup_s (scaled)", scaled, "s"))
    print(_describe("setup_s (raw)", [s["raw_s"] for s in setup], "s"))
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    return metrics


def main(argv=None):
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pfiber" / "cli.py").is_file():
        print(f"benchmark: no pfiber sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pfiber.cli as cli
    import layers
    import oracles

    variants = workloads.variants(args.workload, args.seed)
    env = environment(args)
    record = {"env": env}
    print(f"pfiber benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, "
          f"BLAS threads {BLAS_THREADS}, nproc {env['nproc']}")

    if args.trace == 0:
        configs = []
        for _, config, _ in variants[0]:
            if config not in configs:
                configs.append(config)
        record["setup_s"] = measure_setup(configs)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    runner = Runner(cli, oracles, variants)
    try:
        runner.run_pass(0)                     # warm-up, checked, not timed
        deadline = time.perf_counter() + args.seconds
        if args.trace == 0:
            passes = []
            while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
                passes.append(runner.run_pass(len(passes) % len(variants)))
        else:
            traced = layers.TracedRun()
            while (len(traced.traced) < MIN_TRACED_PASSES
                   or time.perf_counter() < deadline):
                traced.run_untraced_pass(runner)
                traced.run_traced_pass(runner)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    correct = runner.failed == 0 and runner.mismatches == 0
    if args.trace == 0:
        metrics = report_untraced(passes, record["setup_s"])
        record["passes"] = passes
    else:
        metrics, consistent = traced.report(args.workload, OUT, stem)
        correct = correct and consistent
        record["untraced_walls"] = traced.untraced_walls
        record["traced_walls"] = traced.traced_walls

    digest = runner.digest()
    share = runner.failed / runner.attempted
    print(f"{'failed_share':<20} {share:.6g} ({runner.failed}/{runner.attempted} "
          "tasks failed)")
    same = "identical" if runner.mismatches == 0 else "NOT identical"
    print(f"artifact digest sha256:{digest} ({same} in every pass of a variant)")
    record.update(attempted=runner.attempted, failed=runner.failed,
                  artifact_mismatches=runner.mismatches, artifact_digest=digest,
                  metrics=metrics)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"records in {OUT.relative_to(ROOT)}/{stem}.*")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
