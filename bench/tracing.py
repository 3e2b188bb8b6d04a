"""Span tracing around the public functions of each pfiber layer.

The tracer patches functions and methods from the outside and restores them
afterwards, so untraced passes run the program exactly as shipped.  A
patched callable records one span per call: name, start, end, the span that
was open when it was called, and the task it belongs to.  Spans stay in
memory until the benchmark writes them out.

Functions imported by name into other pfiber modules (``from .functionals
import phi``) are replaced in every module that holds them, so a call through
any of those names is recorded.

Self time is a span's duration minus the part of it that its child spans
cover; overlapping children (the threaded sweep rows) are merged first.
"""

import functools
import gzip
import threading
import time
from collections import defaultdict

# (layer module, attribute path, span name).  An attribute path with a dot
# names a class member; ``__init__`` of a class is its construction.
TRACED = [
    ("problem", "Mesh.values_at_qp", "problem.Mesh.values_at_qp"),
    ("problem", "Mesh.gradients", "problem.Mesh.gradients"),
    ("problem", "Mesh.assemble_point_term", "problem.Mesh.assemble_point_term"),
    ("problem", "Mesh.assemble_flux_term", "problem.Mesh.assemble_flux_term"),
    ("problem", "Mesh.integrate", "problem.Mesh.integrate"),
    ("problem", "DiscreteField.__init__", "problem.DiscreteField"),
    ("problem", "ProblemSpec.__init__", "problem.ProblemSpec"),
    ("problem", "build_mesh", "problem.build_mesh"),
    ("functionals", "phi", "functionals.phi"),
    ("functionals", "phi_plus", "functionals.phi_plus"),
    ("functionals", "energy_components", "functionals.energy_components"),
    ("functionals", "derivative_forms", "functionals.derivative_forms"),
    ("functionals", "weak_residual", "functionals.weak_residual"),
    ("functionals", "weak_residual_plus", "functionals.weak_residual_plus"),
    ("linalg", "InteriorSolver.__init__", "linalg.InteriorSolver.factor"),
    ("linalg", "InteriorSolver.apply", "linalg.InteriorSolver.apply"),
    ("solver", "solve_ground_state", "solver.solve_ground_state"),
    ("solver", "solve_mountain_pass", "solver.solve_mountain_pass"),
    ("rayleigh", "estimate_thresholds", "rayleigh.estimate_thresholds"),
    ("asymptotics", "epsilon_sweep", "asymptotics.epsilon_sweep"),
    ("asymptotics", "asymptotic_metrics", "asymptotics.asymptotic_metrics"),
    ("asymptotics", "layer_profile_1d", "asymptotics.layer_profile_1d"),
    # One sweep row (ground-state solve plus limit metrics); the span the
    # sweep's row parallelism is measured from.
    ("asymptotics", "_sweep_row", "asymptotics.sweep_row"),
    ("cli", "resolve_config", "cli.resolve_config"),
    ("cli", "run", "cli.run"),
]

# Counters read from the result of a traced call: span name -> counter name;
# each adds the result's ``iterations`` field.
RESULT_COUNTERS = {
    "solver.solve_ground_state": "solver.ground.iterations",
    "solver.solve_mountain_pass": "solver.mp.sweeps",
    "rayleigh.estimate_thresholds": "rayleigh.ascent.iterations",
}

KERNELS = ("values_at_qp", "gradients", "assemble_point_term",
           "assemble_flux_term", "integrate")


def kernel_cost(kernel, mesh):
    """(flops, bytes) of one mesh kernel call, computed from array shapes.

    Bytes count every array the kernel reads or writes once: index arrays,
    the gathered element values, reference tables, temporaries and output.
    Flops count multiplies and adds.
    """
    el = mesh.elements
    n_el, n_v = el.shape
    idx_b = el.size * el.itemsize
    f8 = 8
    if kernel == "values_at_qp":
        n_q = mesh.basis_at_qp.shape[0]
        flops = 2 * n_el * n_q * n_v
        nbytes = idx_b + f8 * (2 * n_el * n_v + n_q * n_v + n_el * n_q)
    elif kernel == "gradients":
        dim = mesh.grad_basis.shape[2]
        flops = 2 * n_el * n_v * dim
        nbytes = idx_b + f8 * (2 * n_el * n_v + n_el * n_v * dim + n_el * dim)
    elif kernel == "integrate":
        size = mesh.qp_weights.size
        flops = 2 * size
        nbytes = f8 * 2 * size
    elif kernel == "assemble_point_term":
        n_q = mesh.basis_at_qp.shape[0]
        flops = n_el * n_q + 2 * n_el * n_q * n_v + n_el * n_v
        nbytes = idx_b + f8 * (3 * n_el * n_q + n_q * n_v + 2 * n_el * n_v
                               + mesh.n_nodes)
    else:  # assemble_flux_term
        dim = mesh.grad_basis.shape[2]
        flops = 2 * n_el * n_v * dim + 2 * n_el * n_v
        nbytes = idx_b + f8 * (n_el * dim + n_el * n_v * dim + n_el
                               + 2 * n_el * n_v + mesh.n_nodes)
    return flops, nbytes


class Tracer:
    """Records spans for the patched pfiber callables while installed."""

    def __init__(self):
        self.spans = []          # (span_id, parent_id, name, start, end, task)
        self.task = 0
        self.flops = 0
        self.bytes = 0
        self.counters = defaultdict(int)
        self._next_id = 1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._main_ident = threading.get_ident()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.get_ident() == self._main_ident:
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def _wrap(self, fn, name, kernel=None):
        tracer = self
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                # A worker thread's first span hangs under the span that the
                # main thread is waiting in (the sweep, for its row pool).
                parent = tracer._main_stack[-1]
            else:
                parent = 0
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
                if kernel is not None:
                    flops, nbytes = kernel_cost(kernel, args[0])
                    tracer.flops += flops
                    tracer.bytes += nbytes
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    with tracer._lock:
                        tracer.counters[counter] += result.iterations
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end,
                                     tracer.task))

        return traced

    def install(self, package_modules):
        """Patch every TRACED callable; ``package_modules`` maps short names."""
        for mod_name, attr, name in TRACED:
            module = package_modules[mod_name]
            if "." in attr:
                cls_name, member = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[member]
                kernel = member if (cls_name == "Mesh" and member in KERNELS) else None
                setattr(owner, member, self._wrap(original, name, kernel))
                self._patches.append((owner, member, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            for other in package_modules.values():
                if getattr(other, attr, None) is original:
                    setattr(other, attr, wrapped)
                    self._patches.append((other, attr, original))

    def take_counters(self):
        """Counters since the last call, with kernel flops and bytes; resets them."""
        with self._lock:
            out = defaultdict(int, self.counters)
            out["flops"], out["bytes"] = self.flops, self.bytes
            self.counters = defaultdict(int)
            self.flops = self.bytes = 0
        return out

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write_spans(self, path):
        """Spans as gzipped CSV: id, parent, task, name, start, end (seconds)."""
        with gzip.open(path, "wt") as fh:
            fh.write("span_id,parent_id,task,name,start_s,end_s\n")
            for span_id, parent, name, start, end, task in self.spans:
                fh.write(f"{span_id},{parent},{task},{name},{start!r},{end!r}\n")


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per-name calls, self time and total time, plus the span index.

    Returns ``(by_name, index)`` where ``by_name[name]`` holds ``calls``,
    ``self_s`` and ``total_s``, and ``index`` maps span id to its record.
    """
    children = defaultdict(list)
    index = {}
    for rec in spans:
        index[rec[0]] = rec
        children[rec[1]].append((rec[3], rec[4]))
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span_id, _parent, name, start, end, _task in spans:
        entry = by_name[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - _covered(children.get(span_id, ()),
                                                   start, end)
    return dict(by_name), index


def count_under(spans, index, name, ancestor):
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    count = 0
    for rec in spans:
        if rec[2] != name:
            continue
        parent = rec[1]
        while parent:
            up = index.get(parent)
            if up is None:
                break
            if up[2] == ancestor:
                count += 1
                break
            parent = up[1]
    return count
