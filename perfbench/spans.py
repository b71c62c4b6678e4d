"""Layer spans for the traced benchmark run, recorded from outside lingrowth.

``install`` replaces the public functions of each layer module with a
timing wrapper at every module attribute bound to them, so a call is
traced wherever its caller looks the name up (``lingrowth.solver.spsolve``,
``lingrowth.catenoid.invert_gprime``, ``Density.gprime`` on the class, ...).
``uninstall`` puts the originals back.  Nothing in the package changes.

A span is one wrapped call: its name, start, end and the span that caused
it.  Spans are folded as they close into a calling-context tree: one node
per distinct path of span names, holding the call count, the first start,
the last end, the summed duration and the summed self time (duration minus
the time covered by child spans).  Counters such as Newton iterations or
factor nonzeros are taken from the arguments and results at the same
boundaries.  The wrappers assume one thread, which holds while
LINGROWTH_THREADS is left at its default of 1.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

perf_counter = time.perf_counter

LAYERS = ("density", "catenoid", "mesh", "solver", "experiments", "ioutil")


# -- counters taken at the wrapped boundaries -------------------------------

def _eval_points(tracer, args, result):
    tracer.counts["density.eval_points"] += int(np.size(args[1]))


def _solved(tracer, args, result):
    tracer.counts["solver.newton_iters"] += result.iterations
    tracer.counts["solver.unknowns"] += len(result.mesh.interior_nodes())
    if not result.converged:
        tracer.counts["solver.nonconverged"] += 1


def _solve_failed(tracer, exc):
    solution = getattr(exc, "solution", None)
    if solution is not None:
        tracer.counts["solver.newton_iters"] += solution.iterations
        tracer.counts["solver.unknowns"] += len(solution.mesh.interior_nodes())
    tracer.counts["solver.nonconverged"] += 1


def _factored(tracer, args, result):
    tracer.counts["solver.factor_nnz"] += int(args[0].nnz)


def _energy(tracer, args, result):
    if tracer.parent_name() == "solver._armijo":
        tracer.counts["solver.linesearch_energy_calls"] += 1


def _armijo(tracer, args, result):
    if result[2]:
        tracer.counts["solver.armijo_accepted"] += 1


def _mesh_built(tracer, args, result):
    tracer.counts["mesh.triangles"] += int(result.num_triangles)


def _file_written(tracer, args, result):
    tracer.counts["ioutil.bytes"] += os.path.getsize(args[0])


# (span name, module under lingrowth, attribute, on return, on error).
# ``Class.method`` attributes are wrapped on the class.  Names missing from
# the package are skipped, so the benchmark keeps running across refactors.
TARGETS = (
    ("density.g", "density", "Density.g", _eval_points, None),
    ("density.gprime", "density", "Density.gprime", _eval_points, None),
    ("density.gsecond", "density", "Density.gsecond", _eval_points, None),
    ("density.eval", "density", "Density.eval", _eval_points, None),
    ("density.invert_gprime", "density", "invert_gprime", None, None),
    ("density.normalize", "density", "normalize", None, None),
    ("density.classify_growth", "density", "classify_growth", None, None),
    ("catenoid.profile_value", "catenoid", "profile_value", None, None),
    ("catenoid.profile_value_substituted", "catenoid",
     "profile_value_substituted", None, None),
    ("catenoid.neck_limit", "catenoid", "neck_limit", None, None),
    ("catenoid.sample_profile", "catenoid", "sample_profile", None, None),
    ("catenoid.ode_residual", "catenoid", "ode_residual", None, None),
    ("catenoid.envelope_bound", "catenoid", "envelope_bound", None, None),
    ("catenoid.uniform_interior_bound", "catenoid", "uniform_interior_bound",
     None, None),
    ("mesh.build_polar_mesh", "mesh", "build_polar_mesh", _mesh_built, None),
    ("mesh.radial_values", "mesh", "radial_values", None, None),
    ("solver.solve_dirichlet", "solver", "solve_dirichlet", _solved,
     _solve_failed),
    ("solver.energy", "solver", "energy", _energy, None),
    ("solver.assemble_gradient", "solver", "assemble_gradient", None, None),
    ("solver.assemble_hessian", "solver", "assemble_hessian", None, None),
    ("solver.spsolve", "solver", "spsolve", _factored, None),
    ("solver._armijo", "solver", "_armijo", _armijo, None),
    ("solver.check_comparison", "solver", "check_comparison", None, None),
    ("solver.residual_EL", "solver", "residual_EL", None, None),
    ("experiments.run_removability", "experiments", "run_removability",
     None, None),
    ("experiments.run_catenoid_reproduction", "experiments",
     "run_catenoid_reproduction", None, None),
    ("experiments.run_comparison_suite", "experiments", "run_comparison_suite",
     None, None),
    ("experiments.outer_data_values", "experiments", "outer_data_values",
     None, None),
    ("ioutil.write_report", "experiments", "write_report", None, None),
    ("ioutil.write_json", "ioutil", "write_json", _file_written, None),
    ("ioutil.write_csv_records", "ioutil", "write_csv_records",
     _file_written, None),
)

# Metric groups: ``<group>_calls`` counts every span named here,
# ``<group>_s`` sums the spans with no enclosing span of the same group.
GROUPS = {
    "density.eval": ("density.g", "density.gprime", "density.gsecond",
                     "density.eval"),
    "density.invert": ("density.invert_gprime",),
    "catenoid.profile": ("catenoid.profile_value",
                         "catenoid.profile_value_substituted",
                         "catenoid.neck_limit", "catenoid.sample_profile"),
    "catenoid.envelope": ("catenoid.envelope_bound",
                          "catenoid.uniform_interior_bound"),
    "mesh.build": ("mesh.build_polar_mesh",),
    "solver.solve": ("solver.solve_dirichlet",),
    "solver.energy": ("solver.energy",),
    "solver.gradient": ("solver.assemble_gradient",),
    "solver.hessian": ("solver.assemble_hessian",),
    "solver.factor": ("solver.spsolve",),
    "experiments.run": ("experiments.run_removability",
                        "experiments.run_catenoid_reproduction",
                        "experiments.run_comparison_suite"),
    "ioutil.write": ("ioutil.write_report",),
}
_GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}


class Tracer:
    """Calling-context tree and counters of the spans of one traced pass."""

    def __init__(self):
        self.t0 = perf_counter()
        self.stack = []              # open spans: [node, time covered by children]
        self.name = []
        self.parent = []
        self.count = []
        self.first_start = []
        self.last_end = []
        self.busy = []
        self.self_time = []
        self.counts = Counter()

    def parent_name(self):
        return self.name[self.stack[-1][0]] if self.stack else None

    def _new_node(self, parent, name, now):
        self.name.append(name)
        self.parent.append(parent)
        self.count.append(0)
        self.first_start.append(now - self.t0)
        self.last_end.append(0.0)
        self.busy.append(0.0)
        self.self_time.append(0.0)
        return len(self.name) - 1

    def wrap(self, name, fn, on_return=None, on_error=None):
        tracer = self
        stack = self.stack
        count, busy, self_time, last_end = (self.count, self.busy,
                                            self.self_time, self.last_end)
        node_under = {}              # parent node -> this name's node

        def wrapper(*args, **kwargs):
            start = perf_counter()
            parent = stack[-1][0] if stack else -1
            node = node_under.get(parent)
            if node is None:
                node = node_under[parent] = tracer._new_node(parent, name,
                                                             start)
            frame = [node, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dur = end - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                count[node] += 1
                busy[node] += dur
                self_time[node] += dur - frame[1]
                last_end[node] = end
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        if on_error is not None:
            traced = wrapper

            def wrapper(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                except Exception as exc:
                    on_error(tracer, exc)
                    raise

        wrapper.__wrapped__ = fn
        return wrapper

    def outermost_s(self):
        """{("span" | "layer" | "group", name): summed duration of its spans
        that no span of the same name, layer or group encloses}."""
        out = defaultdict(float)
        for i, name in enumerate(self.name):
            for key in _keys(name):
                j = self.parent[i]
                while j >= 0 and key not in _keys(self.name[j]):
                    j = self.parent[j]
                if j < 0:
                    out[key] += self.busy[i]
        return out

    def per_name(self):
        """{span name: (calls, self seconds)} summed over the tree."""
        out = {}
        for i, name in enumerate(self.name):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + self.count[i], self_s + self.self_time[i])
        return out

    def metrics(self):
        """The per-layer metrics of this pass, as {name: value}."""
        per_name = self.per_name()
        outer = self.outermost_s()
        c = self.counts
        m = {}
        for group, names in GROUPS.items():
            m[group + "_calls"] = sum(per_name.get(n, (0, 0.0))[0]
                                      for n in names)
            m[group + "_s"] = outer["group", group]
        layer_self = defaultdict(float)
        for name, (_, self_s) in per_name.items():
            layer_self[_layer(name)] += self_s
        for layer in LAYERS:
            m[layer + ".self_s"] = layer_self[layer]
        m["solver.solves"] = m.pop("solver.solve_calls")
        del m["experiments.run_calls"]
        for key in ("density.eval_points", "mesh.triangles",
                    "solver.unknowns", "solver.newton_iters",
                    "solver.factor_nnz", "solver.nonconverged",
                    "ioutil.bytes"):
            m[key] = c[key]
        evals = c["solver.linesearch_energy_calls"]
        m["solver.armijo_accept_ratio"] = (c["solver.armijo_accepted"] / evals
                                           if evals else 0.0)
        return m

    def tree(self):
        """The calling-context tree as a list of merged spans; times are
        seconds from the start of the pass."""
        return [{"name": self.name[i], "parent": self.parent[i],
                 "count": self.count[i], "start": self.first_start[i],
                 "end": self.last_end[i] - self.t0, "busy_s": self.busy[i],
                 "self_s": self.self_time[i]}
                for i in range(len(self.name))]


def _layer(name):
    return name.split(".", 1)[0]


def _keys(name):
    keys = (("span", name), ("layer", _layer(name)))
    if name in _GROUP_OF:
        keys += (("group", _GROUP_OF[name]),)
    return keys


def install(tracer):
    """Wrap every target; return the bindings to restore."""
    importlib.import_module("lingrowth")
    modules = [m for n, m in list(sys.modules.items())
               if n == "lingrowth" or n.startswith("lingrowth.")]
    undo = []
    for name, modname, attr, on_return, on_error in TARGETS:
        mod = importlib.import_module("lingrowth." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name, None)
            original = None if owner is None else owner.__dict__.get(meth)
            if original is None:
                continue
            undo.append((owner, meth, original))
            setattr(owner, meth, tracer.wrap(name, original, on_return,
                                             on_error))
            continue
        original = getattr(mod, attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(name, original, on_return, on_error)
        for m in modules:
            for binding, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, binding, original))
                    setattr(m, binding, wrapper)
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
