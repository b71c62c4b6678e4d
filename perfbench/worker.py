"""One benchmark workload in a process of its own; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The worker imports lingrowth, sets the workload up, and prints the
``time.monotonic()`` at which it was ready, so the caller can time set-up
from the moment it started the interpreter.  Unless ``--setup-only`` is
given it then runs one reduced-size warm-up pass and timed full passes
until the next pass would end after ``--seconds``.  With ``--trace 1`` the
passes alternate between untraced and traced; the traced ones give the
per-layer metrics and the difference of the medians is the tracing
overhead.  The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

RECORDED_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "LINGROWTH_THREADS",
                 "SOURCE_DATE_EPOCH")


def environment(seed):
    import numpy
    import scipy
    from lingrowth import ioutil

    def blas(show_config):
        deps = show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return {k: info.get(k) for k in ("name", "version",
                                         "openblas configuration")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": {var: os.environ.get(var) for var in RECORDED_VARS},
        "lingrowth_thread_budget": ioutil.thread_budget(),
        "seed": seed,
    }


def measure(workload, state, seconds, trace, outdir, scale):
    walls = {False: [], True: []}
    cpus = []
    attempted = failed = 0
    failures = Counter()
    first_digests = None
    layer_runs = []
    first_trace = None
    flagged = set()

    deadline = time.perf_counter() + seconds
    for traced in itertools.cycle((False, True) if trace else (False,)):
        done = walls[traced]
        if done and time.perf_counter() + statistics.median(done) > deadline:
            break
        tracer = spans.Tracer() if traced else None
        undo = spans.install(tracer) if traced else []
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            out = workloads.run_pass(workload, state, outdir, scale)
        finally:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            spans.uninstall(undo)
        walls[traced].append(wall)
        if not traced:
            cpus.append(cpu)

        # outputs must repeat byte for byte between passes of one run
        if first_digests is None:
            first_digests = out.digests
        else:
            for key, digest in out.digests.items():
                out.check(key + " bytes repeat",
                          first_digests.get(key) == digest)

        if traced:
            metrics = tracer.metrics()
            if first_trace is None:
                first_trace = (tracer, metrics)
            else:
                # counts are properties of the inputs, not of the timing
                ref = first_trace[1]
                changed = [k for k, v in metrics.items()
                           if not k.endswith("_s") and v != ref[k]]
                flagged.update(changed)
                out.check("count metrics repeat", not changed)
            layer_runs.append(metrics)

        attempted += out.attempted
        failed += out.failed
        failures.update(out.failures)

    result = {"wall_s": walls[False], "cpu_s": cpus,
              "attempted": attempted, "failed": failed,
              "failures": dict(failures.most_common(10))}
    if trace:
        result.update(layer_summary(first_trace[0], layer_runs, walls))
        result["flagged_counts"] = sorted(flagged)
    return result


def layer_summary(tracer, layer_runs, walls):
    """Per-layer metrics (medians over traced passes for times, the first
    traced pass for counts), the overhead, the self-time table and the
    calling-context tree of the first traced pass."""
    per_layer = {}
    for key, value in layer_runs[0].items():
        if key.endswith("_s"):
            value = statistics.median(run[key] for run in layer_runs)
        per_layer[key] = value
    per_layer["trace.overhead_s"] = (statistics.median(walls[True])
                                     - statistics.median(walls[False]))

    pass_s = walls[True][0]
    outer = tracer.outermost_s()
    spans_table = sorted(
        ({"name": name, "calls": calls, "total_s": outer["span", name],
          "self_s": self_s, "self_share": self_s / pass_s}
         for name, (calls, self_s) in tracer.per_name().items()),
        key=lambda row: -row["self_s"])
    layers_table = [{"layer": layer, "span_s": outer["layer", layer],
                     "self_s": layer_runs[0][layer + ".self_s"],
                     "self_share": layer_runs[0][layer + ".self_s"] / pass_s}
                    for layer in spans.LAYERS]
    return {"per_layer": per_layer, "traced_wall_s": walls[True],
            "table": {"pass_s": pass_s, "layers": layers_table,
                      "spans": spans_table},
            "tree": tracer.tree()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PASS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    state = workloads.setup(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    bench_dir = Path(__file__).resolve().parent
    with tempfile.TemporaryDirectory(prefix=".reports-", dir=bench_dir) as tmp:
        workloads.run_pass(args.workload, state, tmp, "small")  # warm-up
        result = measure(args.workload, state, args.seconds, bool(args.trace),
                         tmp, args.scale)
    result["ready"] = ready
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["environment"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
