"""Run one lingrowth benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The workload runs in a worker process
of its own (perfbench/worker.py) with BLAS/OpenMP threads pinned to the
number of usable cores, LINGROWTH_THREADS at its default of 1 and
SOURCE_DATE_EPOCH pinned.  With ``--trace 0`` the result carries the
end-to-end metrics of BENCHMARK.json; set-up time is the median over the
worker and extra set-up-only processes.  With ``--trace 1`` it carries the
per-layer metrics.  The last line of stdout is the result as one JSON
object; the full record, with the environment, every pass and (traced) the
self-time table and the calling-context tree, goes to
perfbench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 4          # set-up-only processes next to the worker
RUN_LIMIT_S = 170.0       # the whole run must end within this
PINNED_EPOCH = "1600000000"
# runnable but not in BENCHMARK.json, because their times spread more from
# run to run than a bound can allow (see README)
OFF_SPEC_WORKLOADS = ("comparison", "quadrature")


def worker_env():
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = nproc
    env.pop("LINGROWTH_THREADS", None)
    env["SOURCE_DATE_EPOCH"] = PINNED_EPOCH
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def start_worker(args, env, timeout, *extra):
    """Run the worker to completion; return (seconds from start until its
    set-up was ready, its parsed result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def upper_percentile(values):
    """The highest percentile with at least ten samples above it, as
    (percent, value), or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lingrowth" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"run.py: no lingrowth sources or BENCHMARK.json under {ROOT}; "
              "run the benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]]
                    + list(OFF_SPEC_WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small runs the reduced size of the self-test")
    args = ap.parse_args(argv)
    t_run = time.monotonic()

    env = worker_env()

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES if args.scale == "full" else 1):
            ready_s, _ = start_worker(args, env, 60.0, "--setup-only")
            setup.append(ready_s)
    remaining = RUN_LIMIT_S - (time.monotonic() - t_run)
    ready_s, res = start_worker(
        args, env, remaining, "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale)
    setup.append(ready_s)

    walls = res["wall_s"]
    if args.trace:
        values = res["per_layer"]
        declared = spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(walls),
                  "cpu_s": statistics.median(res["cpu_s"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": res["peak_rss_mb"]}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    upper = upper_percentile(walls)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(walls),
        "wall_s_median": statistics.median(walls),
        "wall_s_upper_percentile": upper,
        "setup_s_samples": setup,
        "failed_frac": res["failed"] / max(res["attempted"], 1),
    }
    print("summary " + json.dumps(summary))
    print("environment " + json.dumps(res["environment"]))
    if res["failures"]:
        print("failures " + json.dumps(res["failures"]))
    if res.get("flagged_counts"):
        print("counts that did not repeat between passes: "
              + ", ".join(res["flagged_counts"]))
    if args.trace:
        for row in res["table"]["layers"]:
            print(f"layer {row['layer']:<12} span {row['span_s']:9.4f} s  "
                  f"self {row['self_s']:9.4f} s  "
                  f"{100 * row['self_share']:5.1f}% of the pass")

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = dict(summary, metrics=metrics, **res)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
