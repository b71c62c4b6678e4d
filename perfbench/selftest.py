"""Self-test of the benchmark: every workload once at reduced size.

    python3 perfbench/selftest.py

Run it from the root of a checkout; it takes about a minute.  It checks that
run.py prints every metric of BENCHMARK.json with its unit on every
workload, traced and untraced, with no failed operation; that count
metrics repeat exactly between two traced runs; that each layer's self time
is at most its span; that a fault injected into lingrowth makes an oracle
fail and raises failed/attempted without stopping the pass; and that the
benchmark refuses to run where the sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from lingrowth import catenoid, experiments, solver  # noqa: E402

# the workloads of BENCHMARK.json and the ones run.py runs off the list
WORKLOAD_NAMES = list(workloads.PASS)


def run_bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "small"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.results = {}
        for name in WORKLOAD_NAMES:
            for key, trace in (((name, 0), 0), ((name, 1), 1),
                               ((name, "1-again"), 1)):
                proc = run_bench(name, trace)
                if proc.returncode != 0:
                    raise RuntimeError(f"{key} failed:\n{proc.stderr}")
                record = BENCH / "results" / f"{name}-seed3-trace{trace}.json"
                cls.results[key] = (last_json(proc),
                                    json.loads(record.read_text()))

    def test_every_metric_is_emitted_with_its_unit(self):
        for (name, trace), (result, _) in self.results.items():
            declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(list(result["metrics"]),
                                 [m["name"] for m in declared])
                for m in declared:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], (int, float))
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)

    def test_end_to_end_metrics_are_positive(self):
        for name in WORKLOAD_NAMES:
            result, _ = self.results[(name, 0)]
            for metric, got in result["metrics"].items():
                with self.subTest(workload=name, metric=metric):
                    self.assertGreater(got["value"], 0.0)

    def test_counts_repeat_between_runs(self):
        for name in WORKLOAD_NAMES:
            first = self.results[(name, 1)][0]["metrics"]
            again = self.results[(name, "1-again")][0]["metrics"]
            for metric, got in first.items():
                if got["unit"] == "s":
                    continue
                with self.subTest(workload=name, metric=metric):
                    self.assertEqual(got["value"], again[metric]["value"])
            self.assertEqual(self.results[(name, 1)][1]["flagged_counts"], [])

    def test_self_time_is_at_most_the_span(self):
        for name in WORKLOAD_NAMES:
            record = self.results[(name, 1)][1]
            for row in record["table"]["layers"]:
                with self.subTest(workload=name, layer=row["layer"]):
                    self.assertLessEqual(row["self_s"], row["span_s"] + 1e-9)
            for node in record["tree"]:
                self.assertLessEqual(node["self_s"], node["busy_s"] + 1e-9)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(prefix=".reports-", dir=BENCH) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns(
                                ".reports-*", "results", "__pycache__"))
            proc = run_bench(WORKLOAD_NAMES[0], 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


def _scaled(fn, factor):
    return lambda *a, **k: fn(*a, **k) * factor


def _shift_interior(fn):
    calls = []

    def shifted(d, mesh, data, *rest):
        sol = fn(d, mesh, data, *rest)
        calls.append(1)
        if len(calls) % 2:
            values = sol.values.copy()
            values[mesh.interior_nodes()] += 0.5
            sol = solver.DiscreteSolution(
                mesh=mesh, values=values, energy=sol.energy,
                grad_norm=sol.grad_norm, iterations=sol.iterations,
                converged=sol.converged)
        return sol
    return shifted


def _never_converges(fn):
    def fails(d, mesh, data, *rest):
        sol = fn(d, mesh, data, *rest)
        raise solver.NonConvergenceError("injected", sol)
    return fails


# workload -> (module, attribute, fault); each fault gives wrong numbers
# that one of the workload's oracles must catch, or makes solves fail
FAULTS = {
    "removability": [(experiments, "envelope_bound",
                      lambda fn: _scaled(fn, 1.01))],
    "comparison": [(experiments, "solve_dirichlet", _shift_interior),
                   (experiments, "solve_dirichlet", _never_converges)],
    "refinement": [(experiments, "profile_value",
                    lambda fn: _scaled(fn, 1.001))],
    "quadrature": [(catenoid, "invert_gprime",
                    lambda fn: _scaled(fn, 1.0 + 1e-6))],
}


class InjectedFaultTest(unittest.TestCase):

    def test_injected_fault_raises_failed_fraction(self):
        self.assertEqual(set(FAULTS), set(WORKLOAD_NAMES))
        for name, faults in FAULTS.items():
            state = workloads.setup(name, 3)
            with tempfile.TemporaryDirectory(prefix=".reports-",
                                             dir=BENCH) as tmp:
                clean = workloads.run_pass(name, state, tmp, "small")
                for module, attr, fault in faults:
                    original = getattr(module, attr)
                    setattr(module, attr, fault(original))
                    try:
                        faulty = workloads.run_pass(name, state, tmp, "small")
                    finally:
                        setattr(module, attr, original)
                    with self.subTest(workload=name, fault=fault):
                        self.assertEqual(clean.failed, 0)
                        self.assertGreater(faulty.failed, 0)
                        self.assertGreater(faulty.failed / faulty.attempted,
                                           clean.failed / clean.attempted)


if __name__ == "__main__":
    unittest.main()
