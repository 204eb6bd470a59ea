"""Self-test of the benchmark harness (not part of Tier-1).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It takes about a minute: tiny runs of every workload, two traced runs with
one seed, in-process runs with a corrupted library result, and a run in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(HERE.name, "run.py")), *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setUpModule():
    OUT.mkdir(exist_ok=True)


class TestSpec(unittest.TestCase):
    def test_benchmark_json_names_every_metric_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(metrics.WORKLOADS))

    def test_tail_has_ten_ops_beyond_it(self):
        value, pct, beyond = metrics.tail(list(range(40)))
        self.assertEqual((value, pct, beyond), (29, 75.0, 10))
        self.assertEqual(metrics.tail([3.0, 1.0]), (3.0, 100.0, 0))


class TestTinyRuns(unittest.TestCase):
    def test_every_end_to_end_metric_is_emitted_with_its_unit(self):
        for name in metrics.WORKLOADS:
            with self.subTest(workload=name):
                proc = run_bench("--workload", name, "--seed", 5,
                                 "--seconds", 1, "--trace", 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = last_json(proc)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in
                                  result["metrics"].items()},
                                 metrics.END_TO_END)
                units = dict(metrics.END_TO_END,
                             failed_frac=metrics.FAILED_FRAC[1])
                for metric, unit in units.items():
                    self.assertRegex(proc.stdout,
                                     rf"(?m)^{metric} = \S+ {unit}$")

    def test_traced_runs_repeat_their_counts(self):
        runs = []
        for _ in range(2):
            proc = run_bench("--workload", "doob", "--seed", 9,
                             "--seconds", 1, "--trace", 1)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            runs.append(last_json(proc))
        first, second = (r["metrics"] for r in runs)
        self.assertEqual({k: v["unit"] for k, v in first.items()},
                         metrics.PER_LAYER)
        self.assertTrue(all(r["correct"] for r in runs))
        for name in metrics.EXACT_COUNTS:
            self.assertGreater(first[name]["value"], 0, name)
            self.assertEqual(first[name]["value"], second[name]["value"], name)


class TestChecks(unittest.TestCase):
    """A corrupted library result must count as a failed op."""

    @classmethod
    def setUpClass(cls):
        import worker
        cls.worker = worker
        cls.lib = worker.import_package(ROOT)
        cls.scratch = Path(tempfile.mkdtemp(dir=OUT))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def corrupt(self, module, attr, **shift):
        """Patch ``module.attr`` to return its result with fields shifted."""
        original = getattr(module, attr)

        def wrong(*args, **kwargs):
            result = original(*args, **kwargs)
            return dataclasses.replace(result, **{
                field: getattr(result, field) + delta
                for field, delta in shift.items()})

        setattr(module, attr, wrong)
        self.addCleanup(setattr, module, attr, original)

    def failed_frac(self, name, ops):
        wl = workloads.build(name, self.lib, 3, self.scratch)
        tally = self.worker.Tally()
        latencies = [tally.run(wl, i, wl.make(i), wl.op)[0]
                     for i in range(1, ops + 1)]
        return self.worker.end_to_end(latencies, tally)[0]["failed_frac"]

    def test_clean_ops_pass(self):
        self.assertEqual(self.failed_frac("solves", 4), 0.0)

    def test_corrupted_lagrangian_fails_solves(self):
        self.corrupt(self.lib, "lagrangian_value", value=1e-3)
        self.assertEqual(self.failed_frac("solves", 2), 1.0)

    def test_corrupted_action_fails_doob(self):
        self.corrupt(self.lib.trajectory, "path_action", value=1e-2)
        self.assertEqual(self.failed_frac("doob", 1), 1.0)

    def test_discretisation_excess_passes_with_a_note(self):
        # interior bridge with gap 1.35e-3 at K = 1000, 6.7e-4 at 2000
        wl = workloads.build("doob", self.lib, 102, self.scratch)
        tally = self.worker.Tally()
        obs = tally.run(wl, 21, wl.make(21), wl.op)[1]
        self.assertEqual((tally.failed, tally.noted), (0, 1))
        self.assertIn("Richardson limit", obs["note"])

    def test_corrupted_slope_fails_montecarlo(self):
        self.corrupt(self.lib, "estimate_event_decay", slope=1.0)
        self.assertEqual(self.failed_frac("montecarlo", 1), 1.0)

    def test_corrupted_report_fails_cli(self):
        self.corrupt(self.lib.cli, "path_action", value=1e-9)
        self.assertEqual(self.failed_frac("cli", 1), 1.0)


class TestOutsideCheckout(unittest.TestCase):
    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=OUT) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare, HERE.name),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("--workload", "solves", "--seed", 1,
                             "--seconds", 1, "--trace", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
