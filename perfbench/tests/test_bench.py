"""Self-tests of the scenario benchmark.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark through `run.py`, run every workload at tiny size
in both modes and check that each metric `BENCHMARK.json` names is printed
with its unit; run the output checks' unit tests (each check must fire on
a corrupted input); and check that a missing worker binary fails the
process workload instead of skipping it.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def run_bench(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_tiny_run_of_every_workload_prints_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in (w["name"] for w in self.spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    out = run_bench(workload, trace)
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_output_checks_fire_on_corrupted_inputs(self):
        cmd = ["cargo", "test", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
        self.assertEqual(out.returncode, 0, out.stdout[-2000:] + out.stderr[-2000:])

    def test_missing_worker_fails_the_process_workload(self):
        # Build first; the run below bypasses run.py to point the
        # coordinator at a worker binary that does not exist.
        self.assertEqual(run_bench("torus-dense-serial", 0).returncode, 0)
        binary = os.path.join(target_dir(), "release", "dlb-perfbench")
        env = dict(os.environ, DLB_WORKER_BIN=os.path.join(target_dir(), "no-such-worker"))
        cmd = [binary, "--workload", "torus-sparse-process", "--seed", "7", "--seconds", "1",
               "--trace", "0", "--size", "tiny"]
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(out.returncode, 0)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
