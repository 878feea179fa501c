"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. They build the binary the way run.py does,
then check the output checkers, the result-line contract on a short run of
every workload, the refusal to run without the library sources, and the
compare tool.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Temporary directories live in the (git-ignored) build directory.
run.build_dir().mkdir(parents=True, exist_ok=True)


def run_py(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


class SelfTest(unittest.TestCase):
    def test_checkers(self):
        binary = run.build(run.build_dir())
        out = subprocess.run([str(binary), "--self-test"], capture_output=True,
                             text=True, timeout=60)
        self.assertEqual(out.returncode, 0, out.stdout)
        for check in ("torn block is rejected",
                      "wrong length is rejected (shape check)",
                      "wrong length is rejected (exact)",
                      "simulator row with other throughput is rejected",
                      "simulator row with other fetch count is rejected",
                      "simulator row with other forward count is rejected"):
            self.assertIn("ok    " + check, out.stdout)


class Smoke(unittest.TestCase):
    """A one-second run of every workload, untraced and traced, prints every
    declared metric with its unit and passes its correctness checks."""

    def check(self, workload, trace):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as results:
            done = run_py("--workload", workload, "--seed", "3", "--seconds",
                          "1", "--trace", str(trace), "--results-dir", results)
            self.assertEqual(done.returncode, 0, done.stderr[-2000:])
            last = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed",
                                         "metrics"})
            self.assertTrue(last["correct"], done.stdout[-2000:])
            self.assertEqual(last["failed"], 0)
            self.assertGreaterEqual(last["attempted"], 1)
            declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            self.assertEqual(
                {n: m["unit"] for n, m in last["metrics"].items()},
                {m["name"]: m["unit"] for m in declared})
            if not trace:
                for name, m in last["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
            self.assertEqual(len(list(Path(results).glob("*.json"))), 1)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_unknown_workload_fails(self):
        done = run_py("--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


class BareDirectory(unittest.TestCase):
    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, Path(bare) / p,
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload",
                 SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")


class Compare(unittest.TestCase):
    def write_set(self, root, name, values):
        d = Path(root) / name
        d.mkdir()
        for i, v in enumerate(values):
            metrics = {m["name"]: {"value": v, "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            report = {"workload": "read-hot", "trace": False, "metrics": metrics,
                      "problems": [], "info": {"seed": str(i)}}
            (d / f"{i}.json").write_text(json.dumps(report) + "\n")
        return str(d)

    def compare(self, *sets):
        return subprocess.run(
            [sys.executable, str(BENCH / "compare.py"), *sets],
            capture_output=True, text=True, timeout=60)

    def test_agreeing_sets(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as root:
            a = self.write_set(root, "a", [100, 101, 99, 100, 102])
            b = self.write_set(root, "b", [101, 100, 100, 99, 101])
            done = self.compare(a, b)
            self.assertEqual(done.returncode, 0, done.stdout)
            self.assertNotIn("NO", done.stdout)

    def test_shifted_set_disagrees(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as root:
            a = self.write_set(root, "a", [100, 101, 99, 100, 102])
            b = self.write_set(root, "b", [150, 151, 149, 150, 152])
            done = self.compare(a, b)
            self.assertEqual(done.returncode, 1)
            self.assertIn("NO", done.stdout)

    def test_noisy_set_is_not_steady(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as root:
            a = self.write_set(root, "a", [50, 100, 150, 200, 250])
            done = self.compare(a)
            self.assertEqual(done.returncode, 1)


if __name__ == "__main__":
    unittest.main()
