"""Self-test of the benchmark, on the tiny ``smoke`` instance set.

    python3 bench/selftest.py

It checks that every metric named in ``BENCHMARK.json`` is printed, that
a corrupted reference makes runs report failed operations, that the
traced run puts back every attribute it replaced, and that the
benchmark refuses to run where there is no program to measure.  The
file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import contextlib
import io
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(root / "bench" / "run.py"), "--seconds", "1", "--instances", "smoke", *args]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def scratch_dir() -> tempfile.TemporaryDirectory:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=ROOT / ".bench_work")


class EmittedMetrics(unittest.TestCase):
    def test_every_metric_is_printed(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench("--workload", workload, "--seed", "5", "--trace", str(trace))
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = result_of(done)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(list(metrics), [m["name"] for m in SPEC[kind]])
                    for declared in SPEC[kind]:
                        self.assertEqual(metrics[declared["name"]]["unit"], declared["unit"])
                    if trace:
                        value = {name: m["value"] for name, m in metrics.items()}
                        self.assertGreaterEqual(value["cli.self_s"], 0.0)
                        self.assertAlmostEqual(
                            value["trace.top_level_s"] + value["cli.self_s"], value["trace.wall_s"], places=9
                        )
                        self.assertGreater(value["trace.overhead_ratio"], 0.0)
                    else:
                        self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)

    def test_metadata_line(self):
        done = run_bench("--workload", "sweep-check", "--seed", "3", "--trace", "0")
        meta = json.loads(done.stdout.strip().splitlines()[-2])["meta"]
        for key in ("python", "nproc", "cpu_model", "seed", "rounds", "git_commit", "source_sha256"):
            self.assertIn(key, meta)
        self.assertEqual(meta["seed"], 3)


class CorruptedReference(unittest.TestCase):
    def test_corrupted_reference_counts_failures(self):
        reference = json.loads((BENCH / "reference.json").read_text())
        smoke = reference["smoke"]
        smoke["check"]["summary"]["closure_disagreements"] += 1
        smoke["enumerate"]["flats"]["digest"] = "0" * 16
        smoke["query-mix"][0][1] = 99
        with scratch_dir() as tmp:
            path = Path(tmp) / "reference.json"
            path.write_text(json.dumps(reference))
            for workload in WORKLOADS:
                with self.subTest(workload=workload):
                    done = run_bench("--workload", workload, "--seed", "2", "--trace", "0", "--reference", str(path))
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = result_of(done)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"] / result["attempted"], 0)


class TraceRestores(unittest.TestCase):
    def test_tracer_restores_every_attribute(self):
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(BENCH))
        import tracing
        from essplit import cli
        from essplit.matroid import BinaryMatroid

        def snapshot() -> dict:
            owners = {n: m for n, m in sys.modules.items() if n == "essplit" or n.startswith("essplit.")}
            owners["BinaryMatroid"] = BinaryMatroid
            return {(n, attr): value for n, owner in owners.items() for attr, value in vars(owner).items()}

        before = snapshot()
        original = cli.predict_closure
        with self.assertRaises(RuntimeError):
            with tracing.Tracer() as tracer:
                self.assertIsNot(cli.predict_closure, original)
                self.assertIsNot(vars(BinaryMatroid)["closure_of"], before[("BinaryMatroid", "closure_of")])
                with contextlib.redirect_stdout(io.StringIO()):
                    self.assertEqual(cli.main(["demo-fig2"]), 0)
                raise RuntimeError("leave the traced block by an exception")
        self.assertGreater(tracer.stats["splitting.predict_closure"][0], 0)
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])


class NoProgram(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        with scratch_dir() as tmp:
            root = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
            shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("--workload", "sweep-check", "--seed", "1", "--trace", "0", root=root)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
