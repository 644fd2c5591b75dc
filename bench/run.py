"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload sweep-check --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout of the repository.  The workloads,
metrics and bounds are declared in ``BENCHMARK.json``; how the instances
are built and why is in ``bench/README.md``.

With ``--trace 0`` the last line of output holds every end-to-end
metric; with ``--trace 1`` it holds every per-layer metric, from a
separate run in which each layer's functions are wrapped (the full span
table goes to ``.bench_work/trace-<workload>-<instances>-<seed>.json``).  The line
before it records the machine, the interpreter, the seeds and the
program's source digest.

Exit codes: 0 when a result was printed (``"correct": false`` if any
output differed from the pinned reference), 1 when the workload could
not be run, 2 on bad arguments or when there is no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import instances

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_LIMIT_S = 170
SETUP_PROBES = 4  # extra set-up-only processes; the measuring one makes five


class RunFailed(Exception):
    pass


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source files, names and contents."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_worker(args, extra: list[str], deadline: float) -> dict:
    command = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--instances", args.instances,
        "--reference", str(args.reference),
        *extra,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded the {TIME_LIMIT_S} s limit") from exc
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RunFailed(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True, help="presentation seed of the inputs")
    parser.add_argument("--seconds", type=int, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--instances", choices=sorted(instances.INSTANCE_SETS), default="main",
        help="instance set: main, the held-out set, or the tiny smoke set",
    )
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "essplit" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'essplit'} is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    extra = ["--workdir", str(workdir)]
    try:
        if args.trace:
            trace_out = work_root / f"trace-{args.workload}-{args.instances}-{args.seed}.json"
            result = run_worker(args, extra + ["--trace-out", str(trace_out)], deadline)
            names = [m["name"] for m in spec["per_layer"]]
        else:
            setups = [run_worker(args, extra + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            result = run_worker(args, extra, deadline)
            setups.append(result["metrics"]["setup_s"])
            result["metrics"]["setup_s"] = statistics.median(setups)
            names = [m["name"] for m in spec["end_to_end"]]
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "instances": args.instances,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "error_rate": result["failed"] / result["attempted"],
        **result["details"],
    }
    print(json.dumps({"meta": meta}))
    attempted, failed = result["attempted"], result["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": result["metrics"].get(name, 0.0), "unit": units[name]} for name in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
