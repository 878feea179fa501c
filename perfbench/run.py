#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result.

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the native
binary (perfbench/CMakeLists.txt, which compiles the library from src/) under
$CARGO_TARGET_DIR (default .bench_build); later runs only check the build is
current. The binary prints one detailed JSON report; this script adds the
host fingerprint, saves the report under <build>/results/, prints it, and
prints as its last line the result BENCHMARK.json declares:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""
import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out):
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    tree = out / "perfbench"
    if not (tree / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(tree),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_build_step(["cmake", "--build", str(tree), "--target", "perfbench",
                    "-j", jobs])
    binary = tree / "perfbench"
    if not binary.is_file():
        fail(f"build produced no binary at {binary}")
    return binary


def run_build_step(cmd):
    try:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build step {cmd[:2]} failed: {e}")
    if done.returncode != 0:
        fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")


def source_id():
    """The git commit when the tree is a repository, else a hash of the
    sources the benchmark builds (src/, perfbench/, BENCHMARK.json)."""
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            return "git:" + lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    files = [ROOT / "BENCHMARK.json"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree:" + h.hexdigest()[:16]


def run_binary(binary, args, out):
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--fig2-csv={ROOT / 'results' / 'fig2.csv'}"]
    if args.trace:
        cmd.append(f"--spans-dir={out / 'spans'}")
    if args.clients:
        cmd.append(f"--clients={args.clients}")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # Also reached when this script is interrupted or terminated.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail(f"perfbench exited {proc.returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("perfbench printed no report")
    return json.loads(lines[-1])


def select(report, declared):
    """The declared metrics, each checked for presence, unit and finiteness."""
    picked = {}
    for m in declared:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail(f"{report['workload']}: metric {m['name']} not reported")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != declared {m['unit']}")
        if not math.isfinite(got["value"]):
            fail(f"{m['name']}: value {got['value']} is not finite")
        picked[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return picked


def main():
    # SIGTERM unwinds like Ctrl-C, so no child outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--clients", type=int, default=0,
                    help="client threads (steadiness studies only)")
    ap.add_argument("--results-dir", default="",
                    help="where to save the detailed report")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    out = build_dir()
    binary = build(out)
    report = run_binary(binary, args, out)
    report["info"]["source"] = source_id()
    report["info"]["seed"] = str(args.seed)
    report["info"]["seconds"] = str(args.seconds)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = select(report, declared)

    results = Path(args.results_dir) if args.results_dir else out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-t{args.trace}-s{args.seed}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(report) + "\n")

    print(json.dumps(report))
    for p in report["problems"]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    correct = bool(report["correct"]) and report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
