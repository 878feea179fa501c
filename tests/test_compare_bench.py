#!/usr/bin/env python3
"""Checks scripts/compare_bench.py against the pinned ccm_stress report.

Usage: test_compare_bench.py REPO_ROOT

The pin compared with itself passes (exit 0); the same report with only its
metrics.version changed fails the check (exit 1).
"""
import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def compare(script, base, fresh, tmp):
    paths = []
    for name, report in (("base.json", base), ("fresh.json", fresh)):
        path = Path(tmp) / name
        path.write_text(json.dumps(report))
        paths.append(str(path))
    return subprocess.run([sys.executable, script, *paths],
                          capture_output=True, text=True).returncode


def main(argv):
    root = Path(argv[1])
    script = str(root / "scripts" / "compare_bench.py")
    pin = json.loads((root / "BENCH_ccm_stress.json").read_text())
    other = copy.deepcopy(pin)
    other["metrics"]["version"] = pin["metrics"]["version"] + 1
    with tempfile.TemporaryDirectory() as tmp:
        same = compare(script, pin, pin, tmp)
        mismatch = compare(script, pin, other, tmp)
    print(f"pin vs pin: exit {same}; metrics.version differs: exit {mismatch}")
    return 0 if same == 0 and mismatch == 1 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
