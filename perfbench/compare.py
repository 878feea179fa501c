#!/usr/bin/env python3
"""Summarises one or two sets of benchmark result files.

    python3 perfbench/compare.py SET_A [SET_B] [--markdown]

A set is a directory of the detailed reports run.py saves (one JSON object
per file; run.py writes them under <build>/results/ or --results-dir), or a
list of such files joined with commas. For every workload and every metric
BENCHMARK.json declares (end-to-end metrics for untraced runs, per-layer
metrics for traced runs) it prints each set's median and quartiles (Python's
statistics.quantiles, n=4) and the spread, (q3 - q1) / median. With two sets
it also prints how far B's median lies from A's, signed so that a positive
value means B is worse, and whether the sets agree: for a bounded metric,
each spread (setup_s excepted) is within the bound and the medians differ by
no more than the bound. The exit status is 1 when any bounded metric
disagrees.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(spec):
    """{(workload, trace): [report, ...]} for one set."""
    files = []
    for part in spec.split(","):
        p = Path(part)
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = defaultdict(list)
    for f in files:
        report = json.loads(f.read_text().strip().splitlines()[-1])
        runs[(report["workload"], int(bool(report["trace"])))].append(report)
    return runs


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def fmt(x):
    return f"{x:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("set_a")
    ap.add_argument("set_b", nargs="?")
    ap.add_argument("--markdown", action="store_true",
                    help="print markdown tables")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    a = load(args.set_a)
    b = load(args.set_b) if args.set_b else {}
    sep = " | " if args.markdown else "  "
    ok = True
    for key in sorted(a):
        workload, trace = key
        print(f"\n{'### ' if args.markdown else ''}{workload} "
              f"({'traced' if trace else 'untraced'}, {len(a[key])} runs"
              + (f" vs {len(b.get(key, []))}" if b else "") + ")\n")
        head = ["metric", "unit", "median", "q1", "q3", "spread"]
        if b:
            head += ["B median", "B spread", "B worse by", "bound", "agree"]
        else:
            head += ["bound", "steady"]
        rows = [head]
        for m in declared[trace]:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in a[key]
                  if name in r["metrics"]]
            if not va:
                continue
            med, q1, q3, spread = stats(va)
            row = [name, m["unit"], fmt(med), fmt(q1), fmt(q3), f"{spread:.3f}"]
            bound = m.get("bound")
            spread_ok = (bound is None or name == "setup_s" or
                         spread <= bound)
            vb = [r["metrics"][name]["value"] for r in b.get(key, [])
                  if name in r["metrics"]]
            if vb:
                bmed, _, _, bspread = stats(vb)
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (bmed - med) / med if med else 0.0
                agree = bound is None or (
                    spread_ok and (name == "setup_s" or bspread <= bound)
                    and abs(bmed - med) <= bound * med)
                row += [fmt(bmed), f"{bspread:.3f}", f"{worse:+.3f}",
                        "-" if bound is None else str(bound),
                        "yes" if agree else "NO"]
                ok &= agree
            elif b:
                row += ["-", "-", "-", "-", "missing"]
                ok = False
            else:
                row += ["-" if bound is None else str(bound),
                        "yes" if spread_ok else "NO"]
                ok &= spread_ok
            rows.append(row)
        if args.markdown:
            print("| " + " | ".join(rows[0]) + " |")
            print("|" + "---|" * len(rows[0]))
            for row in rows[1:]:
                print("| " + " | ".join(row) + " |")
        else:
            widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
            for row in rows:
                print(sep.join(c.ljust(w) for c, w in zip(row, widths)))
        for r in a[key]:
            for p in r.get("problems", []):
                print(f"  check failed (seed {r['info'].get('seed')}): {p}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
