#!/usr/bin/env python3
"""Diff a fresh `ccm_stress --json` report against the pinned baseline.

Usage: compare_bench.py BASELINE.json FRESH.json

The job is drift *visibility*, not perf gating: CI runners are far too noisy
to fail a build on ops/s, so throughput and latency changes are reported as
percentage deltas for a human to read in the job log. What DOES fail the
build:

  * the fresh run reporting consistent: false (the workload corrupted state)
  * schema regressions — any key present in the baseline but missing from
    the fresh report (a field silently dropped from the JSON breaks every
    downstream consumer of the artifact)
  * a workload-config mismatch, which would make every delta meaningless
  * a `metrics.version` mismatch: the metrics block's schema changed, so the
    pin is stale and must be re-pinned from the current runtime

Exit codes: 0 ok, 1 check failed, 2 usage/IO error.
"""
import json
import sys


def walk(prefix, node, out):
    """Flattens a JSON tree into {dotted.path: leaf} (lists by index)."""
    if isinstance(node, dict):
        for k, v in node.items():
            walk(f"{prefix}.{k}" if prefix else k, v, out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            walk(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = node


def pct(base, fresh):
    if not isinstance(base, (int, float)) or not isinstance(fresh, (int, float)):
        return None
    if base == 0:
        return None
    return 100.0 * (fresh - base) / base


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            base = json.load(f)
        with open(argv[2]) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"compare_bench: {e}", file=sys.stderr)
        return 2

    failures = []

    if fresh.get("consistent") is not True:
        failures.append("fresh run reports consistent != true")

    if base.get("config") != fresh.get("config"):
        failures.append(
            f"workload config mismatch: baseline {base.get('config')} "
            f"vs fresh {fresh.get('config')}"
        )

    flat_base, flat_fresh = {}, {}
    walk("", base, flat_base)
    walk("", fresh, flat_fresh)
    if flat_base.get("metrics.version") != flat_fresh.get("metrics.version"):
        failures.append(
            f"metrics.version mismatch: baseline "
            f"{flat_base.get('metrics.version')} vs fresh "
            f"{flat_fresh.get('metrics.version')} (re-pin the baseline)"
        )
    missing = sorted(k for k in flat_base if k not in flat_fresh)
    if missing:
        failures.append(
            "schema regression, baseline keys missing from fresh report: "
            + ", ".join(missing[:20])
            + (" ..." if len(missing) > 20 else "")
        )

    # Headline throughput + the latency percentiles the metrics block adds.
    print(f"baseline: {argv[1]}\nfresh:    {argv[2]}")
    headline = ["ops_per_second", "elapsed_seconds"]
    percentile_keys = [
        k
        for k in flat_base
        if k.startswith("metrics.") and k.rsplit(".", 1)[-1] in
        ("p50_us", "p90_us", "p99_us", "count")
    ]
    for key in headline + sorted(percentile_keys):
        b, f = flat_base.get(key), flat_fresh.get(key)
        if b is None or f is None:
            continue
        d = pct(b, f)
        delta = f"{d:+8.1f}%" if d is not None else "      n/a"
        print(f"  {delta}  {key}: {b} -> {f}")

    # Headline summary: the throughput delta and the directory round-trip
    # delta the batching work moves (informational, not gating).
    tb, tf = base.get("ops_per_second"), fresh.get("ops_per_second")
    td = pct(tb, tf)
    if td is not None:
        print(f"throughput: {tb:.0f} -> {tf:.0f} ops/s ({td:+.1f}%)")
    rb = flat_base.get("directory_client.trips")
    rf = flat_fresh.get("directory_client.trips")
    rd = pct(rb, rf)
    if rd is not None:
        print(f"directory trips: {rb} -> {rf} ({rd:+.1f}%)")

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print("OK: schema intact, fresh run consistent (deltas informational)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
