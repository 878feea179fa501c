#!/usr/bin/env bash
# Launches an N-process CCM cluster on 127.0.0.1 and checks that its final
# backing-storage bytes are identical to an in-process ccm_stress run of the
# same deterministic workload. This is the acceptance check for the socket
# transport: same runtime, same RNG streams, different deployment — the
# bytes must not care.
#
# Usage: run_loopback_cluster.sh [build-dir] [nodes] [iters] [port-base]
#
# LOCKCHECK=1 arms the lock-order watchdog in every process (--lockcheck);
# LOCKCHECK_REPORT_DIR names a directory that collects per-process violation
# dumps (the CI failure artifact).
#
# METRICS_DIR=<dir> turns on the telemetry harness: every process writes its
# --json report and a runtime span log there, node 0 scrapes the whole
# cluster over kStatsPull into cluster_metrics.json, the script checks that
# the scrape covers every process and that its counters equal the sums of
# the per-node reports, and tools/ccm_metrics merges the span logs into the
# Perfetto trace runtime_trace.json (CI uploads the directory).
set -euo pipefail

BUILD="${1:-build}"
NODES="${2:-3}"
ITERS="${3:-400}"
PORT_BASE="${4:-37400}"
FILES=48
WORK=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

COMMON=(--nodes="$NODES" --drivers="$NODES" --files="$FILES" \
        --iters="$ITERS" --deterministic-writes)
if [[ "${LOCKCHECK:-0}" == "1" ]]; then
  COMMON+=(--lockcheck)
  REPORT_DIR="${LOCKCHECK_REPORT_DIR:-$WORK}"
  mkdir -p "$REPORT_DIR"
  echo "== lock-order watchdog armed (reports -> $REPORT_DIR) =="
fi
lockcheck_report() {  # lockcheck_report <name> -> per-process report flag
  if [[ "${LOCKCHECK:-0}" == "1" ]]; then
    echo "--lockcheck-report=$REPORT_DIR/lockcheck-$1.txt"
  fi
}

METRICS_DIR="${METRICS_DIR:-}"
NODE_METRICS=()
if [[ -n "$METRICS_DIR" ]]; then
  mkdir -p "$METRICS_DIR"
  # --scrape on every node: all processes hold the post-run barrier while
  # node 0 pulls their registries over kStatsPull.
  NODE_METRICS=(--scrape)
  echo "== telemetry armed (artifacts -> $METRICS_DIR) =="
fi
node_metrics() {  # node_metrics <i> -> per-process telemetry flags
  if [[ -n "$METRICS_DIR" ]]; then
    echo "--runtime-trace-out=$METRICS_DIR/node$1.spans" \
         "--json=$METRICS_DIR/node$1.json"
  fi
}

echo "== in-process reference (ccm_stress) =="
"$BUILD/bench/ccm_stress" "${COMMON[@]}" $(lockcheck_report stress) \
    --dump-storage="$WORK/inproc.bin"

echo "== $NODES-process loopback cluster (ccm_node) =="
SCRAPE_OUT=()
if [[ -n "$METRICS_DIR" ]]; then
  SCRAPE_OUT=(--scrape-out="$METRICS_DIR/cluster_metrics.json")
fi
for ((i = 1; i < NODES; i++)); do
  "$BUILD/bench/ccm_node" --node="$i" --port-base="$PORT_BASE" \
      "${COMMON[@]}" "${NODE_METRICS[@]:-}" $(node_metrics "$i") \
      $(lockcheck_report "node$i") >"$WORK/node$i.log" 2>&1 &
  pids+=($!)
done
"$BUILD/bench/ccm_node" --node=0 --port-base="$PORT_BASE" "${COMMON[@]}" \
    "${NODE_METRICS[@]:-}" $(node_metrics 0) "${SCRAPE_OUT[@]:-}" \
    $(lockcheck_report node0) --dump-storage="$WORK/multiproc.bin" \
    | tee "$WORK/node0.log"
rc=0
for pid in "${pids[@]}"; do
  wait "$pid" || rc=$?
done
pids=()
for ((i = 1; i < NODES; i++)); do
  sed "s/^/  [node $i] /" "$WORK/node$i.log"
done
if [[ $rc -ne 0 ]]; then
  echo "FAIL: a peer process exited non-zero" >&2
  exit 1
fi

if cmp -s "$WORK/inproc.bin" "$WORK/multiproc.bin"; then
  echo "OK: storage bytes identical across runtimes ($(md5sum <"$WORK/inproc.bin" | cut -d' ' -f1))"
else
  echo "FAIL: storage bytes differ between in-process and multi-process runs" >&2
  exit 1
fi

# The zero-copy contract over real sockets: every payload leaves as an iovec
# into the shared block buffer, so the staging-copy counter must read 0.
if grep -h "payload copies" "$WORK"/node*.log | grep -qv "payload copies 0"; then
  echo "FAIL: a node reported send-side payload copies:" >&2
  grep -h "payload copies" "$WORK"/node*.log >&2
  exit 1
fi
echo "OK: zero send-side payload copies on every node"

if [[ -n "$METRICS_DIR" ]]; then
  echo "== cluster scrape vs per-node reports =="
  # One registry per process, and each scraped counter is the sum of the
  # per-node stats() views it backs (ccm_node's --json totals and hints).
  python3 - "$METRICS_DIR" "$NODES" <<'PY'
import json, sys
d, nodes = sys.argv[1], int(sys.argv[2])
m = json.load(open(f"{d}/cluster_metrics.json"))["metrics"]
if m["processes"] != nodes:
    sys.exit(f"FAIL: cluster_metrics.json covers {m['processes']} "
             f"of {nodes} processes")
reports = [json.load(open(f"{d}/node{i}.json")) for i in range(nodes)]
pairs = {"local-hits": ("totals", "local_hits"),
         "peer-hits": ("totals", "remote_hits"),
         "disk-reads": ("totals", "disk_reads"),
         "master-forwards": ("totals", "forwards_accepted"),
         "hint-hits": ("hints", "hits"),
         "hint-stale": ("hints", "stale")}
bad = []
for name, (block, key) in pairs.items():
    total = sum(r[block][key] for r in reports)
    if m["counters"][name] != total:
        bad.append(f"{name} {m['counters'][name]} != "
                   f"sum of {block}.{key} {total}")
if bad:
    sys.exit("FAIL: scrape disagrees with the per-node reports: "
             + "; ".join(bad))
print(f"OK: cluster scrape covers all {nodes} processes "
      "and equals the per-node sums")
PY
  echo "== span-log merge (ccm_metrics) =="
  "$BUILD/tools/ccm_metrics/ccm_metrics" \
      --trace-out="$METRICS_DIR/runtime_trace.json" "$METRICS_DIR"/node*.spans
fi
