#!/bin/sh
# Regenerates every tracked series under results/ from a build tree:
#
#   scripts/regen_results.sh BUILD_DIR [THREADS]
#
# Run from the repository root. Each figure and ablation binary writes its raw
# series to results/<name>.csv and its printed table to results/<name>.txt.
# Output does not depend on THREADS (default 1), so CI regenerates the set
# and fails on `git diff --exit-code -- results/`.
set -eu

build=${1:?usage: scripts/regen_results.sh BUILD_DIR [THREADS]}
threads=${2:-1}

while read -r bin name; do
  "$build/bench/$bin" --quiet --threads="$threads" \
    --csv="results/$name.csv" > "results/$name.txt"
done <<EOF
fig1_trace_cdf fig1
fig2_throughput fig2
fig3_normalized fig3
fig4_hitrates fig4
fig5_response_time fig5
fig6a_utilization fig6a
fig6b_scalability fig6b
ablation_directory abl_dir
ablation_handoff abl_handoff
ablation_blocksize abl_block
ablation_scheduler abl_sched
ablation_hotspot abl_hot
ablation_hardware abl_hw
ablation_wholefile abl_wholefile
EOF
