#!/usr/bin/env bash
# Byte comparison of the deterministic artifacts of two builds.
#
#   scripts/same_bytes.sh <parent-build> <change-build> <out>
#
# Each build is a CMake build tree of this repository (holding bench/ and
# src/cli/wfr).  For each build the script runs, in its own directory
# <out>/parent and <out>/change:
#   * every figure, ablation, table, gallery, drilldown and facility
#     bench: its stdout plus the figures/ it writes;
#   * wfr check --seeds 500 with --gen rectangular and --gen irregular;
#   * wfr simulate --json --gantt and wfr analyze --svg --ascii
#     --node-roofline on every data/workflows/*.json, on perlmutter-cpu
#     and perlmutter-gpu;
#   * wfr archetype --kind random --seed 1..5;
#   * wfr import of every data/wfcommons/*.json, as one merged workflow;
#   * wfr sweep --ndjson (the buffering path) and wfr sweep --stream
#     --ndjson at --jobs 1 and 4, each with --reorder-window 1, 16 and
#     1024, on a 10240-row bgw_64 grid whose outputs are non-integers.
#     Within each build every sweep file must equal the --jobs 1 stream
#     with --reorder-window 1, the reference; a file that differs is
#     listed in sweep_mismatches.txt and fails the run (exit 1);
#   * wfr sweep --ndjson on a second grid, 10000 rows on each of three
#     characterizations the script writes (one per node memory channel
#     that dominates: DRAM, HBM or PCIe), whose rows bind on every
#     ceiling channel (compute, dram, hbm, pcie, network, overhead,
#     filesystem, external) and whose ceiling labels and table cells
#     print volumes, rates and times in every SI prefix band and time
#     unit.
# Each command's exit status is recorded with its stdout and stderr.  The
# two directories are then compared with diff -r; the script exits 1 on
# any difference and 0 when every byte matches.  A build that lacks one of
# the binaries is an error (exit 2), so an empty comparison cannot pass.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 <parent-build> <change-build> <out>" >&2
  exit 2
fi

data="$(cd "$(dirname "$0")/../data" && pwd)"
out="$3"
rm -rf "$out/parent" "$out/change"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

benches=(fig01_model fig02_zones fig03_bounds fig04_lcls_skeleton
         fig05_lcls_hsw fig06_lcls_pm fig07_bgw fig08_cosmo
         fig09_gptune_flows fig10_gptune ablation_contention
         ablation_fairshare ablation_io_pattern tab1_characterization
         archetype_gallery drilldown_node_roofline facility_coscheduling)

# The sweep grid: 16 x 16 x 40 = 10240 rows of non-integral throughputs
# and makespans, so every row goes through the non-integer formatter.
sweep_grid=(--system perlmutter-gpu
            --characterization "$data/characterizations/bgw_64.json"
            --param "nodes_per_task=$(LC_ALL=C seq -s, 1 16)"
            --param "efficiency=$(LC_ALL=C seq -s, 0.5 0.03 0.95)"
            --param "fs_gbs=$(LC_ALL=C seq -s, 1010000000000.5 33300000000 \
                                2308700000000.5)")

# The second grid: rates from far below to far above each demand, so the
# binding ceiling moves across channels, and efficiencies that scale the
# per-node volumes by up to 1e16.
channel_grid=(--system perlmutter-gpu
              --param "peak_flops=2.5,2.5e4,2.5e7,2.5e10,2.5e13,2.5e16,2.5e19,2.5e22"
              --param "nic_gbs=4e2,4e7,4e12,4e17,4e22"
              --param "fs_gbs=6e1,6e6,6e11,6e16,6e21"
              --param "external_gbs=7e3,7e8,7e13,7e18,7e23"
              --param "efficiency=1,1e-4,1e-8,1e-12,1e-16"
              --param "nodes_per_task=1,8")

# channel_characterization <memory> <file>: the second grid's workflow,
# demanding every channel, with <memory> (dram, hbm or pcie) the
# dominant node memory channel and each other demand in a band of its own.
channel_characterization() {
  local dram=1e1 hbm=1e1 pcie=1e1 flops network overhead fs external
  case "$1" in
    dram) dram=2e4 flops=3e2 network=5e4 overhead=2e-7 fs=8e5 external=3e6 ;;
    hbm) hbm=6e5 flops=3e14 network=5e2 overhead=4e-2 fs=8e11 external=3e12 ;;
    pcie) pcie=1e12 flops=3e14 network=5e9 overhead=5e3 fs=8e17 external=3e15 ;;
  esac
  cat > "$2" <<EOF
{
  "name": "all-channels-$1",
  "total_tasks": 4096,
  "parallel_tasks": 64,
  "nodes_per_task": 1,
  "flops_per_node": $flops,
  "dram_bytes_per_node": $dram,
  "hbm_bytes_per_node": $hbm,
  "pcie_bytes_per_node": $pcie,
  "network_bytes_per_task": $network,
  "overhead_seconds_per_task": $overhead,
  "fs_bytes_per_task": $fs,
  "external_bytes_per_task": $external
}
EOF
}

# run <name> <command...>: stdout, stderr and exit status into <name>.txt
run() {
  local name="$1"
  shift
  local status=0
  "$@" > "$name.txt" 2>&1 || status=$?
  echo "exit $status" >> "$name.txt"
}

artifacts() {
  local build side
  build="$(cd "$1" && pwd)"
  side="$2"
  local wfr="$build/src/cli/wfr"
  for binary in "$wfr" "${benches[@]/#/$build/bench/bench_}"; do
    if [[ ! -x "$binary" ]]; then
      echo "same bytes: $binary is missing" >&2
      exit 2
    fi
  done
  mkdir -p "$side"
  (
    cd "$side"
    for bench in "${benches[@]}"; do
      run "bench_$bench" "$build/bench/bench_$bench"
    done
    for gen in rectangular irregular; do
      run "check_$gen" "$wfr" check --seeds 500 --gen "$gen"
    done
    for workflow in "$data"/workflows/*.json; do
      local name
      name="$(basename "$workflow" .json)"
      for system in perlmutter-cpu perlmutter-gpu; do
        local tag="${name}_${system}"
        run "simulate_$tag" "$wfr" simulate --system "$system" \
          --workflow "$workflow" --json "simulate_$tag.json" \
          --gantt "gantt_$tag.svg"
        run "analyze_$tag" "$wfr" analyze --system "$system" \
          --workflow "$workflow" --svg "analyze_$tag.svg" --ascii \
          --node-roofline "node_roofline_$tag.svg"
      done
    done
    for seed in 1 2 3 4 5; do
      run "archetype_random_$seed" "$wfr" archetype --kind random \
        --seed "$seed"
    done
    run import_wfcommons "$wfr" import "$data"/wfcommons/*.json
    run sweep_batch "$wfr" sweep "${sweep_grid[@]}" --jobs 4 \
      --ndjson sweep_batch.ndjson
    for jobs in 1 4; do
      for window in 1 16 1024; do
        local tag="j${jobs}_w${window}"
        run "sweep_stream_$tag" "$wfr" sweep "${sweep_grid[@]}" --stream \
          --jobs "$jobs" --reorder-window "$window" \
          --ndjson "sweep_stream_$tag.ndjson"
      done
    done
    for memory in dram hbm pcie; do
      run "sweep_channels_$memory" "$wfr" sweep "${channel_grid[@]}" \
        --characterization "$out/channels_$memory.json" \
        --ndjson "sweep_channels_$memory.ndjson"
    done
    for file in sweep_batch.ndjson sweep_stream_*.ndjson; do
      cmp -s sweep_stream_j1_w1.ndjson "$file" ||
        echo "$file differs from sweep_stream_j1_w1.ndjson"
    done > sweep_mismatches.txt
  )
}

for memory in dram hbm pcie; do
  channel_characterization "$memory" "$out/channels_$memory.json"
done
artifacts "$1" "$out/parent"
artifacts "$2" "$out/change"

status=0
for side in parent change; do
  if [[ -s "$out/$side/sweep_mismatches.txt" ]]; then
    echo "same bytes: $side sweep files differ from their reference:" >&2
    cat "$out/$side/sweep_mismatches.txt" >&2
    status=1
  fi
done

if diff -r "$out/parent" "$out/change"; then
  echo "same bytes: $(find "$out/parent" -type f | wc -l) files match"
else
  echo "same bytes: the builds differ (see above)" >&2
  status=1
fi
exit $status
