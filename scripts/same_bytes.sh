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
#   * wfr archetype --kind random --seed 1..5.
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

benches=(fig01_model fig02_zones fig03_bounds fig04_lcls_skeleton
         fig05_lcls_hsw fig06_lcls_pm fig07_bgw fig08_cosmo
         fig09_gptune_flows fig10_gptune ablation_contention
         ablation_fairshare ablation_io_pattern tab1_characterization
         archetype_gallery drilldown_node_roofline facility_coscheduling)

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
  )
}

artifacts "$1" "$out/parent"
artifacts "$2" "$out/change"

if diff -r "$out/parent" "$out/change"; then
  echo "same bytes: $(find "$out/parent" -type f | wc -l) files match"
else
  echo "same bytes: the builds differ (see above)" >&2
  exit 1
fi
