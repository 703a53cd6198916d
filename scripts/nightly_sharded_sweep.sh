#!/usr/bin/env bash
# Nightly sharded-sweep lane (docs/PARALLELISM.md, "Sharded sweeps"):
# streams one campaign-scale grid twice — single-process `--stream` and
# N-way `--spawn` multi-process sharding — byte-compares the two outputs
# (the merge contract: re-assembly must be exact, not approximate), and
# gates the measured points/s of both runs against
# bench/baselines/BENCH_sweep_shard.json via scripts/check_bench.py.
# --require-metric makes the throughput and identity cells mandatory, so
# the lane fails loudly if a metric silently disappears even on machines
# where the baseline comparison is skipped as not like-for-like.
#
# Environment:
#   WFR     path to the wfr binary   (default build/src/cli/wfr)
#   POINTS  approximate grid points  (default 250000)
#   SHARDS  shard count for the multi-process run (default 4)
#   OUT     output directory         (default nightly-sharded-sweep)
#
# Exit status: 0 when the outputs are byte-identical and no gated metric
# regressed.
set -uo pipefail

WFR=${WFR:-build/src/cli/wfr}
POINTS=${POINTS:-250000}
SHARDS=${SHARDS:-4}
OUT=${OUT:-nightly-sharded-sweep}

if [ ! -x "$WFR" ]; then
  echo "nightly_sharded_sweep: no wfr binary at $WFR (set WFR=...)" >&2
  exit 2
fi
mkdir -p "$OUT"

# An all-distinct SIDE x SIDE grid of roughly POINTS points: every point
# is a distinct scenario.
SIDE=$(awk -v p="$POINTS" 'BEGIN { printf "%d", sqrt(p) + 0.999999 }')
FS_AXIS=$(seq 100 $((100 + SIDE - 1)) | paste -sd, -)
FLOPS_AXIS=$(seq 50 $((50 + SIDE - 1)) | sed 's/$/e12/' | paste -sd, -)
TOTAL=$((SIDE * SIDE))
echo "nightly_sharded_sweep: ${SIDE}x${SIDE} grid ($TOTAL points), $SHARDS shards"

run_sweep() {
  # run_sweep <output.ndjson> [extra flags...]; prints elapsed seconds.
  local ndjson=$1
  shift
  local t0 t1
  t0=$(date +%s%N)
  "$WFR" sweep --system perlmutter-gpu \
    --characterization data/characterizations/bgw_64.json \
    --param fs_gbs="$FS_AXIS" --param peak_flops="$FLOPS_AXIS" \
    --stream --ndjson "$ndjson" "$@" > /dev/null || return 1
  t1=$(date +%s%N)
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
}

status=0

echo "=== single-process stream (shards 1) ==="
SINGLE_S=$(run_sweep "$OUT/single.ndjson") || status=1

echo "=== $SHARDS-way --spawn sharding ==="
SHARDED_S=$(run_sweep "$OUT/sharded.ndjson" --shards "$SHARDS" --spawn) \
  || status=1

MERGE_OK=0
if [ "$status" -eq 0 ]; then
  if cmp -s "$OUT/single.ndjson" "$OUT/sharded.ndjson"; then
    MERGE_OK=1
    echo "merged output byte-identical to the single-process stream"
  else
    echo "nightly_sharded_sweep: MERGED OUTPUT DIVERGED from single-process stream" >&2
    status=1
  fi
fi

ROWS=$(wc -l < "$OUT/single.ndjson" 2>/dev/null || echo 0)
{
  printf '{"bench":"SWEEPSHARD","metric":"sweepshard/hardware_jobs","value":%s,"unit":"jobs"}\n' \
    "$(nproc)"
  awk -v r="$ROWS" -v s="${SINGLE_S:-0}" 'BEGIN {
    printf "{\"bench\":\"SWEEPSHARD\",\"metric\":\"shards1/points_per_s\",\"value\":%.2f,\"unit\":\"items/s\"}\n",
      (s > 0 ? r / s : 0) }'
  awk -v r="$ROWS" -v s="${SHARDED_S:-0}" -v n="$SHARDS" 'BEGIN {
    printf "{\"bench\":\"SWEEPSHARD\",\"metric\":\"shards%d/points_per_s\",\"value\":%.2f,\"unit\":\"items/s\"}\n",
      n, (s > 0 ? r / s : 0) }'
  printf '{"bench":"SWEEPSHARD","metric":"merge_identical","value":%d,"unit":"bool"}\n' \
    "$MERGE_OK"
} | tee "$OUT/results.ndjson"

# check_bench gates against every BENCH_*.json in its --baselines dir;
# this lane produces only the SWEEPSHARD metrics, so give it a dir
# holding only that baseline.
mkdir -p "$OUT/baselines"
cp bench/baselines/BENCH_sweep_shard.json "$OUT/baselines/"

if ! python3 scripts/check_bench.py "$OUT/results.ndjson" \
    --baselines "$OUT/baselines" \
    --require-metric SWEEPSHARD:shards1/points_per_s \
    --require-metric "SWEEPSHARD:shards${SHARDS}/points_per_s" \
    --require-metric SWEEPSHARD:merge_identical; then
  status=1
fi

exit "$status"
