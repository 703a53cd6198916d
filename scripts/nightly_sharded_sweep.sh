#!/usr/bin/env bash
# Nightly sharded-sweep lane (docs/PARALLELISM.md, "Sharded sweeps"):
# streams one campaign-scale grid twice — as one `--stream` process, and
# as N concurrent `--shards N --shard-id I` workers whose parts
# `wfr merge --rows <total>` puts back together — byte-compares the two
# outputs (the merge contract: re-assembly must be exact, not
# approximate), and gates the measured points/s of both runs against
# bench/baselines/BENCH_sweep_shard.json via scripts/check_bench.py.  The
# sharded rate times the workers plus the merge.  --require-metric makes
# the throughput and identity cells mandatory, so the lane fails loudly
# if a metric silently disappears even on machines where the baseline
# comparison is skipped as not like-for-like.
#
# Environment:
#   WFR     path to the wfr binary   (default build/src/cli/wfr)
#   POINTS  approximate grid points  (default 250000)
#   SHARDS  worker processes for the sharded run (default 4)
#   OUT     output directory         (default nightly-sharded-sweep)
#
# Exit status: 0 when every worker and the merge succeed, the outputs are
# byte-identical and no gated metric regressed.
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
# is a distinct scenario.  fs_gbs takes bytes per second; at k * 1e8 B/s
# (10 GB/s and up) the rows bind on compute or on the filesystem.
SIDE=$(awk -v p="$POINTS" 'BEGIN { printf "%d", sqrt(p) + 0.999999 }')
FS_AXIS=$(seq 100 $((100 + SIDE - 1)) | sed 's/$/e8/' | paste -sd, -)
FLOPS_AXIS=$(seq 50 $((50 + SIDE - 1)) | sed 's/$/e12/' | paste -sd, -)
TOTAL=$((SIDE * SIDE))
echo "nightly_sharded_sweep: ${SIDE}x${SIDE} grid ($TOTAL points), $SHARDS shards"

sweep() {
  # sweep [flags...]: streams the grid with the given extra flags.
  "$WFR" sweep --system perlmutter-gpu \
    --characterization data/characterizations/bgw_64.json \
    --param fs_gbs="$FS_AXIS" --param peak_flops="$FLOPS_AXIS" \
    --stream "$@" > /dev/null
}

seconds_since() {
  # seconds_since <start ns>: prints the seconds elapsed since then.
  awk -v a="$1" -v b="$(date +%s%N)" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
}

run_single() {
  # run_single <output.ndjson>; prints elapsed seconds.
  local t0
  t0=$(date +%s%N)
  sweep --ndjson "$1" || return 1
  seconds_since "$t0"
}

run_sharded() {
  # run_sharded <output.ndjson>: SHARDS concurrent workers, each with an
  # equal share of the cores, then the merge of their parts in shard
  # order; prints elapsed seconds.
  local jobs=$(( $(nproc) / SHARDS )) t0 i failed=0
  local -a pids=() parts=()
  [ "$jobs" -ge 1 ] || jobs=1
  t0=$(date +%s%N)
  for ((i = 0; i < SHARDS; i++)); do
    parts+=("$OUT/part$i.ndjson")
    sweep --jobs "$jobs" --shards "$SHARDS" --shard-id "$i" \
      --ndjson "$OUT/part$i.ndjson" &
    pids+=($!)
  done
  for i in "${!pids[@]}"; do
    if ! wait "${pids[$i]}"; then
      echo "nightly_sharded_sweep: shard $i/$SHARDS failed" >&2
      failed=1
    fi
  done
  [ "$failed" -eq 0 ] || return 1
  "$WFR" merge --rows "$TOTAL" "${parts[@]}" > "$1" || return 1
  seconds_since "$t0"
}

status=0

echo "=== single-process stream (shards 1) ==="
SINGLE_S=$(run_single "$OUT/single.ndjson") || status=1

echo "=== $SHARDS --shard-id workers + wfr merge ==="
SHARDED_S=$(run_sharded "$OUT/sharded.ndjson") || status=1

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
