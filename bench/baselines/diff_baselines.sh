#!/usr/bin/env bash
# Compares the current bench binaries against the checked-in reference
# outputs, so a perf/refactor PR can prove the experiment numbers did not
# move:
#
#   bench/baselines/diff_baselines.sh <build-dir> [baseline...]
#
# Baseline <name>.txt is the output of build/bench/<name> --scale=1.0 with the
# default seed, except for the entries in `variants` below, which name the
# binary and extra flags they were captured with: table3_lanes8x8 is the
# saturated relay profile, table3_throughput --lanes=8 --tun-queues=8. Exits
# nonzero if any output differs; the diff is printed. With no arguments,
# every baseline in this directory is checked.
#
# Not covered: micro_hotpath (google-benchmark wall-clock timings) and
# collector_ingest (throughput rates are machine-dependent). Re-capture
# after an *intentional* output change with:
#   build/bench/<binary> --scale=1.0 [flags] > bench/baselines/<name>.txt
#
# Caveat: outputs are deterministic for a fixed seed on one platform;
# cross-platform floating-point differences (libm, FMA) can produce benign
# last-digit diffs. Baselines were captured on x86-64 Linux / GCC.
set -u

if [ $# -lt 1 ]; then
  echo "usage: $0 <build-dir> [bench...]" >&2
  exit 2
fi
build_dir=$1
shift
baseline_dir=$(dirname "$0")

# Baselines captured from a non-default invocation: name -> "binary flags".
declare -A variants=(
  [table3_lanes8x8]="table3_throughput --lanes=8 --tun-queues=8"
)

benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
  for f in "$baseline_dir"/*.txt; do
    benches+=("$(basename "$f" .txt)")
  done
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

failures=0
for bench in "${benches[@]}"; do
  read -r binary flags <<< "${variants[$bench]:-$bench}"
  bin="$build_dir/bench/$binary"
  ref="$baseline_dir/$bench.txt"
  if [ ! -x "$bin" ]; then
    echo "MISSING  $bench (no binary at $bin)"
    failures=$((failures + 1))
    continue
  fi
  if [ ! -f "$ref" ]; then
    echo "MISSING  $bench (no baseline at $ref)"
    failures=$((failures + 1))
    continue
  fi
  # $flags stays unquoted: it is a list of words.
  "$bin" --scale=1.0 $flags > "$tmp" 2>&1
  if diff_out=$(diff -u "$ref" "$tmp"); then
    echo "OK       $bench"
  else
    echo "DIFF     $bench"
    echo "$diff_out" | head -40
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "$failures bench(es) differ from baselines" >&2
  exit 1
fi
echo "all baselines match"
