#!/usr/bin/env bash
# Captures the performance-tracking artifacts that EXPERIMENTS.md records:
#   * bench_codec_micro / bench_sim_micro google-benchmark JSON
#   * wall-clock of the two slow fabric Monte Carlo suites + the full ctest run
#   * the deterministic table reproductions (reliability, bandwidth,
#     ablation, fig8 fit, hw overhead); these reproduce paper numbers and
#     must stay diff-clean across perf work
#
# Usage: bench/capture_benchmarks.sh [output-dir]   (default: build/captures,
# git-ignored so captures are not committed)
# Run from the repo root with an existing -O3 build in ./build
# (cmake --preset release && cmake --build build -j). Compare two captures
# with plain `diff -u old/ new/` — the *_table/ablation/fig8/hw_overhead
# text files must not change; the *.json and suite_times.txt files are the
# perf numbers. RXL_TRIAL_WORKERS shards the Monte Carlo tables' trials
# without affecting their bytes.
set -euo pipefail

cd "$(dirname "$0")/.."
out_dir="${1:-build/captures}"
build_dir=build
mkdir -p "$out_dir"

# Post-run artifact check: a bench that exits 0 but writes nothing (or an
# interrupted tee) must fail the capture, not produce a silently thin
# directory that a later `diff -u old/ new/` reads as "no change".
artifacts=()
require_artifact() {
  artifacts+=("$1")
  if [[ ! -s "$1" ]]; then
    echo "error: expected capture artifact $1 is missing or empty" >&2
    exit 1
  fi
}

if [[ ! -x "$build_dir/bench/bench_codec_micro" ]]; then
  echo "error: $build_dir/bench/bench_codec_micro not built" >&2
  echo "       run: cmake --preset release && cmake --build build -j" >&2
  exit 1
fi

for micro in codec_micro sim_micro; do
  echo "== bench_$micro -> $out_dir/$micro.json"
  "$build_dir/bench/bench_$micro" \
    --benchmark_out="$out_dir/$micro.json" \
    --benchmark_out_format=json \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true
  require_artifact "$out_dir/$micro.json"
done

# Deterministic table reproductions: byte-stable across perf work, so any
# diff in these files is a behaviour change, not noise.
for table in reliability_table bandwidth_table ablation fig8_fit \
             hw_overhead scenarios dag_scenarios congestion resilience \
             qos load_curves; do
  echo "== bench_$table -> $out_dir/$table.txt"
  "$build_dir/bench/bench_$table" > "$out_dir/$table.txt"
  require_artifact "$out_dir/$table.txt"
done

# Observability artifacts: the traced tail-latency attribution and the
# canned incast trace capture (Chrome-trace JSON + per-component summary).
# All deterministic — any diff against a previous capture is a behaviour
# change.
echo "== bench_load_curves --traced -> $out_dir/load_curves_traced.txt"
"$build_dir/bench/bench_load_curves" --traced > "$out_dir/load_curves_traced.txt"
require_artifact "$out_dir/load_curves_traced.txt"
if [[ -x "$build_dir/tools/rxl_trace/rxl_trace" ]]; then
  echo "== rxl_trace incast chrome -> $out_dir/trace_chrome.json"
  "$build_dir/tools/rxl_trace/rxl_trace" incast chrome \
    > "$out_dir/trace_chrome.json"
  require_artifact "$out_dir/trace_chrome.json"
  echo "== rxl_trace incast summary -> $out_dir/trace_summary.txt"
  "$build_dir/tools/rxl_trace/rxl_trace" incast summary \
    > "$out_dir/trace_summary.txt"
  require_artifact "$out_dir/trace_summary.txt"
  for scenario in fault trunk; do
    echo "== rxl_trace $scenario summary -> $out_dir/trace_${scenario}_summary.txt"
    "$build_dir/tools/rxl_trace/rxl_trace" "$scenario" summary \
      > "$out_dir/trace_${scenario}_summary.txt"
    require_artifact "$out_dir/trace_${scenario}_summary.txt"
  done
fi

echo "== ctest suite wall-times -> $out_dir/suite_times.txt"
{
  # The slow-labeled Monte Carlo binaries register their cases under the
  # gtest suite names Fabric.* / StarFabric.* / DagProperties.* /
  # CongestionProperties.* / FaultProperties.* (see tests/CMakeLists.txt).
  for suite in Fabric StarFabric DagProperties CongestionProperties \
               FaultProperties TrafficProperties; do
    start=$(date +%s%3N)
    # (^|/) also catches value-parameterized cases ("Batches/DagProperties.")
    ctest --test-dir "$build_dir" -R "(^|/)${suite}\." --output-on-failure -Q
    end=$(date +%s%3N)
    printf '%s %d.%02ds\n' "$suite" $(((end - start) / 1000)) \
      $(((end - start) % 1000 / 10))
  done
  start=$(date +%s%3N)
  ctest --test-dir "$build_dir" -Q
  end=$(date +%s%3N)
  printf 'full_suite %d.%02ds\n' $(((end - start) / 1000)) \
    $(((end - start) % 1000 / 10))
} | tee "$out_dir/suite_times.txt"
require_artifact "$out_dir/suite_times.txt"

echo "capture complete: $out_dir/ (${#artifacts[@]} artifacts verified)"
