#!/usr/bin/env bash
# Checks every pinned artifact in bench/expected/ against fresh runs of its
# producer at RXL_TRIAL_WORKERS=1 and at 4. The two runs must match each
# other (sharded trial merges are deterministic) and the pinned file (no
# behaviour drift). The artifact list is the directory itself, mapped by
# name to the program that writes it:
#   <table>.txt              bench_<table>
#   trace_chrome.json        rxl_trace incast chrome
#   trace_<s>_summary.txt    rxl_trace <s> summary
# An artifact with no producer, or whose producer is not built or fails,
# fails the check. Every artifact is checked even after a failure.
#
# Usage: bench/check_expected.sh <build-dir>
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
build_dir="$1"
expected_dir="$(cd "$(dirname "$0")" && pwd)/expected"
work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT

checked=0
failed=()
for pinned in "$expected_dir"/*; do
  name="$(basename "$pinned")"
  case "$name" in
    trace_chrome.json)
      producer=("$build_dir/tools/rxl_trace/rxl_trace" incast chrome) ;;
    trace_*_summary.txt)
      scenario="${name#trace_}"
      producer=("$build_dir/tools/rxl_trace/rxl_trace" "${scenario%_summary.txt}" summary) ;;
    *.txt)
      producer=("$build_dir/bench/bench_${name%.txt}") ;;
    *)
      echo "error: no producer is known for bench/expected/$name" >&2
      failed+=("$name")
      continue ;;
  esac
  if [[ ! -x "${producer[0]}" ]]; then
    echo "error: bench/expected/$name needs ${producer[0]}, which is not built" >&2
    failed+=("$name")
    continue
  fi
  echo "== $name <- ${producer[*]}"
  ok=1
  for workers in 1 4; do
    if ! RXL_TRIAL_WORKERS=$workers "${producer[@]}" > "$work_dir/$name.$workers"; then
      echo "error: ${producer[*]} failed at RXL_TRIAL_WORKERS=$workers" >&2
      ok=0
    fi
  done
  if [[ $ok -eq 1 ]]; then
    diff -u "$work_dir/$name.1" "$work_dir/$name.4" || ok=0
    diff -u "$pinned" "$work_dir/$name.1" || ok=0
  fi
  [[ $ok -eq 1 ]] || failed+=("$name")
  checked=$((checked + 1))
done

if [[ $checked -eq 0 && ${#failed[@]} -eq 0 ]]; then
  echo "error: $expected_dir holds no artifacts" >&2
  exit 1
fi
if [[ ${#failed[@]} -gt 0 ]]; then
  echo "FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "all $checked bench/expected artifacts match at 1 and 4 workers"
