#!/usr/bin/env bash
# Runs the system benchmark from the root of a source checkout. The first
# call builds system_bench and the shard binary from this checkout's
# sources into .bench_build/ (later calls only re-check the build).
#
#   bash system_bench/run_benchmark.sh --workload W --seed S [--seconds T] [--trace 0|1]
#       one run; the last stdout line is its JSON result
#   bash system_bench/run_benchmark.sh --seed S [--seconds T] [--trace 0|1]
#       every workload in turn, one JSON line each
#   bash system_bench/run_benchmark.sh --compare BASE.json NEW.json
#       A/B verdict per workload x metric (see compare_benchmark.py)
#   bash system_bench/run_benchmark.sh --smoke
#       short runs of every workload at scale 10, traced and untraced,
#       checking exit status, verification and metric names
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

case "${1:-}" in
  --compare) shift; exec python3 "$here/compare_benchmark.py" "$@" ;;
  --smoke) shift; exec python3 "$here/calibrate.py" --smoke "$@" ;;
esac

if [[ ! -f src/CMakeLists.txt || ! -f tools/ga_shard.cpp ]]; then
  echo "run_benchmark.sh: no library sources under $root" >&2
  exit 2
fi

build=.bench_build
mkdir -p "$build/tmp"
if ! {
  if [[ ! -f "$build/cmake/CMakeCache.txt" ]]; then
    generator=()
    if command -v ninja >/dev/null; then generator=(-G Ninja); fi
    cmake -S "$here" -B "$build/cmake" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build/cmake" --parallel 4
} >"$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  echo "run_benchmark.sh: build failed" >&2
  exit 3
fi

# Epoch logs and shard directories stay inside the checkout.
export TMPDIR="$root/$build/tmp"
bin="$build/cmake/system_bench"
for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then exec "$bin" "$@"; fi
done
for workload in serve_mixed serve_tiered epoch_refresh dist_shards; do
  "$bin" --workload "$workload" "$@"
done
