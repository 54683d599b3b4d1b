#!/usr/bin/env bash
# Sanitizer sweep for the traversal engine and tier-1 tests:
#   1. ASan+UBSan build running the full ctest suite. UBSan is built with
#      -fno-sanitize-recover=undefined (CMakeLists.txt, GA_SANITIZE), so a
#      report aborts the test that hit it instead of passing unseen.
#   2. TSan build running the BFS / connected-components / PageRank /
#      engine / thread-pool tests (the code with parallel kernel paths,
#      parameterized suites included), plus the GAP verifiers on Kron and
#      uniform inputs, plus the
#      serving, obs, versioned-store, incremental, and recovery suites
#      (snapshot churn, registry concurrency, concurrent
#      publish/lease/compact, warm-state handoff across epoch publishes,
#      standby log-tailing under live writer load), plus the dist suite's
#      in-process shard harness (coordinator op thread vs heartbeat
#      monitor vs shard server threads), plus the tiered suite's
#      concurrent fault/evict/corrupt churn (readers pinning slabs while
#      the clock evicts and a chaos thread flips cold-block bytes).
# Each sanitizer gets its own build tree under build-san/ so the regular
# build/ directory is never polluted. Exits nonzero on the first failure.
#
# chaos mode (`run_sanitizers.sh chaos`): the fault-tolerance suite only —
# epoch-log recovery sweeps + fault injection under ASan+UBSan
# (use-after-free / OOB on the torn-tail and corruption paths), and the
# backpressure queue + producer/consumer tests under TSan (the cross-thread
# boundary).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
MODE="${1:-full}"

if [[ "$MODE" == "chaos" ]]; then
  echo "=== [chaos/asan-ubsan] configure + build resilience suite ==="
  ASAN_DIR="$ROOT/build-san/asan-ubsan"
  cmake -B "$ASAN_DIR" -S "$ROOT" -DGA_SANITIZE=address,undefined \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$ASAN_DIR" -j "$JOBS" \
        --target ga_resilience_tests ga_recovery_tests ga_dist_tests > /dev/null
  echo "=== [chaos/asan-ubsan] resilience suite (recovery + fault injection) ==="
  "$ASAN_DIR/tests/ga_resilience_tests"
  echo "=== [chaos/asan-ubsan] epoch-log suite (kill-anywhere + torn tails) ==="
  "$ASAN_DIR/tests/ga_recovery_tests"
  echo "=== [chaos/asan-ubsan] dist suite (in-process harness: protocol + fail-over) ==="
  "$ASAN_DIR/tests/ga_dist_tests" \
      --gtest_filter='DistMessage.*:DistPartitioner.*:DistCoordinator.Inproc*:DistCoordinator.Status*:DistFailover.Inproc*'

  echo "=== [chaos/tsan] configure + build resilience + serving + store suites ==="
  TSAN_DIR="$ROOT/build-san/tsan"
  cmake -B "$TSAN_DIR" -S "$ROOT" -DGA_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$TSAN_DIR" -j "$JOBS" \
        --target ga_resilience_tests ga_serving_tests ga_store_tests \
                 ga_incremental_tests ga_recovery_tests > /dev/null
  echo "=== [chaos/tsan] backpressure queue + streaming handoff tests ==="
  "$TSAN_DIR/tests/ga_resilience_tests" \
      --gtest_filter='IngestQueue*:Backpressure*:RunStream*:Wal.AsyncDrain*'
  echo "=== [chaos/tsan] serving suite (snapshot churn + concurrent clients) ==="
  "$TSAN_DIR/tests/ga_serving_tests"
  echo "=== [chaos/tsan] store suite (concurrent publish/lease/compact churn) ==="
  "$TSAN_DIR/tests/ga_store_tests" --gtest_filter='StoreConcurrency*:StreamPublication*'
  echo "=== [chaos/tsan] incremental suite (warm-state handoff across epoch publishes) ==="
  "$TSAN_DIR/tests/ga_incremental_tests"
  echo "=== [chaos/tsan] standby promotion under live writer load ==="
  "$TSAN_DIR/tests/ga_recovery_tests" --gtest_filter='Recovery.Standby*:Recovery.Promote*'
  echo "Chaos sanitizer suites passed."
  exit 0
fi

echo "=== [asan-ubsan] configure + build (-fsanitize=address,undefined) ==="
ASAN_DIR="$ROOT/build-san/asan-ubsan"
cmake -B "$ASAN_DIR" -S "$ROOT" -DGA_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build "$ASAN_DIR" -j "$JOBS" > /dev/null
echo "=== [asan-ubsan] full ctest ==="
(cd "$ASAN_DIR" && ctest --output-on-failure -j "$JOBS")

echo "=== [tsan] configure + build (-fsanitize=thread) ==="
TSAN_DIR="$ROOT/build-san/tsan"
cmake -B "$TSAN_DIR" -S "$ROOT" -DGA_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build "$TSAN_DIR" -j "$JOBS" \
      --target ga_tests ga_serving_tests ga_obs_tests ga_store_tests \
               ga_incremental_tests ga_recovery_tests ga_dist_tests \
               ga_tiered_tests ga_verify_tests > /dev/null
echo "=== [tsan] parallel-path tests ==="
"$TSAN_DIR/tests/ga_tests" --gtest_filter='Bfs*:Wcc*:Engine*:ThreadPool*:Betweenness*:*/BfsModesAgree.*:*/WccEnginesAgree.*:PageRank*:PersonalizedPageRank*:IncrementalPageRank*'
echo "=== [tsan] verifiers on Kron and uniform inputs ==="
"$TSAN_DIR/tests/ga_verify_tests" --gtest_filter='*/VerifyOnInput.*'
echo "=== [tsan] serving suite (snapshot lifetime + scheduler concurrency) ==="
"$TSAN_DIR/tests/ga_serving_tests"
echo "=== [tsan] obs suite (registry/tracer concurrency) ==="
"$TSAN_DIR/tests/ga_obs_tests"
echo "=== [tsan] store suite (delta publish / lease / background compaction) ==="
"$TSAN_DIR/tests/ga_store_tests"
echo "=== [tsan] incremental suite (delta contract + warm-state handoff) ==="
"$TSAN_DIR/tests/ga_incremental_tests"
echo "=== [tsan] recovery suite (log append + standby tail/promotion races) ==="
"$TSAN_DIR/tests/ga_recovery_tests"
echo "=== [tsan] dist suite (in-process shards: coordinator/monitor/server races) ==="
"$TSAN_DIR/tests/ga_dist_tests" \
    --gtest_filter='DistCoordinator.Inproc*:DistCoordinator.Status*:DistFailover.Inproc*'
echo "=== [tsan] tiered suite (concurrent fault/evict/corrupt churn vs pinned readers) ==="
"$TSAN_DIR/tests/ga_tiered_tests" \
    --gtest_filter='TieredConcurrency.*:TieredGraph.Budget*'

echo "All sanitizer suites passed."
