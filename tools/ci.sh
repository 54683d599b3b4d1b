#!/usr/bin/env bash
# One-shot CI gate: configure + build everything, run the full ctest
# suite, then the sanitizer sweeps (ASan+UBSan full suite, TSan on the
# parallel paths including the serving layer, plus the resilience chaos
# mode). This is the exact sequence a PR must pass; run it locally
# before pushing.
#
# Usage:
#   tools/ci.sh           # full gate (build + tests + sanitizers)
#   tools/ci.sh fast      # build + tests only, skip sanitizer rebuilds
#
# Environment:
#   JOBS=N     parallelism (default: nproc)
#   BUILD_DIR  primary build tree (default: <repo>/build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
MODE="${1:-full}"

echo "=== [ci] configure (${BUILD_DIR}) ==="
cmake -B "$BUILD_DIR" -S "$ROOT" > /dev/null

echo "=== [ci] build (-j ${JOBS}) ==="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "=== [ci] ctest (full suite) ==="
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

echo "=== [ci] ctest (serving label, repeated for flake detection) ==="
(cd "$BUILD_DIR" && ctest --output-on-failure -L serving --repeat until-fail:2)

echo "=== [ci] serving closed loop (serving_load: 64 clients, 3 s, scale 12, live writer) ==="
# Both entry points and the lease lifecycle under concurrent clients. The
# bench's own checks fail this step: no lease left after drain(), epochs
# republished, a cached hit >= 10x cheaper than a cold miss, and a cost
# rejection cheaper than executing the query.
(cd "$BUILD_DIR" && ./bench/serving_load)

echo "=== [ci] system benchmark smoke (every workload at scale 10, untraced and traced) ==="
# system_bench/ drives the served system through public kernel names and
# stays frozen between benchmark changes, so building and running it here
# is what catches a signature drift in those names. It builds from this
# checkout into the git-ignored .bench_build/.
(cd "$ROOT" && bash system_bench/run_benchmark.sh --smoke)

echo "=== [ci] obs overhead gate (graph500_bfs scale 16, disabled obs vs compiled-out) ==="
# The observability layer promises <=2% overhead on hot traversal loops
# when runtime-disabled. Compare the regular build with obs disabled
# (--no-obs: the one relaxed load per super-step stays) against a
# GA_OBS_NOOP build (instrumentation compiled out entirely).
NOOP_DIR="$ROOT/build-noobs"
cmake -B "$NOOP_DIR" -S "$ROOT" -DGA_OBS_NOOP=ON > /dev/null
cmake --build "$NOOP_DIR" -j "$JOBS" --target graph500_bfs > /dev/null
gate_mteps() { # binary flags... -> best-of-3 harmonic-mean MTEPS (dirop row)
  for _ in 1 2 3; do
    "$@" --scale 16 | awk '/direction-opt .*MTEPS/ {print $(NF-4)}'
  done | sort -g | tail -1
}
BASE=$(gate_mteps "$NOOP_DIR/bench/graph500_bfs")
DISABLED=$(gate_mteps "$BUILD_DIR/bench/graph500_bfs" --no-obs)
python3 - "$BASE" "$DISABLED" <<'EOF'
import sys
base, disabled = float(sys.argv[1]), float(sys.argv[2])
overhead = (base - disabled) / base * 100.0
print(f"[ci] obs-disabled {disabled:.2f} MTEPS vs compiled-out {base:.2f} MTEPS "
      f"-> overhead {overhead:+.2f}%")
# Allow 2% plus measurement noise headroom on shared CI hosts.
sys.exit(0 if overhead <= 2.0 else 1)
EOF

echo "=== [ci] delta publish gate (serving_load --publish-bench, scale 20, 0.1% churn) ==="
# The versioned store promises O(Δ) epoch publication: a delta publish must
# be >=10x faster (p99) than a full-CSR rebuild at scale 20 with 0.1% edge
# churn, and compaction must bring read amplification back to <=1.5x.
(cd "$BUILD_DIR" && ./bench/serving_load --publish-bench --scale 20 --churn 0.001 --json)
python3 - "$BUILD_DIR/BENCH_serving_load.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
speedup = d["publish_speedup_p99"]
read_amp = d["read_amplification_after_compaction"]
print(f"[ci] delta publish p99 speedup {speedup:.1f}x (gate >=10x), "
      f"read amplification after compaction {read_amp:.3f}x (gate <=1.5x)")
sys.exit(0 if speedup >= 10.0 and read_amp <= 1.5 else 1)
EOF

echo "=== [ci] incremental serving gate (serving_load --incremental-bench, scale 18, 0.2% churn) ==="
# The incremental tier promises warm refinement beats batch recompute by
# >=10x (p50) for WCC under insert-only churn of <=1% per epoch, with the
# warm path actually serving every epoch (no silent fallback-to-batch).
(cd "$BUILD_DIR" && ./bench/serving_load --incremental-bench --scale 18 --churn 0.002 --json)
python3 - "$BUILD_DIR/BENCH_serving_load.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
speedup = d["wcc_warm_speedup_p50"]
served, epochs = d["wcc_warm_served"], d["epochs"]
print(f"[ci] warm incremental WCC p50 speedup {speedup:.1f}x (gate >=10x), "
      f"warm-served {served}/{epochs} epochs (gate all)")
sys.exit(0 if speedup >= 10.0 and served == epochs else 1)
EOF

echo "=== [ci] recovery gate (kill-anywhere sweep + scale-18 recovery < 2s) ==="
# The durable epoch log promises: acked => durable (the kill-anywhere ctest
# sweep), a 64-epoch scale-18 recovery under 2 s, and double-recovery
# idempotence (identical digests, no re-applied epochs).
(cd "$BUILD_DIR" && ctest --output-on-failure -L recovery -j "$JOBS")
(cd "$BUILD_DIR" && ./bench/recovery_bench --scale 18 --epochs 64 --json)
python3 - "$BUILD_DIR/BENCH_recovery.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
ms, replayed = d["recover_ms"], d["replayed"]
idem = d["digest_idempotent"] == 1 and d["digest_matches_primary"] == 1
promote = d["standby_digest_matches"] == 1
print(f"[ci] recovery {ms:.0f} ms for {replayed} epochs (gate < 2000 ms), "
      f"idempotent={idem}, standby-promote-match={promote}")
sys.exit(0 if ms < 2000.0 and replayed == 64 and idem and promote else 1)
EOF

echo "=== [ci] dist gate (3-shard scatter/gather digest match + kill -9 fail-over) ==="
# The sharded serving subsystem promises: distributed BFS/PageRank/WCC over
# real shard processes digest-identical to the single-process kernels at
# every shard count, and kill -9 fail-over (epoch-log recovery + catch-up)
# back to a correct answer in under 5 s with zero wrong answers meanwhile.
(cd "$BUILD_DIR" && ctest --output-on-failure -L dist -j "$JOBS")
(cd "$BUILD_DIR" && ./bench/dist_bench --scale 13 --queries 5 --json)
python3 - "$BUILD_DIR/BENCH_dist.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
blackout = d["failover_blackout_ms"]
ok = (d["digest_match"] == 1 and d["wrong_answers"] == 0
      and d["shards"] == 3 and d["failover_recovered"] == 1
      and 0.0 <= blackout < 5000.0)
print(f"[ci] dist digest_match={d['digest_match']} "
      f"wrong_answers={d['wrong_answers']} shards={d['shards']} "
      f"fail-over blackout {blackout:.0f} ms (gate < 5000 ms)")
sys.exit(0 if ok else 1)
EOF

echo "=== [ci] perf gate (scale-20 GAP protocol vs committed baselines) ==="
# Kernel-speed regression gate: run the GAP-protocol benches (untimed
# warmup, n timed trials, per-trial output verification outside the
# clock, harmonic-mean rates) at scale 20 and diff every timing metric
# against the committed repo-root baselines with tools/bench_compare,
# failing on >15% regression. Two noise defenses for shared CI hosts
# (observed contention modes swing deterministic benches by ±36%):
# the committed baseline is a worst-of-K calibration envelope
# (bench_compare --envelope over several quiet+noisy runs -- tight bars
# where the box is stable, slack only where it is not), and one failed
# comparison earns one re-run; a regression that reproduces on both
# attempts fails the gate.
perf_gate() { # perf_gate NAME BASELINE FRESH BENCH-CMD...
  local name="$1" baseline="$2" fresh="$3"
  shift 3
  local attempt
  for attempt in 1 2; do
    (cd "$BUILD_DIR" && "$@" > /dev/null)
    if "$BUILD_DIR/tools/bench_compare" "$baseline" "$fresh" --threshold 15; then
      return 0
    fi
    if [[ "$attempt" == 1 ]]; then
      echo "[ci] $name: regression on attempt 1; re-running to rule out box noise"
    fi
  done
  echo "[ci] $name: regression reproduced on both attempts -- perf gate failed"
  return 1
}
perf_gate graph500 "$ROOT/BENCH_graph500.json" \
  "$BUILD_DIR/BENCH_graph500_bfs.json" ./bench/graph500_bfs --scale 20 --json
perf_gate kernels "$ROOT/BENCH_kernels.json" \
  "$BUILD_DIR/BENCH_micro_kernels.json" ./bench/micro_kernels --graph kron20 --json
perf_gate tiered "$ROOT/BENCH_tiered.json" \
  "$BUILD_DIR/BENCH_tiered_bench.json" ./bench/tiered_bench --graph kron18 --json

echo "=== [ci] tiered gate (kron18 budget sweep: digests + enforced 25% budget + peak RSS) ==="
# The two-tier store promises: kernel outputs digest-identical to flat
# CSR at every budget point, and the 25%-budget run actually holding its
# byte budget (peak accounted resident bytes, transient serves included,
# within +5% slack). Peak RSS (VmHWM via bench::peak_rss_bytes) rides the
# artifact so the tier's own accounting can be checked against what the
# OS saw. Reuses the artifact the perf gate above just produced.
python3 - "$BUILD_DIR/BENCH_tiered_bench.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
digests_ok = all(d[f"{b}_digest_ok"] == 1 for b in ("b100", "b50", "b25", "b12"))
held = (d["b25_within_budget"] == 1
        and d["b25_peak_bytes"] <= d["b25_budget_bytes"] * 1.05)
print(f"[ci] tiered digests ok={digests_ok} (4 budget points), "
      f"25%-budget peak {d['b25_peak_bytes']}/{d['b25_budget_bytes']} B held={held}, "
      f"slowdown bfs {d['slowdown_bfs_b25']:.1f}x pagerank {d['slowdown_pagerank_b25']:.1f}x "
      f"wcc {d['slowdown_wcc_b25']:.1f}x, peak RSS {d['peak_rss_bytes'] / 1048576.0:.0f} MiB")
sys.exit(0 if digests_ok and held and d["verify_failures"] == 0 else 1)
EOF

echo "=== [ci] bench artifacts (repo root) ==="
# Machine-readable artifacts for sweep diffing at stable repo-root names:
# the gated incremental serving, recovery and dist numbers. The perf-gate
# baselines (BENCH_graph500.json, BENCH_kernels.json, BENCH_tiered.json)
# are NOT overwritten: their fresh runs stay in $BUILD_DIR, so a second
# ci.sh run still gates against the committed worst-of-K envelope.
# Refreshing a baseline is the explicit `bench_compare --envelope` step in
# DESIGN.md section 15.
cp "$BUILD_DIR/BENCH_serving_load.json" "$ROOT/BENCH_serving.json"
cp "$BUILD_DIR/BENCH_recovery.json" "$ROOT/BENCH_recovery.json"
cp "$BUILD_DIR/BENCH_dist.json" "$ROOT/BENCH_dist.json"
echo "[ci] wrote $ROOT/BENCH_serving.json, $ROOT/BENCH_recovery.json, and $ROOT/BENCH_dist.json; fresh perf-gate runs are in $BUILD_DIR"

if [[ "$MODE" == "fast" ]]; then
  echo "=== [ci] fast mode: skipping sanitizer sweeps ==="
  echo "CI gate (fast) passed."
  exit 0
fi

echo "=== [ci] sanitizer sweep (full) ==="
"$ROOT/tools/run_sanitizers.sh"

echo "=== [ci] sanitizer sweep (chaos: resilience + serving) ==="
"$ROOT/tools/run_sanitizers.sh" chaos

echo "CI gate passed."
