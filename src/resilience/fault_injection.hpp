// Deterministic fault-injection harness. A FaultPlan is a seeded list of
// fault specs (throw on the Nth call of a stage, inject latency every Kth
// call); a FaultInjector threads the plan through instrumented points in
// the pipeline (the StageExecutor consults it before every stage attempt).
// File-level log faults (torn tail, CRC corruption) are applied between
// runs with the helpers in record_io.hpp. Everything is a pure function of
// the plan and the call order, so chaos tests replay bit-identically.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/common.hpp"

namespace ga::resilience {

/// Thrown by FaultInjector::on_call when a kThrow spec matches. A subclass
/// of ga::Error so uninstrumented code treats it as any other stage failure.
class InjectedFault : public Error {
 public:
  explicit InjectedFault(const std::string& what) : Error(what) {}
};

struct FaultSpec {
  enum class Kind : std::uint8_t { kThrow, kLatency };
  Kind kind = Kind::kThrow;
  /// Stage name to match; empty matches every stage.
  std::string stage;
  /// Fire on this 1-based per-stage call index (0 = disabled).
  std::uint64_t nth = 0;
  /// Fire whenever the per-stage call index is a multiple (0 = disabled).
  std::uint64_t every_n = 0;
  /// kLatency: virtual milliseconds added to the stage's deadline clock.
  double latency_ms = 0.0;
  std::string message = "injected fault";
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultSpec> specs;

  /// Deterministically scatter `count` kThrow faults over the first
  /// `calls` calls of `stage` (distinct 1-based indices, seeded).
  static FaultPlan scattered_throws(std::uint64_t seed,
                                    const std::string& stage,
                                    std::uint64_t calls, std::uint64_t count);

  /// One-shot kill: throw on the `nth` call of `stage`. The chaos tests
  /// model a process crash as this throw — in-memory state is abandoned
  /// and recovery starts from disk.
  static FaultPlan kill_at(const std::string& stage, std::uint64_t nth = 1);
};

/// Canonical kill-point stage names instrumented across the durable epoch
/// path: the store's apply/compaction stages plus every EpochLog
/// append/checkpoint/truncate step. The kill-anywhere recovery sweep
/// (tests/test_recovery.cpp) crashes at each of these in turn.
std::span<const char* const> store_kill_points();

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// Consulted at stage entry. Returns the injected virtual latency (ms)
  /// for this call; throws InjectedFault when a throw spec matches. Call
  /// indices are per stage name and 1-based.
  double on_call(std::string_view stage);

  std::uint64_t calls(std::string_view stage) const;
  std::uint64_t injected_throws() const { return injected_throws_; }
  std::uint64_t injected_latency_events() const {
    return injected_latency_events_;
  }

  /// Reset call counters (not the plan) so a rerun replays identically.
  void reset();

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  std::unordered_map<std::string, std::uint64_t> calls_;
  std::uint64_t injected_throws_ = 0;
  std::uint64_t injected_latency_events_ = 0;
};

}  // namespace ga::resilience
