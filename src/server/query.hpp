// Typed query descriptors over the existing batch kernels — the serving
// layer's request vocabulary. Each kind maps onto one kernel family
// (Fig. 1 rows): BFS-from-seed, PageRank top-k, Jaccard neighbors, weakly
// connected components, and depth-bounded subgraph extraction (Fig. 2's
// "explore the region around some vertices" pattern).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/common.hpp"
#include "core/hash.hpp"
#include "core/status.hpp"
#include "kernels/jaccard.hpp"
#include "kernels/registry.hpp"
#include "obs/trace.hpp"

namespace ga::server {

enum class QueryKind : std::uint8_t {
  kBfs = 0,            // hop distances from `seed`
  kPageRankTopK = 1,   // global top-k vertices by rank
  kJaccardNeighbors = 2,  // vertices most similar to `seed` (>= threshold)
  kWcc = 3,            // component count + giant-component size
  kSubgraphExtract = 4,   // depth-bounded neighborhood of `seed`
};
inline constexpr std::size_t kNumQueryKinds = 5;
const char* query_kind_name(QueryKind k);

/// Service class: maps to core::TaskPriority inside the scheduler.
enum class QueryClass : std::uint8_t {
  kInteractive = 0,  // user-facing, tight deadline
  kStandard = 1,
  kBatch = 2,        // background/analytic refresh
};

struct QueryDesc {
  QueryKind kind = QueryKind::kBfs;
  vid_t seed = 0;            // root for kBfs/kJaccardNeighbors/kSubgraphExtract
  std::size_t k = 10;        // result size cap (top-k, neighbor list)
  std::uint32_t depth = 2;   // extraction radius
  double threshold = 0.0;    // Jaccard coefficient floor
  QueryClass klass = QueryClass::kStandard;
  /// Total latency budget in ms (admission gate + execution check);
  /// 0 = no deadline, never rejected on predicted cost.
  double deadline_ms = 0.0;
  bool use_cache = true;
  /// Permit serving this query by incrementally refining the previous
  /// epoch's warm result against the published DeltaSummary chain (the
  /// scheduler's cost model still decides whether refinement actually
  /// beats a batch recompute). Disable to force batch execution.
  bool allow_incremental = true;
  /// Trace context of the caller's enclosing span. When a trace is active,
  /// the scheduler hangs its admission / snapshot-lease / kernel spans off
  /// this; default (invalid) means "untraced".
  obs::TraceContext trace;

  /// Bridge to the kernel registry's unified dispatch: the KernelRunSpec
  /// this query describes over a snapshot view. Seed, trace context, and
  /// the incremental allowance carry over one-to-one, so a serving path
  /// that executes a registry-backed kernel shares run_kernel(info, spec)
  /// with bench and the CLI instead of growing its own overload.
  kernels::KernelRunSpec run_spec(store::GraphView view) const {
    kernels::KernelRunSpec s = kernels::KernelRunSpec::of(std::move(view));
    s.seed = seed;
    s.trace = trace;
    s.allow_incremental = allow_incremental;
    return s;
  }
};

enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kRejectedCost,      // predicted execution alone exceeds the deadline
  kRejectedOverload,  // predicted queue wait + execution exceeds the deadline
  kRejectedBacklog,   // per-class queue at capacity (backpressure)
  kDeadlineMiss,      // admitted, but the budget expired before completion
  kNoSnapshot,        // nothing published yet
  kFailed,            // kernel threw
};
const char* query_status_name(QueryStatus s);

/// The serving outcome in the unified core::Status taxonomy — what traces
/// and the metrics exposition record, so a rejected query and a failed
/// epoch-log read share one status vocabulary.
core::StatusCode status_code(QueryStatus s);

/// Vertex-set dependency footprint of one query answer: the vertices whose
/// adjacency the answer was derived from. `global` (the default) means the
/// answer depends on the whole graph — any structural epoch delta
/// invalidates a cached copy. When `global` is false, `verts` is sorted
/// ascending and an epoch publish invalidates the cached answer only if
/// the DeltaSummary's changed-vertex set intersects `verts`; disjoint
/// deltas let the entry be carried forward to the new epoch unchanged.
struct QueryFootprint {
  bool global = true;
  std::vector<vid_t> verts;  // sorted when !global
};

/// Result envelope. Exactly one payload section is populated, selected by
/// the query kind; the header fields are always valid.
struct QueryResult {
  QueryStatus status = QueryStatus::kFailed;
  QueryKind kind = QueryKind::kBfs;
  std::uint64_t epoch = 0;     // snapshot the query executed against
  double predicted_ms = 0.0;   // admission-time cost-model estimate
  double wait_ms = 0.0;        // queue time (0 for cache hits)
  double exec_ms = 0.0;        // kernel time (0 for cache hits)
  bool cache_hit = false;
  bool batched = false;        // served by a fused multi-source pass
  bool incremental = false;    // refined from the previous epoch's result
  std::string error;           // kFailed diagnostics
  /// Dependency set for delta-aware cache invalidation (see QueryFootprint).
  QueryFootprint footprint;

  // kBfs
  std::vector<std::uint32_t> dist;  // hop counts; kInfDist if unreached
  std::uint64_t reached = 0;
  // kPageRankTopK
  std::vector<std::pair<double, vid_t>> topk;
  // kJaccardNeighbors
  std::vector<kernels::JaccardPair> neighbors;
  // kWcc
  vid_t num_components = 0;
  vid_t largest_component = 0;
  // kSubgraphExtract
  std::vector<vid_t> members;  // sorted store ids of the neighborhood
  eid_t subgraph_arcs = 0;

  bool ok() const { return status == QueryStatus::kOk; }
};

/// Result envelope → core::Status (OK, or the mapped code with the
/// rejection reason / kernel error as the message).
core::Status to_status(const QueryResult& r);

/// Cache identity of a query at one epoch: every descriptor field that
/// changes the answer, plus the epoch (epoch advance == invalidation).
struct QueryKey {
  QueryKind kind = QueryKind::kBfs;
  vid_t seed = 0;
  std::size_t k = 0;
  std::uint32_t depth = 0;
  std::uint64_t threshold_bits = 0;
  std::uint64_t epoch = 0;

  static QueryKey of(const QueryDesc& d, std::uint64_t epoch);

  bool operator==(const QueryKey& o) const = default;

  std::uint64_t hash() const {
    std::uint64_t h = core::mix64(static_cast<std::uint64_t>(kind) + 1);
    h = core::hash_combine(h, seed);
    h = core::hash_combine(h, k);
    h = core::hash_combine(h, depth);
    h = core::hash_combine(h, threshold_bits);
    h = core::hash_combine(h, epoch);
    return h;
  }
};

}  // namespace ga::server
