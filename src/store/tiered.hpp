// Segmented two-tier adjacency store — the paper's Fig. 2 "projection"
// and X-Caliber two-level-memory model made real (DESIGN.md section 16).
//
// The vertex space is split into fixed-size segments (2^segment_bits
// vertices). Every segment permanently owns a *cold* home: a delta-varint
// compressed EncodedSegment (segment.hpp) that models far/large memory
// and is never dropped. A segment is *resident* when a decoded SegmentCSR
// slab additionally exists in near memory; resident bytes are metered
// against TierPolicy::budget_bytes — the hard near-memory budget.
//
// Residency has two grades:
//   pinned — promoted slabs that the eviction clock never touches. The
//            initial hot set (heaviest segments by arc count, a stand-in
//            for expected access skew) is pinned at build up to HALF of
//            budget * pinned_fraction — the other half is headroom for
//            run-time promotion: a cold segment that faults promote_after
//            times earns pinning (access-driven promotion) while the
//            total pinned byte share stays under the cap.
//   pooled — slabs faulted in on access and recycled by a clock /
//            second-chance sweep when the next admission would overflow
//            the budget.
//
// Readers acquire a std::shared_ptr pin on the decoded slab, so eviction
// is safe against concurrent traversal: the clock drops the slot's
// reference and the last reader frees the memory. In the pathological
// case where a single slab cannot fit the remaining budget at all, the
// acquire is served *transient* — decoded for that reader only, never
// installed, and accounted into the peak watermark so the budget numbers
// stay honest.
//
// Lock order: pool_mu_ (admission/eviction/accounting) before slot mu.
// The hit path takes only the slot mutex; per-segment access/fault
// counters and clock ref bits are relaxed atomics, TSan-clean by design.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/common.hpp"
#include "core/status.hpp"
#include "store/segment.hpp"

namespace ga::graph {
class CSRGraph;
}
namespace ga::resilience {
class FaultInjector;
}
namespace ga::obs {
class Counter;
class Gauge;
}

namespace ga::store {

class GraphView;

struct TierPolicy {
  /// Hard budget on resident (decoded) bytes. 0 = unbounded: everything
  /// is pinned at build and the store behaves like a compact flat CSR.
  std::size_t budget_bytes = 0;
  /// Vertices per segment = 2^segment_bits. An upper bound: when a
  /// budget is set, build() shrinks it (degree-aware) until the largest
  /// decoded slab fits in budget/4, so eviction can always make room and
  /// the budget actually holds under skew.
  std::uint32_t segment_bits = 12;
  /// Share of the budget the pinned tier may occupy (initial hot set +
  /// run-time promotions). The remainder is the fault pool's headroom.
  double pinned_fraction = 0.5;
  /// Cold faults on one segment before it earns pinning; 0 disables
  /// run-time promotion.
  std::uint32_t promote_after = 8;
};

/// Aggregate health numbers (also exported via obs as tier.* metrics).
struct TierStats {
  std::uint32_t segments = 0;
  std::uint32_t pinned = 0;
  std::uint32_t resident = 0;
  std::size_t budget_bytes = 0;
  std::size_t pinned_bytes = 0;
  std::size_t resident_bytes = 0;
  std::size_t peak_resident_bytes = 0;  // includes transient serves
  std::size_t encoded_bytes = 0;        // cold tier footprint
  std::size_t flat_equivalent_bytes = 0;
  std::uint64_t accesses = 0;
  std::uint64_t faults = 0;
  std::uint64_t evictions = 0;
  std::uint64_t promotions = 0;
  std::uint64_t transient_serves = 0;
  std::uint64_t decode_failures = 0;
};

/// One row of `ga_cli store tiers`.
struct SegmentInfo {
  std::uint32_t id = 0;
  vid_t first_vertex = 0;
  vid_t count = 0;
  eid_t arcs = 0;
  bool pinned = false;
  bool resident = false;
  std::size_t encoded_bytes = 0;
  std::size_t decoded_bytes = 0;
  std::uint64_t accesses = 0;
  std::uint64_t faults = 0;
  std::uint64_t last_promotion_tick = 0;  // 0 = pinned at build or never
};

class TieredGraph {
 public:
  using Pin = std::shared_ptr<const SegmentCSR>;

  /// Carve a flat CSR into segments, encode the cold tier, pin the
  /// heaviest segments up to budget * pinned_fraction.
  static std::shared_ptr<TieredGraph> build(const graph::CSRGraph& g,
                                            TierPolicy policy);

  /// Same, streaming from any GraphView (flat, tiered, or delta-backed)
  /// one segment at a time — the compactor's fold target. Peak transient
  /// memory is O(one segment), not O(graph).
  static std::shared_ptr<TieredGraph> build_from_view(const GraphView& view,
                                                      TierPolicy policy);

  vid_t num_vertices() const { return n_; }
  eid_t num_arcs() const { return arcs_; }
  bool directed() const { return directed_; }
  bool weighted() const { return weighted_; }
  const TierPolicy& policy() const { return policy_; }
  std::uint32_t num_segments() const {
    return static_cast<std::uint32_t>(slots_.size());
  }
  std::uint32_t segment_of(vid_t v) const { return v >> policy_.segment_bits; }

  /// Cold-tier footprint (immutable after build).
  std::size_t encoded_bytes() const { return encoded_bytes_; }
  /// Currently decoded (installed) bytes metered against the budget.
  std::size_t resident_bytes() const {
    std::lock_guard<std::mutex> pl(pool_mu_);
    return resident_bytes_;
  }

  /// Bytes a flat CSR holding the same adjacency would occupy — the
  /// denominator of every budget fraction in bench/tiered_bench.
  std::size_t flat_equivalent_bytes() const {
    return (static_cast<std::size_t>(n_) + 1) * sizeof(eid_t) +
           static_cast<std::size_t>(arcs_) * sizeof(vid_t) +
           (weighted_ ? static_cast<std::size_t>(arcs_) * sizeof(float) : 0);
  }

  /// Pin the decoded slab for one segment, faulting it in from the cold
  /// tier if needed. Throws (DataLoss) on a corrupt cold block.
  Pin acquire(std::uint32_t seg) const {
    return try_acquire(seg).value_or_throw();
  }
  core::StatusOr<Pin> try_acquire(std::uint32_t seg) const;

  /// Segment-resolution cursor for sequential traversal: callers keep one
  /// Reader per thread and the pin is re-resolved only on segment cross.
  struct Reader {
    Pin pin;
    std::uint32_t seg = UINT32_MAX;
  };

  /// The decoded slab holding u's adjacency, pinned through `r`.
  const SegmentCSR& slab_of(vid_t u, Reader& r) const {
    GA_ASSERT(u < n_);
    const std::uint32_t seg = segment_of(u);
    if (seg != r.seg || !r.pin) {
      r.pin = acquire(seg);
      r.seg = seg;
    }
    return *r.pin;
  }

  template <typename Fn>
  void for_each_out(vid_t u, Reader& r, Fn&& fn) const {
    const SegmentCSR& s = slab_of(u, r);
    const auto nbrs = s.neighbors(u);
    if (weighted_) {
      const auto ws = s.weights_of(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) fn(nbrs[i], ws[i]);
    } else {
      for (const vid_t v : nbrs) fn(v, 1.0f);
    }
  }

  template <typename Fn>
  void for_each_out(vid_t u, Fn&& fn) const {
    Reader r;
    for_each_out(u, r, static_cast<Fn&&>(fn));
  }

  eid_t out_degree(vid_t u) const {
    GA_ASSERT(u < n_);
    return acquire(segment_of(u))->degree(u);
  }

  bool has_edge(vid_t u, vid_t v) const;

  TierStats stats() const;
  std::vector<SegmentInfo> segment_table() const;

  /// Test seam: stage "tier.fault" fires on every cold-tier fault (miss),
  /// before the decode. Not owned; caller keeps it alive.
  void set_fault_injector(resilience::FaultInjector* fi) { injector_ = fi; }

  /// Test seam: XOR one payload byte of a cold block and drop any
  /// resident copy, so the next fault must hit the CRC check.
  void corrupt_cold_block_for_test(std::uint32_t seg, std::size_t byte_index,
                                   std::uint8_t xor_mask);

 private:
  struct Slot {
    EncodedSegment cold;
    mutable std::mutex mu;
    Pin hot;                     // guarded by mu
    std::size_t hot_bytes = 0;   // guarded by mu (== hot->bytes() when set)
    std::atomic<bool> pinned{false};
    std::atomic<bool> ref{false};  // clock second-chance bit
    std::atomic<std::uint64_t> accesses{0};
    std::atomic<std::uint64_t> faults{0};
    std::atomic<std::uint64_t> last_promotion{0};
  };

  TieredGraph() = default;
  static std::shared_ptr<TieredGraph> build_impl(
      vid_t n, eid_t arcs, bool directed, bool weighted, TierPolicy policy,
      const std::function<eid_t(vid_t v)>& degree,
      const std::function<void(vid_t first, SegmentCSR& seg)>& fill);
  void init_metrics();
  void finish_build();
  // Evict pooled slabs (clock sweep) until `need` more bytes fit the
  // budget or nothing evictable remains. Caller holds pool_mu_.
  void make_room_locked(std::size_t need) const;

  TierPolicy policy_;
  vid_t n_ = 0;
  eid_t arcs_ = 0;
  bool directed_ = false;
  bool weighted_ = false;
  std::size_t encoded_bytes_ = 0;
  std::vector<std::unique_ptr<Slot>> slots_;

  mutable std::mutex pool_mu_;  // accounting + clock; before any slot mu
  mutable std::size_t resident_bytes_ = 0;
  mutable std::size_t pinned_bytes_ = 0;
  // Shared with transient pins' deleters so a long-lived reader can
  // release its bytes even after this TieredGraph is gone.
  std::shared_ptr<std::atomic<std::size_t>> transient_bytes_ =
      std::make_shared<std::atomic<std::size_t>>(0);
  mutable std::size_t peak_resident_bytes_ = 0;
  mutable std::uint32_t clock_hand_ = 0;
  mutable std::uint64_t promo_tick_ = 0;
  mutable std::uint64_t evictions_ = 0;
  mutable std::uint64_t promotions_ = 0;
  mutable std::uint64_t transient_serves_ = 0;
  mutable std::atomic<std::uint64_t> faults_{0};
  mutable std::atomic<std::uint64_t> decode_failures_{0};

  resilience::FaultInjector* injector_ = nullptr;

  // Cached obs instruments (registered once; adds guarded by enabled()).
  obs::Counter* m_faults_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_promotions_ = nullptr;
  obs::Counter* m_decode_failures_ = nullptr;
  obs::Gauge* m_resident_ = nullptr;
  obs::Gauge* m_peak_ = nullptr;
};

}  // namespace ga::store
