#include "kernels/connected_components.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>

#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "engine/traversal.hpp"

namespace ga::kernels {

namespace {

/// Vertices per parallel chunk: small enough for the pool's dynamic
/// scheduling to even out power-law degrees, large enough to amortize a
/// tier pin per chunk.
constexpr std::uint64_t kGrain = 1024;

vid_t load(vid_t* comp, vid_t i) {
  return std::atomic_ref<vid_t>(comp[i]).load(std::memory_order_relaxed);
}

/// Joins the trees of u and v: chase both toward their roots and CAS the
/// higher root under the lower one (the GAP suite's lock-free link). Every
/// write lowers an entry, so comp[x] <= x holds throughout and each root
/// is the minimum id of its tree.
void hook(vid_t* comp, vid_t u, vid_t v) {
  vid_t p1 = load(comp, u);
  vid_t p2 = load(comp, v);
  while (p1 != p2) {
    const vid_t high = std::max(p1, p2);
    const vid_t low = std::min(p1, p2);
    vid_t p_high = load(comp, high);
    if (p_high == low) return;
    if (p_high == high &&
        std::atomic_ref<vid_t>(comp[high]).compare_exchange_strong(
            p_high, low, std::memory_order_relaxed)) {
      return;
    }
    p1 = load(comp, load(comp, high));
    p2 = load(comp, low);
  }
}

/// Compresses a hooked min-id forest and counts components and the
/// largest one, in one serial pass: scanning v upward, every u < v already
/// points at its root and label[v] <= v, so v's root is at most two loads
/// away. Canonical labels pass through unchanged. Records the pass when
/// given telemetry.
ComponentsResult finish(std::vector<vid_t> label, engine::Telemetry* telem) {
  core::WallTimer timer;
  const auto n = static_cast<vid_t>(label.size());
  std::vector<vid_t> size(n, 0);
  vid_t components = 0, largest = 0;  // locals: size[] stores cannot alias
  for (vid_t v = 0; v < n; ++v) {
    const vid_t root = label[label[v]];
    label[v] = root;
    components += root == v;
    largest = std::max(largest, ++size[root]);
  }
  ComponentsResult r;
  r.label = std::move(label);
  r.num_components = components;
  r.largest_size = largest;
  if (telem != nullptr) {
    engine::record_dense_pass(*telem, engine::Direction::kPush, n, 0, false,
                              timer.seconds());
    r.steps = telem->steps();
  }
  return r;
}

}  // namespace

void canonicalize_labels(std::vector<vid_t>& label) {
  // Map each label to the minimum vertex id bearing it: scanning v
  // upward, the first vertex seen with a label is that minimum.
  const auto n = static_cast<vid_t>(label.size());
  std::vector<vid_t> min_of(n, kInvalidVid);
  for (vid_t v = 0; v < n; ++v) {
    GA_CHECK(label[v] < n, "canonicalize_labels: label is not a vertex id");
    if (min_of[label[v]] == kInvalidVid) min_of[label[v]] = v;
  }
  for (auto& l : label) l = min_of[l];
}

ComponentsResult wcc_label_propagation(const store::GraphView& g) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> label(n);
  std::iota(label.begin(), label.end(), vid_t{0});

  // One hooking pass over every arc. An undirected view stores each edge
  // as two arcs, so it hooks only the one leaving the higher endpoint; a
  // directed view hooks every arc, since a union joins both ends.
  core::WallTimer timer;
  vid_t* comp = label.data();
  const bool directed = g.directed();
  std::function<void(std::uint64_t, std::uint64_t)> body =
      [&](std::uint64_t b, std::uint64_t e) {
        store::TieredGraph::Reader reader;  // one pin per worker chunk
        for (auto u = static_cast<vid_t>(b); u < e; ++u) {
          g.for_each_out(u, reader, [&](vid_t v, float) {
            if (directed || v < u) hook(comp, u, v);
          });
        }
      };
  core::ThreadPool::global().parallel_for(0, n, kGrain, body);
  engine::Telemetry telem;
  engine::record_dense_pass(telem, engine::Direction::kPush, n, g.num_arcs(),
                            g.weighted(), timer.seconds());
  return finish(std::move(label), &telem);
}

ComponentsResult wcc_label_propagation(const CSRGraph& g) {
  return wcc_label_propagation(store::GraphView::borrowed(g));
}

ComponentsResult wcc_hook_arcs(
    std::vector<vid_t> label,
    std::span<const std::pair<vid_t, vid_t>> arcs) {
  core::WallTimer timer;
  for (const auto& [u, v] : arcs) {
    GA_ASSERT(u < label.size() && v < label.size());
    hook(label.data(), u, v);
  }
  engine::Telemetry telem;
  engine::record_dense_pass(telem, engine::Direction::kPush,
                            static_cast<vid_t>(label.size()), arcs.size(),
                            false, timer.seconds());
  return finish(std::move(label), &telem);
}

ComponentsResult wcc_bfs(const CSRGraph& g) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> label(n, kInvalidVid);
  std::vector<vid_t> stack;
  for (vid_t s = 0; s < n; ++s) {
    if (label[s] != kInvalidVid) continue;
    label[s] = s;
    stack.push_back(s);
    while (!stack.empty()) {
      const vid_t u = stack.back();
      stack.pop_back();
      for (vid_t v : g.out_neighbors(u)) {
        if (label[v] == kInvalidVid) {
          label[v] = s;
          stack.push_back(v);
        }
      }
    }
  }
  return finish(std::move(label), nullptr);
}

UnionFind::UnionFind(vid_t n) { reset(n); }

void UnionFind::reset(vid_t n) {
  parent_.resize(n);
  size_.assign(n, 1);
  for (vid_t i = 0; i < n; ++i) parent_[i] = i;
  sets_ = n;
}

vid_t UnionFind::find(vid_t x) {
  GA_ASSERT(x < parent_.size());
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(vid_t a, vid_t b) {
  vid_t ra = find(a), rb = find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  --sets_;
  return true;
}

ComponentsResult wcc_union_find(const CSRGraph& g) {
  const vid_t n = g.num_vertices();
  UnionFind uf(n);
  for (vid_t u = 0; u < n; ++u) {
    for (vid_t v : g.out_neighbors(u)) {
      if (u < v) uf.unite(u, v);
    }
  }
  std::vector<vid_t> label(n);
  for (vid_t v = 0; v < n; ++v) label[v] = uf.find(v);
  canonicalize_labels(label);
  return finish(std::move(label), nullptr);
}

}  // namespace ga::kernels
