#include "graph/csr_graph.hpp"

#include <algorithm>

namespace ga::graph {

CSRGraph::CSRGraph(std::vector<eid_t> offsets, std::vector<vid_t> targets,
                   std::vector<float> weights, bool directed)
    : directed_(directed),
      offsets_(std::move(offsets)),
      targets_(std::move(targets)),
      weights_(std::move(weights)) {
  GA_CHECK(!offsets_.empty(), "CSR offsets must have n+1 entries");
  GA_CHECK(offsets_.back() == targets_.size(),
           "CSR offsets/targets size mismatch");
  GA_CHECK(weights_.empty() || weights_.size() == targets_.size(),
           "CSR weights must be empty or parallel to targets");
  n_ = static_cast<vid_t>(offsets_.size() - 1);
}

bool CSRGraph::has_edge(vid_t u, vid_t v) const {
  const auto nbrs = out_neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

float CSRGraph::edge_weight(vid_t u, vid_t v) const {
  const auto nbrs = out_neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  GA_CHECK(it != nbrs.end() && *it == v, "edge_weight: arc not present");
  if (!weighted()) return 1.0f;
  return weights_[offsets_[u] + static_cast<eid_t>(it - nbrs.begin())];
}

CSRGraph::CSRGraph(const CSRGraph& other)
    : n_(other.n_),
      directed_(other.directed_),
      offsets_(other.offsets_),
      targets_(other.targets_),
      weights_(other.weights_) {
  if (const Transpose* t = other.transpose_acquire()) {
    transpose_.store(new Transpose(*t), std::memory_order_release);
  }
}

CSRGraph& CSRGraph::operator=(const CSRGraph& other) {
  if (this != &other) {
    CSRGraph tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

CSRGraph::CSRGraph(CSRGraph&& other) noexcept
    : n_(other.n_),
      directed_(other.directed_),
      offsets_(std::move(other.offsets_)),
      targets_(std::move(other.targets_)),
      weights_(std::move(other.weights_)) {
  transpose_.store(other.transpose_.exchange(nullptr, std::memory_order_acq_rel),
                   std::memory_order_release);
  other.n_ = 0;
}

CSRGraph& CSRGraph::operator=(CSRGraph&& other) noexcept {
  if (this != &other) {
    n_ = other.n_;
    directed_ = other.directed_;
    offsets_ = std::move(other.offsets_);
    targets_ = std::move(other.targets_);
    weights_ = std::move(other.weights_);
    delete transpose_.exchange(
        other.transpose_.exchange(nullptr, std::memory_order_acq_rel),
        std::memory_order_acq_rel);
    other.n_ = 0;
  }
  return *this;
}

CSRGraph::~CSRGraph() {
  delete transpose_.load(std::memory_order_acquire);
}

void CSRGraph::ensure_transpose() const {
  if (has_transpose()) return;
  auto t = std::make_unique<Transpose>();
  t->offsets.assign(n_ + 1, 0);
  for (vid_t tgt : targets_) ++t->offsets[tgt + 1];
  for (vid_t i = 0; i < n_; ++i) t->offsets[i + 1] += t->offsets[i];
  t->targets.resize(targets_.size());
  // Sources are scattered in ascending order, so every in-list comes out
  // sorted, matching the out-lists for binary search.
  std::vector<eid_t> cursor(t->offsets.begin(), t->offsets.end() - 1);
  for (vid_t u = 0; u < n_; ++u) {
    for (vid_t v : out_neighbors(u)) t->targets[cursor[v]++] = u;
  }
  // Publish; a concurrent builder that wins the CAS makes ours redundant.
  Transpose* expected = nullptr;
  Transpose* built = t.release();
  if (!transpose_.compare_exchange_strong(expected, built,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    delete built;
  }
}

eid_t CSRGraph::in_degree(vid_t u) const {
  GA_ASSERT(u < n_);
  if (!directed_) return out_degree(u);
  const Transpose* t = transpose_acquire();
  GA_CHECK(t != nullptr, "call ensure_transpose() first");
  return t->offsets[u + 1] - t->offsets[u];
}

std::span<const vid_t> CSRGraph::in_neighbors(vid_t u) const {
  GA_ASSERT(u < n_);
  if (!directed_) return out_neighbors(u);
  const Transpose* t = transpose_acquire();
  GA_CHECK(t != nullptr, "call ensure_transpose() first");
  return {t->targets.data() + t->offsets[u],
          static_cast<std::size_t>(t->offsets[u + 1] - t->offsets[u])};
}

std::span<const eid_t> CSRGraph::in_offsets() const {
  if (!directed_) return offsets_;
  const Transpose* t = transpose_acquire();
  GA_CHECK(t != nullptr, "call ensure_transpose() first");
  return t->offsets;
}

std::span<const vid_t> CSRGraph::in_targets() const {
  if (!directed_) return targets_;
  const Transpose* t = transpose_acquire();
  GA_CHECK(t != nullptr, "call ensure_transpose() first");
  return t->targets;
}

CSRGraph CSRGraph::transposed() const {
  std::vector<eid_t> off(n_ + 1, 0);
  for (vid_t t : targets_) ++off[t + 1];
  for (vid_t i = 0; i < n_; ++i) off[i + 1] += off[i];
  std::vector<vid_t> tgt(targets_.size());
  std::vector<float> wts(weights_.empty() ? 0 : targets_.size());
  std::vector<eid_t> cursor(off.begin(), off.end() - 1);
  for (vid_t u = 0; u < n_; ++u) {
    const auto nbrs = out_neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const eid_t slot = cursor[nbrs[i]]++;
      tgt[slot] = u;
      if (!wts.empty()) wts[slot] = weights_[offsets_[u] + i];
    }
  }
  // Per-vertex sort (weights must follow their targets).
  for (vid_t v = 0; v < n_; ++v) {
    const auto b = static_cast<std::ptrdiff_t>(off[v]);
    const auto e = static_cast<std::ptrdiff_t>(off[v + 1]);
    if (wts.empty()) {
      std::sort(tgt.begin() + b, tgt.begin() + e);
    } else {
      std::vector<std::pair<vid_t, float>> tmp;
      tmp.reserve(static_cast<std::size_t>(e - b));
      for (auto i = b; i < e; ++i) tmp.emplace_back(tgt[i], wts[i]);
      std::sort(tmp.begin(), tmp.end());
      for (auto i = b; i < e; ++i) {
        tgt[i] = tmp[static_cast<std::size_t>(i - b)].first;
        wts[i] = tmp[static_cast<std::size_t>(i - b)].second;
      }
    }
  }
  return CSRGraph(std::move(off), std::move(tgt), std::move(wts), directed_);
}

}  // namespace ga::graph
