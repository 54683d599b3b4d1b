#include "server/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "archmodel/nora_model.hpp"

namespace ga::server {

namespace {

/// EWMA weight for calibration updates: heavy enough to converge within a
/// few observations, light enough to ride out scheduler jitter.
constexpr double kCalibAlpha = 0.3;

/// Synthesized engine counters for one query kind. The estimates are the
/// standard work bounds of each kernel family expressed in the same
/// vertices/edges/direction vocabulary as measured StepStats, so the
/// archbridge conversion used for Fig. 3 applies unchanged.
engine::StepStats synth_stats(const QueryDesc& q, vid_t n, eid_t m) {
  const double nd = std::max(1.0, static_cast<double>(n));
  const double md = static_cast<double>(m);
  const double avg_deg = md / nd;
  engine::StepStats st;
  st.direction = engine::Direction::kPush;
  switch (q.kind) {
    case QueryKind::kBfs:
      // Direction-optimized BFS touches every vertex and arc about once.
      st.vertices_touched = n;
      st.edges_traversed = m;
      break;
    case QueryKind::kPageRankTopK: {
      // Power iteration: ~20 dense pull sweeps to typical tolerance.
      constexpr double kIters = 20.0;
      st.direction = engine::Direction::kPull;
      st.vertices_touched = static_cast<std::uint64_t>(kIters * nd);
      st.edges_traversed = static_cast<std::uint64_t>(kIters * md);
      break;
    }
    case QueryKind::kJaccardNeighbors: {
      // 2-hop candidate generation + one adjacency merge per candidate.
      const double cands = std::min(nd, avg_deg * avg_deg + 1.0);
      st.vertices_touched = static_cast<std::uint64_t>(cands);
      st.edges_traversed =
          static_cast<std::uint64_t>(cands * (avg_deg + 1.0));
      break;
    }
    case QueryKind::kWcc:
      // One hooking pass over every arc, then one compress pass.
      st.vertices_touched = static_cast<std::uint64_t>(2.0 * nd);
      st.edges_traversed = m;
      break;
    case QueryKind::kSubgraphExtract: {
      // Frontier grows ~avg_deg per level for `depth` levels, capped at n.
      double verts = 1.0;
      double level = 1.0;
      for (std::uint32_t d = 0; d < q.depth; ++d) {
        level *= std::max(1.0, avg_deg);
        verts += level;
      }
      verts = std::min(nd, verts);
      st.vertices_touched = static_cast<std::uint64_t>(verts);
      st.edges_traversed =
          static_cast<std::uint64_t>(verts * (avg_deg + 1.0));
      break;
    }
  }
  // Same word-granular traffic model as the engine's measured steps.
  st.bytes_moved = st.vertices_touched * 2 * sizeof(eid_t) +
                   st.edges_traversed * (sizeof(vid_t) + 8);
  return st;
}

}  // namespace

ServingCostModel::ServingCostModel(archmodel::MachineConfig host)
    : host_(std::move(host)) {
  calib_.fill(1.0);
  inc_calib_.fill(1.0);
}

archmodel::MachineConfig ServingCostModel::host_config() {
  archmodel::MachineConfig m;
  m.name = "serving-host";
  m.racks = 1.0;
  m.nodes_per_rack = 1.0;
  m.giga_ops = 4.0;        // one sustained conventional core
  m.mem_bw_gbs = 12.0;
  m.disk_bw_gbs = 0.5;
  m.net_bw_gbs = 1.0;
  m.watts_per_node = 65.0;
  m.irregular_penalty = 8.0;   // 64B lines, 8B useful words
  m.net_demand_factor = 1.0;
  m.latency_tolerance = 0.10;
  return m;
}

archmodel::StepDemand ServingCostModel::demand(const QueryDesc& q, vid_t n,
                                               eid_t m) const {
  return engine::to_step_demand(synth_stats(q, n, m), query_kind_name(q.kind));
}

CostEstimate ServingCostModel::predict(const QueryDesc& q, vid_t n,
                                       eid_t m) const {
  const auto result = archmodel::evaluate(host_, {demand(q, n, m)});
  CostEstimate est;
  est.raw_ms = result.total_seconds * 1e3;
  est.bounding = result.steps.front().bounding;
  std::lock_guard<std::mutex> lk(mu_);
  ++predictions_;
  est.ms = est.raw_ms * calib_[static_cast<std::size_t>(q.kind)];
  return est;
}

CostEstimate ServingCostModel::predict_incremental(const QueryDesc& q, vid_t n,
                                                   eid_t m,
                                                   vid_t changed) const {
  const auto result = archmodel::evaluate(host_, {demand(q, n, m)});
  // Refinement work scales with the changed fraction of the graph: a warm
  // PageRank converges in a couple of sweeps instead of ~20, an insert-only
  // WCC update is one union-find reconstruction. The 2% floor models the
  // always-paid part (reseed, summary merge, convergence check).
  const double nd = std::max(1.0, static_cast<double>(n));
  const double frac =
      std::clamp(0.02 + static_cast<double>(changed) / nd, 0.02, 1.0);
  CostEstimate est;
  est.raw_ms = result.total_seconds * 1e3 * frac;
  est.bounding = result.steps.front().bounding;
  std::lock_guard<std::mutex> lk(mu_);
  ++predictions_;
  est.ms = est.raw_ms * inc_calib_[static_cast<std::size_t>(q.kind)];
  return est;
}

void ServingCostModel::observe_incremental(QueryKind kind, double raw_ms,
                                           double measured_ms) {
  if (raw_ms <= 0.0 || measured_ms < 0.0) return;
  const double ratio = std::clamp(measured_ms / raw_ms, 1e-4, 1e4);
  const std::size_t i = static_cast<std::size_t>(kind);
  std::lock_guard<std::mutex> lk(mu_);
  double& c = inc_calib_[i];
  c = inc_observations_[i] == 0
          ? ratio
          : (1.0 - kCalibAlpha) * c + kCalibAlpha * ratio;
  ++inc_observations_[i];
}

void ServingCostModel::observe(QueryKind kind, double raw_ms,
                               double measured_ms) {
  if (raw_ms <= 0.0 || measured_ms < 0.0) return;
  // Clamp single observations so one scheduler hiccup cannot blow the
  // factor out by orders of magnitude.
  const double ratio = std::clamp(measured_ms / raw_ms, 1e-4, 1e4);
  const std::size_t i = static_cast<std::size_t>(kind);
  std::lock_guard<std::mutex> lk(mu_);
  double& c = calib_[i];
  c = observations_[i] == 0 ? ratio
                            : (1.0 - kCalibAlpha) * c + kCalibAlpha * ratio;
  ++observations_[i];
}

double ServingCostModel::calibration(QueryKind kind) const {
  std::lock_guard<std::mutex> lk(mu_);
  return calib_[static_cast<std::size_t>(kind)];
}

CostModelStats ServingCostModel::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  CostModelStats st;
  st.predictions = predictions_;
  st.observations = observations_;
  st.calibration = calib_;
  st.inc_observations = inc_observations_;
  st.inc_calibration = inc_calib_;
  return st;
}

}  // namespace ga::server
