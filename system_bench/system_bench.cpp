// system_bench: one benchmark of the served system — the Fig. 2 flow of
// queries served over a graph that an update stream keeps changing —
// measured end to end from outside, and layer by layer in a traced run.
//
//   system_bench --workload serve_mixed|serve_tiered|epoch_refresh|dist_shards
//                --seed S [--seconds T] [--trace 0|1] [--scale N]
//                [--warmup W]
//
// A run sets the system up (three times, reporting the median set-up time),
// runs an untimed warmup, measures one window of --seconds, and then checks
// its answers outside the clock. Every input (query descriptors, delta
// batches; the graph is fixed per workload) is generated during set-up; the
// timed path never calls the RNG. Load comes from at most four generator
// threads, each a closed-loop caller that waits for every reply.
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}. --trace 0 reports the end-to-end metrics (set-up time and
// resident set); --trace 1 runs the same workload with obs::Tracer switched
// on in alternating slices and reports the per-layer metrics (the window's
// throughput and latencies among them), a per-span self-time table, and
// the tracing overhead. README.md in this directory lists the workloads,
// the metrics and which metric each layer metric should move.
//
// The program is driven only through its public functions
// (AnalyticsServer, VersionedGraphStore, EpochLog, recover, TieredGraph via
// CompactionPolicy::tiered, dist::Coordinator, kernels::*).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/hash.hpp"
#include "core/prng.hpp"
#include "core/stats.hpp"
#include "dist/coordinator.hpp"
#include "graph/generators.hpp"
#include "kernels/bfs.hpp"
#include "kernels/connected_components.hpp"
#include "kernels/jaccard.hpp"
#include "kernels/pagerank.hpp"
#include "obs/trace.hpp"
#include "server/server.hpp"
#include "store/epoch_log.hpp"
#include "store/recovery.hpp"
#include "store/versioned_store.hpp"

namespace {

using namespace ga;
using server::QueryDesc;
using server::QueryKind;
using server::QueryResult;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Fixed workload shape (README.md gives the reasons).

constexpr int kServeClients = 3;      // + 1 writer = 4 generator threads
constexpr unsigned kServeWorkers = 2;
constexpr std::size_t kHotVertices = 4096;
constexpr std::size_t kQueriesPerClient = std::size_t{1} << 14;
constexpr auto kMixedWritePeriod = std::chrono::milliseconds(250);
constexpr std::size_t kMixedBatchOps = 512;
constexpr double kMixedDeleteFrac = 0.10;
constexpr double kRefreshChurn = 0.002;
constexpr std::size_t kRefreshInsertLists = 256;
constexpr std::uint64_t kRefreshCheckpointEvery = 16;
constexpr std::uint64_t kRefreshCheckEvery = 8;  // few, costly cycles
constexpr std::size_t kRefreshChecks = 12;
constexpr std::uint32_t kDistShards = 2;
constexpr auto kDistWritePeriod = std::chrono::milliseconds(500);
constexpr std::size_t kDistBatchOps = 256;
constexpr unsigned kDistPageRankIters = 10;

constexpr int kSetupRuns = 3;  // setup_s is the median of this many set-ups
constexpr std::uint64_t kTraceEvery = 8;   // 1 in 8 ops opens a bench.op root
constexpr std::uint64_t kCheckEvery = 13;  // 1 in 13 ops is verified afterwards
constexpr std::size_t kChecksPerThread = 24;
// Tracer on/off slices, a length that divides neither writer period, so
// the periodic applies do not lock onto one kind of slice.
constexpr auto kSliceLen = std::chrono::milliseconds(300);
constexpr auto kSamplePeriod = std::chrono::milliseconds(50);
constexpr int kProbeBfs = 8, kProbeGlobal = 3;
// The traced run times the fold of every 8th published view; folding every
// one would take a fifth of epoch_refresh's window away from its cycles.
constexpr std::size_t kFlattenProbeEvery = 8;

// The latency tail every run reports (run.latency_ms_p90 and the summary
// line), and the sample count below which it is not backed by data (the
// run then exits 2).
constexpr double kTailQ = 0.90;
constexpr std::size_t kTailMinSamples = 100;
// The per-layer far tail, reported only where the window holds the 500
// samples that leave ten beyond it. It is p98 rather than p99 because a
// 20 s window of a serve workload holds 780 to 1500 samples on a shared
// 4-vCPU machine, often short of the 1000 a p99 needs.
constexpr double kRunTailQ = 0.98;
constexpr std::size_t kRunTailMinSamples = 500;

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  double warmup = 3.0;
  bool trace = false;
  unsigned scale = 0;  // 0 = the workload's own size
  bool smoke = false;  // --scale given: a short check, exempt from sample counts
  std::string tmp;     // per-run scratch directory (epoch logs)
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "system_bench: %s\n"
               "usage: system_bench --workload serve_mixed|serve_tiered|"
               "epoch_refresh|dist_shards --seed S [--seconds T] "
               "[--trace 0|1] [--scale N] [--warmup W]\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* rest = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &rest, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &rest);
    } else if (a == "--warmup") {
      o.warmup = std::strtod(v, &rest);
    } else if (a == "--trace") {
      o.trace = std::strtol(v, &rest, 10) != 0;
    } else if (a == "--scale") {
      o.scale = static_cast<unsigned>(std::strtoul(v, &rest, 10));
    } else {
      usage(("unknown flag " + a).c_str());
    }
    if (rest != nullptr && *rest != '\0') {
      usage(("malformed value for " + a).c_str());
    }
  }
  if (o.workload != "serve_mixed" && o.workload != "serve_tiered" &&
      o.workload != "epoch_refresh" && o.workload != "dist_shards") {
    usage("unknown or missing --workload");
  }
  if (!have_seed) usage("missing --seed");
  if (!(o.seconds > 0.0) || !(o.warmup >= 0.0)) usage("bad --seconds/--warmup");
  if (o.scale != 0 && (o.scale < 8 || o.scale > 22)) {
    usage("--scale must be in [8, 22]");
  }
  o.smoke = o.scale != 0;
  if (o.scale == 0) {
    o.scale = o.workload == "serve_mixed" || o.workload == "epoch_refresh" ? 16 : 15;
  }
  return o;
}

// ---------------------------------------------------------------------------
// Measurement utilities

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point after_seconds(double s) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(s));
}

/// Raw samples. Percentiles come from core::PercentileSketch over every
/// sample (nearest rank), never from the log2 obs histograms.
class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  std::size_t size() const { return v_.size(); }
  double pct(double q) const {
    if (v_.empty()) return 0.0;
    core::PercentileSketch s;
    for (const double x : v_) s.add(x);
    return s.percentile(q);
  }
  double mean() const {
    if (v_.empty()) return 0.0;
    double sum = 0.0;
    for (const double x : v_) sum += x;
    return sum / static_cast<double>(v_.size());
  }

 private:
  std::vector<double> v_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string proc_path(pid_t pid, const char* leaf) {
  return "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) +
         "/" + leaf;
}

/// One memory line of /proc/<pid>/status (pid 0 = this process), in MiB.
double status_mib(pid_t pid, const std::string& key) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}
double resident_mib(pid_t pid) { return status_mib(pid, "VmRSS:"); }
double peak_resident_mib(pid_t pid) { return status_mib(pid, "VmHWM:"); }

/// utime + stime of `pid`, in seconds.
double cpu_seconds(pid_t pid) {
  std::ifstream in(proc_path(pid, "stat"));
  std::string s((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  const auto close = s.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(s.substr(close + 2));
  std::string f;
  double ticks = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int field = 3; field <= 15 && (fields >> f); ++field) {
    if (field >= 14) ticks += std::strtod(f.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// rchar + wchar of `pid`: bytes through read/write syscalls (socket and
/// log traffic alike).
double io_bytes(pid_t pid) {
  std::ifstream in(proc_path(pid, "io"));
  std::string key;
  double value = 0.0, sum = 0.0;
  while (in >> key >> value) {
    if (key == "rchar:" || key == "wchar:") sum += value;
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Report: every metric by name with its unit; the last stdout line is JSON.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Inputs. As in the GAP suite, each workload runs on one fixed graph (a
// Kronecker graph from a constant generator seed); --seed draws everything
// that runs over it: query descriptors, delta batches and probe roots.

constexpr std::uint64_t kGraphSeed = 27491095;

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return core::hash_combine(core::mix64(seed), stream);
}

struct Inputs {
  std::shared_ptr<const graph::CSRGraph> base;
  std::vector<vid_t> active;       // vertices with at least one arc
  std::vector<vid_t> probe_seeds;  // roots of the traced run's kernel probes
};

Inputs make_inputs(unsigned scale, std::uint64_t seed) {
  Inputs in;
  in.base = std::make_shared<const graph::CSRGraph>(
      graph::make_rmat({.scale = scale, .edge_factor = 16, .seed = kGraphSeed}));
  for (vid_t u = 0; u < in.base->num_vertices(); ++u) {
    if (in.base->out_degree(u) > 0) in.active.push_back(u);
  }
  GA_CHECK(!in.active.empty(), "generated graph has no arcs");
  core::Xoshiro256 rng(stream_seed(seed, 1));
  for (int i = 0; i < kProbeBfs; ++i) {
    in.probe_seeds.push_back(in.active[rng.next_below(in.active.size())]);
  }
  return in;
}

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t next(core::Xoshiro256& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.next_double());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Query kinds drawn from a shuffled deck that holds the mix exactly, so
/// every deck-length run of queries has the same composition whatever the
/// seed (a random roll per query would let the share of the expensive
/// kinds, and with it the throughput, vary from seed to seed).
class Deck {
 public:
  explicit Deck(std::vector<std::pair<QueryKind, int>> mix) {
    for (const auto& [kind, count] : mix) cards_.insert(cards_.end(), count, kind);
    pos_ = cards_.size();
  }
  QueryKind next(core::Xoshiro256& rng) {
    if (pos_ == cards_.size()) {
      for (std::size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1], cards_[rng.next_below(i)]);
      }
      pos_ = 0;
    }
    return cards_[pos_++];
  }

 private:
  std::vector<QueryKind> cards_;
  std::size_t pos_ = 0;
};

/// The served mix: BFS 60 / subgraph-extract(d=2) 20 / Jaccard 14 /
/// WCC 3 / PageRank-top10 3.
Deck serve_deck() {
  return Deck({{QueryKind::kBfs, 60},
               {QueryKind::kSubgraphExtract, 20},
               {QueryKind::kJaccardNeighbors, 14},
               {QueryKind::kWcc, 3},
               {QueryKind::kPageRankTopK, 3}});
}

QueryDesc serve_query(QueryKind kind, vid_t seed) {
  QueryDesc q;
  q.kind = kind;
  q.seed = seed;
  switch (kind) {
    case QueryKind::kBfs:
      q.klass = server::QueryClass::kInteractive;
      break;
    case QueryKind::kSubgraphExtract:
      q.depth = 2;
      break;
    case QueryKind::kJaccardNeighbors:
      q.threshold = 0.1;
      break;
    case QueryKind::kWcc:
    case QueryKind::kPageRankTopK:
      q.klass = server::QueryClass::kBatch;
      break;
  }
  return q;
}

vid_t random_pair_end(core::Xoshiro256& rng, vid_t n, vid_t u) {
  const vid_t v = rng.next_vid(n);
  return v == u ? (v + 1) % n : v;
}

/// `ops` edge ops: deletes of existing base arcs with probability
/// `delete_frac`, otherwise inserts between uniform endpoints.
store::DeltaBatch mixed_batch(core::Xoshiro256& rng, const Inputs& in,
                              std::size_t ops, double delete_frac) {
  const graph::CSRGraph& g = *in.base;
  const vid_t n = g.num_vertices();
  store::DeltaBatch b;
  for (std::size_t i = 0; i < ops; ++i) {
    if (rng.next_double() < delete_frac) {
      const vid_t u = in.active[rng.next_below(in.active.size())];
      const auto nbrs = g.out_neighbors(u);
      b.delete_edge(u, nbrs[rng.next_below(nbrs.size())]);
    } else {
      const vid_t u = rng.next_vid(n);
      b.insert_edge(u, random_pair_end(rng, n, u));
    }
  }
  return b;
}

/// An insert-only edge stream drawn from the same Kronecker distribution
/// as the base graph, so the graph grows without changing character.
/// Batch i is list i % lists, its endpoint ids bit-rotated by
/// i / lists positions: rotating both ids of an RMAT edge the same way
/// yields another draw from the same distribution (the per-level quadrant
/// choices are i.i.d.), so a reused list inserts new edges rather than
/// re-inserting old ones however many cycles the loop runs.
struct InsertStream {
  unsigned scale = 0;
  std::vector<std::vector<std::pair<vid_t, vid_t>>> lists;

  InsertStream(unsigned s, std::size_t num_lists, std::size_t per_list,
               std::uint64_t seed)
      : scale(s), lists(num_lists) {
    const auto edges = graph::rmat_edges(
        {.scale = s,
         .edge_factor = static_cast<unsigned>(
             (num_lists * per_list * 5 / 4 >> s) + 1),
         .seed = seed});
    std::size_t e = 0;
    for (auto& l : lists) {
      while (l.size() < per_list && e < edges.size()) {
        const graph::Edge& x = edges[e++];
        if (x.u != x.v) l.emplace_back(x.u, x.v);
      }
    }
  }

  store::DeltaBatch batch(std::size_t i) const {
    const unsigned r = static_cast<unsigned>(i / lists.size() % scale);
    const vid_t mask = (vid_t{1} << scale) - 1;
    const auto rot = [&](vid_t v) {
      return r == 0 ? v : ((v << r) | (v >> (scale - r))) & mask;
    };
    store::DeltaBatch b;
    for (const auto& [u, v] : lists[i % lists.size()]) b.insert_edge(rot(u), rot(v));
    return b;
  }
};

/// Batches a run's writer can apply at one per `period`.
std::size_t batches_for(const Options& o, std::chrono::milliseconds period) {
  const double run_ms = (o.warmup + o.seconds) * 1000.0;
  return static_cast<std::size_t>(
             std::ceil(run_ms / static_cast<double>(period.count()))) +
         4;
}

/// Bytes a flat CSR of `g` occupies (offsets + targets [+ weights]).
std::size_t flat_adjacency_bytes(const graph::CSRGraph& g) {
  const std::size_t arcs = g.num_arcs();
  return (static_cast<std::size_t>(g.num_vertices()) + 1) * sizeof(eid_t) +
         arcs * sizeof(vid_t) + (g.weighted() ? arcs * sizeof(float) : 0);
}

// ---------------------------------------------------------------------------
// Tracing: harvest each sampled op's trace as soon as it finishes (the
// tracer's ring holds 8192 spans) and reduce it to per-span self times.

double covered_ms(std::vector<std::pair<double, double>> iv, double lo,
                  double hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_a = lo, cur_b = lo;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (a > cur_b) {
      total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  return total + (cur_b - cur_a);
}

class TraceSink {
 public:
  /// Reduce trace `id` (rooted at a bench.* span): each span's self time
  /// and, for a workload op (root `bench.op`, not a probe), the part of the
  /// root that no program span covers.
  void harvest(std::uint64_t id) {
    const std::vector<obs::SpanRecord> spans =
        obs::Tracer::global().spans_of(id);
    std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
    std::vector<std::pair<double, double>> program;
    const obs::SpanRecord* root = nullptr;
    for (const auto& s : spans) {
      const std::pair<double, double> iv{s.start_ms, s.start_ms + s.duration_ms};
      kids[s.parent_id].push_back(iv);
      if (s.name.rfind("bench.", 0) != 0) program.push_back(iv);
      if (s.parent_id == 0) root = &s;
    }
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& s : spans) {
      const auto it = kids.find(s.span_id);
      const double child = it == kids.end()
                               ? 0.0
                               : covered_ms(it->second, s.start_ms,
                                            s.start_ms + s.duration_ms);
      self_ms_[s.name].add(std::max(0.0, s.duration_ms - child));
    }
    if (root != nullptr && root->name == "bench.op") {
      ++roots_;
      root_ms_ += root->duration_ms;
      unattributed_ms_ +=
          root->duration_ms - covered_ms(program, root->start_ms,
                                         root->start_ms + root->duration_ms);
    }
  }

  void print_table() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::printf("span self time (sampled ops, tracer-on slices):\n");
    for (const auto& [name, s] : self_ms_) {
      std::printf("  span %-26s count=%-8zu self_ms_p50=%-10.4f "
                  "self_ms_mean=%.4f\n",
                  name.c_str(), s.size(), s.pct(0.5), s.mean());
    }
  }

  std::uint64_t roots() const {
    std::lock_guard<std::mutex> lk(mu_);
    return roots_;
  }
  double unattributed_frac() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ratio(unattributed_ms_, root_ms_);
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, Samples> self_ms_;
  std::uint64_t roots_ = 0;
  double root_ms_ = 0.0;
  double unattributed_ms_ = 0.0;
};

/// A bench-side root span (`bench.op` for a workload op, `bench.probe`
/// for the traced run's probes) plus one child around the call into the
/// program; the child's context travels into the program (QueryDesc.trace
/// or the ambient context) so the program's spans nest under the root.
class OpTrace {
 public:
  OpTrace(bool on, const char* child, const char* root = "bench.op") {
    if (!on) return;
    root_.emplace(root, obs::TraceContext{});
    child_.emplace(child, root_->context());
    ambient_.emplace(child_->context());
  }
  obs::TraceContext context() const {
    return child_ ? child_->context() : obs::TraceContext{};
  }
  /// Start the next child span (the previous one ends).
  void next(const char* child) {
    if (!root_) return;
    ambient_.reset();
    child_.reset();
    child_.emplace(child, root_->context());
    ambient_.emplace(child_->context());
  }
  /// End the op and reduce its trace into `sink`.
  void finish(TraceSink& sink) {
    if (!root_) return;
    const std::uint64_t id = root_->context().trace_id;
    ambient_.reset();
    child_.reset();
    root_.reset();
    sink.harvest(id);
  }

 private:
  std::optional<obs::ScopedSpan> root_;
  std::optional<obs::ScopedSpan> child_;
  std::optional<obs::AmbientScope> ambient_;
};

/// Seconds of a window spent with the tracer on and off.
struct SliceTimes {
  double on_s = 0.0, off_s = 0.0;
};

/// Drives the measured window from the main thread: calls `sample` every
/// kSamplePeriod and, in a traced run, switches the tracer on and off in
/// kSliceLen slices so one run yields both a traced and an untraced rate.
SliceTimes run_window(Clock::time_point end, bool traced,
                      const std::function<void()>& sample) {
  obs::Tracer& tracer = obs::Tracer::global();
  SliceTimes st;
  bool on = traced;
  tracer.set_active(on);
  auto slice_start = Clock::now();
  auto close_slice = [&] {
    const double s = seconds_since(slice_start);
    (on ? st.on_s : st.off_s) += s;
    slice_start = Clock::now();
  };
  for (auto now = Clock::now(); now < end; now = Clock::now()) {
    std::this_thread::sleep_until(std::min(now + kSamplePeriod, end));
    sample();
    if (traced && Clock::now() - slice_start >= kSliceLen) {
      close_slice();
      on = !on;
      tracer.set_active(on);
    }
  }
  close_slice();
  return st;
}

// ---------------------------------------------------------------------------
// Per-op records and answer checks.

struct OpRecord {
  QueryKind kind = QueryKind::kBfs;
  bool ok = false, hit = false, batched = false, incremental = false;
  double latency_ms = 0.0, wait_ms = 0.0, exec_ms = 0.0, predicted_ms = 0.0;
};

OpRecord record_of(const QueryResult& r, QueryKind kind, double latency_ms) {
  OpRecord rec;
  rec.kind = kind;
  rec.ok = r.ok();
  rec.hit = r.cache_hit;
  rec.batched = r.batched;
  rec.incremental = r.incremental;
  rec.latency_ms = latency_ms;
  rec.wait_ms = r.wait_ms;
  rec.exec_ms = r.exec_ms;
  rec.predicted_ms = r.predicted_ms;
  return rec;
}

/// One served answer to re-derive afterwards from direct kernels on the
/// same store version.
struct Check {
  QueryDesc desc;
  // Store epoch (coordinator epoch on dist_shards; server epoch until the
  // serve workloads map it after the window).
  std::uint64_t epoch = 0;
  std::uint64_t digest = 0;
  std::vector<std::pair<double, vid_t>> topk;  // PageRank answers
};

template <typename T>
std::uint64_t digest_range(std::uint64_t h, const std::vector<T>& v) {
  for (const T& x : v) h = core::hash_combine(h, static_cast<std::uint64_t>(x));
  return h;
}

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Digest of every payload field the served answer carries for its kind.
std::uint64_t answer_digest(QueryKind kind, const QueryResult& r) {
  std::uint64_t h = core::mix64(static_cast<std::uint64_t>(kind) + 1);
  switch (kind) {
    case QueryKind::kBfs:
      return digest_range(core::hash_combine(h, r.reached), r.dist);
    case QueryKind::kSubgraphExtract:
      return digest_range(core::hash_combine(h, r.subgraph_arcs), r.members);
    case QueryKind::kJaccardNeighbors:
      for (const auto& p : r.neighbors) {
        h = core::hash_combine(h, core::edge_key(p.u, p.v));
        h = core::hash_combine(h, bits_of(p.coefficient));
      }
      return h;
    case QueryKind::kWcc:
      h = core::hash_combine(h, r.num_components);
      return core::hash_combine(h, r.largest_component);
    case QueryKind::kPageRankTopK:
      return h;  // checked against the reference ranks with a tolerance
  }
  return h;
}

kernels::PageRankOptions serving_pagerank_options() {
  kernels::PageRankOptions o;  // the scheduler's serving settings
  o.tolerance = 1e-6;
  o.max_iters = 50;
  return o;
}

/// Served PageRank top-k against reference ranks: each served rank is
/// within the solver tolerance of the reference rank of the same vertex,
/// and no served vertex ranks clearly below the reference k-th value.
bool topk_matches(const std::vector<std::pair<double, vid_t>>& served,
                  const std::vector<double>& ref, std::size_t k) {
  constexpr double kTol = 1e-5;
  if (served.size() != std::min(k, ref.size())) return false;
  std::vector<double> sorted = ref;
  std::nth_element(sorted.begin(), sorted.begin() + (served.size() - 1),
                   sorted.end(), std::greater<double>());
  const double kth = sorted[served.size() - 1];
  for (const auto& [rank, v] : served) {
    if (v >= ref.size() || std::abs(rank - ref[v]) > kTol) return false;
    if (ref[v] < kth - kTol) return false;
  }
  return true;
}

/// Re-derive a served answer with direct kernels on `view`.
bool check_served(const store::GraphView& view, const Check& c) {
  const QueryDesc& q = c.desc;
  QueryResult r;
  switch (q.kind) {
    case QueryKind::kBfs: {
      auto b = kernels::bfs(view, q.seed);
      r.dist = std::move(b.dist);
      r.reached = b.reached;
      break;
    }
    case QueryKind::kSubgraphExtract: {
      r.members = kernels::khop_neighborhood(view, {q.seed}, q.depth);
      for (const vid_t u : r.members) {
        view.for_each_out(u, [&](vid_t w, float) {
          r.subgraph_arcs +=
              std::binary_search(r.members.begin(), r.members.end(), w);
        });
      }
      break;
    }
    case QueryKind::kJaccardNeighbors:
      r.neighbors = kernels::jaccard_query(view, q.seed, q.threshold);
      if (r.neighbors.size() > q.k) r.neighbors.resize(q.k);
      break;
    case QueryKind::kWcc: {
      const auto w = kernels::wcc_label_propagation(view);
      r.num_components = w.num_components;
      r.largest_component = w.largest_size;
      break;
    }
    case QueryKind::kPageRankTopK:
      return topk_matches(
          c.topk, kernels::pagerank(view.csr(), serving_pagerank_options()).rank,
          q.k);
  }
  return answer_digest(q.kind, r) == c.digest;
}

Check make_check(const QueryDesc& q, const QueryResult& r, std::uint64_t epoch) {
  Check c;
  c.desc = q;
  c.desc.trace = {};
  c.epoch = epoch;
  c.digest = answer_digest(q.kind, r);
  c.topk = r.topk;
  return c;
}

struct Verdict {
  std::uint64_t checked = 0, wrong = 0;
  std::uint64_t final_digest = 0;
  store::GraphView final_view;  // the replica at the last applied epoch
};

/// Replays the applied batches, in order, on a fresh store (inline
/// compaction, no log) and checks every recorded answer against direct
/// kernels on the replica's view at the answer's epoch. The replica's
/// final digest is the reference for the live store.
Verdict verify_replay(
    const Inputs& in, const std::function<store::DeltaBatch(std::size_t)>& batch_of,
    const std::vector<std::size_t>& applied, std::vector<Check> checks,
    const std::function<bool(const store::GraphView&, const Check&)>& check) {
  std::stable_sort(checks.begin(), checks.end(),
                   [](const Check& a, const Check& b) { return a.epoch < b.epoch; });
  Verdict v;
  store::VersionedGraphStore replica(in.base);
  std::size_t ci = 0;
  for (std::size_t k = 0;; ++k) {
    const store::GraphView view = replica.view();
    for (; ci < checks.size() && checks[ci].epoch == k; ++ci) {
      ++v.checked;
      if (!check(view, checks[ci])) ++v.wrong;
    }
    if (k == applied.size()) break;
    replica.apply(batch_of(applied[k]));
  }
  v.wrong += checks.size() - ci;  // answers claiming an epoch never applied
  v.checked += checks.size() - ci;
  v.final_view = replica.view();
  v.final_digest = store::view_digest(v.final_view);
  return v;
}

/// Runs recover() over an epoch-log directory; true when the recovered
/// store's content equals `live_digest`. `*ms` gets the recovery time.
bool recovers_to(const std::string& dir, std::uint64_t live_digest, double* ms) {
  store::RecoveryOptions ro;
  ro.dir = dir;
  const auto t0 = Clock::now();
  const store::RecoveredStore rec = store::recover(ro);
  *ms = ms_since(t0);
  return rec.report.status().ok() &&
         store::view_digest(rec.store->view()) == live_digest;
}

/// Fresh copy of `v` that shares its storage but not its fold cache, so
/// timing its flatten() measures a full first fold without pre-folding the
/// served view for readers.
store::GraphView unfolded_copy(const store::GraphView& v) {
  if (v.tiered()) {
    return store::GraphView(v.tiers(), v.chain(), v.folded_props(), v.epoch(),
                            v.num_arcs());
  }
  return store::GraphView(v.base_ptr(), v.chain(), v.folded_props(), v.epoch(),
                          v.num_arcs());
}

/// Server publish epoch -> store epoch, so an answer can be re-derived on
/// the store version it was computed on.
class EpochMap {
 public:
  void record(std::uint64_t server_epoch, std::uint64_t store_epoch) {
    std::lock_guard<std::mutex> lk(mu_);
    if (map_.size() <= server_epoch) map_.resize(server_epoch + 1, kUnknown);
    map_[server_epoch] = store_epoch;
  }
  std::uint64_t store_epoch(std::uint64_t server_epoch) const {
    std::lock_guard<std::mutex> lk(mu_);
    return server_epoch < map_.size() ? map_[server_epoch] : kUnknown;
  }
  static constexpr std::uint64_t kUnknown = UINT64_MAX;

 private:
  mutable std::mutex mu_;
  std::vector<std::uint64_t> map_;
};

// ---------------------------------------------------------------------------
// A run.

/// What a run measured.
struct Run {
  Report report;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0, samples = 0;
};

/// Builds the system `kSetupRuns` times, tearing each one down (untimed)
/// before the next, and keeps the last. `*setup_s` gets the median set-up
/// time. The freed heap is handed back to the kernel between set-ups, so
/// each starts as cold as the first and the resident set read after the
/// last is that of one system.
template <typename Setup>
auto timed_setup(const Setup& setup, double* setup_s) {
  decltype(setup()) sys;
  Samples s;
  for (int i = 0; i < kSetupRuns; ++i) {
    sys.reset();
    malloc_trim(0);
    const auto t0 = Clock::now();
    sys = setup();
    s.add(seconds_since(t0));
  }
  *setup_s = s.pct(0.5);
  return sys;
}

/// Client-observed latency summary over ok ops.
struct LatencySummary {
  Samples all, bfs, pagerank, wcc;
  std::uint64_t ok = 0, failed = 0;
};

LatencySummary summarize(const std::vector<OpRecord>& ops) {
  LatencySummary s;
  for (const OpRecord& r : ops) {
    if (!r.ok) {
      ++s.failed;
      continue;
    }
    ++s.ok;
    s.all.add(r.latency_ms);
    if (r.kind == QueryKind::kBfs) s.bfs.add(r.latency_ms);
    if (r.kind == QueryKind::kPageRankTopK) s.pagerank.add(r.latency_ms);
    if (r.kind == QueryKind::kWcc) s.wcc.add(r.latency_ms);
  }
  return s;
}

/// Prints the run's summary line and, untraced, sets its end-to-end
/// metrics: the set-up time and the resident set the built system holds
/// (`setup_rss_mb`, read before the warmup). The timings of the window
/// move with the shared machine's speed by 10-30% from run to run, more
/// than a 10% end-to-end bound tolerates, so they are per-layer metrics
/// (Layers::run_metrics); the summary line shows them. `latency` is per
/// query (per refresh cycle on epoch_refresh).
void end_to_end(Run& out, const Options& o, double setup_s, double setup_rss_mb,
                double window_s, const Samples& latency, const char* what) {
  std::printf("run: setup %.3f s (median of %d), rss %.1f MiB; %zu %s in "
              "%.2f s, %.2f/s, p50 %.3f ms, p90 %.3f ms\n",
              setup_s, kSetupRuns, setup_rss_mb, latency.size(), what, window_s,
              static_cast<double>(latency.size()) / window_s, latency.pct(0.5),
              latency.pct(kTailQ));
  out.samples = latency.size();
  if (o.trace) return;
  out.report.set("setup_s", setup_s, "s");
  out.report.set("rss_mb", setup_rss_mb, "MiB");
}

/// Server-layer metrics over the executed (not cache-served) queries.
struct ServerLayer {
  Samples wait, exec, overhead, model_err;
  std::uint64_t hits = 0, ok = 0, bfs_exec = 0, bfs_batched = 0,
                global_exec = 0, incremental = 0;
};

ServerLayer server_layer(const std::vector<OpRecord>& ops) {
  ServerLayer s;
  for (const OpRecord& r : ops) {
    if (!r.ok) continue;
    ++s.ok;
    if (r.hit) {
      ++s.hits;
      continue;
    }
    s.wait.add(r.wait_ms);
    s.exec.add(r.exec_ms);
    s.overhead.add(std::max(0.0, r.latency_ms - r.wait_ms - r.exec_ms));
    if (r.exec_ms > 0.0) {
      s.model_err.add(std::abs(r.predicted_ms - r.exec_ms) / r.exec_ms);
    }
    if (r.kind == QueryKind::kBfs) {
      ++s.bfs_exec;
      s.bfs_batched += r.batched;
    }
    if (r.kind == QueryKind::kPageRankTopK || r.kind == QueryKind::kWcc) {
      ++s.global_exec;
      s.incremental += r.incremental;
    }
  }
  return s;
}

/// Per-layer metrics every workload prints (0 where the layer is bypassed);
/// each workload fills in the ones its path exercises.
struct Layers {
  double run_rate = 0, run_p50 = 0, run_p90 = 0, run_tail = 0, run_samples = 0,
         run_bfs = 0, run_pagerank = 0, run_wcc = 0, run_update = 0,
         run_failed_frac = 0, peak_rss = 0;
  double queue_wait = 0, exec = 0, overhead = 0, cache_hit_ratio = 0,
         carried_per_epoch = 0, fused_bfs_ratio = 0, incremental_ratio = 0,
         incremental_fallbacks = 0, model_err = 0, publish = 0;
  double apply = 0, flatten = 0, chain_depth = 0, read_amp = 0,
         compactions = 0, compact = 0;
  double log_append = 0, log_bytes_per_epoch = 0, log_checkpoint = 0,
         log_recover = 0;
  double tier_faults_per_query = 0, tier_hit_ratio = 0, tier_seam_ratio = 0,
         tier_evictions_per_query = 0, tier_peak_resident_mb = 0;
  double engine_edges = 0, engine_steps = 0, engine_pull_frac = 0,
         engine_step_ms = 0;
  double k_bfs = 0, k_pagerank = 0, k_pagerank_iters = 0, k_wcc = 0;
  double dist_rounds = 0, dist_ms_per_round = 0, dist_overhead = 0,
         dist_cpu_frac = 0, dist_wire_per_op = 0, dist_apply = 0,
         dist_retries = 0;
  double trace_overhead = 0, trace_unattributed = 0, trace_ops = 0;

  /// `latency` is the per-op (per-cycle on epoch_refresh) client latency
  /// over a window of `window_s`; `s` supplies the per-kind latencies.
  void run_metrics(const Samples& latency, double window_s,
                   const LatencySummary& s, const Samples& update,
                   std::uint64_t attempted, std::uint64_t failed) {
    run_rate = static_cast<double>(latency.size()) / window_s;
    run_p50 = latency.pct(0.5);
    run_p90 = latency.pct(kTailQ);
    run_tail = latency.size() >= kRunTailMinSamples ? latency.pct(kRunTailQ) : 0.0;
    run_samples = static_cast<double>(latency.size());
    run_bfs = s.bfs.pct(0.5);
    run_pagerank = s.pagerank.pct(0.5);
    run_wcc = s.wcc.pct(0.5);
    run_update = update.pct(0.5);
    run_failed_frac = ratio(static_cast<double>(failed),
                               static_cast<double>(attempted));
  }

  void server(const ServerLayer& s) {
    queue_wait = s.wait.pct(0.5);
    exec = s.exec.pct(0.5);
    overhead = s.overhead.pct(0.5);
    model_err = s.model_err.pct(0.5);
    cache_hit_ratio = ratio(static_cast<double>(s.hits), static_cast<double>(s.ok));
    fused_bfs_ratio = ratio(static_cast<double>(s.bfs_batched),
                            static_cast<double>(s.bfs_exec));
    incremental_ratio = ratio(static_cast<double>(s.incremental),
                              static_cast<double>(s.global_exec));
  }

  void trace(const TraceSink& sink, const SliceTimes& st,
             std::uint64_t ops_on, std::uint64_t ops_off) {
    const double on_rate = ratio(static_cast<double>(ops_on), st.on_s);
    const double off_rate = ratio(static_cast<double>(ops_off), st.off_s);
    trace_overhead = off_rate > 0.0 ? 1.0 - on_rate / off_rate : 0.0;
    trace_unattributed = sink.unattributed_frac();
    trace_ops = static_cast<double>(sink.roots());
  }

  void emit(Report& r) const {
    r.set("run.ops_per_s", run_rate, "1/s");
    r.set("run.latency_ms_p50", run_p50, "ms");
    r.set("run.latency_ms_p90", run_p90, "ms");
    r.set("run.latency_ms_p98", run_tail, "ms");
    r.set("run.samples", run_samples, "count");
    r.set("run.bfs_ms_p50", run_bfs, "ms");
    r.set("run.pagerank_ms_p50", run_pagerank, "ms");
    r.set("run.wcc_ms_p50", run_wcc, "ms");
    r.set("run.update_ms_p50", run_update, "ms");
    r.set("run.failed_frac", run_failed_frac, "ratio");
    r.set("run.peak_rss_mb", peak_rss, "MiB");
    r.set("server.queue_wait_ms_p50", queue_wait, "ms");
    r.set("server.exec_ms_p50", exec, "ms");
    r.set("server.overhead_ms_p50", overhead, "ms");
    r.set("server.cache_hit_ratio", cache_hit_ratio, "ratio");
    r.set("server.cache_carried_per_epoch", carried_per_epoch, "count");
    r.set("server.fused_bfs_ratio", fused_bfs_ratio, "ratio");
    r.set("server.incremental_ratio", incremental_ratio, "ratio");
    r.set("server.incremental_fallbacks", incremental_fallbacks, "count");
    r.set("server.cost_model_err_p50", model_err, "ratio");
    r.set("server.publish_ms_p50", publish, "ms");
    r.set("store.apply_ms_p50", apply, "ms");
    r.set("store.flatten_ms_p50", flatten, "ms");
    r.set("store.chain_depth_mean", chain_depth, "count");
    r.set("store.read_amp_mean", read_amp, "ratio");
    r.set("store.compactions", compactions, "count");
    r.set("store.compact_ms_p50", compact, "ms");
    r.set("store.log.append_ms_p50", log_append, "ms");
    r.set("store.log.bytes_per_epoch", log_bytes_per_epoch, "B");
    r.set("store.log.checkpoint_ms_p50", log_checkpoint, "ms");
    r.set("store.log.recover_ms", log_recover, "ms");
    r.set("store.tier.faults_per_query", tier_faults_per_query, "count");
    r.set("store.tier.hit_ratio", tier_hit_ratio, "ratio");
    r.set("store.tier.seam_ratio", tier_seam_ratio, "ratio");
    r.set("store.tier.evictions_per_query", tier_evictions_per_query, "count");
    r.set("store.tier.peak_resident_mb", tier_peak_resident_mb, "MiB");
    r.set("engine.edges_per_bfs", engine_edges, "count");
    r.set("engine.steps_per_bfs", engine_steps, "count");
    r.set("engine.pull_step_frac", engine_pull_frac, "ratio");
    r.set("engine.step_ms_p50", engine_step_ms, "ms");
    r.set("kernels.bfs_direct_ms_p50", k_bfs, "ms");
    r.set("kernels.pagerank_direct_ms_p50", k_pagerank, "ms");
    r.set("kernels.pagerank_iters", k_pagerank_iters, "count");
    r.set("kernels.wcc_direct_ms_p50", k_wcc, "ms");
    r.set("dist.rounds_per_bfs", dist_rounds, "count");
    r.set("dist.ms_per_round_p50", dist_ms_per_round, "ms");
    r.set("dist.overhead_ratio", dist_overhead, "ratio");
    r.set("dist.shard_cpu_frac", dist_cpu_frac, "ratio");
    r.set("dist.wire_bytes_per_op", dist_wire_per_op, "B");
    r.set("dist.apply_ms_p50", dist_apply, "ms");
    r.set("dist.op_retries", dist_retries, "count");
    r.set("trace.overhead_frac", trace_overhead, "ratio");
    r.set("trace.unattributed_frac", trace_unattributed, "ratio");
    r.set("trace.ops_traced", trace_ops, "count");
  }
};

/// Direct kernel calls without the server, on the final served view: the
/// engine's per-step counters from BFS, and batch PageRank/WCC. The
/// PageRank timing excludes the view fold (done once, untimed, first).
void kernel_probes(const store::GraphView& view, const std::vector<vid_t>& seeds,
                   Layers& l, TraceSink& sink) {
  Samples bfs_ms, step_ms, pr_ms, wcc_ms;
  double edges = 0, steps = 0, pull = 0, iters = 0;
  // Times fn() inside a probe trace.
  auto probe = [&](Samples& ms, const auto& fn) {
    OpTrace t(true, "bench.kernel_probe", "bench.probe");
    const auto t0 = Clock::now();
    fn();
    ms.add(ms_since(t0));
    t.finish(sink);
  };
  for (const vid_t s : seeds) {
    kernels::BfsResult r;
    probe(bfs_ms, [&] { r = kernels::bfs(view, s); });
    edges += static_cast<double>(r.edges_traversed);
    steps += static_cast<double>(r.steps.size());
    for (const auto& st : r.steps) {
      pull += st.direction == engine::Direction::kPull;
      step_ms.add(st.seconds * 1e3);
    }
  }
  view.csr();
  for (int i = 0; i < kProbeGlobal; ++i) {
    probe(pr_ms, [&] {
      iters += kernels::pagerank(view.csr(), serving_pagerank_options()).iterations;
    });
    probe(wcc_ms, [&] { kernels::wcc_label_propagation(view); });
  }
  const double n = static_cast<double>(seeds.size());
  l.engine_edges = edges / n;
  l.engine_steps = steps / n;
  l.engine_pull_frac = ratio(pull, steps);
  l.engine_step_ms = step_ms.pct(0.5);
  l.k_bfs = bfs_ms.pct(0.5);
  l.k_pagerank = pr_ms.pct(0.5);
  l.k_pagerank_iters = iters / kProbeGlobal;
  l.k_wcc = wcc_ms.pct(0.5);
}

/// Per-thread record of one closed-loop generator.
struct ClientLog {
  std::vector<OpRecord> ops;
  std::vector<Check> checks;
  std::uint64_t done[2] = {0, 0};  // measured ops begun with tracer off / on
  std::uint64_t issued = 0;        // cadence counter for tracing and checks
  std::size_t next = 0;            // cursor into the pre-generated inputs
  std::uint64_t check_every = kCheckEvery;
  std::size_t check_cap = kChecksPerThread;

  bool take_trace(bool record) const {
    return record && obs::Tracer::global().active() && issued % kTraceEvery == 0;
  }
  bool take_check(bool record) const {
    return record && issued % check_every == 0 && checks.size() < check_cap;
  }
};

/// Writer-side samples (update path).
struct WriterLog {
  Samples update_ms, apply_ms, publish_ms, append_ms, checkpoint_ms, flatten_ms;
  std::vector<std::size_t> applied;  // batch indices, in apply order
  std::uint64_t attempted = 0, failed = 0;
  std::size_t next = 0;
};

thread_local double tl_publish_ms = 0.0;  // server publishes inside one apply

/// Applies batch number `index` and returns the apply's wall time in ms.
/// Records the store's share of it (minus publishes the view listener ran
/// inside the call) and the log append / checkpoint the apply produced.
double timed_apply(store::VersionedGraphStore& st, store::EpochLog* log,
                   const store::DeltaBatch& batch, std::size_t index,
                   WriterLog& w, bool record) {
  const std::uint64_t ckpts = log ? log->stats().checkpoints : 0;
  tl_publish_ms = 0.0;
  const auto t0 = Clock::now();
  bool ok = true;
  try {
    st.apply(batch);
    w.applied.push_back(index);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apply failed: %s\n", e.what());
    ok = false;
  }
  const double ms = ms_since(t0);
  if (!record) return ms;
  ++w.attempted;
  w.failed += !ok;
  w.apply_ms.add(ms - tl_publish_ms);
  if (log != nullptr) {
    const store::EpochLogStats ls = log->stats();
    w.append_ms.add(ls.last_append_us / 1e3);
    if (ls.checkpoints != ckpts) w.checkpoint_ms.add(ls.last_checkpoint_ms);
  }
  return ms;
}

/// Times the first fold of `v` on a copy that does not share its cache.
void flatten_probe(const store::GraphView& v, Samples& out, TraceSink& sink) {
  if (v.flat()) return;
  OpTrace t(true, "bench.flatten", "bench.probe");
  const store::GraphView copy = unfolded_copy(v);
  const auto t0 = Clock::now();
  copy.flatten();
  out.add(ms_since(t0));
  t.finish(sink);
}

/// The update-path layer metrics every writer fills the same way.
void writer_layers(Layers& l, const WriterLog& w) {
  l.publish = w.publish_ms.pct(0.5);
  l.apply = w.apply_ms.pct(0.5);
  l.flatten = w.flatten_ms.pct(0.5);
  l.log_append = w.append_ms.pct(0.5);
  l.log_checkpoint = w.checkpoint_ms.pct(0.5);
}

void print_header(const Options& o, const Inputs& in) {
  std::printf("system_bench workload=%s seed=%llu scale=%u seconds=%.1f "
              "warmup=%.1f trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.scale, o.seconds, o.warmup, o.trace ? 1 : 0);
  std::printf("graph: kron%u n=%u arcs=%llu active=%zu\n", o.scale,
              in.base->num_vertices(),
              static_cast<unsigned long long>(in.base->num_arcs()),
              in.active.size());
}

void print_verdict(const Verdict& v, std::uint64_t live_digest,
                   const char* recovery) {
  std::printf("verify: %llu answers re-derived, %llu wrong; live digest %s "
              "replica; recovery %s\n",
              static_cast<unsigned long long>(v.checked),
              static_cast<unsigned long long>(v.wrong),
              v.final_digest == live_digest ? "==" : "!=", recovery);
}

// ---------------------------------------------------------------------------
// serve_mixed / serve_tiered: closed-loop clients over AnalyticsServer.

struct ServeSystem {
  ServeSystem() = default;
  ServeSystem(const ServeSystem&) = delete;
  ServeSystem& operator=(const ServeSystem&) = delete;
  ~ServeSystem() {
    if (store) {
      store->stop_compactor();
      store->set_view_listener({});
    }
  }

  /// Every publish (writer applies, compactor folds) goes through here.
  void publish(store::GraphView v) {
    std::optional<obs::ScopedSpan> span;
    if (obs::ambient().valid()) span.emplace("bench.publish", obs::ambient());
    const std::uint64_t store_epoch = v.epoch();
    const auto t0 = Clock::now();
    const std::uint64_t e = server->publish(std::move(v));
    const double ms = ms_since(t0);
    tl_publish_ms += ms;
    epochs.record(e, store_epoch);
    std::lock_guard<std::mutex> lk(publish_mu);
    publish_ms.add(ms);
  }

  Inputs in;
  std::vector<std::vector<QueryDesc>> queries;  // per client
  std::vector<store::DeltaBatch> batches;       // serve_mixed writer
  std::string log_dir;
  EpochMap epochs;
  std::mutex publish_mu;
  Samples publish_ms;
  // Destroyed in reverse: store (joins the compactor) before the log its
  // hooks call, and both before the server its listener publishes to.
  std::unique_ptr<server::AnalyticsServer> server;
  std::unique_ptr<store::EpochLog> log;
  std::unique_ptr<store::VersionedGraphStore> store;
};

std::unique_ptr<ServeSystem> setup_serve(const Options& o, bool tiered) {
  auto sys = std::make_unique<ServeSystem>();
  sys->in = make_inputs(o.scale, o.seed);
  const Inputs& in = sys->in;

  // Seeds: Zipf(1.0) over a hot set (repeats, so the cache has work) on
  // serve_mixed; uniform over every vertex with an arc on serve_tiered.
  core::Xoshiro256 rng(stream_seed(o.seed, 2));
  std::vector<vid_t> hot = in.active;
  for (std::size_t i = hot.size(); i > 1; --i) {
    std::swap(hot[i - 1], hot[rng.next_below(i)]);
  }
  hot.resize(std::min(hot.size(), kHotVertices));
  const ZipfSampler zipf(hot.size(), 1.0);
  sys->queries.resize(kServeClients);
  for (int c = 0; c < kServeClients; ++c) {
    core::Xoshiro256 rc(stream_seed(o.seed, 10 + c));
    Deck deck = serve_deck();
    auto& qs = sys->queries[c];
    qs.reserve(kQueriesPerClient);
    for (std::size_t i = 0; i < kQueriesPerClient; ++i) {
      const QueryKind kind = deck.next(rc);
      const vid_t s = tiered ? in.active[rc.next_below(in.active.size())]
                             : hot[zipf.next(rc)];
      qs.push_back(serve_query(kind, s));
    }
  }

  store::CompactionPolicy policy;
  if (tiered) {
    policy.tiered = true;
    policy.tier.budget_bytes = flat_adjacency_bytes(*in.base) / 2;
  } else {
    core::Xoshiro256 rb(stream_seed(o.seed, 3));
    for (std::size_t i = 0; i < batches_for(o, kMixedWritePeriod); ++i) {
      sys->batches.push_back(mixed_batch(rb, in, kMixedBatchOps, kMixedDeleteFrac));
    }
  }
  server::SchedulerOptions so;
  so.workers = kServeWorkers;
  sys->server = std::make_unique<server::AnalyticsServer>(so);
  sys->store = std::make_unique<store::VersionedGraphStore>(in.base, policy);
  if (!tiered) {
    sys->log_dir = o.tmp + "/serve_log";
    fs::remove_all(sys->log_dir);
    sys->log = std::make_unique<store::EpochLog>(store::EpochLogOptions{
        .dir = sys->log_dir, .checkpoint_every = 0, .sync_each_append = true});
    sys->log->attach(*sys->store);
    sys->store->start_compactor();
  }
  ServeSystem* s = sys.get();
  sys->store->set_view_listener([s](store::GraphView v) { s->publish(std::move(v)); });
  sys->publish(sys->store->view());
  return sys;
}

void serve_client(ServeSystem& sys, int c, Clock::time_point end,
                  ClientLog& log, bool record, TraceSink& sink) {
  const auto& qs = sys.queries[c];
  auto& snaps = sys.server->snapshots();
  while (Clock::now() < end) {
    QueryDesc q = qs[log.next++ % qs.size()];
    const bool traced = record && obs::Tracer::global().active();
    OpTrace t(log.take_trace(record), "bench.submit");
    const bool check = log.take_check(record);
    ++log.issued;
    q.trace = t.context();
    const std::uint64_t before = snaps.current_epoch();
    const auto t0 = Clock::now();
    const QueryResult r = sys.server->submit(q).get();
    const double ms = ms_since(t0);
    const std::uint64_t after = snaps.current_epoch();
    t.finish(sink);
    if (!record) continue;
    ++log.done[traced];
    log.ops.push_back(record_of(r, q.kind, ms));
    if (check && r.ok()) {
      // A cache hit is checked at the epoch it was served at when no
      // publish raced the call; anything else at the epoch it ran on. The
      // server epoch is mapped to its store epoch after the window, when
      // every publish has been recorded.
      log.checks.push_back(make_check(
          q, r, r.cache_hit && before == after ? before : r.epoch));
    }
  }
}

void serve_writer(ServeSystem& sys, Clock::time_point end, WriterLog& w,
                  bool record, bool traced_run, TraceSink& sink) {
  auto due = Clock::now();
  while (Clock::now() < end) {
    OpTrace t(record && obs::Tracer::global().active(), "bench.apply");
    const std::size_t bi = w.next++ % sys.batches.size();
    const double ms =
        timed_apply(*sys.store, sys.log.get(), sys.batches[bi], bi, w, record);
    t.finish(sink);
    if (record) {
      w.update_ms.add(ms);  // durable apply plus the publish it triggers
      if (traced_run && bi % kFlattenProbeEvery == 0) {
        flatten_probe(sys.store->view(), w.flatten_ms, sink);
      }
    }
    due += kMixedWritePeriod;
    if (due >= end) break;
    std::this_thread::sleep_until(due);
  }
}

Run run_serve(const Options& o, bool tiered) {
  Run out;
  double setup_s = 0.0;
  const std::unique_ptr<ServeSystem> sys =
      timed_setup([&] { return setup_serve(o, tiered); }, &setup_s);
  const double setup_rss = resident_mib(0);
  print_header(o, sys->in);
  TraceSink sink;
  std::vector<ClientLog> logs(kServeClients);
  WriterLog wlog;
  auto phase = [&](double seconds, bool record, const std::function<void()>& sample) {
    const Clock::time_point end = after_seconds(seconds);
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c) {
      threads.emplace_back([&, c] { serve_client(*sys, c, end, logs[c], record, sink); });
    }
    if (!tiered) {
      threads.emplace_back([&] { serve_writer(*sys, end, wlog, record, o.trace, sink); });
    }
    SliceTimes st;
    if (record) st = run_window(end, o.trace, sample);
    for (auto& t : threads) t.join();
    return st;
  };
  phase(o.warmup, false, {});
  sys->server->drain();

  // Counters are differenced over the measured window.
  const server::SchedulerStats sched0 = sys->server->scheduler().stats();
  const server::CacheStats cache0 = sys->server->scheduler().cache().stats();
  const std::uint64_t published0 = sys->server->snapshots().stats().published;
  const store::StoreStats store0 = sys->store->stats();
  const store::EpochLogStats log0 = sys->log ? sys->log->stats() : store::EpochLogStats{};
  const auto tiers = sys->store->view().tiers();
  const store::TierStats tier0 = tiers ? tiers->stats() : store::TierStats{};
  {
    std::lock_guard<std::mutex> lk(sys->publish_mu);
    sys->publish_ms = Samples{};
  }
  Samples chain_depth, read_amp, compact_ms;
  std::uint64_t compactions_seen = store0.compactions;
  auto sample = [&] {
    {
      const server::SnapshotRef snap = sys->server->snapshots().acquire();
      chain_depth.add(static_cast<double>(snap.view().chain_depth()));
      read_amp.add(snap.view().read_amplification());
    }
    const store::StoreStats ss = sys->store->stats();
    if (ss.compactions != compactions_seen) {
      compact_ms.add(ss.last_compact_ms);
      compactions_seen = ss.compactions;
    }
  };
  const auto w0 = Clock::now();
  const SliceTimes slices = phase(o.seconds, true, sample);
  const double window_s = seconds_since(w0);
  sys->server->drain();
  obs::Tracer::global().set_active(false);
  const double peak_rss = peak_resident_mib(0);

  const server::SchedulerStats sched1 = sys->server->scheduler().stats();
  const server::CacheStats cache1 = sys->server->scheduler().cache().stats();
  const std::uint64_t published1 = sys->server->snapshots().stats().published;
  const store::StoreStats store1 = sys->store->stats();
  const store::TierStats tier1 = tiers ? tiers->stats() : store::TierStats{};
  std::vector<OpRecord> ops;
  std::vector<Check> checks;
  std::uint64_t done_on = 0, done_off = 0;  // queries, for the tracing overhead
  for (const ClientLog& l : logs) {
    ops.insert(ops.end(), l.ops.begin(), l.ops.end());
    checks.insert(checks.end(), l.checks.begin(), l.checks.end());
    done_off += l.done[0];
    done_on += l.done[1];
  }
  const LatencySummary lat = summarize(ops);

  // Verification, outside the clock.
  sys->store->stop_compactor();
  for (Check& c : checks) c.epoch = sys->epochs.store_epoch(c.epoch);
  const std::uint64_t live_digest = store::view_digest(sys->store->view());
  Layers layers;
  const bool recovered_ok =
      !sys->log || recovers_to(sys->log_dir, live_digest, &layers.log_recover);
  const Verdict verdict = verify_replay(
      sys->in, [&](std::size_t i) { return sys->batches[i]; }, wlog.applied,
      checks, check_served);
  print_verdict(verdict, live_digest,
                !sys->log ? "n/a" : recovered_ok ? "matches" : "MISMATCH");
  out.correct = verdict.wrong == 0 && verdict.checked > 0 && recovered_ok &&
                verdict.final_digest == live_digest;
  out.attempted = ops.size() + wlog.attempted;
  out.failed = lat.failed + wlog.failed + verdict.wrong;
  end_to_end(out, o, setup_s, setup_rss, window_s, lat.all, "queries");
  if (!o.trace) return out;

  layers.run_metrics(lat.all, window_s, lat, wlog.update_ms, out.attempted,
                     out.failed);
  layers.peak_rss = peak_rss;
  layers.server(server_layer(ops));
  layers.carried_per_epoch =
      ratio(static_cast<double>(cache1.carried - cache0.carried),
            static_cast<double>(published1 - published0));
  layers.incremental_fallbacks = static_cast<double>(
      sched1.incremental_fallbacks - sched0.incremental_fallbacks);
  {
    std::lock_guard<std::mutex> lk(sys->publish_mu);
    wlog.publish_ms = sys->publish_ms;
  }
  writer_layers(layers, wlog);
  layers.chain_depth = chain_depth.mean();
  layers.read_amp = read_amp.mean();
  layers.compactions = static_cast<double>(store1.compactions - store0.compactions);
  layers.compact = compact_ms.pct(0.5);
  if (sys->log) {
    const store::EpochLogStats log1 = sys->log->stats();
    layers.log_bytes_per_epoch =
        ratio(static_cast<double>(log1.bytes_appended - log0.bytes_appended),
              static_cast<double>(log1.appends - log0.appends));
  }
  if (tiers) {
    const double queries = static_cast<double>(lat.ok);
    const double accesses = static_cast<double>(tier1.accesses - tier0.accesses);
    const double faults = static_cast<double>(tier1.faults - tier0.faults);
    layers.tier_faults_per_query = ratio(faults, queries);
    layers.tier_hit_ratio = accesses > 0 ? 1.0 - faults / accesses : 0.0;
    layers.tier_evictions_per_query =
        ratio(static_cast<double>(tier1.evictions - tier0.evictions), queries);
    layers.tier_peak_resident_mb =
        static_cast<double>(tier1.peak_resident_bytes) / (1024.0 * 1024.0);
  }
  layers.trace(sink, slices, done_on, done_off);

  // Probes after the window, on the final served view.
  obs::Tracer::global().set_active(true);
  const store::GraphView view = sys->store->view();
  if (tiers) {
    // Seam: served BFS execution over the tiers against the flat kernel
    // from the same root.
    const store::GraphView flat = store::GraphView::of(sys->in.base);
    Samples served, direct;
    for (const vid_t s : sys->in.probe_seeds) {
      QueryDesc q;
      q.seed = s;
      q.use_cache = false;
      served.add(sys->server->execute_now(q).exec_ms);
      const auto t0 = Clock::now();
      kernels::bfs(flat, s);
      direct.add(ms_since(t0));
    }
    layers.tier_seam_ratio = ratio(served.pct(0.5), direct.pct(0.5));
    Samples fold;
    for (int i = 0; i < kProbeGlobal; ++i) flatten_probe(view, fold, sink);
    layers.flatten = fold.pct(0.5);
  }
  kernel_probes(view, sys->in.probe_seeds, layers, sink);
  obs::Tracer::global().set_active(false);
  layers.emit(out.report);
  sink.print_table();
  return out;
}

// ---------------------------------------------------------------------------
// epoch_refresh: one thread loops update -> publish -> analytic refresh.

struct RefreshSystem {
  RefreshSystem() = default;
  RefreshSystem(const RefreshSystem&) = delete;
  RefreshSystem& operator=(const RefreshSystem&) = delete;

  Inputs in;
  std::unique_ptr<InsertStream> inserts;
  std::string log_dir;
  // Destroyed in reverse: the store before the log its hooks call.
  std::unique_ptr<server::AnalyticsServer> server;
  std::unique_ptr<store::EpochLog> log;
  std::unique_ptr<store::VersionedGraphStore> store;
};

std::unique_ptr<RefreshSystem> setup_refresh(const Options& o) {
  auto sys = std::make_unique<RefreshSystem>();
  sys->in = make_inputs(o.scale, o.seed);
  const std::size_t ops = std::max<std::size_t>(
      1, static_cast<std::size_t>(kRefreshChurn *
                                  static_cast<double>(sys->in.base->num_edges())));
  sys->inserts = std::make_unique<InsertStream>(o.scale, kRefreshInsertLists,
                                                ops, stream_seed(o.seed, 3));
  server::SchedulerOptions so;
  so.workers = 1;  // execute_now runs on the calling thread
  sys->server = std::make_unique<server::AnalyticsServer>(so);
  sys->store = std::make_unique<store::VersionedGraphStore>(sys->in.base);
  sys->log_dir = o.tmp + "/refresh_log";
  fs::remove_all(sys->log_dir);
  sys->log = std::make_unique<store::EpochLog>(
      store::EpochLogOptions{.dir = sys->log_dir,
                             .checkpoint_every = kRefreshCheckpointEvery,
                             .sync_each_append = true});
  sys->log->attach(*sys->store);
  sys->server->publish(sys->store->view());
  return sys;
}

Run run_refresh(const Options& o) {
  Run out;
  double setup_s = 0.0;
  const std::unique_ptr<RefreshSystem> sys =
      timed_setup([&] { return setup_refresh(o); }, &setup_s);
  const double setup_rss = resident_mib(0);
  print_header(o, sys->in);
  TraceSink sink;
  ClientLog log;  // one record per refresh query; the cadence counts cycles
  log.check_every = kRefreshCheckEvery;
  log.check_cap = kRefreshChecks;
  WriterLog wlog;
  Samples cycles;
  QueryDesc refresh[2];
  refresh[0].kind = QueryKind::kPageRankTopK;
  refresh[1].kind = QueryKind::kWcc;
  for (QueryDesc& q : refresh) q.klass = server::QueryClass::kBatch;

  auto loop = [&](Clock::time_point end, bool record) {
    while (Clock::now() < end) {
      const bool traced = record && obs::Tracer::global().active();
      const std::size_t bi = wlog.next++;
      const store::DeltaBatch batch = sys->inserts->batch(bi);
      OpTrace t(log.take_trace(record), "bench.apply");
      const bool check = log.take_check(record);
      ++log.issued;
      const auto t0 = Clock::now();
      const double apply_ms =
          timed_apply(*sys->store, sys->log.get(), batch, bi, wlog, record);
      t.next("bench.publish");
      const store::GraphView view = sys->store->view();
      const auto t1 = Clock::now();
      sys->server->publish(view);
      const double publish_ms = ms_since(t1);
      QueryResult r[2];
      double q_ms[2];
      for (int i = 0; i < 2; ++i) {
        t.next("bench.submit");
        QueryDesc q = refresh[i];
        q.trace = t.context();
        const auto tq = Clock::now();
        r[i] = sys->server->execute_now(q);
        q_ms[i] = ms_since(tq);
      }
      const double cycle = ms_since(t0);
      t.finish(sink);
      if (!record) continue;
      ++log.done[traced];
      cycles.add(cycle);
      wlog.publish_ms.add(publish_ms);
      wlog.update_ms.add(apply_ms + publish_ms);
      for (int i = 0; i < 2; ++i) {
        log.ops.push_back(record_of(r[i], refresh[i].kind, q_ms[i]));
        if (check && r[i].ok()) {
          log.checks.push_back(make_check(refresh[i], r[i], view.epoch()));
        }
      }
      if (o.trace && bi % kFlattenProbeEvery == 0) {
        flatten_probe(view, wlog.flatten_ms, sink);
      }
    }
  };
  loop(after_seconds(o.warmup), false);

  const server::SchedulerStats sched0 = sys->server->scheduler().stats();
  const store::StoreStats store0 = sys->store->stats();
  const store::EpochLogStats log0 = sys->log->stats();
  Samples chain_depth, read_amp, compact_ms;
  std::uint64_t compactions_seen = store0.compactions;
  const Clock::time_point end = after_seconds(o.seconds);
  const auto w0 = Clock::now();
  std::thread loop_thread([&] { loop(end, true); });
  // The sampler reads the store from outside the refresh thread.
  const SliceTimes slices = run_window(end, o.trace, [&] {
    const store::GraphView v = sys->store->view();
    chain_depth.add(static_cast<double>(v.chain_depth()));
    read_amp.add(v.read_amplification());
    const store::StoreStats ss = sys->store->stats();
    if (ss.compactions != compactions_seen) {
      compact_ms.add(ss.last_compact_ms);
      compactions_seen = ss.compactions;
    }
  });
  loop_thread.join();
  const double window_s = seconds_since(w0);
  obs::Tracer::global().set_active(false);
  const double peak_rss = peak_resident_mib(0);
  const server::SchedulerStats sched1 = sys->server->scheduler().stats();
  const store::StoreStats store1 = sys->store->stats();
  const store::EpochLogStats log1 = sys->log->stats();
  const LatencySummary kinds = summarize(log.ops);
  std::printf("%llu of %zu refresh queries served incrementally\n",
              static_cast<unsigned long long>(sched1.incremental_served -
                                              sched0.incremental_served),
              log.ops.size());

  Layers layers;
  const std::uint64_t live_digest = store::view_digest(sys->store->view());
  const bool recovered_ok =
      recovers_to(sys->log_dir, live_digest, &layers.log_recover);
  const Verdict verdict = verify_replay(
      sys->in, [&](std::size_t i) { return sys->inserts->batch(i); },
      wlog.applied, log.checks, check_served);
  print_verdict(verdict, live_digest, recovered_ok ? "matches" : "MISMATCH");
  out.correct = verdict.wrong == 0 && verdict.checked > 0 && recovered_ok &&
                verdict.final_digest == live_digest;
  out.attempted = cycles.size();
  out.failed = kinds.failed + wlog.failed + verdict.wrong;
  end_to_end(out, o, setup_s, setup_rss, window_s, cycles, "cycles");
  if (!o.trace) return out;

  layers.run_metrics(cycles, window_s, kinds, wlog.update_ms, out.attempted,
                     out.failed);
  layers.peak_rss = peak_rss;
  layers.server(server_layer(log.ops));
  layers.incremental_fallbacks = static_cast<double>(
      sched1.incremental_fallbacks - sched0.incremental_fallbacks);
  writer_layers(layers, wlog);
  layers.chain_depth = chain_depth.mean();
  layers.read_amp = read_amp.mean();
  layers.compactions = static_cast<double>(store1.compactions - store0.compactions);
  layers.compact = compact_ms.pct(0.5);
  layers.log_bytes_per_epoch =
      ratio(static_cast<double>(log1.bytes_appended - log0.bytes_appended),
            static_cast<double>(log1.appends - log0.appends));
  layers.trace(sink, slices, log.done[1], log.done[0]);
  obs::Tracer::global().set_active(true);
  kernel_probes(sys->store->view(), sys->in.probe_seeds, layers, sink);
  obs::Tracer::global().set_active(false);
  layers.emit(out.report);
  sink.print_table();
  return out;
}

// ---------------------------------------------------------------------------
// dist_shards: one thread drives a Coordinator over two shard processes.

struct DistOp {
  QueryKind kind = QueryKind::kBfs;
  vid_t seed = 0;
};

struct DistSystem {
  DistSystem() = default;
  DistSystem(const DistSystem&) = delete;
  DistSystem& operator=(const DistSystem&) = delete;

  Inputs in;
  std::vector<DistOp> ops;
  std::vector<store::DeltaBatch> batches;
  std::unique_ptr<dist::Coordinator> coord;  // stops and reaps the shards
};

std::unique_ptr<DistSystem> setup_dist(const Options& o) {
  auto sys = std::make_unique<DistSystem>();
  sys->in = make_inputs(o.scale, o.seed);
  const Inputs& in = sys->in;
  // BFS 80 / WCC 15 / PageRank(10 iterations) 5, roots uniform over
  // vertices with an arc.
  core::Xoshiro256 rng(stream_seed(o.seed, 2));
  Deck deck({{QueryKind::kBfs, 16}, {QueryKind::kWcc, 3}, {QueryKind::kPageRankTopK, 1}});
  sys->ops.reserve(kQueriesPerClient);
  for (std::size_t i = 0; i < kQueriesPerClient; ++i) {
    DistOp op;
    op.kind = deck.next(rng);
    op.seed = in.active[rng.next_below(in.active.size())];
    sys->ops.push_back(op);
  }
  core::Xoshiro256 rb(stream_seed(o.seed, 3));
  for (std::size_t i = 0; i < batches_for(o, kDistWritePeriod); ++i) {
    sys->batches.push_back(mixed_batch(rb, in, kDistBatchOps, kMixedDeleteFrac));
  }
  dist::CoordinatorOptions co;
  co.shards = kDistShards;
  co.method = dist::PartitionMethod::kHash;
  co.seed = o.seed;
  co.root_dir = o.tmp + "/dist";
  co.checkpoint_every = 16;
  co.sync_each_append = true;
  co.process_isolation = true;
  co.shard_binary = GA_SHARD_BIN;
  fs::remove_all(co.root_dir);
  sys->coord = std::make_unique<dist::Coordinator>(co);
  sys->coord->start(*in.base).or_throw();
  return sys;
}

std::uint64_t rank_digest(const std::vector<double>& rank) {
  std::uint64_t h = 0;
  for (const double r : rank) h = core::hash_combine(h, bits_of(r));
  return h;
}

kernels::PageRankOptions dist_pagerank_options() {
  kernels::PageRankOptions p;  // fixed iterations, as Coordinator::pagerank
  p.tolerance = 0.0;
  p.max_iters = kDistPageRankIters;
  return p;
}

/// Distributed answers are bit-identical to the single-process kernels.
bool check_dist(const store::GraphView& view, const Check& c) {
  switch (c.desc.kind) {
    case QueryKind::kBfs:
      return digest_range(0, kernels::bfs(view, c.desc.seed).dist) == c.digest;
    case QueryKind::kWcc: {
      auto w = kernels::wcc_label_propagation(view);
      kernels::canonicalize_labels(w.label);
      return digest_range(0, w.label) == c.digest;
    }
    case QueryKind::kPageRankTopK:
      return rank_digest(kernels::pagerank(view.csr(), dist_pagerank_options()).rank) ==
             c.digest;
    default:
      return false;
  }
}

Run run_dist(const Options& o) {
  Run out;
  double setup_s = 0.0;
  const std::unique_ptr<DistSystem> sys =
      timed_setup([&] { return setup_dist(o); }, &setup_s);
  print_header(o, sys->in);
  dist::Coordinator& coord = *sys->coord;
  std::vector<pid_t> pids;
  for (std::uint32_t i = 0; i < coord.shards(); ++i) pids.push_back(coord.shard_pid(i));
  auto shard_sum = [&](double (*f)(pid_t)) {
    double s = 0.0;
    for (const pid_t p : pids) s += f(p);
    return s;
  };
  const double setup_rss = resident_mib(0) + shard_sum(resident_mib);
  TraceSink sink;
  ClientLog log;
  WriterLog wlog;
  Samples rounds, ms_per_round;

  auto loop = [&](Clock::time_point end, bool record) {
    auto next_apply = Clock::now() + kDistWritePeriod;
    while (Clock::now() < end) {
      const bool traced = record && obs::Tracer::global().active();
      if (Clock::now() >= next_apply) {
        next_apply += kDistWritePeriod;
        const std::size_t bi = wlog.next++ % sys->batches.size();
        OpTrace t(traced, "bench.coord.apply");
        const auto t0 = Clock::now();
        const auto r = coord.apply(sys->batches[bi]);
        const double ms = ms_since(t0);
        t.finish(sink);
        if (r.ok()) wlog.applied.push_back(bi);
        if (!record) continue;
        ++wlog.attempted;
        if (r.ok()) {
          wlog.update_ms.add(ms);
        } else {
          ++wlog.failed;
        }
        continue;
      }
      const DistOp op = sys->ops[log.next++ % sys->ops.size()];
      const char* span = op.kind == QueryKind::kBfs   ? "bench.coord.bfs"
                         : op.kind == QueryKind::kWcc ? "bench.coord.wcc"
                                                      : "bench.coord.pagerank";
      OpTrace t(log.take_trace(record), span);
      const bool check = log.take_check(record);
      ++log.issued;
      Check c;
      c.desc.kind = op.kind;
      c.desc.seed = op.seed;
      bool ok = false;
      const auto t0 = Clock::now();
      if (op.kind == QueryKind::kBfs) {
        const auto r = coord.bfs(op.seed);
        const double ms = ms_since(t0);
        ok = r.ok();
        if (ok) {
          c.epoch = r->epoch;
          if (check) c.digest = digest_range(0, r->dist);
          if (record) {
            rounds.add(r->rounds);
            ms_per_round.add(ms / std::max<std::uint32_t>(1, r->rounds));
          }
        }
      } else if (op.kind == QueryKind::kWcc) {
        const auto r = coord.wcc();
        ok = r.ok();
        if (ok) {
          c.epoch = r->epoch;
          if (check) c.digest = digest_range(0, r->label);
        }
      } else {
        const auto r = coord.pagerank(0.85, kDistPageRankIters);
        ok = r.ok();
        if (ok) {
          c.epoch = r->epoch;
          if (check) c.digest = rank_digest(r->rank);
        }
      }
      const double ms = ms_since(t0);
      t.finish(sink);
      if (!record) continue;
      ++log.done[traced];
      OpRecord rec;
      rec.kind = op.kind;
      rec.ok = ok;
      rec.latency_ms = ms;
      log.ops.push_back(rec);
      if (check && ok) log.checks.push_back(std::move(c));
    }
  };
  loop(after_seconds(o.warmup), false);

  const double cpu0 = shard_sum(cpu_seconds), io0 = shard_sum(io_bytes);
  const std::uint64_t retries0 = coord.stats().op_retries;
  const Clock::time_point end = after_seconds(o.seconds);
  const auto w0 = Clock::now();
  std::thread loop_thread([&] { loop(end, true); });
  const SliceTimes slices = run_window(end, o.trace, [] {});
  loop_thread.join();
  const double window_s = seconds_since(w0);
  obs::Tracer::global().set_active(false);
  const double cpu1 = shard_sum(cpu_seconds), io1 = shard_sum(io_bytes);
  const double peak_rss = peak_resident_mib(0) + shard_sum(peak_resident_mib);
  const std::uint64_t retries1 = coord.stats().op_retries;
  const LatencySummary lat = summarize(log.ops);

  const Verdict verdict = verify_replay(
      sys->in, [&](std::size_t i) { return sys->batches[i]; }, wlog.applied,
      log.checks, check_dist);
  const auto fetched = coord.fetch_view();
  const std::uint64_t fleet_digest =
      fetched.ok() ? store::view_digest(*fetched) : ~verdict.final_digest;
  print_verdict(verdict, fleet_digest, "n/a");
  out.correct = verdict.wrong == 0 && verdict.checked > 0 &&
                fleet_digest == verdict.final_digest;
  out.attempted = log.ops.size() + wlog.attempted;
  out.failed = lat.failed + wlog.failed + verdict.wrong;
  end_to_end(out, o, setup_s, setup_rss, window_s, lat.all, "queries");
  if (!o.trace) return out;

  Layers layers;
  layers.run_metrics(lat.all, window_s, lat, wlog.update_ms, out.attempted,
                     out.failed);
  layers.peak_rss = peak_rss;
  layers.dist_rounds = rounds.mean();
  layers.dist_ms_per_round = ms_per_round.pct(0.5);
  layers.dist_cpu_frac = ratio(cpu1 - cpu0, window_s * static_cast<double>(pids.size()));
  layers.dist_wire_per_op = ratio(io1 - io0, static_cast<double>(out.attempted));
  layers.dist_apply = wlog.update_ms.pct(0.5);
  layers.dist_retries = static_cast<double>(retries1 - retries0);
  layers.trace(sink, slices, log.done[1], log.done[0]);

  // Coordinator BFS against the single-process kernel on the replica at the
  // same epoch (folded flat, as a compacted store serves it).
  obs::Tracer::global().set_active(true);
  const store::GraphView shadow = store::GraphView::of(verdict.final_view.flatten());
  Samples coord_ms, direct_ms;
  for (const vid_t s : sys->in.probe_seeds) {
    OpTrace t(true, "bench.coord.bfs", "bench.probe");
    auto t0 = Clock::now();
    const auto r = coord.bfs(s);
    coord_ms.add(ms_since(t0));
    t.finish(sink);
    if (!r.ok()) ++out.failed;
    t0 = Clock::now();
    kernels::bfs(shadow, s);
    direct_ms.add(ms_since(t0));
  }
  layers.dist_overhead = ratio(coord_ms.pct(0.5), direct_ms.pct(0.5));
  kernel_probes(shadow, sys->in.probe_seeds, layers, sink);
  obs::Tracer::global().set_active(false);
  layers.emit(out.report);
  sink.print_table();
  return out;
}

Run run(const Options& o) {
  if (o.workload == "serve_mixed") return run_serve(o, false);
  if (o.workload == "serve_tiered") return run_serve(o, true);
  if (o.workload == "epoch_refresh") return run_refresh(o);
  return run_dist(o);
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse_options(argc, argv);
  const char* tmp = std::getenv("TMPDIR");
  const fs::path root = tmp != nullptr && *tmp != '\0' ? fs::path(tmp)
                                                       : fs::temp_directory_path();
  o.tmp = (root / ("system_bench-" + std::to_string(getpid()))).string();
  struct ScratchDir {
    explicit ScratchDir(const std::string& d) : dir(d) {
      fs::remove_all(dir);
      fs::create_directories(dir);
    }
    ~ScratchDir() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    std::string dir;
  } scratch(o.tmp);

  Run r;
  try {
    r = run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "system_bench: %s\n", e.what());
    return 1;
  }
  std::printf("samples: %llu latency samples in the window\n",
              static_cast<unsigned long long>(r.samples));
  // The end-to-end tail percentile must rest on enough samples. A smoke
  // run (--scale) is too short for that and is exempt.
  if (!o.smoke && r.samples < kTailMinSamples) {
    std::fprintf(stderr,
                 "system_bench: %llu samples cannot back p%.0f (needs >= %zu); "
                 "run longer\n",
                 static_cast<unsigned long long>(r.samples), kTailQ * 100.0,
                 kTailMinSamples);
    return 2;
  }
  r.report.print(r.correct, r.attempted, r.failed);
  return r.correct ? 0 : 1;
}
