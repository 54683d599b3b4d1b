// Unified GAP-protocol bench harness. Every kernel bench shares one input
// vocabulary (--graph kron22|urand22|file:PATH), one trial discipline
// (untimed warmup, n timed trials, harmonic-mean rates — the GAP
// benchmark's reporting rule, which weights slow outliers honestly where
// an arithmetic mean would bury them), one per-trial verification hook
// run OUTSIDE the timed region, and one JSON artifact shape
// (BENCH_<name>.json via bench_json.hpp) that tools/bench_compare diffs
// against the committed baselines in CI.
//
// Shared flags (parsed by Harness from argv):
//   --graph SPEC    kronN | urandN | file:PATH   (N = log2 vertices)
//   --trials N      timed trials per measurement (default per-bench)
//   --seed S        root-selection / generator PRNG seed
//   --threads T     recorded into the artifact; benches that run parallel
//                   engines read options().threads (0 = hardware)
//   --json          write BENCH_<name>.json
//   --no-obs        runtime-disable metrics/tracing before timing
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/prng.hpp"
#include "core/stats.hpp"
#include "core/status.hpp"
#include "core/timer.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"

namespace ga::bench {

/// One graph input in the GAP naming scheme: `kronN` is Graph500
/// Kronecker/RMAT at scale N (n = 2^N, m = 16n), `urandN` is uniform
/// Erdős–Rényi with the same n and m (the GAP suite's locality foil for
/// Kron's power-law skew), `file:PATH` loads an edge list (text "u v [w]"
/// or the io.hpp binary format).
struct GraphSpec {
  enum class Kind { kKron, kUrand, kFile };
  Kind kind = Kind::kKron;
  unsigned scale = 20;
  unsigned edge_factor = 16;
  std::uint64_t seed = 1;
  std::string path;

  static GraphSpec kron(unsigned scale) {
    GraphSpec s;
    s.kind = Kind::kKron;
    s.scale = scale;
    return s;
  }
  static GraphSpec urand(unsigned scale) {
    GraphSpec s;
    s.kind = Kind::kUrand;
    s.scale = scale;
    return s;
  }

  static GraphSpec parse(const std::string& text) {
    GraphSpec s;
    if (text.rfind("file:", 0) == 0) {
      s.kind = Kind::kFile;
      s.path = text.substr(5);
      GA_CHECK(!s.path.empty(), "empty path in --graph file:");
      return s;
    }
    std::size_t digits = 0;
    if (text.rfind("kron", 0) == 0) {
      s.kind = Kind::kKron;
      digits = 4;
    } else if (text.rfind("urand", 0) == 0) {
      s.kind = Kind::kUrand;
      digits = 5;
    } else {
      GA_CHECK(false, "unknown --graph spec '" + text +
                          "' (want kronN, urandN, or file:PATH)");
    }
    const long scale = std::atol(text.c_str() + digits);
    GA_CHECK(scale >= 1 && scale <= 30,
             "--graph scale out of range in '" + text + "'");
    s.scale = static_cast<unsigned>(scale);
    return s;
  }

  std::string name() const {
    switch (kind) {
      case Kind::kKron: return "kron" + std::to_string(scale);
      case Kind::kUrand: return "urand" + std::to_string(scale);
      case Kind::kFile: return "file:" + path;
    }
    return "?";
  }

  /// The input's edge list and vertex count (0 = one past the largest
  /// id); the graph is build_undirected over exactly these (for `kronN`,
  /// the same bytes as try_build()'s make_rmat). Generated
  /// inputs (kron/urand) cannot fail; `file:PATH` reports exactly what
  /// went wrong — the path echoed back plus the OS errno text for an
  /// unopenable file, or the loader's parse diagnostic — instead of
  /// whatever the loader throws.
  struct EdgeList {
    std::vector<graph::Edge> edges;
    vid_t num_vertices = 0;
  };
  core::StatusOr<EdgeList> try_edges() const {
    const vid_t n = vid_t{1} << scale;
    switch (kind) {
      case Kind::kKron:
        return EdgeList{graph::rmat_edges({.scale = scale,
                                           .edge_factor = edge_factor,
                                           .seed = seed}),
                        n};
      case Kind::kUrand:
        return EdgeList{graph::erdos_renyi_edges(
                            n, static_cast<eid_t>(edge_factor) * n, seed),
                        n};
      case Kind::kFile: {
        errno = 0;
        auto edges = graph::try_load_edge_list(path);
        if (!edges.ok()) {
          const int err = errno;
          std::string msg =
              "--graph file: cannot load '" + path + "': " +
              edges.status().message();
          if (err != 0) {
            msg += " (";
            msg += std::strerror(err);
            msg += ")";
          }
          return core::Status(edges.status().code(), std::move(msg));
        }
        return EdgeList{std::move(edges).value(), 0};
      }
    }
    GA_CHECK(false, "unreachable");
    return EdgeList{};
  }

  /// Build with try_edges()' diagnosable failure path. `kronN` goes
  /// through graph::make_rmat instead: the same bytes, drawn as 8-byte
  /// (u, v) arcs rather than 24-byte edges, so the build peaks lower.
  core::StatusOr<graph::CSRGraph> try_build() const {
    if (kind == Kind::kKron) {
      return graph::make_rmat(
          {.scale = scale, .edge_factor = edge_factor, .seed = seed});
    }
    auto input = try_edges();
    if (!input.ok()) return input.status();
    return graph::build_undirected(std::move(input->edges),
                                   input->num_vertices);
  }

  graph::CSRGraph build() const {
    return std::move(try_build()).value_or_throw();
  }
};

/// Peak resident set size of this process, in bytes (VmHWM from
/// /proc/self/status, the Linux high-watermark getrusage(ru_maxrss)
/// mirrors). 0 when unavailable. tiered_bench records this next to the
/// tier's own accounting so the budget numbers can be checked against
/// what the OS actually saw.
inline std::size_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}

struct HarnessOptions {
  GraphSpec graph;
  int trials = 16;
  int warmup = 1;
  std::uint64_t seed = 27491095;  // GAP's default kRandSeed
  unsigned threads = 0;           // 0 = hardware
  bool json = false;
};

/// What one timed trial reports back: the work-unit count feeding the
/// harmonic-mean rate (edges for TEPS-style kernels; 0 = time-only) and a
/// short result summary (the last trial's is printed and recorded).
struct Trial {
  double units = 0;
  std::string summary;
};

/// Aggregates over one measurement's timed trials.
struct TrialStats {
  std::string name;
  int trials = 0;
  double total_ms = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  /// Harmonic mean of per-trial units/second (0 when trials carry no
  /// units): trials / sum(seconds_i / units_i), the Graph500/GAP TEPS rule.
  double harmonic_rate = 0;
  std::string summary;  // last trial's result line
};

class Harness {
 public:
  /// Parses the shared flags; `default_graph`/`default_trials` apply when
  /// the corresponding flag is absent.
  Harness(std::string bench_name, int argc, char** argv,
          GraphSpec default_graph, int default_trials = 16)
      : name_(std::move(bench_name)), doc_(name_) {
    opts_.graph = default_graph;
    opts_.trials = default_trials;
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--graph") == 0) {
        opts_.graph = GraphSpec::parse(argv[i + 1]);
        graph_overridden_ = true;
      }
    }
    opts_.trials = static_cast<int>(
        flag_value(argc, argv, "--trials", opts_.trials));
    GA_CHECK(opts_.trials >= 1, "--trials must be >= 1");
    opts_.seed = static_cast<std::uint64_t>(
        flag_value(argc, argv, "--seed", static_cast<long>(opts_.seed)));
    opts_.threads = static_cast<unsigned>(
        flag_value(argc, argv, "--threads", 0));
    opts_.json = has_flag(argc, argv, "--json");
    if (has_flag(argc, argv, "--no-obs")) obs::set_enabled(false);
    rng_.emplace(opts_.seed);
  }

  const HarnessOptions& options() const { return opts_; }

  /// True when the user picked the input explicitly (multi-scale sweeps
  /// collapse to the chosen input instead of iterating defaults).
  bool graph_overridden() const { return graph_overridden_; }

  /// Swap the input mid-run (multi-scale sweeps share one harness and one
  /// JSON artifact); the next graph() call rebuilds.
  void set_graph(GraphSpec spec) {
    opts_.graph = std::move(spec);
    g_.reset();
  }

  /// The input graph (built lazily, announced once). An unloadable
  /// `file:` input exits 1 with the Status message — path echoed, errno
  /// text — not an uncaught throw.
  const graph::CSRGraph& graph() {
    if (!g_.has_value()) {
      core::WallTimer t;
      auto built = opts_.graph.try_build();
      if (!built.ok()) {
        std::fprintf(stderr, "error: %s\n", built.status().message().c_str());
        std::exit(1);
      }
      g_ = std::move(built).value_or_throw();
      std::printf("input: %s (n=%u, m=%llu, built in %.1f s)\n",
                  opts_.graph.name().c_str(), g_->num_vertices(),
                  static_cast<unsigned long long>(g_->num_edges()),
                  t.seconds());
    }
    return *g_;
  }

  /// A non-isolated vertex drawn from the harness PRNG — the GAP rule for
  /// source selection (roots must have outgoing edges).
  vid_t random_root() {
    const auto& g = graph();
    for (int attempts = 0; attempts < 1 << 20; ++attempts) {
      const vid_t r = rng_->next_vid(g.num_vertices());
      if (g.out_degree(r) > 0) return r;
    }
    GA_CHECK(false, "no vertex with outgoing edges");
    return 0;
  }

  using TrialFn = std::function<Trial(int trial)>;
  /// Untimed per-trial verification: return "" when the trial's output
  /// passes, a diagnostic otherwise. Runs after the clock stops.
  using VerifyFn = std::function<std::string(int trial)>;
  /// Untimed per-call preparation (e.g. a fresh copy of an input the
  /// trial consumes). Runs before every call of `fn`, warmups included,
  /// before the clock starts.
  using SetupFn = std::function<void(int trial)>;

  /// One measurement: `warmup` untimed calls, then `trials` timed calls of
  /// `fn`, each preceded by the (untimed) setup hook and followed by the
  /// (untimed) verification hook. Prints one stats line, records JSON
  /// fields `<name>_ms_{mean,p50,p95}` (plus `<name>_harmonic_munits` when
  /// trials report units), and remembers verification failures for
  /// finish().
  TrialStats run(const std::string& name, const TrialFn& fn,
                 const VerifyFn& verify = {}, const SetupFn& setup = {}) {
    graph();  // build outside any timed region
    for (int w = 0; w < opts_.warmup; ++w) {
      if (setup) setup(-1 - w);
      fn(-1 - w);
    }
    TrialStats st;
    st.name = name;
    st.trials = opts_.trials;
    core::PercentileSketch ps;
    double inv_rate_sum = 0;
    bool have_units = true;
    for (int t = 0; t < opts_.trials; ++t) {
      if (setup) setup(t);
      core::WallTimer timer;
      const Trial trial = fn(t);
      const double ms = timer.millis();
      ps.add(ms);
      st.total_ms += ms;
      if (trial.units > 0) {
        inv_rate_sum += (ms / 1e3) / trial.units;
      } else {
        have_units = false;
      }
      st.summary = trial.summary;
      if (verify) {
        const std::string err = verify(t);
        if (!err.empty()) {
          fail(name + ": trial " + std::to_string(t) + " failed verify: " +
               err);
        }
      }
    }
    st.mean_ms = st.total_ms / opts_.trials;
    st.p50_ms = ps.percentile(0.5);
    st.p95_ms = ps.percentile(0.95);
    if (have_units && inv_rate_sum > 0) {
      st.harmonic_rate = opts_.trials / inv_rate_sum;
    }
    std::printf("  %-22s trials %2d  mean %9.2f ms  p50 %9.2f  p95 %9.2f",
                name.c_str(), st.trials, st.mean_ms, st.p50_ms, st.p95_ms);
    if (st.harmonic_rate > 0) {
      std::printf("  harmonic %8.2f M/s", st.harmonic_rate / 1e6);
    }
    if (!st.summary.empty()) std::printf("  %s", st.summary.c_str());
    std::printf("\n");
    doc_.add(name + "_ms_mean", st.mean_ms);
    doc_.add(name + "_ms_p50", st.p50_ms);
    doc_.add(name + "_ms_p95", st.p95_ms);
    if (st.harmonic_rate > 0) {
      doc_.add(name + "_harmonic_munits", st.harmonic_rate / 1e6);
    }
    return st;
  }

  /// Record an out-of-band verification failure (printed immediately,
  /// turns the exit code nonzero).
  void fail(const std::string& what) {
    std::printf("  [VERIFY-FAIL] %s\n", what.c_str());
    failures_.push_back(what);
  }

  /// Extra artifact fields (bench-specific metrics ride along).
  JsonDoc& doc() { return doc_; }

  /// Stamps run metadata, writes the JSON artifact when requested, and
  /// returns the process exit code (nonzero iff any verification failed).
  int finish() {
    if (opts_.json) {
      doc_.add("graph", opts_.graph.name());
      doc_.add("trials", opts_.trials);
      doc_.add("seed", opts_.seed);
      doc_.add("threads", static_cast<std::uint64_t>(opts_.threads));
      doc_.add("verify_failures",
               static_cast<std::uint64_t>(failures_.size()));
      doc_.write();
    }
    if (!failures_.empty()) {
      std::printf("\n%zu verification failure(s):\n", failures_.size());
      for (const auto& f : failures_) std::printf("  %s\n", f.c_str());
      return 1;
    }
    return 0;
  }

 private:
  std::string name_;
  HarnessOptions opts_;
  bool graph_overridden_ = false;
  JsonDoc doc_;
  std::optional<graph::CSRGraph> g_;
  std::optional<core::Xoshiro256> rng_;
  std::vector<std::string> failures_;
};

}  // namespace ga::bench
