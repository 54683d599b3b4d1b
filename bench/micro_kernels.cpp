// Kernel microbenchmarks (E11/E16) on the shared bench::Harness: the
// GAP-protocol trial loop (untimed warmup, n timed trials, per-trial
// output verification outside the clock) over the kernels this repo
// optimizes — BFS, delta-stepping SSSP, PageRank, WCC, k-core, triangle
// counting — plus clustering, a Jaccard query batch and the CSR build
// from the input's edge list. Emits
// BENCH_micro_kernels.json; ci.sh copies it to the repo-root
// BENCH_kernels.json baseline that tools/bench_compare gates against.
//
// Harness flags (--graph/--trials/--seed/--threads/--json/--no-obs) plus:
//   --compare-reference: additionally time the reference formulations
//     (engine-wave k-core, node-iterator triangles, Bellman-Ford SSSP)
//     and assert result equivalence with the optimized paths. Off by
//     default — the references are the slow side of the E16 table and
//     would dominate CI wall-clock.
//   --extra: include the quadratic-in-degree rows (local clustering)
//     that are too slow for the scale-20 CI gate.
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "harness.hpp"
#include "kernels/bfs.hpp"
#include "kernels/clustering.hpp"
#include "kernels/connected_components.hpp"
#include "kernels/jaccard.hpp"
#include "kernels/kcore.hpp"
#include "kernels/pagerank.hpp"
#include "kernels/sssp.hpp"
#include "kernels/triangles.hpp"
#include "kernels/verify.hpp"

using namespace ga;
using namespace ga::kernels;

int main(int argc, char** argv) {
  bench::Harness h("micro_kernels", argc, argv, bench::GraphSpec::kron(18),
                   /*default_trials=*/3);
  const bool compare_ref = bench::has_flag(argc, argv, "--compare-reference");
  std::printf("=== kernel microbenchmarks (E11/E16) ===\n\n");
  const auto& g = h.graph();
  const double m = static_cast<double>(g.num_arcs() / 2);

  {
    const vid_t root = h.random_root();
    BfsResult last;
    h.run(
        "bfs_dirop",
        [&](int) {
          last = bfs(g, root);
          return bench::Trial{m, "reached=" + std::to_string(last.reached)};
        },
        [&](int) {
          const auto v = verify_bfs(g, root, last);
          return v.ok ? std::string() : v.error;
        });
    h.run("bfs_topdown", [&](int) {
      last = bfs(g, root, BfsMode::kTopDown);
      return bench::Trial{m, ""};
    });
  }
  {
    const vid_t src = h.random_root();
    SsspResult last;
    h.run(
        "sssp_delta",
        [&](int) {
          last = delta_stepping(g, src);
          return bench::Trial{
              m, "relax=" + std::to_string(last.relaxations)};
        },
        [&](int) {
          const auto v = verify_sssp(g, src, last);
          return v.ok ? std::string() : v.error;
        });
  }
  {
    PageRankResult last;
    h.run(
        "pagerank",
        [&](int) {
          last = pagerank(g);
          return bench::Trial{
              m * last.iterations,
              "iters=" + std::to_string(last.iterations)};
        },
        [&](int) {
          const auto v = verify_pagerank(g, last);
          return v.ok ? std::string() : v.error;
        });
  }
  {
    ComponentsResult last;
    h.run(
        "wcc",
        [&](int) {
          last = wcc_label_propagation(g);
          return bench::Trial{
              m, "components=" + std::to_string(last.num_components)};
        },
        [&](int) {
          const auto v = verify_components(g, last);
          return v.ok ? std::string() : v.error;
        });
  }
  {
    std::vector<std::uint32_t> core;
    h.run("kcore_bucket", [&](int) {
      core = core_numbers(g);
      std::uint32_t degen = 0;
      for (std::uint32_t c : core) degen = std::max(degen, c);
      return bench::Trial{m, "degeneracy=" + std::to_string(degen)};
    });
    if (compare_ref) {
      h.run(
          "kcore_waves_ref",
          [&](int) {
            const auto ref = core_numbers_waves(g);
            return bench::Trial{m, ref == core ? "match" : "MISMATCH"};
          },
          [&](int) {
            return core_numbers_waves(g) == core
                       ? std::string()
                       : "engine-wave core numbers diverge from bucket peel";
          });
    }
  }
  {
    std::uint64_t triangles = 0;
    h.run("triangles_forward", [&](int) {
      triangles = triangle_count_forward(g);
      return bench::Trial{m, "triangles=" + std::to_string(triangles)};
    });
    if (compare_ref) {
      h.run(
          "triangles_node_ref",
          [&](int) {
            const auto ref = triangle_count_node_iterator(g);
            return bench::Trial{m, ref == triangles ? "match" : "MISMATCH"};
          },
          [&](int) {
            return triangle_count_node_iterator(g) == triangles
                       ? std::string()
                       : "node-iterator count diverges from forward merge";
          });
    }
  }
  if (compare_ref) {
    const vid_t src = h.random_root();
    SsspResult last;
    h.run(
        "sssp_bellman_ref",
        [&](int) {
          last = bellman_ford(g, src);
          return bench::Trial{m, ""};
        },
        [&](int) {
          const auto v = verify_sssp(g, src, last);
          return v.ok ? std::string() : v.error;
        });
  }
  // Quadratic-in-degree cost: minutes at scale 20, so not part of the CI
  // perf gate's default set.
  if (bench::has_flag(argc, argv, "--extra")) {
    h.run("clustering_local", [&](int) {
      const auto cc = local_clustering(g);
      double sum = 0;
      for (double c : cc) sum += c;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "avg=%.4f", sum / g.num_vertices());
      return bench::Trial{m, buf};
    });
  }
  {
    vid_t q = 0;
    h.run("jaccard_query_x64", [&](int) {
      std::size_t matches = 0;
      for (int i = 0; i < 64; ++i) {
        matches += jaccard_query(g, q, 0.1).size();
        q = (q + 97) % g.num_vertices();
      }
      return bench::Trial{0, std::to_string(matches) + " matches"};
    });
  }
  {
    // The input rebuilt from its 24-byte edge list. build_csr consumes its
    // input, so every call gets a fresh copy, made before the clock starts.
    // The harness builds kronN from (u, v) pairs (make_rmat), so the byte
    // check compares the two builder inputs.
    const auto input = h.options().graph.try_edges().value_or_throw();
    std::vector<graph::Edge> fresh;
    graph::CSRGraph built;
    h.run(
        "build_csr",
        [&](int) {
          built = graph::build_undirected(std::move(fresh), input.num_vertices);
          return bench::Trial{m, "arcs=" + std::to_string(built.num_arcs())};
        },
        [&](int) {
          const bool same = built.directed() == g.directed() &&
                            built.offsets() == g.offsets() &&
                            built.targets() == g.targets() &&
                            built.weights() == g.weights();
          return same ? std::string() : "rebuilt CSR differs from the input";
        },
        [&](int) { fresh = input.edges; });
  }
  return h.finish();
}
