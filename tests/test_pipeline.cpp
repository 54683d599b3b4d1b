// Pipeline tests: corpus generation, dedup (batch + inline), graph store,
// selection, extraction/write-back, NORA, and the end-to-end Fig. 2 flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_set>

#include "graph/builder.hpp"
#include "pipeline/analytics.hpp"
#include "pipeline/dedup.hpp"
#include "pipeline/extraction.hpp"
#include "pipeline/flow.hpp"
#include "pipeline/graph_store.hpp"
#include "pipeline/nora.hpp"
#include "pipeline/record.hpp"
#include "pipeline/selection.hpp"
#include "kernels/bfs.hpp"
#include "spla/spgemm.hpp"

namespace ga::pipeline {
namespace {

CorpusOptions small_corpus_opts() {
  CorpusOptions opts;
  opts.num_people = 300;
  opts.num_addresses = 120;
  opts.num_rings = 5;
  opts.ring_size = 4;
  opts.seed = 11;
  return opts;
}

TEST(Record, EditDistanceBasics) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(edit_distance("abc", "abd"), 1u);
  EXPECT_EQ(edit_distance("abc", "ab"), 1u);
  EXPECT_EQ(edit_distance("abc", "xabc"), 1u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
}

TEST(Record, NameSimilarityRange) {
  EXPECT_DOUBLE_EQ(name_similarity("anna", "anna"), 1.0);
  EXPECT_DOUBLE_EQ(name_similarity("", ""), 1.0);
  EXPECT_LT(name_similarity("anna", "zzzz"), 0.3);
}

TEST(Record, BlockingCodeStableUnderVowelTypos) {
  EXPECT_EQ(blocking_code("morlin"), blocking_code("morlen"));
  EXPECT_NE(blocking_code("morlin"), blocking_code("torlin"));
}

TEST(Record, CorpusIsDeterministicAndLabeled) {
  const auto a = generate_corpus(small_corpus_opts());
  const auto b = generate_corpus(small_corpus_opts());
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_EQ(a.rings.size(), 5u);
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].first_name, b.records[i].first_name);
    EXPECT_EQ(a.records[i].true_person, b.records[i].true_person);
    EXPECT_LT(a.records[i].address_id, 120u);
    EXPECT_LT(a.records[i].true_person, 300u);
  }
  // More records than people (duplicates + address history).
  EXPECT_GT(a.records.size(), 300u);
}

TEST(Dedup, BatchQualityOnPlantedDuplicates) {
  const auto corpus = generate_corpus(small_corpus_opts());
  const auto r = dedup_batch(corpus.records);
  EXPECT_GT(r.entities.size(), 100u);
  EXPECT_LT(r.entities.size(), corpus.records.size());
  const auto q = score_dedup(corpus.records, r.entity_of_record);
  EXPECT_GT(q.precision, 0.95);
  EXPECT_GT(q.recall, 0.8);
}

TEST(Dedup, MergesExactSsnAcrossTypos) {
  RawRecord a{0, "Anna", "Smith", "123456789", 1980, 5, 700.0, 0, 0};
  RawRecord b{1, "AnXa", "Smyth", "123456789", 1980, 6, 700.0, 0, 1};
  const auto r = dedup_batch({a, b});
  EXPECT_EQ(r.entities.size(), 1u);
  ASSERT_EQ(r.entities[0].addresses.size(), 2u);
}

TEST(Dedup, KeepsDistinctPeopleApart) {
  RawRecord a{0, "Anna", "Smith", "111111111", 1980, 5, 700.0, 0, 0};
  RawRecord b{1, "Boris", "Karlov", "222222222", 1955, 6, 650.0, 1, 1};
  const auto r = dedup_batch({a, b});
  EXPECT_EQ(r.entities.size(), 2u);
}

TEST(Dedup, InlineMatchesBatchEntityCountApproximately) {
  const auto corpus = generate_corpus(small_corpus_opts());
  const auto batch = dedup_batch(corpus.records);
  InlineDeduper inliner;
  for (const auto& rec : corpus.records) inliner.ingest(rec);
  const double ratio = static_cast<double>(inliner.entities().size()) /
                       static_cast<double>(batch.entities.size());
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.15);
  EXPECT_GT(inliner.comparisons(), 0u);
}

TEST(Dedup, PreloadResolvesAgainstExistingEntities) {
  RawRecord a{0, "Anna", "Smith", "123456789", 1980, 5, 700.0, 0, 0};
  const auto batch = dedup_batch({a});
  InlineDeduper inliner;
  inliner.preload(batch.entities);
  RawRecord b{1, "Anna", "Smith", "123456789", 1980, 9, 700.0, 0, 1};
  EXPECT_EQ(inliner.ingest(b), 0u);  // resolved to the preloaded entity
  EXPECT_EQ(inliner.entities().size(), 1u);
}

TEST(GraphStore, BipartiteStructureAndClasses) {
  const auto corpus = generate_corpus(small_corpus_opts());
  const auto dedup = dedup_batch(corpus.records);
  GraphStore store(dedup.entities, corpus.num_addresses);
  EXPECT_EQ(store.num_people(), dedup.entities.size());
  EXPECT_EQ(store.num_addresses(), 120u);
  EXPECT_EQ(store.vertex_class(0), VertexClass::kPerson);
  EXPECT_EQ(store.vertex_class(store.address_vertex(0)), VertexClass::kAddress);
  // Every person's addresses match the entity record.
  const auto& e = dedup.entities[5];
  const auto addrs = store.addresses_of(store.person_vertex(5));
  ASSERT_EQ(addrs.size(), e.addresses.size());
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    EXPECT_EQ(addrs[i], store.address_vertex(e.addresses[i]));
  }
}

TEST(GraphStore, ResidencyWeightCountsSightings) {
  Entity e;
  e.entity_id = 0;
  e.last_name = "X";
  e.addresses = {3};
  GraphStore store({e}, 10);
  const auto av = store.address_vertex(3);
  EXPECT_FLOAT_EQ(store.graph().edge_weight_or(0, av, 0.0f), 1.0f);
  store.add_residency(0, 3, 100);
  EXPECT_FLOAT_EQ(store.graph().edge_weight_or(0, av, 0.0f), 2.0f);
}

TEST(GraphStore, StreamingAddPersonGrowsEverything) {
  Entity e0;
  e0.entity_id = 0;
  e0.addresses = {0};
  GraphStore store({e0}, 4);
  Entity fresh;
  fresh.last_name = "New";
  fresh.credit_score = 512.0;
  fresh.addresses = {1, 2};
  const vid_t v = store.add_person(fresh, 50);
  EXPECT_EQ(store.vertex_class(v), VertexClass::kPerson);
  EXPECT_EQ(store.addresses_of(v).size(), 2u);
  EXPECT_DOUBLE_EQ(store.properties().doubles("credit_score")[v], 512.0);
}

TEST(Selection, TopKByPropertyRestrictedToClass) {
  const auto corpus = generate_corpus(small_corpus_opts());
  const auto dedup = dedup_batch(corpus.records);
  GraphStore store(dedup.entities, corpus.num_addresses);
  SelectionCriteria crit;
  crit.topk_property = "credit_score";
  crit.k = 7;
  const auto seeds = select_seeds(store, crit);
  ASSERT_EQ(seeds.size(), 7u);
  const auto& credit = store.properties().doubles("credit_score");
  // Every seed beats every non-seed person.
  double min_seed = 1e9;
  for (vid_t s : seeds) {
    EXPECT_EQ(store.vertex_class(s), VertexClass::kPerson);
    min_seed = std::min(min_seed, credit[s]);
  }
  std::unordered_set<vid_t> seedset(seeds.begin(), seeds.end());
  for (vid_t v = 0; v < store.num_people(); ++v) {
    if (!seedset.count(v)) {
      EXPECT_LE(credit[v], min_seed);
    }
  }
}

TEST(Selection, ExplicitSeedsPassThroughDeduplicated) {
  Entity e;
  e.addresses = {0};
  GraphStore store({e}, 2);
  SelectionCriteria crit;
  crit.explicit_seeds = {0, 0};
  EXPECT_EQ(select_seeds(store, crit), (std::vector<vid_t>{0}));
  crit.explicit_seeds = {9};
  EXPECT_THROW(select_seeds(store, crit), ga::Error);
}

TEST(Extraction, MembersAndProjection) {
  const auto corpus = generate_corpus(small_corpus_opts());
  const auto dedup = dedup_batch(corpus.records);
  GraphStore store(dedup.entities, corpus.num_addresses);
  ExtractionOptions opts;
  opts.depth = 2;
  opts.projected_properties = {"credit_score"};
  const auto sub = extract(store, {0}, opts);
  EXPECT_GT(sub.num_vertices(), 0u);
  EXPECT_TRUE(sub.properties().has_column("credit_score"));
  EXPECT_TRUE(sub.properties().has_column("class"));  // always projected
  // Local/global id mapping is a bijection on members.
  for (vid_t l = 0; l < sub.num_vertices(); ++l) {
    EXPECT_EQ(sub.local_id(sub.global_id(l)), l);
  }
  EXPECT_EQ(sub.local_id(0), 0u);  // seed is the smallest member
}

TEST(Extraction, MembersAreExactlyTheKHopBall) {
  const auto corpus = generate_corpus(small_corpus_opts());
  const auto dedup = dedup_batch(corpus.records);
  GraphStore store(dedup.entities, corpus.num_addresses);
  const std::vector<vid_t> seeds = {0, 3, 9};
  for (std::uint32_t depth : {0u, 1u, 2u, 3u}) {
    const auto sub = extract(store, seeds, {.depth = depth});
    // Every member is within `depth` hops of some seed, and the member
    // set matches a BFS ball computed independently on a snapshot.
    const auto snap = store.graph().snapshot();
    std::vector<std::uint32_t> best(snap.num_vertices(), kInfDist);
    for (vid_t s : seeds) {
      const auto r = kernels::bfs(snap, s, kernels::BfsMode::kTopDown);
      for (vid_t v = 0; v < snap.num_vertices(); ++v) {
        best[v] = std::min(best[v], r.dist[v]);
      }
    }
    std::vector<vid_t> expect;
    for (vid_t v = 0; v < snap.num_vertices(); ++v) {
      if (best[v] <= depth) expect.push_back(v);
    }
    ASSERT_EQ(sub.members(), expect) << "depth " << depth;
    // Edges of the subgraph exist in the store graph.
    for (vid_t lu = 0; lu < sub.num_vertices(); ++lu) {
      for (vid_t lv : sub.graph().out_neighbors(lu)) {
        EXPECT_TRUE(store.graph().has_edge(sub.global_id(lu),
                                           sub.global_id(lv)));
      }
    }
  }
}

// extract()'s former member lookup: one binary search over the sorted
// members per arc, feeding the same build_csr call.
graph::CSRGraph extract_by_search(const GraphStore& store,
                                  const std::vector<vid_t>& members) {
  const store::GraphView view = store.view();
  const auto local_of = [&](vid_t v) -> vid_t {
    const auto it = std::lower_bound(members.begin(), members.end(), v);
    return (it != members.end() && *it == v)
               ? static_cast<vid_t>(it - members.begin())
               : kInvalidVid;
  };
  std::vector<graph::Edge> edges;
  for (vid_t lu = 0; lu < members.size(); ++lu) {
    view.for_each_out(members[lu], [&](vid_t v, float w) {
      const vid_t lv = local_of(v);
      if (lv == kInvalidVid || lv <= lu) return;
      edges.push_back(graph::Edge{lu, lv, w, 0});
    });
  }
  graph::BuildOptions bopts;
  bopts.directed = false;
  bopts.keep_weights = true;
  return graph::build_csr(std::move(edges),
                          static_cast<vid_t>(members.size()), bopts);
}

TEST(Extraction, CsrMatchesBinarySearchExtraction) {
  const auto corpus = generate_corpus(small_corpus_opts());
  const auto dedup = dedup_batch(corpus.records);
  GraphStore store(dedup.entities, corpus.num_addresses);
  const auto weight_bits = [](const std::vector<float>& w) {
    std::vector<std::uint32_t> bits(w.size());
    if (!w.empty()) std::memcpy(bits.data(), w.data(), w.size() * sizeof(float));
    return bits;
  };
  const auto check = [&](const std::vector<vid_t>& seeds) {
    for (std::uint32_t depth : {0u, 1u, 2u, 3u}) {
      ExtractionOptions opts;
      opts.depth = depth;
      const auto sub = extract(store, seeds, opts);
      const auto want = extract_by_search(store, sub.members());
      const auto& got = sub.graph();
      EXPECT_EQ(got.offsets(), want.offsets()) << "depth " << depth;
      EXPECT_EQ(got.targets(), want.targets()) << "depth " << depth;
      EXPECT_EQ(weight_bits(got.weights()), weight_bits(want.weights()))
          << "depth " << depth;
    }
  };
  check({0});
  check({0, 3, 9});
  // Sightings after the first view() leave a delta chain to read through.
  for (vid_t p = 0; p < 20; ++p) {
    store.add_residency(p, (p * 7) % corpus.num_addresses, 1000 + p);
  }
  check({0, 3, 9});
  check({5, 17});
}

TEST(Extraction, WriteBackPropagatesAnalyticColumns) {
  const auto corpus = generate_corpus(small_corpus_opts());
  const auto dedup = dedup_batch(corpus.records);
  GraphStore store(dedup.entities, corpus.num_addresses);
  auto sub = extract(store, {0}, {.depth = 2, .projected_properties = {}});
  const auto registry = AnalyticRegistry::with_builtins();
  const auto out = registry.run("degree", sub);
  EXPECT_EQ(out.column_written, "an_degree");
  sub.write_back(store);
  ASSERT_TRUE(store.properties().has_column("an_degree"));
  const auto& col = store.properties().doubles("an_degree");
  const vid_t g0 = sub.global_id(0);
  EXPECT_DOUBLE_EQ(col[g0], sub.properties().doubles("an_degree")[0]);
}

TEST(Analytics, BuiltinsRunAndSummarize) {
  const auto corpus = generate_corpus(small_corpus_opts());
  const auto dedup = dedup_batch(corpus.records);
  GraphStore store(dedup.entities, corpus.num_addresses);
  auto sub = extract(store, {0, 1, 2}, {.depth = 2, .projected_properties = {}});
  const auto registry = AnalyticRegistry::with_builtins();
  for (const auto& name : registry.names()) {
    auto s2 = sub;  // fresh copy per analytic
    const auto out = registry.run(name, s2);
    EXPECT_FALSE(out.column_written.empty()) << name;
    EXPECT_TRUE(s2.properties().has_column(out.column_written)) << name;
  }
  auto s3 = sub;
  EXPECT_THROW(registry.run("no_such_analytic", s3), ga::Error);
}

TEST(Nora, QueryFindsRingPartners) {
  CorpusOptions opts = small_corpus_opts();
  opts.duplicate_rate = 0.0;  // clean records: entity ids == true ids
  opts.typo_rate = 0.0;
  const auto corpus = generate_corpus(opts);
  const auto dedup = dedup_batch(corpus.records);
  ASSERT_EQ(dedup.entities.size(), 300u);
  GraphStore store(dedup.entities, corpus.num_addresses);
  // Map true person -> entity (identity here up to ordering by dedup).
  std::vector<vid_t> vertex_of_true(300, kInvalidVid);
  for (std::size_t i = 0; i < corpus.records.size(); ++i) {
    vertex_of_true[corpus.records[i].true_person] =
        static_cast<vid_t>(dedup.entity_of_record[i]);
  }
  const auto& ring = corpus.rings[0];
  const vid_t a = vertex_of_true[ring[0]];
  const auto rels = nora_query(store, a);
  std::unordered_set<vid_t> partners;
  for (const auto& r : rels) partners.insert(r.a == a ? r.b : r.a);
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_TRUE(partners.count(vertex_of_true[ring[i]]))
        << "ring partner missing";
  }
}

TEST(Nora, BoilMatchesPerVertexQueries) {
  const auto corpus = generate_corpus(small_corpus_opts());
  const auto dedup = dedup_batch(corpus.records);
  GraphStore store(dedup.entities, corpus.num_addresses);
  const auto boil = nora_boil(store);
  // The written property equals the per-person query counts.
  const auto& col = store.properties().doubles("nora_relationships");
  for (vid_t p = 0; p < store.num_people(); p += 23) {
    EXPECT_DOUBLE_EQ(col[p], static_cast<double>(nora_query(store, p).size()));
  }
  EXPECT_GT(boil.relationships.size(), 0u);
}

TEST(Nora, SurnameRelaxationMattersOnlyBelowThreshold) {
  // Two people share ONE address and a surname.
  Entity a, b;
  a.entity_id = 0;
  a.last_name = "Ring";
  a.addresses = {0};
  b.entity_id = 1;
  b.last_name = "Ring";
  b.addresses = {0};
  GraphStore store({a, b}, 2);
  NoraOptions strict;
  strict.surname_relaxes_threshold = false;
  EXPECT_TRUE(nora_query(store, 0, strict).empty());
  NoraOptions relaxed;  // default: surname relaxes
  const auto rels = nora_query(store, 0, relaxed);
  ASSERT_EQ(rels.size(), 1u);
  EXPECT_TRUE(rels[0].same_surname);
  EXPECT_DOUBLE_EQ(rels[0].score, 2.0);  // 1 shared + 1.0 bonus
}

TEST(GraphStore, PersistenceRoundTrip) {
  const auto corpus = generate_corpus(small_corpus_opts());
  const auto dedup = dedup_batch(corpus.records);
  GraphStore store(dedup.entities, corpus.num_addresses);
  nora_boil(store);  // give it a computed property column too

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  store.save(ss);
  GraphStore back = GraphStore::load(ss);

  ASSERT_EQ(back.num_vertices(), store.num_vertices());
  EXPECT_EQ(back.num_people(), store.num_people());
  EXPECT_EQ(back.num_addresses(), store.num_addresses());
  EXPECT_EQ(back.graph().num_edges(), store.graph().num_edges());
  // Properties (including the boiled NORA column) survive.
  const auto& a = store.properties().doubles("nora_relationships");
  const auto& b = back.properties().doubles("nora_relationships");
  ASSERT_EQ(a, b);
  EXPECT_EQ(back.properties().strings("last_name"),
            store.properties().strings("last_name"));
  // Structure survives: spot-check adjacency and weights.
  for (vid_t p = 0; p < back.num_people(); p += 37) {
    ASSERT_EQ(back.addresses_of(p), store.addresses_of(p)) << p;
    for (vid_t av : back.addresses_of(p)) {
      EXPECT_FLOAT_EQ(back.graph().edge_weight_or(p, av, -1.0f),
                      store.graph().edge_weight_or(p, av, -1.0f));
    }
  }
  // Queries against the reloaded store give identical answers.
  const auto qa = nora_query(store, 0);
  const auto qb = nora_query(back, 0);
  ASSERT_EQ(qa.size(), qb.size());
  for (std::size_t i = 0; i < qa.size(); ++i) {
    EXPECT_EQ(qa[i].a, qb[i].a);
    EXPECT_EQ(qa[i].b, qb[i].b);
    EXPECT_EQ(qa[i].shared_addresses, qb[i].shared_addresses);
  }
}

TEST(GraphStore, LoadRejectsGarbage) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ss << "not a store";
  EXPECT_THROW(GraphStore::load(ss), ga::Error);
}

TEST(Nora, SharedAddressCountsMatchSpgemm) {
  // NORA's shared-address counts are exactly (B * B^T) on the bipartite
  // person-address incidence matrix — the SS V.A linear-algebra execution
  // model computing the SS III application. Cross-check the two paths.
  const auto corpus = generate_corpus(small_corpus_opts());
  const auto dedup = dedup_batch(corpus.records);
  GraphStore store(dedup.entities, corpus.num_addresses);

  std::vector<spla::Triple> triples;
  for (vid_t p = 0; p < store.num_people(); ++p) {
    for (vid_t av : store.addresses_of(p)) {
      triples.push_back({p, av - store.num_people(), 1.0});
    }
  }
  const auto B = spla::CsrMatrix::from_triples(
      store.num_people(), store.num_addresses(), std::move(triples));
  const auto shared = spla::multiply(B, B.transposed());

  NoraOptions opts;
  opts.min_shared_addresses = 2;
  opts.surname_relaxes_threshold = false;  // pure shared-count criterion
  const auto boil = nora_boil(store, opts);
  // Every qualifying relationship appears in the SpGEMM result with the
  // same count, and vice versa.
  std::size_t qualifying_cells = 0;
  for (vid_t p = 0; p < store.num_people(); ++p) {
    const auto cols = shared.row_cols(p);
    const auto vals = shared.row_vals(p);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] > p && vals[i] >= 2.0) ++qualifying_cells;
    }
  }
  ASSERT_EQ(boil.relationships.size(), qualifying_cells);
  for (const auto& rel : boil.relationships) {
    EXPECT_DOUBLE_EQ(shared.at(rel.a, rel.b),
                     static_cast<double>(rel.shared_addresses));
  }
}

TEST(Flow, BatchEndToEndProducesAllStages) {
  const auto corpus = generate_corpus(small_corpus_opts());
  CanonicalFlow flow;
  const auto r = flow.run_batch(corpus);
  ASSERT_EQ(r.timings.size(), 7u);
  EXPECT_EQ(r.timings[0].stage, "dedup");
  EXPECT_EQ(r.timings.back().stage, "write_back");
  EXPECT_GT(r.num_entities, 0u);
  EXPECT_GT(r.num_relationships, 0u);
  EXPECT_GT(r.ring_recall, 0.7);
  EXPECT_FALSE(r.seeds.empty());
  EXPECT_GT(r.extracted_vertices, 0u);
  EXPECT_GT(r.dedup_quality.precision, 0.9);
  // Write-back column exists in the persistent store.
  EXPECT_TRUE(flow.store().properties().has_column("an_pagerank"));
}

TEST(Flow, StreamingIngestAndQuery) {
  CorpusOptions opts = small_corpus_opts();
  const auto corpus = generate_corpus(opts);
  CanonicalFlow flow;
  flow.run_batch(corpus);
  const vid_t people_before = flow.store().num_people();
  (void)people_before;
  // A brand-new person sharing two addresses with person vertex 0 should
  // eventually trigger a relationship.
  const auto addrs = flow.store().addresses_of(0);
  ASSERT_GE(addrs.size(), 1u);
  const auto addr_id = static_cast<std::uint32_t>(
      addrs[0] - flow.store().num_people());
  RawRecord rec;
  rec.record_id = 999999;
  rec.first_name = "Zork";
  rec.last_name = "Nonesuch";
  rec.ssn = "999999999";
  rec.birth_year = 1991;
  rec.address_id = addr_id;
  rec.ts = 1000000;
  flow.ingest_streaming(rec);  // first sighting
  RawRecord rec2 = rec;
  rec2.record_id = 1000000;
  // Same person seen at another address of person 0, if any; else same.
  rec2.address_id = addrs.size() > 1 ? static_cast<std::uint32_t>(
                                           addrs[1] - flow.store().num_people())
                                     : addr_id;
  const bool triggered2 = flow.ingest_streaming(rec2);
  if (addrs.size() > 1) {
    EXPECT_TRUE(triggered2);  // two shared addresses => relationship fires
    // Real-time query sees the relationship.
    const auto rels = flow.query(0);
    bool found = false;
    for (const auto& r : rels) {
      if (r.shared_addresses >= 2) found = true;
    }
    EXPECT_TRUE(found);
  }
  EXPECT_FALSE(flow.streaming_timings().empty());
}

}  // namespace
}  // namespace ga::pipeline
