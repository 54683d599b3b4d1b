// The persistent, multi-class property graph at the center of Fig. 2.
// Vertex classes: Person and Address (the paper stresses real graphs have
// "many classes of vertices", unlike single-class academic kernels).
// Edges: person—address residency links with timestamps; weight = number
// of distinct sightings. Properties live in a columnar PropertyTable so
// analytics can write back new columns forever (the paper's "thousands of
// properties" accretion).
//
// The store models the paper's two-level memory: the big DynamicGraph is
// the "persistent" level, and ExtractedSubgraph (extraction.hpp) is the
// small fast level analytics run against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "graph/property_table.hpp"
#include "pipeline/dedup.hpp"
#include "store/epoch_log.hpp"
#include "store/versioned_store.hpp"

namespace ga::pipeline {

enum class VertexClass : std::uint8_t { kPerson = 0, kAddress = 1 };

class GraphStore {
 public:
  /// Builds the bipartite person–address graph from deduped entities.
  /// Person vertex v in [0, num_people); address vertex = num_people + id.
  explicit GraphStore(const std::vector<Entity>& entities,
                      std::uint32_t num_addresses);

  vid_t num_vertices() const { return g_.num_vertices(); }
  vid_t num_people() const { return num_people_; }
  vid_t num_addresses() const { return num_addresses_; }
  /// Class of any vertex, including persons appended by the streaming path
  /// (read from the "class" property column, the source of truth).
  VertexClass vertex_class(vid_t v) const {
    return static_cast<VertexClass>(props_.ints("class")[v]);
  }
  vid_t person_vertex(std::uint64_t entity_id) const {
    GA_CHECK(entity_id < num_people_, "person id out of range");
    return static_cast<vid_t>(entity_id);
  }
  vid_t address_vertex(std::uint32_t address_id) const {
    GA_CHECK(address_id < num_addresses_, "address id out of range");
    return num_people_ + address_id;
  }

  graph::DynamicGraph& graph() { return g_; }
  const graph::DynamicGraph& graph() const { return g_; }
  graph::PropertyTable& properties() { return props_; }
  const graph::PropertyTable& properties() const { return props_; }

  /// Streaming path: add a new person entity (grows the vertex space) —
  /// returns its vertex id. Addresses are fixed at construction.
  vid_t add_person(const Entity& e, std::int64_t ts);

  /// Streaming path: record a (person, address) sighting; bumps the edge
  /// weight if already present.
  void add_residency(vid_t person, std::uint32_t address_id, std::int64_t ts);

  /// Distinct addresses of a person (sorted vertex ids of address class).
  std::vector<vid_t> addresses_of(vid_t person) const;

  /// Versioned read path over the persistent graph: the first call seeds
  /// an embedded delta-chain store from one O(|E|) snapshot; later calls
  /// seal whatever add_person/add_residency changed since and return an
  /// O(Δ) overlay view (the store's compactor folds when the chain gets
  /// deep). This is what the flow publishes to the serving layer.
  store::GraphView view() const;

  /// The embedded delta-chain store; nullptr until the first view() call.
  /// Exposed for chain-depth / compaction statistics.
  const store::VersionedGraphStore* versioned_store() const {
    return versioned_.get();
  }

  /// Make every published epoch durable: attached to the embedded
  /// delta-chain store when view() seeds it (immediately if it already
  /// exists). Not owned; must outlive the store.
  void set_epoch_log(store::EpochLog* log) {
    epoch_log_ = log;
    if (versioned_ && epoch_log_) epoch_log_->attach(*versioned_);
  }

  /// Content digest over vertex counts, adjacency (neighbor-sorted, so the
  /// physical edge-block layout doesn't matter), weights, timestamps, and
  /// all property columns. Two stores with equal digests hold identical
  /// logical state. Wider than store::view_digest(): the epoch log that
  /// set_epoch_log() attaches records adjacency and weights only, not
  /// timestamps or the property table.
  std::uint64_t content_digest() const;

  /// Binary persistence — the Fig. 2 store outlives any single analytic.
  void save(std::ostream& os) const;
  static GraphStore load(std::istream& is);
  void save_file(const std::string& path) const;
  static GraphStore load_file(const std::string& path);

 private:
  GraphStore(vid_t num_people, vid_t num_addresses,
             graph::PropertyTable props);
  graph::DynamicGraph g_;
  graph::PropertyTable props_;
  vid_t num_people_ = 0;
  vid_t num_addresses_ = 0;
  // Delta capture for the versioned read path (mutable: view() is a const
  // read that lazily seeds the store and folds pending mutations in).
  mutable std::unique_ptr<store::VersionedGraphStore> versioned_;
  mutable store::DeltaBatch pending_;
  store::EpochLog* epoch_log_ = nullptr;
};

}  // namespace ga::pipeline
