// The benchmark's own copy of the served graph and its evaluator.
//
// Model replays the write lines the benchmark generated (the same set
// semantics as the serving layer: duplicate inserts and absent deletes
// are no-ops) and predicts every deterministic response field: publish
// epochs and counts, stats tallies, and which reads hit the query cache.
// Graph is a frozen, per-label adjacency copy of one published epoch on
// which the evaluator answers reads with BFS closures, step-wise joins
// and union-find — code that shares nothing with the served engines.
#ifndef KGQ_PERFBENCH_MODEL_H_
#define KGQ_PERFBENCH_MODEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace perfbench {

using Node = uint32_t;

/// One hop of a path expression: `label`, traversed forwards or
/// backwards (`^-`), once or under Kleene star.
struct Step {
  std::string label;
  bool backward = false;
  bool star = false;
};

/// A frozen published epoch: node labels plus forward and backward
/// adjacency per edge label.
class Graph {
 public:
  Graph(std::vector<std::string> node_labels,
        const std::vector<std::tuple<Node, Node, std::string>>& edges);

  size_t num_nodes() const { return node_labels_.size(); }
  bool HasLabel(Node n, const std::vector<std::string>& labels) const;

  /// Neighbours of `n` over `label` (successors, or predecessors when
  /// `backward`), ascending. Empty for an unknown label.
  const std::vector<Node>& Adj(const std::string& label, bool backward,
                               Node n) const;

  /// Every node reachable from `sources` along `steps` (a starred step
  /// is a reflexive BFS closure), ascending.
  std::vector<Node> Follow(std::vector<Node> sources,
                           const std::vector<Step>& steps) const;

  /// The same-generation relation of `label` (grammar SG -> l^- SG l |
  /// l^- l): pairs (x, y) with walks z -l->^k x and z -l->^k y, k >= 1.
  /// A pair BFS from every (z, z) through simultaneous forward steps;
  /// flat (x, y) pairs, ascending.
  std::vector<uint32_t> SameGeneration(const std::string& label) const;

  /// Weakly connected components: (count, component id of `n`), ids in
  /// order of each component's minimum node (union-find).
  std::pair<size_t, uint32_t> Component(Node n) const;

  /// Positive-length closure of `label` from `n`, ascending.
  std::vector<Node> PositiveReach(Node n, const std::string& label) const;

 private:
  struct Adjacency {
    std::vector<std::vector<Node>> out;
    std::vector<std::vector<Node>> in;
  };
  std::vector<std::string> node_labels_;
  std::map<std::string, Adjacency> adj_;
  std::vector<Node> empty_;
  mutable std::vector<uint32_t> stamp_;
  mutable uint32_t stamp_gen_ = 0;
  mutable std::vector<uint32_t> components_;  // lazily computed
  mutable size_t num_components_ = 0;

  uint32_t NextStamp() const;
};

/// The write-side replica: live edge set, net delta since the last
/// publish, epoch / content-version counters, write tallies, and a model
/// of the query cache (hit iff the canonical text was already looked up
/// under the current content version; wholesale clear at capacity).
class Model {
 public:
  explicit Model(size_t cache_capacity) : cache_capacity_(cache_capacity) {}

  Node AddNode(const std::string& label);
  bool Insert(Node from, Node to, const std::string& label);
  bool Delete(Node from, Node to, const std::string& label);
  /// Returns true when the published content changed.
  bool Publish();

  /// Predicts the cache outcome of one query lookup and records it.
  bool LookupCache(const std::string& text);

  uint64_t epoch() const { return epoch_; }
  uint64_t content_version() const { return content_version_; }
  size_t num_nodes() const { return node_labels_.size(); }
  const std::string& node_label(Node n) const { return node_labels_[n]; }
  size_t num_live_edges() const { return live_.size(); }
  size_t published_edges() const { return published_edges_; }
  size_t published_nodes() const { return published_nodes_; }
  size_t pending_ops() const { return pending_ops_; }
  uint64_t writes_applied() const { return writes_applied_; }
  uint64_t writes_noop() const { return writes_noop_; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }
  size_t cache_size() const { return cache_keys_.size(); }

  /// A uniformly drawn live edge of `label`; false if there is none.
  bool RandomEdge(const std::string& label, kgq::Rng* rng, Node* from,
                  Node* to) const;

  /// The frozen graph of the latest published epoch (built on first
  /// use after each content-changing publish).
  const Graph& Published();

 private:
  static uint64_t Key(Node from, Node to, uint32_t label) {
    return (static_cast<uint64_t>(label) << 48) |
           (static_cast<uint64_t>(from) << 24) | to;
  }
  uint32_t LabelId(const std::string& label);

  size_t cache_capacity_;
  std::vector<std::string> node_labels_;
  std::vector<std::string> edge_labels_;
  std::unordered_map<std::string, uint32_t> edge_label_ids_;
  std::unordered_set<uint64_t> live_;
  /// Per label: live keys (for uniform draws) and their positions.
  std::vector<std::vector<uint64_t>> by_label_;
  std::unordered_map<uint64_t, size_t> pos_;
  std::unordered_map<uint64_t, bool> delta_;
  size_t base_nodes_ = 0;
  uint64_t epoch_ = 0;
  uint64_t content_version_ = 0;
  size_t published_edges_ = 0;
  size_t published_nodes_ = 0;
  size_t pending_ops_ = 0;
  uint64_t writes_applied_ = 0;
  uint64_t writes_noop_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  std::unordered_set<std::string> cache_keys_;
  std::vector<uint64_t> published_keys_;  ///< live set at the last publish
  std::shared_ptr<const Graph> published_;
};

}  // namespace perfbench

#endif  // KGQ_PERFBENCH_MODEL_H_
