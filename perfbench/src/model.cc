#include "model.h"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace perfbench {

Graph::Graph(std::vector<std::string> node_labels,
             const std::vector<std::tuple<Node, Node, std::string>>& edges)
    : node_labels_(std::move(node_labels)),
      stamp_(node_labels_.size(), 0) {
  const size_t n = node_labels_.size();
  for (const auto& [from, to, label] : edges) {
    Adjacency& a = adj_[label];
    if (a.out.empty()) {
      a.out.resize(n);
      a.in.resize(n);
    }
    a.out[from].push_back(to);
    a.in[to].push_back(from);
  }
  for (auto& [label, a] : adj_) {
    for (auto& v : a.out) std::sort(v.begin(), v.end());
    for (auto& v : a.in) std::sort(v.begin(), v.end());
  }
}

bool Graph::HasLabel(Node n, const std::vector<std::string>& labels) const {
  if (labels.empty()) return true;
  return std::find(labels.begin(), labels.end(), node_labels_[n]) !=
         labels.end();
}

const std::vector<Node>& Graph::Adj(const std::string& label, bool backward,
                                    Node n) const {
  auto it = adj_.find(label);
  if (it == adj_.end()) return empty_;
  return backward ? it->second.in[n] : it->second.out[n];
}

uint32_t Graph::NextStamp() const {
  if (++stamp_gen_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    stamp_gen_ = 1;
  }
  return stamp_gen_;
}

std::vector<Node> Graph::Follow(std::vector<Node> sources,
                                const std::vector<Step>& steps) const {
  std::vector<Node> next;
  for (const Step& step : steps) {
    const uint32_t s = NextStamp();
    next.clear();
    if (step.star) {
      for (Node v : sources) {
        if (stamp_[v] != s) {
          stamp_[v] = s;
          next.push_back(v);
        }
      }
      for (size_t i = 0; i < next.size(); ++i) {
        for (Node w : Adj(step.label, step.backward, next[i])) {
          if (stamp_[w] != s) {
            stamp_[w] = s;
            next.push_back(w);
          }
        }
      }
    } else {
      for (Node v : sources) {
        for (Node w : Adj(step.label, step.backward, v)) {
          if (stamp_[w] != s) {
            stamp_[w] = s;
            next.push_back(w);
          }
        }
      }
    }
    sources.swap(next);
  }
  std::sort(sources.begin(), sources.end());
  return sources;
}

std::vector<uint32_t> Graph::SameGeneration(const std::string& label) const {
  std::unordered_set<uint64_t> seen;
  std::vector<uint64_t> frontier;
  auto visit = [&](Node u, Node v) {
    const uint64_t pair = (static_cast<uint64_t>(u) << 32) | v;
    if (seen.insert(pair).second) frontier.push_back(pair);
  };
  for (Node z = 0; z < num_nodes(); ++z) {
    for (Node u : Adj(label, false, z)) {
      for (Node v : Adj(label, false, z)) visit(u, v);
    }
  }
  for (size_t i = 0; i < frontier.size(); ++i) {
    const Node u = static_cast<Node>(frontier[i] >> 32);
    const Node v = static_cast<Node>(frontier[i] & 0xFFFFFFFFu);
    for (Node u2 : Adj(label, false, u)) {
      for (Node v2 : Adj(label, false, v)) visit(u2, v2);
    }
  }
  std::sort(frontier.begin(), frontier.end());
  std::vector<uint32_t> flat;
  flat.reserve(2 * frontier.size());
  for (uint64_t pair : frontier) {
    flat.push_back(static_cast<uint32_t>(pair >> 32));
    flat.push_back(static_cast<uint32_t>(pair & 0xFFFFFFFFu));
  }
  return flat;
}

std::pair<size_t, uint32_t> Graph::Component(Node n) const {
  if (components_.empty()) {
    const size_t nn = num_nodes();
    std::vector<uint32_t> parent(nn);
    std::iota(parent.begin(), parent.end(), 0u);
    auto find = [&parent](uint32_t v) {
      while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
      }
      return v;
    };
    for (const auto& [label, a] : adj_) {
      for (Node v = 0; v < nn; ++v) {
        for (Node w : a.out[v]) {
          uint32_t rv = find(v), rw = find(w);
          if (rv != rw) parent[std::max(rv, rw)] = std::min(rv, rw);
        }
      }
    }
    components_.assign(nn, 0);
    std::vector<uint32_t> id(nn, UINT32_MAX);
    num_components_ = 0;
    for (Node v = 0; v < nn; ++v) {
      uint32_t r = find(v);
      if (id[r] == UINT32_MAX) id[r] = static_cast<uint32_t>(num_components_++);
      components_[v] = id[r];
    }
  }
  return {num_components_, components_[n]};
}

std::vector<Node> Graph::PositiveReach(Node n, const std::string& label) const {
  return Follow(Follow({n}, {{label, false, false}}), {{label, false, true}});
}

Node Model::AddNode(const std::string& label) {
  node_labels_.push_back(label);
  ++pending_ops_;
  ++writes_applied_;
  return static_cast<Node>(node_labels_.size() - 1);
}

uint32_t Model::LabelId(const std::string& label) {
  auto [it, fresh] = edge_label_ids_.emplace(
      label, static_cast<uint32_t>(edge_labels_.size()));
  if (fresh) {
    edge_labels_.push_back(label);
    by_label_.emplace_back();
  }
  return it->second;
}

bool Model::Insert(Node from, Node to, const std::string& label) {
  const uint32_t l = LabelId(label);
  const uint64_t key = Key(from, to, l);
  if (!live_.insert(key).second) {
    ++writes_noop_;
    return false;
  }
  pos_[key] = by_label_[l].size();
  by_label_[l].push_back(key);
  auto it = delta_.find(key);
  if (it != delta_.end()) {
    delta_.erase(it);
  } else {
    delta_.emplace(key, true);
  }
  ++pending_ops_;
  ++writes_applied_;
  return true;
}

bool Model::Delete(Node from, Node to, const std::string& label) {
  const uint32_t l = LabelId(label);
  const uint64_t key = Key(from, to, l);
  if (live_.erase(key) == 0) {
    ++writes_noop_;
    return false;
  }
  std::vector<uint64_t>& keys = by_label_[l];
  const size_t at = pos_[key];
  keys[at] = keys.back();
  pos_[keys[at]] = at;
  keys.pop_back();
  pos_.erase(key);
  auto it = delta_.find(key);
  if (it != delta_.end()) {
    delta_.erase(it);
  } else {
    delta_.emplace(key, false);
  }
  ++pending_ops_;
  ++writes_applied_;
  return true;
}

bool Model::Publish() {
  ++epoch_;
  const bool changed = !delta_.empty() || node_labels_.size() != base_nodes_;
  if (changed) {
    ++content_version_;
    cache_keys_.clear();
    published_keys_.assign(live_.begin(), live_.end());
    published_.reset();
  }
  delta_.clear();
  base_nodes_ = node_labels_.size();
  published_nodes_ = node_labels_.size();
  published_edges_ = live_.size();
  pending_ops_ = 0;
  return changed;
}

bool Model::LookupCache(const std::string& text) {
  if (cache_keys_.count(text) > 0) {
    ++cache_hits_;
    return true;
  }
  ++cache_misses_;
  if (cache_capacity_ > 0) {
    if (cache_keys_.size() >= cache_capacity_) cache_keys_.clear();
    cache_keys_.insert(text);
  }
  return false;
}

bool Model::RandomEdge(const std::string& label, kgq::Rng* rng, Node* from,
                       Node* to) const {
  auto it = edge_label_ids_.find(label);
  if (it == edge_label_ids_.end() || by_label_[it->second].empty()) {
    return false;
  }
  const std::vector<uint64_t>& keys = by_label_[it->second];
  const uint64_t key = keys[rng->Below(keys.size())];
  *from = static_cast<Node>((key >> 24) & 0xFFFFFF);
  *to = static_cast<Node>(key & 0xFFFFFF);
  return true;
}

const Graph& Model::Published() {
  if (published_ == nullptr) {
    std::vector<std::tuple<Node, Node, std::string>> edges;
    edges.reserve(published_keys_.size());
    for (uint64_t key : published_keys_) {
      edges.emplace_back(static_cast<Node>((key >> 24) & 0xFFFFFF),
                         static_cast<Node>(key & 0xFFFFFF),
                         edge_labels_[key >> 48]);
    }
    std::vector<std::string> labels(node_labels_.begin(),
                                    node_labels_.begin() +
                                        static_cast<ptrdiff_t>(published_nodes_));
    published_ = std::make_shared<const Graph>(std::move(labels), edges);
  }
  return *published_;
}

}  // namespace perfbench
