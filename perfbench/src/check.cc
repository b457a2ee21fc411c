#include "check.h"

#include <algorithm>

#include "common.h"

namespace perfbench {

namespace {

constexpr size_t kMaxKeptErrors = 5;

std::string Columns(const std::vector<std::string>& columns) {
  std::string out = "[";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ',';
    AppendJson(&out, columns[i]);
  }
  return out + "]";
}

std::string NodeList(const std::vector<Node>& nodes) {
  std::string out = "[";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(nodes[i]);
  }
  return out + "]";
}

/// The evaluator: the full canonical answer of a query read.
std::vector<uint32_t> Evaluate(const Read& read, const Graph& g) {
  std::vector<uint32_t> flat;
  switch (read.kind) {
    case Read::Kind::kPathPairs: {
      size_t rows = 0;
      for (Node x = 0; x < g.num_nodes(); ++x) {
        if (read.limit > 0 && rows == read.limit) break;
        if (!g.HasLabel(x, read.src_labels)) continue;
        for (Node y : g.Follow({x}, read.steps)) {
          if (!g.HasLabel(y, read.dst_labels)) continue;
          if (read.project_src) {
            flat.push_back(x);
            ++rows;
            break;
          }
          flat.push_back(x);
          flat.push_back(y);
          if (++rows == read.limit) break;
        }
      }
      break;
    }
    case Read::Kind::kBgpTwoHop:
      for (Node p : g.Adj(read.steps[0].label, false, read.anchor)) {
        for (Node q : g.Adj(read.steps[1].label, false, p)) {
          flat.push_back(p);
          flat.push_back(q);
        }
      }
      break;
    case Read::Kind::kSameGen:
      flat = g.SameGeneration(read.label);
      break;
    case Read::Kind::kBgpIncoming:
      for (Node p : g.Adj(read.steps[0].label, true, read.anchor)) {
        flat.push_back(p);
      }
      break;
    default:
      break;
  }
  return flat;
}

}  // namespace

void Checker::Fail(const Line& line, const std::string& what,
                   const std::string& response) {
  ++failures_;
  if (errors_.size() < kMaxKeptErrors) {
    errors_.push_back(what + " | request " + line.text + " | response " +
                      response.substr(0, 200));
  }
}

std::string Checker::Predict(const Line& line) {
  switch (line.op) {
    case Op::kAddNode:
      return "{\"ok\":true,\"node\":" +
             std::to_string(model_.AddNode(line.label)) + "}";
    case Op::kInsertEdge:
    case Op::kDeleteEdge: {
      const bool applied = line.op == Op::kInsertEdge
                               ? model_.Insert(line.from, line.to, line.label)
                               : model_.Delete(line.from, line.to, line.label);
      return std::string("{\"ok\":true,\"applied\":") +
             (applied ? "true" : "false") + "}";
    }
    case Op::kPublish:
      model_.Publish();
      return "{\"ok\":true,\"epoch\":" + std::to_string(model_.epoch()) +
             ",\"nodes\":" + std::to_string(model_.published_nodes()) +
             ",\"edges\":" + std::to_string(model_.published_edges()) + "}";
    case Op::kStats:
      return "{\"ok\":true,\"epoch\":" + std::to_string(model_.epoch()) +
             ",\"nodes\":" + std::to_string(model_.num_nodes()) +
             ",\"edges\":" + std::to_string(model_.num_live_edges()) +
             ",\"pending\":" + std::to_string(model_.pending_ops()) +
             ",\"cache_hits\":" + std::to_string(model_.cache_hits()) +
             ",\"cache_misses\":" + std::to_string(model_.cache_misses()) +
             ",\"cache_size\":" + std::to_string(model_.cache_size()) +
             ",\"writes_applied\":" +
             std::to_string(model_.writes_applied()) +
             ",\"writes_noop\":" + std::to_string(model_.writes_noop()) +
             ",\"p50_ns\":";
    case Op::kAnalytics: {
      const Read& read = (*reads_)[line.read];
      const Graph& g = model_.Published();
      std::string want = "{\"ok\":true,\"epoch\":" +
                         std::to_string(model_.epoch());
      if (read.kind == Read::Kind::kComponents) {
        const auto [count, id] = g.Component(read.anchor);
        want += ",\"view\":\"components\",\"num_components\":" +
                std::to_string(count) + ",\"node\":" +
                std::to_string(read.anchor) +
                ",\"component\":" + std::to_string(id) + "}";
      } else {
        const std::vector<Node> reach =
            g.PositiveReach(read.anchor, read.label);
        want += ",\"view\":\"reach\",\"label\":";
        AppendJson(&want, read.label);
        want += ",\"node\":" + std::to_string(read.anchor) +
                ",\"count\":" + std::to_string(reach.size()) +
                ",\"nodes\":" + NodeList(reach) + "}";
      }
      return want;
    }
    case Op::kQuery:
      break;
  }
  return {};
}

void Checker::Check(const Line& line, const std::string& response) {
  if (line.op == Op::kQuery) {
    CheckQuery(line, response);
    return;
  }
  const std::string want = Predict(line);
  const bool ok = line.op == Op::kStats ? response.rfind(want, 0) == 0
                                        : response == want;
  if (!ok) Fail(line, "expected " + want, response);
}

void Checker::CheckQuery(const Line& line, const std::string& response) {
  const Read& read = (*reads_)[line.read];
  const bool cached = model_.LookupCache(read.text);
  const std::string prefix =
      "{\"ok\":true,\"epoch\":" + std::to_string(model_.epoch()) +
      ",\"cached\":" + (cached ? "true" : "false") + ",";
  if (response.rfind(prefix, 0) != 0) {
    Fail(line, "expected prefix " + prefix, response);
    return;
  }
  const std::string head =
      "\"columns\":" + Columns(read.columns) + ",\"rows\":[";
  if (response.compare(prefix.size(), head.size(), head) != 0) {
    Fail(line, "expected " + head, response);
    return;
  }
  // Everything from "columns" on must repeat exactly for the same read
  // at the same content version — whether served from the cache or not.
  const uint64_t body =
      HashBytes(std::string_view(response).substr(prefix.size()));
  auto it = seen_.find(line.read);
  if (it != seen_.end() &&
      it->second.content_version == model_.content_version()) {
    if (it->second.body_hash != body) {
      Fail(line, "repeat differs from the first answer at this epoch",
           response);
    }
    return;
  }
  std::string why;
  if (!CheckRows(read, response, &why)) {
    Fail(line, why, response);
    return;
  }
  seen_[line.read] = Seen{model_.content_version(), body};
}

bool Checker::CheckRows(const Read& read, const std::string& response,
                        std::string* why) {
  const size_t arity = read.columns.size();
  std::vector<uint32_t> got;
  if (!ParseRows(response, arity, &got)) {
    *why = "malformed rows";
    return false;
  }
  std::vector<uint32_t> want = Evaluate(read, model_.Published());
  if (got != want) {
    *why = "rows differ from the evaluator: " +
           std::to_string(got.size() / arity) + " rows served, " +
           std::to_string(want.size() / arity) + " expected";
    return false;
  }
  return true;
}

}  // namespace perfbench
