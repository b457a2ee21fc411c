#include "workload.h"

#include <algorithm>
#include <map>

#include "common.h"
#include "datasets/dblp_synth.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr uint64_t kSequenceSalt = 0x7365712d6b677121ull;

std::string NodeRef(Node n) { return "n" + std::to_string(n); }

/// Node ids of the generated graphs, by role.
struct Roles {
  std::vector<Node> authors, papers, ba;
  std::vector<std::string> keywords;
};

Roles RolesOf(const Model& model) {
  Roles r;
  std::map<std::string, bool> keyword_seen;
  for (Node n = 0; n < model.num_nodes(); ++n) {
    const std::string& l = model.node_label(n);
    if (l == "author") {
      r.authors.push_back(n);
    } else if (l == "paper") {
      r.papers.push_back(n);
    } else if (l == "p" || l == "q") {
      r.ba.push_back(n);
    } else if (l != "venue" && !keyword_seen[l]) {
      keyword_seen[l] = true;
      r.keywords.push_back(l);
    }
  }
  return r;
}

template <typename T>
const T& Pick(const std::vector<T>& v, kgq::Rng* rng) {
  return v[rng->Below(v.size())];
}

Read PathPairs(std::string lang, std::string text,
               std::vector<std::string> columns,
               std::vector<std::string> src, std::vector<Step> steps,
               std::vector<std::string> dst, bool project_src = false,
               size_t limit = 0) {
  Read r;
  r.kind = Read::Kind::kPathPairs;
  r.lang = std::move(lang);
  r.text = std::move(text);
  r.columns = std::move(columns);
  r.src_labels = std::move(src);
  r.steps = std::move(steps);
  r.dst_labels = std::move(dst);
  r.project_src = project_src;
  r.limit = limit;
  return r;
}

// ---- serve-mixed reads: cheap, mostly distinct ----

Read BgpTwoHop(Node a, const std::string& l1, const std::string& l2) {
  Read r;
  r.kind = Read::Kind::kBgpTwoHop;
  r.lang = "bgp";
  r.text = NodeRef(a) + " " + l1 + " ?p . ?p " + l2 + " ?q";
  r.columns = {"p", "q"};
  r.steps = {{l1}, {l2}};
  r.anchor = a;
  return r;
}

Read BgpIncoming(const std::string& l, Node x) {
  Read r;
  r.kind = Read::Kind::kBgpIncoming;
  r.lang = "bgp";
  r.text = "?p " + l + " " + NodeRef(x);
  r.columns = {"p"};
  r.steps = {{l, true}};
  r.anchor = x;
  return r;
}

Read MatchAbout(const std::string& kw, size_t limit) {
  return PathPairs("match",
                   "MATCH (p: paper) -[ about ]-> (k: " + kw +
                       ") RETURN p LIMIT " + std::to_string(limit),
                   {"p"}, {"paper"}, {{"about"}}, {kw}, true, limit);
}

Read CrpqAuthorsAbout(const std::string& kw, size_t limit) {
  return PathPairs("crpq",
                   "q(a) :- (a: author) -[ writes ]-> (p), (p) -[ about ]-> "
                   "(k: " + kw + ") LIMIT " + std::to_string(limit),
                   {"a"}, {"author"}, {{"writes"}, {"about"}}, {kw}, true,
                   limit);
}

Read MatchVenues(size_t limit) {
  return PathPairs("match",
                   "MATCH (x: author) -[ writes ]-> (p: paper) -[ in ]-> "
                   "(v: venue) RETURN x, v LIMIT " + std::to_string(limit),
                   {"x", "v"}, {"author"}, {{"writes"}, {"in"}}, {"venue"},
                   false, limit);
}

Read CrpqWritesCites(size_t limit) {
  return PathPairs("crpq",
                   "q(x, y) :- (x: author) -[ writes/cites ]-> (y) LIMIT " +
                       std::to_string(limit),
                   {"x", "y"}, {"author"}, {{"writes"}, {"cites"}}, {}, false,
                   limit);
}

Read Analytics(Read::Kind kind, Node n) {
  Read r;
  r.kind = kind;
  r.anchor = n;
  if (kind == Read::Kind::kReach) r.label = "cites";
  return r;
}

// ---- path-heavy reads: whole-graph path queries ----

Read CitesStar() {
  return PathPairs("crpq", "q(x, y) :- (x: paper) -[ cites* ]-> (y)",
                   {"x", "y"}, {"paper"}, {{"cites", false, true}}, {});
}
Read Coauthors() {
  return PathPairs("crpq",
                   "q(x, y) :- (x: author) -[ writes/writes^- ]-> (y)",
                   {"x", "y"}, {"author"}, {{"writes"}, {"writes", true}},
                   {});
}
Read CoCitation() {
  return PathPairs("match",
                   "MATCH (x: author) -[ writes/cites/writes^- ]-> "
                   "(y: author) RETURN x, y",
                   {"x", "y"}, {"author"},
                   {{"writes"}, {"cites"}, {"writes", true}}, {"author"});
}
// No node test on the BA-12k queries: this is the form the planner's
// engine choice is known to get wrong for `a*`. The DBLP-synth nodes add
// only their zero-length `a*` self-pairs.
Read AStar() {
  return PathPairs("crpq", "q(x, y) :- (x) -[ a* ]-> (y)", {"x", "y"}, {},
                   {{"a", false, true}}, {});
}
Read AThenB() {
  return PathPairs("crpq", "q(x, y) :- (x) -[ a/b ]-> (y)", {"x", "y"}, {},
                   {{"a"}, {"b"}}, {});
}
Read CitedVenues() {
  return PathPairs("crpq",
                   "q(x, y) :- (x: author) -[ writes/cites*/in ]-> (y)",
                   {"x", "y"}, {"author"},
                   {{"writes"}, {"cites", false, true}, {"in"}}, {});
}
Read SameGeneration() {
  Read r;
  r.kind = Read::Kind::kSameGen;
  r.lang = "crpq";
  r.text =
      "grammar SG { SG -> a^- SG a | a^- a } q(x, y) :- (x) -[ SG ]-> (y)";
  r.columns = {"x", "y"};
  r.label = "a";
  return r;
}

/// Builds request lines and keeps the model in step with the writes.
class Builder {
 public:
  Builder(Workload* w, Model* model, kgq::Rng* rng)
      : w_(w), model_(model), rng_(rng) {}

  void Query(const Read& read) {
    Line line;
    line.op = Op::kQuery;
    line.read = Intern(read);
    line.text = "{\"op\":\"query\",\"lang\":\"" + read.lang + "\",\"text\":";
    AppendJson(&line.text, read.text);
    line.text += ",\"threads\":" + std::to_string(w_->threads) + "}";
    w_->sequence.push_back(std::move(line));
  }

  void Analytics(const Read& read) {
    Line line;
    line.op = Op::kAnalytics;
    line.read = Intern(read);
    if (read.kind == Read::Kind::kComponents) {
      line.text = "{\"op\":\"analytics\",\"view\":\"components\",\"node\":" +
                  std::to_string(read.anchor) + "}";
    } else {
      line.text = "{\"op\":\"analytics\",\"view\":\"reach\",\"label\":\"" +
                  read.label + "\",\"node\":" + std::to_string(read.anchor) +
                  "}";
    }
    w_->sequence.push_back(std::move(line));
  }

  void Write(Op op, Node from, Node to, const std::string& label) {
    Line line;
    line.op = op;
    line.from = from;
    line.to = to;
    line.label = label;
    line.text = std::string("{\"op\":\"") +
                (op == Op::kInsertEdge ? "insert_edge" : "delete_edge") +
                "\",\"from\":" + std::to_string(from) +
                ",\"to\":" + std::to_string(to) + ",\"label\":\"" + label +
                "\"}";
    if (op == Op::kInsertEdge) {
      model_->Insert(from, to, label);
    } else {
      model_->Delete(from, to, label);
    }
    w_->sequence.push_back(std::move(line));
  }

  /// Inserts a fresh edge from one of `from` to an earlier id of `to`
  /// (keeps the citation and BA orientation: newer → older).
  void InsertOlder(const std::vector<Node>& from, const std::vector<Node>& to,
                   const std::string& label) {
    Node a = 0, b = 0;
    do {
      a = Pick(from, rng_);
      b = Pick(to, rng_);
    } while (a == b);
    if (b > a) std::swap(a, b);
    Write(Op::kInsertEdge, a, b, label);
  }

  void DeleteRandom(const std::string& label) {
    Node from = 0, to = 0;
    if (model_->RandomEdge(label, rng_, &from, &to)) {
      Write(Op::kDeleteEdge, from, to, label);
    }
  }

  void Publish() {
    model_->Publish();
    Line line;
    line.op = Op::kPublish;
    line.text = "{\"op\":\"publish\"}";
    w_->sequence.push_back(std::move(line));
  }

  void Stats() {
    Line line;
    line.op = Op::kStats;
    line.text = "{\"op\":\"stats\"}";
    w_->sequence.push_back(std::move(line));
  }

 private:
  int Intern(const Read& read) {
    const std::string key =
        read.lang.empty()
            ? "analytics\n" + std::to_string(static_cast<int>(read.kind)) +
                  "\n" + std::to_string(read.anchor)
            : read.lang + "\n" + read.text;
    auto [it, fresh] =
        index_.emplace(key, static_cast<int>(w_->reads.size()));
    if (fresh) w_->reads.push_back(read);
    return it->second;
  }

  Workload* w_;
  Model* model_;
  kgq::Rng* rng_;
  std::map<std::string, int> index_;
};

/// serve-mixed: 32 epochs per round. Each epoch interleaves 36 cheap
/// reads (10% repeats of a read earlier in the epoch) with 4 writes,
/// publishes, and reads two analytics views; every fourth epoch's writes
/// include deletes. A stats line ends the round.
void ServeMixedRound(const Roles& roles, Builder* b, kgq::Rng* rng) {
  constexpr int kEpochs = 32;
  constexpr int kReads = 36;
  constexpr int kWrites = 4;
  for (int e = 0; e < kEpochs; ++e) {
    std::vector<bool> is_write(kReads + kWrites, false);
    for (int k = 0; k < kWrites;) {
      size_t at = rng->Below(is_write.size());
      if (!is_write[at]) {
        is_write[at] = true;
        ++k;
      }
    }
    const bool deletes = e % 4 == 3;
    int writes = 0;
    std::vector<Read> epoch_reads;
    for (bool w : is_write) {
      if (w) {
        const int k = writes++;
        if (deletes && k < 2) {
          b->DeleteRandom(k == 0 ? "cites" : "writes");
        } else if (rng->Bernoulli(0.5)) {
          b->InsertOlder(roles.papers, roles.papers, "cites");
        } else {
          b->Write(Op::kInsertEdge, Pick(roles.authors, rng),
                   Pick(roles.papers, rng), "writes");
        }
        continue;
      }
      const uint64_t pick = rng->Below(100);
      Read read;
      if (pick < 10 && !epoch_reads.empty()) {
        read = Pick(epoch_reads, rng);
      } else if (pick < 45) {
        read = BgpTwoHop(Pick(roles.authors, rng), "writes", "cites");
      } else if (pick < 60) {
        read = BgpIncoming("cites", Pick(roles.papers, rng));
      } else if (pick < 75) {
        read = MatchAbout(Pick(roles.keywords, rng), 5 + rng->Below(196));
      } else if (pick < 85) {
        read = CrpqAuthorsAbout(Pick(roles.keywords, rng),
                                5 + rng->Below(96));
      } else if (pick < 93) {
        read = MatchVenues(5 + rng->Below(296));
      } else {
        read = CrpqWritesCites(5 + rng->Below(296));
      }
      epoch_reads.push_back(read);
      b->Query(read);
    }
    b->Publish();
    b->Analytics(Analytics(Read::Kind::kComponents, Pick(roles.papers, rng)));
    b->Analytics(Analytics(Read::Kind::kReach, Pick(roles.papers, rng)));
  }
  b->Stats();
}

/// path-heavy: every whole-graph path query once, then a small write
/// batch and a publish (so the next round misses the cache), then stats.
void PathHeavyRound(const Roles& roles, Builder* b) {
  for (const Read& read : {CitesStar(), Coauthors(), CoCitation(), AStar(),
                           AThenB(), SameGeneration(), CitedVenues()}) {
    b->Query(read);
  }
  b->InsertOlder(roles.papers, roles.papers, "cites");
  b->InsertOlder(roles.papers, roles.papers, "cites");
  b->DeleteRandom("cites");
  b->InsertOlder(roles.ba, roles.ba, "a");
  b->InsertOlder(roles.ba, roles.ba, "a");
  b->DeleteRandom("a");
  b->Publish();
  b->Stats();
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kAddNode: return "add_node";
    case Op::kInsertEdge: return "insert_edge";
    case Op::kDeleteEdge: return "delete_edge";
    case Op::kPublish: return "publish";
    case Op::kQuery: return "query";
    case Op::kAnalytics: return "analytics";
    case Op::kStats: return "stats";
  }
  return "?";
}

bool KnownWorkload(const std::string& name) {
  return name == "serve-mixed" || name == "path-heavy";
}

size_t RoundsFor(const std::string& name, int seconds) {
  // Rounds per second of run length, so that on a 4-core x86 box the
  // closed-loop and pipelined passes together take about --seconds (a
  // serve-mixed round takes about 11 s, a path-heavy round 2.7 s). The
  // sequence, and with it every count a run reports, is fixed by seed
  // and run length alone, so on another machine the wall time differs.
  const double per_second = name == "serve-mixed" ? 0.09 : 0.36;
  return std::max<size_t>(1, static_cast<size_t>(seconds * per_second + 0.5));
}

kgq::serve::ServerOptions ServerFor(const std::string& name) {
  kgq::serve::ServerOptions options;
  options.workers = name == "path-heavy" ? 1 : 3;
  options.default_query_threads = 1;
  return options;
}

Dataset MakeDataset(const std::string& name) {
  // The graphs of bench_e11 / bench_e12, with their generator seeds: the
  // run seed drives the request sequence, so runs with different seeds
  // replay different traffic over the same dataset.
  kgq::DblpGraphOptions gopts;
  gopts.num_papers = 3000;
  gopts.num_authors = 800;
  gopts.num_venues = 40;
  gopts.max_coauthors = 4;
  kgq::Rng dblp_rng(gopts.seed);
  std::vector<kgq::LabeledGraph> graphs;
  graphs.push_back(kgq::BuildDblpGraph(gopts, &dblp_rng));
  if (name == "path-heavy") {
    kgq::Rng ba_rng(20260807);
    graphs.push_back(
        kgq::BarabasiAlbert(12000, 2, {"p", "q"}, {"a", "b"}, &ba_rng));
  }
  Dataset data;
  for (const kgq::LabeledGraph& g : graphs) {
    const Node base = static_cast<Node>(data.node_labels.size());
    for (kgq::NodeId n = 0; n < g.num_nodes(); ++n) {
      data.node_labels.push_back(g.NodeLabelString(n));
    }
    for (kgq::EdgeId e = 0; e < g.num_edges(); ++e) {
      data.edges.emplace_back(base + g.EdgeSource(e), base + g.EdgeTarget(e),
                              g.EdgeLabelString(e));
    }
  }
  return data;
}

std::vector<Line> SetupLines(const Dataset& data) {
  std::vector<Line> lines;
  lines.reserve(data.node_labels.size() + data.edges.size() + 1);
  for (const std::string& label : data.node_labels) {
    Line line;
    line.op = Op::kAddNode;
    line.label = label;
    line.text = "{\"op\":\"add_node\",\"label\":";
    AppendJson(&line.text, label);
    line.text += "}";
    lines.push_back(std::move(line));
  }
  for (const auto& [from, to, label] : data.edges) {
    Line line;
    line.op = Op::kInsertEdge;
    line.from = from;
    line.to = to;
    line.label = label;
    line.text = "{\"op\":\"insert_edge\",\"from\":" + std::to_string(from) +
                ",\"to\":" + std::to_string(to) + ",\"label\":";
    AppendJson(&line.text, label);
    line.text += "}";
    lines.push_back(std::move(line));
  }
  Line publish;
  publish.op = Op::kPublish;
  publish.text = "{\"op\":\"publish\"}";
  lines.push_back(std::move(publish));
  return lines;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, size_t rounds,
                      Model* model) {
  Workload w;
  w.name = name;
  w.server = ServerFor(name);
  w.threads = name == "path-heavy" ? 4 : 1;
  w.rounds = rounds;
  kgq::Rng rng(seed ^ kSequenceSalt);
  const Roles roles = RolesOf(*model);
  Builder b(&w, model, &rng);
  for (size_t r = 0; r < rounds; ++r) {
    if (name == "serve-mixed") {
      ServeMixedRound(roles, &b, &rng);
    } else {
      PathHeavyRound(roles, &b);
    }
  }
  return w;
}

std::string JoinLines(const std::vector<Line>& lines) {
  size_t bytes = 0;
  for (const Line& l : lines) bytes += l.text.size() + 1;
  std::string out;
  out.reserve(bytes);
  for (const Line& l : lines) {
    out += l.text;
    out += '\n';
  }
  return out;
}

}  // namespace perfbench
