// The workloads: their datasets, server configuration and the seeded
// request sequences the passes replay.
#ifndef KGQ_PERFBENCH_WORKLOAD_H_
#define KGQ_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "model.h"
#include "serve/server.h"

namespace perfbench {

enum class Op : uint8_t {
  kAddNode,
  kInsertEdge,
  kDeleteEdge,
  kPublish,
  kQuery,
  kAnalytics,
  kStats,
};
inline constexpr size_t kNumOps = 7;
const char* OpName(Op op);
inline bool IsRead(Op op) { return op == Op::kQuery || op == Op::kAnalytics; }

/// One distinct read and how the evaluator answers it.
struct Read {
  enum class Kind {
    kPathPairs,    ///< (x: src) -[ steps ]-> (y: dst), rows (x, y) or (x)
    kSameGen,      ///< same-generation grammar over `label`, rows (x, y)
    kBgpTwoHop,    ///< n<anchor> steps[0] ?p . ?p steps[1] ?q, rows (p, q)
    kBgpIncoming,  ///< ?p steps[0] n<anchor>, rows (p)
    kComponents,   ///< analytics components, node `anchor`
    kReach,        ///< analytics reach over `label`, node `anchor`
  };
  Kind kind = Kind::kPathPairs;
  std::string lang;  ///< query front-end; empty for analytics
  std::string text;  ///< query text; the cache key the model tracks
  std::vector<std::string> columns;
  std::vector<std::string> src_labels;  ///< empty = any node
  std::vector<std::string> dst_labels;
  std::vector<Step> steps;
  std::string label;
  bool project_src = false;
  size_t limit = 0;
  Node anchor = 0;
};

/// One request line of a sequence.
struct Line {
  Op op = Op::kStats;
  std::string text;
  Node from = 0;
  Node to = 0;
  std::string label;
  int read = -1;  ///< index into Workload::reads for queries/analytics
};

/// A generated dataset: node labels and edges in insertion order.
struct Dataset {
  std::vector<std::string> node_labels;
  std::vector<std::tuple<Node, Node, std::string>> edges;
};

struct Workload {
  std::string name;
  kgq::serve::ServerOptions server;
  size_t threads = 1;  ///< per-request "threads"
  size_t rounds = 0;
  std::vector<Read> reads;
  std::vector<Line> sequence;  ///< `rounds` whole rounds
};

/// True for serve-mixed and path-heavy.
bool KnownWorkload(const std::string& name);

/// Rounds one run replays for a run length of `seconds`.
size_t RoundsFor(const std::string& name, int seconds);

/// Server flags of the workload.
kgq::serve::ServerOptions ServerFor(const std::string& name);

/// Generates the workload's dataset — DBLP-synth, plus the BA-12k graph
/// for path-heavy — the first step of set-up.
Dataset MakeDataset(const std::string& name);

/// Renders the dataset as add_node / insert_edge lines ending in the
/// cold publish.
std::vector<Line> SetupLines(const Dataset& data);

/// Generates `rounds` rounds of the measured sequence. `model` holds the
/// post-set-up state and is advanced through the whole sequence.
Workload MakeWorkload(const std::string& name, uint64_t seed, size_t rounds,
                      Model* model);

/// Joins request lines into one newline-terminated stream.
std::string JoinLines(const std::vector<Line>& lines);

}  // namespace perfbench

#endif  // KGQ_PERFBENCH_WORKLOAD_H_
