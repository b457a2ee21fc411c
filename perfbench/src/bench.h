// Pieces shared by the end-to-end run (main.cc) and the traced run
// (layers.cc): set-up, the prepared sequence and the result line.
#ifndef KGQ_PERFBENCH_BENCH_H_
#define KGQ_PERFBENCH_BENCH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model.h"
#include "serve/server.h"
#include "workload.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string trace_out;  ///< traced run: where the span dump goes
};

/// Everything derived from the seed before any timing: the expected
/// set-up responses, the post-set-up model and the measured sequence.
struct Prepared {
  std::vector<uint64_t> setup_hashes;
  size_t setup_lines = 0;
  std::array<uint64_t, kNumOps> setup_ops{};
  Model post_setup{0};
  Workload workload;
};
Prepared Prepare(const Args& args);

struct SetupResult {
  std::unique_ptr<kgq::serve::Server> server;
  double seconds = 0.0;          ///< dataset generation + load + publish
  double cold_publish_ms = 0.0;  ///< split_publish only
  bool ok = false;               ///< every set-up response as predicted
  std::array<uint64_t, kNumOps> failed{};
};

/// Set-up as the benchmark times it: generate the dataset, stream it in
/// as add_node / insert_edge lines through ServeStream, then the cold
/// publish — as a line of the same stream, or (split_publish) timed on
/// its own through Server::Publish.
SetupResult Setup(const Args& args, const Prepared& prep, bool split_publish);

/// Requests attempted and failed per op over a run.
struct Tally {
  std::array<uint64_t, kNumOps> attempted{};
  std::array<uint64_t, kNumOps> failed{};

  /// One set-up: every set-up line, failures where a response differed.
  void AddSetup(const Prepared& prep, const SetupResult& setup);
  /// One pass over the sequence with its per-op failures.
  void AddPass(const Workload& w, const std::array<uint64_t, kNumOps>& failed);
  bool AnyFailed() const;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the per-op tallies and metric lines, then the result object
/// as the last line of stdout.
void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics);

/// Peak resident set of this process, in MB.
double PeakRssMb();

/// The traced run (layers.cc).
int RunTraced(const Args& args);

}  // namespace perfbench

#endif  // KGQ_PERFBENCH_BENCH_H_
