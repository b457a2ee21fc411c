// kgq-perfbench — the end-to-end and per-layer benchmark of kgq-serve.
//
// Usage:
//   kgq-perfbench --workload serve-mixed|path-heavy
//                 --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 sets the workload up three times and replays its seeded
// request sequence through Server::ServeStream twice — once closed-loop
// (one line in flight, every response checked against the benchmark's
// own evaluator) and once pipelined — and reports the end-to-end
// metrics. --trace 1 is the separate traced run that times each layer
// through its public functions (layers.cc). The last line of stdout is
// the result object; the exit code is 1 when any check failed.
// perfbench/README.md documents the workloads and metrics.

#include <algorithm>
#include <cstdio>
#include <map>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "check.h"
#include "common.h"
#include "passes.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1 || args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return KnownWorkload(args->workload);
}

/// The reads that cost the closed loop most, with their median latency
/// — enough to explain a run's read metrics from its own output.
void PrintSlowestReads(const Workload& w, const PassResult& closed) {
  std::map<std::string, std::vector<double>> by_read;
  for (size_t i = 0; i < w.sequence.size(); ++i) {
    const Line& line = w.sequence[i];
    if (!IsRead(line.op)) continue;
    const Read& read = w.reads[line.read];
    std::string name = read.lang;
    if (read.kind == Read::Kind::kComponents) name = "analytics components";
    if (read.kind == Read::Kind::kReach) name = "analytics reach " + read.label;
    if (read.kind == Read::Kind::kPathPairs || read.kind == Read::Kind::kSameGen) {
      name += " " + read.text;
    } else if (read.kind == Read::Kind::kBgpTwoHop) {
      name += " n<i> " + read.steps[0].label + " ?p . ?p " +
              read.steps[1].label + " ?q";
    } else if (read.kind == Read::Kind::kBgpIncoming) {
      name += " ?p " + read.steps[0].label + " n<i>";
    }
    // Templates that differ only in LIMIT share one row.
    const size_t limit = name.rfind(" LIMIT ");
    if (limit != std::string::npos) name = name.substr(0, limit) + " LIMIT k";
    by_read[name].push_back(closed.latency_ms[i]);
  }
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, ms] : by_read) {
    double total = 0;
    for (double v : ms) total += v;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%6zu reads  p50 %10.3f ms  total %9.1f ms  ",
                  ms.size(), Median(ms), total);
    rows.emplace_back(total, buf + name);
  }
  std::sort(rows.rbegin(), rows.rend());
  for (size_t i = 0; i < rows.size() && i < 10; ++i) {
    std::printf("read %s\n", rows[i].second.c_str());
  }
}

int RunEndToEnd(const Args& args) {
  const Prepared prep = Prepare(args);
  const Workload& w = prep.workload;
  Tally tally;
  bool correct = true;
  std::vector<double> setup_s;

  auto setup = [&]() {
    SetupResult s = Setup(args, prep, /*split_publish=*/false);
    setup_s.push_back(s.seconds);
    tally.AddSetup(prep, s);
    if (!s.ok) {
      correct = false;
      std::fprintf(stderr, "FAIL: set-up responses differ from the model\n");
    }
    return s;
  };

  // Closed loop: latencies, with every response checked in between.
  PassResult closed;
  {
    SetupResult s = setup();
    Checker checker(prep.post_setup, &w.reads);
    closed = ClosedLoopPass(s.server.get(), w.sequence,
                            [&](size_t i, const std::string& response) {
                              checker.Check(w.sequence[i], response);
                            });
    tally.AddPass(w, closed.failed);
    if (checker.failures() > 0) {
      correct = false;
      std::fprintf(stderr, "FAIL: %llu responses failed their checks\n",
                   static_cast<unsigned long long>(checker.failures()));
      for (const std::string& e : checker.errors()) {
        std::fprintf(stderr, "  %s\n", e.c_str());
      }
    }
  }
  // The memory high-water mark of set-up plus the closed loop, where one
  // request is in flight at a time; the pipelined pass's peak depends on
  // how its concurrent large answers happen to overlap.
  const double peak_rss_mb = PeakRssMb();

  // Pipelined: throughput, and the same byte stream once `_ns` fields
  // are blanked.
  PassResult piped;
  {
    SetupResult s = setup();
    piped = PipelinedPass(s.server.get(), w.sequence);
    tally.AddPass(w, piped.failed);
    if (piped.hashes != closed.hashes) {
      correct = false;
      size_t i = 0;
      while (i < piped.hashes.size() && i < closed.hashes.size() &&
             piped.hashes[i] == closed.hashes[i]) {
        ++i;
      }
      std::fprintf(stderr,
                   "FAIL: pipelined stream differs from the closed loop at "
                   "line %zu\n", i);
    }
  }
  setup();  // A third set-up, for the median.

  std::vector<double> reads, publishes;
  for (size_t i = 0; i < w.sequence.size(); ++i) {
    if (IsRead(w.sequence[i].op)) reads.push_back(closed.latency_ms[i]);
    if (w.sequence[i].op == Op::kPublish) {
      publishes.push_back(closed.latency_ms[i]);
    }
  }
  PrintSlowestReads(w, closed);
  const double tail = TailPercentile(reads.size());
  std::printf("workload %s: seed %llu, %zu rounds, %zu lines per pass, "
              "%zu reads; query_tail_ms is p%g of %zu reads\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.rounds, w.sequence.size(), reads.size(), tail, reads.size());
  std::printf("closed loop %.3f s, pipelined %.3f s\n", closed.wall_s,
              piped.wall_s);
  if (tally.AnyFailed()) correct = false;
  PrintResult(correct, tally,
              {{"setup_s", Median(setup_s), "s"},
               {"query_p50_ms", Median(reads), "ms"},
               {"query_tail_ms", Quantile(reads, tail / 100.0), "ms"},
               {"throughput_rps",
                static_cast<double>(w.sequence.size()) / piped.wall_s, "1/s"},
               {"publish_p50_ms", Median(publishes), "ms"},
               {"peak_rss_mb", peak_rss_mb, "MB"}});
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload serve-mixed|path-heavy "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return args.trace ? perfbench::RunTraced(args)
                    : perfbench::RunEndToEnd(args);
}
