#include "bench.h"

#include <sys/resource.h>

#include <cstdio>
#include <sstream>

#include "check.h"
#include "common.h"
#include "passes.h"

namespace perfbench {

namespace {

/// Collects the response hashes of a set-up stream.
class HashSink : public std::streambuf {
 public:
  explicit HashSink(std::vector<uint64_t>* hashes) : hashes_(hashes) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) Put(s[i]);
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      Put(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }

 private:
  void Put(char c) {
    if (c == '\n') {
      hashes_->push_back(HashResponse(line_));
      line_.clear();
    } else {
      line_.push_back(c);
    }
  }
  std::vector<uint64_t>* hashes_;
  std::string line_;
};

}  // namespace

Prepared Prepare(const Args& args) {
  Prepared prep;
  const kgq::serve::ServerOptions options = ServerFor(args.workload);
  const std::vector<Line> setup =
      SetupLines(MakeDataset(args.workload));
  Checker replay(Model(options.cache_capacity), nullptr);
  for (const Line& line : setup) {
    prep.setup_hashes.push_back(HashResponse(replay.Predict(line)));
    ++prep.setup_ops[static_cast<size_t>(line.op)];
  }
  prep.setup_lines = setup.size();
  prep.post_setup = replay.model();
  Model generator = prep.post_setup;
  prep.workload = MakeWorkload(args.workload, args.seed,
                               RoundsFor(args.workload, args.seconds),
                               &generator);
  return prep;
}

SetupResult Setup(const Args& args, const Prepared& prep, bool split_publish) {
  SetupResult result;
  result.server = std::make_unique<kgq::serve::Server>(ServerFor(args.workload));
  std::vector<uint64_t> hashes;
  hashes.reserve(prep.setup_lines);
  const uint64_t start = NowNs();
  std::vector<Line> lines = SetupLines(MakeDataset(args.workload));
  if (split_publish) lines.pop_back();
  {
    std::istringstream in(JoinLines(lines));
    HashSink sink(&hashes);
    std::ostream out(&sink);
    result.server->ServeStream(in, out);
  }
  if (split_publish) {
    const uint64_t publish_start = NowNs();
    kgq::serve::EpochPtr snap = result.server->Publish();
    result.cold_publish_ms =
        static_cast<double>(NowNs() - publish_start) * 1e-6;
    hashes.push_back(HashResponse(kgq::serve::RenderPublish(
        kgq::serve::Request(), snap->epoch, snap->num_nodes(),
        snap->num_edges())));
  }
  result.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  result.ok = hashes == prep.setup_hashes;
  if (!result.ok) {
    // Attribute mismatches to ops for the failure tally.
    for (size_t i = 0; i < lines.size() + (split_publish ? 1 : 0); ++i) {
      if (i >= hashes.size() || i >= prep.setup_hashes.size() ||
          hashes[i] != prep.setup_hashes[i]) {
        const Op op = i < lines.size() ? lines[i].op : Op::kPublish;
        ++result.failed[static_cast<size_t>(op)];
      }
    }
  }
  return result;
}

void Tally::AddSetup(const Prepared& prep, const SetupResult& setup) {
  for (size_t i = 0; i < kNumOps; ++i) {
    attempted[i] += prep.setup_ops[i];
    failed[i] += setup.failed[i];
  }
}

void Tally::AddPass(const Workload& w,
                    const std::array<uint64_t, kNumOps>& pass_failed) {
  for (const Line& line : w.sequence) {
    ++attempted[static_cast<size_t>(line.op)];
  }
  for (size_t i = 0; i < kNumOps; ++i) failed[i] += pass_failed[i];
}

bool Tally::AnyFailed() const {
  for (uint64_t f : failed) {
    if (f > 0) return true;
  }
  return false;
}

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  uint64_t total_attempted = 0, total_failed = 0;
  for (size_t i = 0; i < kNumOps; ++i) {
    total_attempted += tally.attempted[i];
    total_failed += tally.failed[i];
    if (tally.attempted[i] == 0) continue;
    std::printf("op %-12s attempted %10llu  failed %llu\n",
                OpName(static_cast<Op>(i)),
                static_cast<unsigned long long>(tally.attempted[i]),
                static_cast<unsigned long long>(tally.failed[i]));
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(total_attempted);
  json += ",\"failed\":" + std::to_string(total_failed);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ',';
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    AppendJson(&json, metrics[i].name);
    json += ":{\"value\":";
    json += value;
    json += ",\"unit\":";
    AppendJson(&json, metrics[i].unit);
    json += '}';
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
