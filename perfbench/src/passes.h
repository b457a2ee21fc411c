// Drives one kgq-serve connection (Server::ServeStream, the loop the
// binary runs) from a single in-process client.
#ifndef KGQ_PERFBENCH_PASSES_H_
#define KGQ_PERFBENCH_PASSES_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/server.h"
#include "workload.h"

namespace perfbench {

struct PassResult {
  std::vector<uint64_t> hashes;    ///< HashResponse of every response line
  std::vector<double> latency_ms;  ///< closed loop: per line
  std::vector<size_t> bytes;       ///< pipelined: response size per line
  double wall_s = 0.0;
  std::array<uint64_t, kNumOps> failed{};  ///< "ok":false responses per op
};

/// Streams every line to the server at once, as `kgq-serve <
/// requests.jsonl` does, and hashes the responses as they are emitted.
/// `wall_s` covers ServeStream from first read to last response.
PassResult PipelinedPass(kgq::serve::Server* server,
                         const std::vector<Line>& lines);

/// Sends one line, waits for its response, then calls `check` (untimed)
/// before sending the next. `latency_ms[i]` runs from handing line i to
/// the server's input to the server emitting its response.
PassResult ClosedLoopPass(
    kgq::serve::Server* server, const std::vector<Line>& lines,
    const std::function<void(size_t, const std::string&)>& check);

/// True when the response reports success.
bool ResponseOk(const std::string& response);

}  // namespace perfbench

#endif  // KGQ_PERFBENCH_PASSES_H_
