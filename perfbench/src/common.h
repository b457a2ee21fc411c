// Small helpers shared by the benchmark's translation units: clocks,
// order statistics, response hashing and row parsing.
#ifndef KGQ_PERFBENCH_COMMON_H_
#define KGQ_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for empty input.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// The tail percentile reported as query_tail_ms: the highest of
/// p75/p90/p95/p99/p99.9 that leaves at least ten samples beyond it
/// (p50 when even p75 does not).
double TailPercentile(size_t samples);

/// Hash of one response line with every `_ns` number blanked, so the
/// closed-loop and pipelined streams compare equal when only wall-clock
/// fields differ.
uint64_t HashResponse(std::string_view line);
uint64_t HashBytes(std::string_view bytes);

/// Parses the `"rows":[[..],..]` member of a query response into a flat
/// array of node ids (`arity` ids per row). Returns false on malformed
/// input or when a row's width differs from `arity`.
bool ParseRows(std::string_view response, size_t arity,
               std::vector<uint32_t>* flat);

/// Appends `s` as a JSON string literal.
void AppendJson(std::string* out, std::string_view s);

}  // namespace perfbench

#endif  // KGQ_PERFBENCH_COMMON_H_
