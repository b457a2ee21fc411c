#include "common.h"

#include <cmath>
#include <functional>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double TailPercentile(size_t samples) {
  double best = 50.0;
  for (double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

uint64_t HashBytes(std::string_view bytes) {
  return std::hash<std::string_view>{}(bytes);
}

uint64_t HashResponse(std::string_view line) {
  constexpr std::string_view kNs = "_ns\":";
  size_t at = line.find(kNs);
  if (at == std::string_view::npos) return HashBytes(line);
  std::string blanked;
  blanked.reserve(line.size());
  size_t from = 0;
  while (at != std::string_view::npos) {
    size_t end = at + kNs.size();
    blanked.append(line.substr(from, end - from));
    while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
    from = end;
    at = line.find(kNs, from);
  }
  blanked.append(line.substr(from));
  return HashBytes(blanked);
}

bool ParseRows(std::string_view response, size_t arity,
               std::vector<uint32_t>* flat) {
  flat->clear();
  constexpr std::string_view kRows = "\"rows\":[";
  size_t i = response.find(kRows);
  if (i == std::string_view::npos) return false;
  i += kRows.size();
  const char* p = response.data() + i;
  const char* end = response.data() + response.size();
  if (p < end && *p == ']') return true;
  for (;;) {
    if (p >= end || *p != '[') return false;
    ++p;
    size_t width = 0;
    if (p < end && *p == ']') {
      ++p;
    } else {
      for (;;) {
        uint64_t v = 0;
        const char* start = p;
        while (p < end && *p >= '0' && *p <= '9') {
          v = v * 10 + static_cast<uint64_t>(*p - '0');
          ++p;
        }
        if (p == start || v > 0xFFFFFFFFull) return false;
        flat->push_back(static_cast<uint32_t>(v));
        ++width;
        if (p < end && *p == ',') {
          ++p;
          continue;
        }
        if (p < end && *p == ']') {
          ++p;
          break;
        }
        return false;
      }
    }
    if (width != arity) return false;
    if (p < end && *p == ',') {
      ++p;
      continue;
    }
    return p < end && *p == ']';
  }
}

void AppendJson(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace perfbench
