// Checks every response of a sequence against the benchmark's model and
// evaluator.
#ifndef KGQ_PERFBENCH_CHECK_H_
#define KGQ_PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "model.h"
#include "workload.h"

namespace perfbench {

class Checker {
 public:
  /// `model` must hold the state the server is in before the first line.
  Checker(Model model, const std::vector<Read>* reads)
      : model_(std::move(model)), reads_(reads) {}

  /// Advances the model over `line` and checks its response. Failures
  /// are recorded (see errors()); the first few are kept verbatim.
  void Check(const Line& line, const std::string& response);

  /// Advances the model over a non-query line and returns the response
  /// it predicts: the exact text, or for stats the prefix up to the
  /// first `_ns` field.
  std::string Predict(const Line& line);

  const std::vector<std::string>& errors() const { return errors_; }
  uint64_t failures() const { return failures_; }
  Model& model() { return model_; }

 private:
  void Fail(const Line& line, const std::string& what,
            const std::string& response);
  void CheckQuery(const Line& line, const std::string& response);
  /// Compares the rows of a first answer with the evaluator.
  bool CheckRows(const Read& read, const std::string& response,
                 std::string* why);

  Model model_;
  const std::vector<Read>* reads_;
  struct Seen {
    uint64_t content_version = 0;
    uint64_t body_hash = 0;
  };
  std::unordered_map<int, Seen> seen_;
  std::vector<std::string> errors_;
  uint64_t failures_ = 0;
};

}  // namespace perfbench

#endif  // KGQ_PERFBENCH_CHECK_H_
