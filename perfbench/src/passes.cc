#include "passes.h"

#include <condition_variable>
#include <cstring>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <thread>

#include "common.h"

namespace perfbench {

namespace {

/// Output side of the connection: hands every complete response line to
/// a callback, on the thread that emitted it.
class LineSink : public std::streambuf {
 public:
  explicit LineSink(std::function<void(std::string&&)> on_line)
      : on_line_(std::move(on_line)) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    Append(s, static_cast<size_t>(n));
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const char c = traits_type::to_char_type(ch);
      Append(&c, 1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  void Append(const char* s, size_t n) {
    while (n > 0) {
      const void* nl = std::memchr(s, '\n', n);
      if (nl == nullptr) {
        line_.append(s, n);
        return;
      }
      const size_t len = static_cast<const char*>(nl) - s;
      line_.append(s, len);
      on_line_(std::move(line_));
      line_.clear();
      s += len + 1;
      n -= len + 1;
    }
  }

  std::function<void(std::string&&)> on_line_;
  std::string line_;
};

/// Input side of a closed-loop connection: blocks the server's reader
/// until the client pushes the next line, EOF after Close().
class LineSource : public std::streambuf {
 public:
  void Push(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ += line;
    pending_ += '\n';
    cv_.notify_one();
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_one();
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !pending_.empty() || closed_; });
    if (pending_.empty()) return traits_type::eof();
    current_.swap(pending_);
    pending_.clear();
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::string pending_;
  bool closed_ = false;
  std::string current_;
};

}  // namespace

bool ResponseOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

PassResult PipelinedPass(kgq::serve::Server* server,
                         const std::vector<Line>& lines) {
  PassResult result;
  result.hashes.reserve(lines.size());
  result.bytes.reserve(lines.size());
  std::istringstream in(JoinLines(lines));
  LineSink sink([&](std::string&& line) {
    const size_t i = result.hashes.size();
    if (i < lines.size() && !ResponseOk(line)) {
      ++result.failed[static_cast<size_t>(lines[i].op)];
    }
    result.hashes.push_back(HashResponse(line));
    result.bytes.push_back(line.size());
  });
  std::ostream out(&sink);
  const uint64_t start = NowNs();
  server->ServeStream(in, out);
  result.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return result;
}

PassResult ClosedLoopPass(
    kgq::serve::Server* server, const std::vector<Line>& lines,
    const std::function<void(size_t, const std::string&)>& check) {
  PassResult result;
  result.hashes.reserve(lines.size());
  result.latency_ms.reserve(lines.size());

  std::mutex mu;
  std::condition_variable cv;
  std::string response;
  bool ready = false;
  uint64_t emitted_ns = 0;

  LineSource source;
  std::istream in(&source);
  LineSink sink([&](std::string&& line) {
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu);
    response = std::move(line);
    emitted_ns = now;
    ready = true;
    cv.notify_one();
  });
  std::ostream out(&sink);
  std::thread server_thread([&] { server->ServeStream(in, out); });

  const uint64_t start = NowNs();
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string got;
    const uint64_t sent = NowNs();
    source.Push(lines[i].text);
    uint64_t done = 0;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return ready; });
      ready = false;
      got.swap(response);
      done = emitted_ns;
    }
    result.latency_ms.push_back(static_cast<double>(done - sent) * 1e-6);
    if (!ResponseOk(got)) ++result.failed[static_cast<size_t>(lines[i].op)];
    result.hashes.push_back(HashResponse(got));
    check(i, got);
  }
  source.Close();
  server_thread.join();
  result.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return result;
}

}  // namespace perfbench
