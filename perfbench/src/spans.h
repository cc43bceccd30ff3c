// In-memory spans around the benchmark's calls into the program's layers.
//
// A span has a name, the layer it times (io, graph, core, codegen, engine,
// dist, service), start and end, the span that encloses it on the same
// thread, and the id of the operation it belongs to. Spans are kept in
// memory while recording is on and written as Chrome trace JSON when the
// run ends; a layer's self time is its spans' durations minus the time
// their child spans cover.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;  ///< since the recorder was created
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;   ///< index into spans(), -1 for a root
    std::uint64_t request = 0;
    std::uint64_t thread = 0;
  };

  /// Times one call; records a span when the recorder was on at entry.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, std::string layer,
          std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::int64_t index_ = -1;
  };

  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  void set_recording(bool on) { recording_.store(on); }
  [[nodiscard]] bool recording() const noexcept { return recording_.load(); }

  /// Self seconds per layer, split into set-up spans (request 0) and
  /// spans of measured operations (request != 0).
  struct SelfSeconds {
    std::map<std::string, double> setup;
    std::map<std::string, double> operations;
  };
  [[nodiscard]] SelfSeconds self_seconds() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events).
  void write_chrome_json(const std::string& path) const;

  [[nodiscard]] std::size_t size() const;

 private:
  std::int64_t since_epoch(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench
