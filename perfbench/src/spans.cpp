#include "spans.h"

#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

/// Open recorded spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> open_spans;

std::string escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name,
                           std::string layer, std::uint64_t request)
    : recorder_(recorder) {
  if (!recorder_.recording()) return;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start_ns = recorder_.since_epoch(std::chrono::steady_clock::now());
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request = request;
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(recorder_.mu_);
  index_ = static_cast<std::int64_t>(recorder_.spans_.size());
  recorder_.spans_.push_back(std::move(span));
  open_spans.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  const std::int64_t end =
      recorder_.since_epoch(std::chrono::steady_clock::now());
  open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(recorder_.mu_);
  recorder_.spans_[static_cast<std::size_t>(index_)].end_ns = end;
}

SpanRecorder::SelfSeconds SpanRecorder::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  SelfSeconds self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& bucket = spans_[i].request == 0 ? self.setup : self.operations;
    bucket[spans_[i].layer] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << escaped(s.name)
        << "\",\"cat\":\"" << escaped(s.layer) << "\",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << (s.thread % 1000000)
        << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

}  // namespace perfbench
