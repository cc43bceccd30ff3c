// The three workloads and what they share: run options, the result every
// run prints, and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The program's modules, as spans and per-layer metrics name them.
inline constexpr const char* kLayers[] = {"io",     "graph", "core",   "codegen",
                                          "engine", "dist",  "service"};

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;             ///< this run's input files and kernel cache
  std::string bin_dir;         ///< where graphpi_serve was built
  std::string reference_path;  ///< reference_counts.json
  Clock::time_point process_start;  ///< taken first thing in main()
  int cpus = 1;
};

/// What one run measured. Metrics are keyed by name; their units and the
/// order they print in come from the tables in main.cpp, which every
/// workload shares: each workload reports every end-to-end metric, and a
/// per-layer metric it does not set reads 0 (its layer is not exercised).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
};

/// Writes the workload's input files (GPS1 snapshots, shard files) to
/// `dir`. Not timed: it runs in its own process before the timed one.
void prepare_paper_suite(const std::string& dir, std::uint64_t seed, int cpus);
void prepare_census_dist(const std::string& dir, std::uint64_t seed, int cpus);
void prepare_serve_mix(const std::string& dir, std::uint64_t seed, int cpus);

/// Runs the workload: timed set-up, rounds until `seconds` have passed,
/// then the correctness checks (into `checker`).
RunResult run_paper_suite(const RunOptions& options, SpanRecorder& spans,
                          Checker& checker);
RunResult run_census_dist(const RunOptions& options, SpanRecorder& spans,
                          Checker& checker);
RunResult run_serve_mix(const RunOptions& options, SpanRecorder& spans,
                        Checker& checker);

/// Reference counts (IEP off, serial backend) on the workload's
/// reference graph, as reference_counts.json stores them.
std::map<std::string, Count> reference_paper_suite();
std::map<std::string, Count> reference_census_dist();

/// Names of the census motifs, M1.. in connected_motifs() order.
inline std::vector<std::string> motif_names(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i)
    names.push_back(std::string("M").append(std::to_string(i + 1)));
  return names;
}

/// Seconds since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated percentile, q in [0, 100]; 0 for no samples.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Runs `call` inside a span of `layer`; `seconds` receives its wall time.
template <class Call>
auto timed(SpanRecorder& spans, std::string name, const char* layer,
           std::uint64_t request, double& seconds, Call&& call) {
  const SpanRecorder::Scope scope(spans, std::move(name), layer, request);
  const Clock::time_point start = Clock::now();
  auto result = call();
  seconds = seconds_since(start);
  return result;
}

/// The engine's per-layer counters, from deltas of the program's metrics
/// registry over the measured rounds: `delta(name)` gives one counter's
/// delta, `rounds` the number of rounds it covers.
template <class Delta>
void add_engine_counters(RunResult& result, Delta&& delta, double rounds) {
  const double roots = delta("engine.matcher.roots_completed") +
                       delta("engine.forest.roots_completed") +
                       delta("generated.roots_completed");
  const double lookups = delta("engine.memo.lookups");
  result.per_layer["engine.iep_terms"] = delta("engine.iep.terms_evaluated") / rounds;
  result.per_layer["engine.roots_completed"] = roots / rounds;
  result.per_layer["engine.memo_lookups"] = lookups;
  result.per_layer["engine.memo_hit_ratio"] =
      lookups > 0 ? delta("engine.memo.hits") / lookups : 0.0;
}

/// Per-layer self seconds of the recorded spans, per traced round, plus
/// the tracing overhead: median traced round minus median untraced round.
void add_trace_metrics(RunResult& result, const SpanRecorder& spans,
                       const std::vector<double>& traced_rounds,
                       const std::vector<double>& untraced_rounds);

}  // namespace perfbench
