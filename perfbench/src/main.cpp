// perfbench_driver: the benchmark's timed process.
//
//   perfbench_driver prepare --workload W --seed N --dir D
//       writes the workload's input files (untimed, own process)
//   perfbench_driver run --workload W --seed N --seconds S --trace 0|1
//                        --dir D --bin-dir B --reference F [--trace-out T]
//       set-up (timed from process start), measured rounds, checks; the
//       last stdout line is the result JSON
//   perfbench_driver reference --out F
//       recounts the reference graphs with IEP off on the serial backend
//
// perfbench/run.py builds this binary and drives it; see README.md.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "inputs.h"
#include "workloads.h"

namespace perfbench {

void add_trace_metrics(RunResult& result, const SpanRecorder& spans,
                       const std::vector<double>& traced_rounds,
                       const std::vector<double>& untraced_rounds) {
  const double rounds = static_cast<double>(std::max<std::size_t>(1, traced_rounds.size()));
  const auto self = spans.self_seconds();
  const auto seconds_of = [](const std::map<std::string, double>& m, const char* layer) {
    const auto it = m.find(layer);
    return it == m.end() ? 0.0 : it->second;
  };
  // Set-up self time plus the mean self time of one traced round: where
  // one set-up and one round of the workload spend their time.
  for (const char* layer : kLayers)
    result.per_layer[std::string("self_s.") + layer] =
        seconds_of(self.setup, layer) + seconds_of(self.operations, layer) / rounds;
  result.per_layer["trace.overhead_s"] =
      traced_rounds.empty() || untraced_rounds.empty()
          ? 0.0
          : median(traced_rounds) - median(untraced_rounds);
  result.per_layer["trace.spans"] = static_cast<double>(spans.size());
}

namespace {

struct Args {
  std::string command, workload, dir, bin_dir, reference, trace_out, out;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing command");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " expects a value");
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--dir") a.dir = value;
    else if (flag == "--bin-dir") a.bin_dir = value;
    else if (flag == "--reference") a.reference = value;
    else if (flag == "--trace-out") a.trace_out = value;
    else if (flag == "--out") a.out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return a;
}

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metrics BENCHMARK.json lists, in its order. Every workload prints
/// all of them; run.py checks the printed names and units against the
/// manifest.
const std::vector<MetricSpec> kEndToEnd = {{"setup_s", "s"}, {"round_s", "s"}};

std::vector<MetricSpec> per_layer_specs() {
  const std::vector<std::string> patterns = {"P1", "P2", "P3", "P4", "P5", "P6"};
  std::vector<MetricSpec> out = {{"io.load_s", "s"},
                                 {"io.shard_load_s", "s"},
                                 {"io.snapshot_bytes", "bytes"},
                                 {"graph.stats_s", "s"}};
  const auto per_pattern = [&](const std::string& prefix, const std::string& unit) {
    for (const std::string& p : patterns) out.push_back({prefix + p, unit});
  };
  per_pattern("core.plan_s.", "s");
  per_pattern("core.configs_scored.", "count");
  out.insert(out.end(), {{"core.plan_batch_s", "s"},
                         {"core.forest_nodes", "count"},
                         {"core.forest_shared_steps", "count"}});
  per_pattern("codegen.compile_s.", "s");
  out.insert(out.end(), {{"codegen.compiles", "count"}, {"codegen.failures", "count"}});
  per_pattern("engine.count_s.", "s");
  per_pattern("engine.jit_count_s.", "s");
  out.insert(out.end(), {{"engine.iep_terms", "count/round"},
                         {"engine.roots_completed", "count/round"},
                         {"engine.memo_hit_ratio", "ratio"},
                         {"engine.memo_lookups", "count"},
                         {"dist.count_batch_s", "s"},
                         {"dist.node_busy_max_s", "s"},
                         {"dist.node_busy_min_s", "s"},
                         {"dist.messages", "count"},
                         {"dist.bytes", "bytes"},
                         {"dist.shipped_continuations", "count"},
                         {"dist.shipped_set_vertices", "count"},
                         {"dist.coalesced_frames", "count"},
                         {"dist.mailbox_stalls", "count"},
                         {"dist.replication_factor", "ratio"},
                         {"dist.tasks", "count"},
                         {"service.start_s", "s"},
                         {"service.warmup_s", "s"},
                         {"service.query_p50_ms", "ms"},
                         {"service.query_p99_ms", "ms"},
                         {"service.queries_per_s", "1/s"},
                         {"service.engine_ms_p50", "ms"},
                         {"service.overhead_ms_p50", "ms"},
                         {"service.overhead_ms_p99", "ms"},
                         {"service.serial_ms_p50", "ms"},
                         {"service.generated_ms_p50", "ms"},
                         {"service.plan_cache_hits", "count"},
                         {"service.plan_cache_misses", "count"},
                         {"service.queue_high_water", "count"}});
  for (const char* layer : kLayers) out.push_back({std::string("self_s.") + layer, "s"});
  out.insert(out.end(), {{"trace.overhead_s", "s/round"}, {"trace.spans", "count"}});
  return out;
}

/// JSON number with every digit the double carries.
std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Prints the result line. Every end-to-end metric must be set; a
/// per-layer metric the workload did not set prints as 0. A name that is
/// in neither table is a bug in the workload.
void print_result(bool correct, const RunResult& r, bool trace) {
  const auto& values = trace ? r.per_layer : r.end_to_end;
  const std::vector<MetricSpec> specs = trace ? per_layer_specs() : kEndToEnd;
  for (const auto& [name, value] : values)
    if (std::none_of(specs.begin(), specs.end(),
                     [&](const MetricSpec& s) { return s.name == name; }))
      throw std::logic_error("metric " + name + " is not in the manifest's list");
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    if (it == values.end() && !trace)
      throw std::logic_error("end-to-end metric " + specs[i].name + " was not measured");
    out += (i == 0 ? "\"" : ", \"") + specs[i].name + "\": {\"value\": " +
           number(it == values.end() ? 0.0 : it->second) + ", \"unit\": \"" +
           specs[i].unit + "\"}";
  }
  std::cout << out << "}}" << std::endl;
}

int run(const Args& a, Clock::time_point process_start) {
  RunOptions opt;
  opt.seed = a.seed;
  opt.seconds = a.seconds;
  opt.trace = a.trace;
  opt.dir = a.dir;
  opt.bin_dir = a.bin_dir;
  opt.reference_path = a.reference;
  opt.process_start = process_start;
  opt.cpus = available_cpus();
  SpanRecorder spans;
  Checker checker;
  RunResult result;
  if (a.workload == "paper_suite") result = run_paper_suite(opt, spans, checker);
  else if (a.workload == "census_dist") result = run_census_dist(opt, spans, checker);
  else if (a.workload == "serve_mix") result = run_serve_mix(opt, spans, checker);
  else throw std::invalid_argument("unknown workload " + a.workload);
  if (a.trace && !a.trace_out.empty()) spans.write_chrome_json(a.trace_out);
  for (const std::string& f : checker.failures()) std::cerr << "CHECK FAILED: " << f << "\n";
  std::cerr << a.workload << ": " << checker.checks() << " checks, "
            << checker.failures().size() << " failed\n";
  print_result(checker.ok(), result, a.trace);
  return 0;
}

int prepare(const Args& a) {
  const int cpus = available_cpus();
  if (a.workload == "paper_suite") prepare_paper_suite(a.dir, a.seed, cpus);
  else if (a.workload == "census_dist") prepare_census_dist(a.dir, a.seed, cpus);
  else if (a.workload == "serve_mix") prepare_serve_mix(a.dir, a.seed, cpus);
  else throw std::invalid_argument("unknown workload " + a.workload);
  return 0;
}

void write_section(std::ostream& out, const char* workload, const char* graph,
                   const std::map<std::string, Count>& counts) {
  out << "  \"" << workload << "\": {\n    \"graph\": \"" << graph
      << "\",\n    \"counts\": {";
  std::size_t i = 0;
  for (const auto& [name, count] : counts)
    out << (i++ == 0 ? "\n" : ",\n") << "      \"" << name << "\": " << count;
  out << "\n    }\n  }";
}

int reference(const Args& a) {
  std::ofstream out(a.out);
  if (!out) throw std::runtime_error("cannot write " + a.out);
  const std::string paper = std::string(kPaperGraph.dataset) + " scale " +
                            std::to_string(kPaperGraph.scale) + " seed " +
                            std::to_string(kReferenceSeed);
  const std::string census = std::string(kCensusGraph.dataset) + " scale " +
                             std::to_string(kCensusGraph.scale) + " seed " +
                             std::to_string(kReferenceSeed);
  out << "{\n";
  write_section(out, "paper_suite", paper.c_str(), reference_paper_suite());
  out << ",\n";
  write_section(out, "census_dist", census.c_str(), reference_census_dist());
  out << "\n}\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Clock::time_point process_start = perfbench::Clock::now();
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.command == "prepare") return perfbench::prepare(args);
    if (args.command == "run") return perfbench::run(args, process_start);
    if (args.command == "reference") return perfbench::reference(args);
    throw std::invalid_argument("unknown command " + args.command);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
