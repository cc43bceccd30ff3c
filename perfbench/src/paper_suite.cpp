// paper_suite: the paper's Fig. 8 / Table 3 protocol. Set-up plans P1..P6
// one at a time on the twitter-parameter graph and builds each plan's
// generated kernel into the run's empty kernel-cache directory. Each round
// then counts every pattern with the OpenMP interpreter and with its
// generated kernel, both on every CPU.
#include <optional>

#include "api/graphpi.h"
#include "engine/jit.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

namespace {

using graphpi::Backend;
using graphpi::Configuration;
using graphpi::GraphPi;
using graphpi::MatchOptions;
using graphpi::PlanForest;

const std::vector<std::string> kClosedFormSpecs = {
    "triangle", "path3", "star4", "star5", "path4", "tailed_triangle",
    "rectangle"};

std::string graph_path(const std::string& dir) { return dir + "/graph.gps"; }

MatchOptions parallel_options(int cpus) {
  MatchOptions o;
  o.backend = Backend::kParallel;
  o.threads = cpus;
  return o;
}

PlanForest forest_of(const Configuration& config) {
  return PlanForest({graphpi::compile_plan(config)});
}

}  // namespace

void prepare_paper_suite(const std::string& dir, std::uint64_t seed, int) {
  make_graph(kPaperGraph, seed).save_snapshot(graph_path(dir));
}

RunResult run_paper_suite(const RunOptions& opt, SpanRecorder& spans,
                          Checker& checker) {
  RunResult result;
  const std::vector<graphpi::Pattern> patterns =
      graphpi::patterns::evaluation_patterns();
  const std::size_t k = patterns.size();
  std::vector<std::string> names;
  for (std::size_t i = 0; i < k; ++i)
    names.push_back(graphpi::patterns::evaluation_pattern_name(static_cast<int>(i) + 1));

  // ---- Set-up: load, plan P1..P6 one at a time, build their kernels.
  spans.set_recording(opt.trace);
  double load_s = 0.0, stats_s = 0.0;
  const graphpi::Graph graph = timed(spans, "io.load_snapshot", "io", 0, load_s, [&] {
    return graphpi::Graph::load_snapshot(graph_path(opt.dir));
  });
  const GraphPi engine = timed(spans, "graph.stats", "graph", 0, stats_s,
                               [&] { return GraphPi(graph); });
  std::vector<Configuration> configs;
  std::vector<PlanForest> forests;
  std::vector<double> plan_s(k), compile_s(k), configs_scored(k);
  for (std::size_t i = 0; i < k; ++i) {
    graphpi::PlanningStats diag;
    configs.push_back(timed(spans, "core.plan " + names[i], "core", 0, plan_s[i],
                            [&] { return engine.plan(patterns[i], {}, &diag); }));
    configs_scored[i] = static_cast<double>(diag.configurations_evaluated);
    forests.push_back(forest_of(configs[i]));
    timed(spans, "codegen.compile " + names[i], "codegen", 0, compile_s[i], [&] {
      return graphpi::jit::KernelCache::instance().get(forests[i]);
    });
  }
  const double setup_s = seconds_since(opt.process_start);

  // ---- Measured rounds: each counts P1..P6 with the interpreter and with
  // the generated kernel, reusing the set-up's plans and kernels.
  const auto before = GraphPi::metrics_snapshot();
  std::vector<std::vector<double>> count_s(k), jit_s(k);
  std::vector<double> round_s, traced, untraced;
  std::vector<graphpi::Count> first_counts;
  const MatchOptions par = parallel_options(opt.cpus);
  const Clock::time_point loop_start = Clock::now();
  for (std::uint64_t round = 1;; ++round) {
    const bool record = opt.trace && round % 2 == 1;
    spans.set_recording(record);
    const Clock::time_point round_start = Clock::now();
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint64_t request = round * 100 + i;
      double t = 0.0;
      const graphpi::Count interp = timed(
          spans, "engine.count.parallel " + names[i], "engine", request, t,
          [&] { return engine.count(configs[i], par); });
      count_s[i].push_back(t);

      const std::optional<std::vector<graphpi::Count>> jit = timed(
          spans, "engine.count.generated " + names[i], "engine", request, t,
          [&] { return graphpi::jit::run_generated(graph, forests[i], opt.cpus); });
      jit_s[i].push_back(t);

      ++result.attempted;
      if (round == 1) first_counts.push_back(interp);
      if (!jit) {
        ++result.failed;
        checker.fail(names[i] + ": generated backend fell back to the interpreter");
      } else if (!checker.expect_equal(names[i] + " generated vs interpreter",
                                       interp, jit->front()) ||
                 !checker.expect_equal(names[i] + " round vs round 1",
                                       first_counts[i], interp)) {
        ++result.failed;
      }
    }
    round_s.push_back(seconds_since(round_start));
    (record ? traced : untraced).push_back(round_s.back());
    if (seconds_since(loop_start) >= opt.seconds) break;
  }
  spans.set_recording(false);
  const auto delta = GraphPi::metrics_snapshot().diff(before);

  // ---- Checks (untimed).
  {
    std::map<std::string, Count> program;
    for (const std::string& spec : kClosedFormSpecs)
      program[spec] = engine.count(graphpi::patterns::parse_spec(spec), par);
    check_closed_forms(checker, "paper_suite", closed_form_counts(graph), program);

    const graphpi::Graph small = make_small_graph(opt.seed);
    const GraphPi small_engine(small);
    std::vector<graphpi::Count> interp, generated;
    for (std::size_t i = 0; i < k; ++i) {
      interp.push_back(small_engine.count(configs[i], par));
      const auto jit = graphpi::jit::run_generated(small, forests[i], opt.cpus);
      generated.push_back(jit ? jit->front() : ~graphpi::Count{0});
    }
    check_brute_force(checker, "paper_suite interpreter", small, patterns, names, interp);
    check_brute_force(checker, "paper_suite generated", small, patterns, names, generated);
    const auto motifs = graphpi::patterns::connected_motifs(5);
    check_brute_force(checker, "paper_suite batch", small, motifs, motif_names(motifs.size()),
                      small_engine.count_batch(motifs, par));

    const graphpi::Graph ref = make_graph(kPaperGraph, kReferenceSeed);
    const GraphPi ref_engine(ref);
    std::map<std::string, Count> ref_counts;
    for (std::size_t i = 0; i < k; ++i)
      ref_counts[names[i]] = ref_engine.count(configs[i], par);
    check_reference(checker, "paper_suite",
                    load_reference_counts(opt.reference_path, "paper_suite"),
                    ref_counts);
  }

  // ---- Metrics.
  result.end_to_end = {{"setup_s", setup_s}, {"round_s", median(round_s)}};
  auto& layer = result.per_layer;
  layer["io.load_s"] = load_s;
  layer["io.snapshot_bytes"] = static_cast<double>(file_bytes(opt.dir, "graph.gps"));
  layer["graph.stats_s"] = stats_s;
  graphpi::PlanForest::Stats forest_stats{};
  for (std::size_t i = 0; i < k; ++i) {
    layer["core.plan_s." + names[i]] = plan_s[i];
    layer["core.configs_scored." + names[i]] = configs_scored[i];
    layer["codegen.compile_s." + names[i]] = compile_s[i];
    layer["engine.count_s." + names[i]] = median(count_s[i]);
    layer["engine.jit_count_s." + names[i]] = median(jit_s[i]);
    forest_stats.nodes += forests[i].stats().nodes;
    forest_stats.shared_steps += forests[i].stats().shared_steps;
  }
  layer["core.forest_nodes"] = static_cast<double>(forest_stats.nodes);
  layer["core.forest_shared_steps"] = static_cast<double>(forest_stats.shared_steps);
  const auto cache = graphpi::jit::KernelCache::instance().stats();
  layer["codegen.compiles"] = static_cast<double>(cache.compiles);
  layer["codegen.failures"] = static_cast<double>(cache.failures);
  add_engine_counters(
      result, [&](const char* name) { return static_cast<double>(delta.counter_or(name)); },
      static_cast<double>(round_s.size()));
  if (opt.trace) add_trace_metrics(result, spans, traced, untraced);
  return result;
}

std::map<std::string, Count> reference_paper_suite() {
  const graphpi::Graph ref = make_graph(kPaperGraph, kReferenceSeed);
  const GraphPi engine(ref);
  MatchOptions plain;
  plain.use_iep = false;
  std::map<std::string, Count> out;
  const auto patterns = graphpi::patterns::evaluation_patterns();
  for (std::size_t i = 0; i < patterns.size(); ++i)
    out[graphpi::patterns::evaluation_pattern_name(static_cast<int>(i) + 1)] =
        engine.count(patterns[i], plain);
  return out;
}

}  // namespace perfbench
