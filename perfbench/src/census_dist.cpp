// census_dist: one count_batch of all 21 connected 5-vertex motifs per
// round on the livejournal-parameter graph, through the sharded runtime in
// async mode: one logical node per CPU with one worker each, hash shards
// loaded from GPS1 shard files. Set-up plans the batch once; every round
// re-plans it and counts it.
#include <algorithm>
#include <optional>

#include "api/graphpi.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

namespace {

using graphpi::GraphPi;
using graphpi::PlanForest;

std::string graph_path(const std::string& dir) { return dir + "/graph.gps"; }
std::string shard_prefix(const std::string& dir) { return dir + "/census"; }

graphpi::dist::ClusterOptions cluster_options(int cpus) {
  graphpi::dist::ClusterOptions o;
  o.nodes = cpus;
  o.exec = graphpi::dist::ExecMode::kAsync;
  o.workers_per_node = 1;
  return o;
}

/// Index of the 5-vertex star among the motifs (the one with a closed form).
std::size_t star_index(const std::vector<graphpi::Pattern>& motifs) {
  for (std::size_t i = 0; i < motifs.size(); ++i) {
    int max_degree = 0;
    for (int v = 0; v < motifs[i].size(); ++v)
      max_degree = std::max(max_degree, motifs[i].degree(v));
    if (motifs[i].edge_count() == 4 && max_degree == 4) return i;
  }
  return motifs.size();
}

}  // namespace

void prepare_census_dist(const std::string& dir, std::uint64_t seed, int cpus) {
  const graphpi::Graph graph = make_graph(kCensusGraph, seed);
  graph.save_snapshot(graph_path(dir));
  graphpi::dist::ShardOptions shard;
  shard.nodes = cpus;
  shard.strategy = graphpi::dist::PartitionStrategy::kHash;
  graphpi::io::save_shard_snapshots(graphpi::dist::ShardedGraph(graph, shard),
                                    shard_prefix(dir));
}

RunResult run_census_dist(const RunOptions& opt, SpanRecorder& spans,
                          Checker& checker) {
  RunResult result;
  const std::vector<graphpi::Pattern> motifs = graphpi::patterns::connected_motifs(5);
  const std::vector<std::string> names = motif_names(motifs.size());

  // ---- Set-up: the coordinator's full graph (for planning), the shards,
  // and the batch's first plan.
  spans.set_recording(opt.trace);
  double load_s = 0.0, shard_load_s = 0.0, stats_s = 0.0, plan_s = 0.0;
  const graphpi::Graph graph = timed(spans, "io.load_snapshot", "io", 0, load_s, [&] {
    return graphpi::Graph::load_snapshot(graph_path(opt.dir));
  });
  const graphpi::dist::ShardedGraph shards =
      timed(spans, "io.load_shard_snapshots", "io", 0, shard_load_s,
            [&] { return graphpi::io::load_shard_snapshots(shard_prefix(opt.dir)); });
  const GraphPi engine = timed(spans, "graph.stats", "graph", 0, stats_s,
                               [&] { return GraphPi(graph); });
  std::optional<PlanForest> forest;
  forest.emplace(timed(spans, "core.plan_batch", "core", 0, plan_s,
                       [&] { return engine.plan_batch(motifs); }));
  const double setup_s = seconds_since(opt.process_start);

  // ---- Measured rounds: plan the batch, then count it.
  const graphpi::dist::ClusterOptions copt = cluster_options(opt.cpus);
  const auto before = GraphPi::metrics_snapshot();
  std::vector<double> plan_round, census_round, round_s, traced, untraced;
  std::vector<graphpi::dist::ClusterStats> cluster;
  std::vector<graphpi::Count> first_counts;
  const Clock::time_point loop_start = Clock::now();
  for (std::uint64_t round = 1;; ++round) {
    const bool record = opt.trace && round % 2 == 1;
    spans.set_recording(record);
    const Clock::time_point round_start = Clock::now();
    double t = 0.0;
    forest.emplace(timed(spans, "core.plan_batch", "core", round, t,
                         [&] { return engine.plan_batch(motifs); }));
    plan_round.push_back(t);
    graphpi::dist::ClusterStats stats;
    graphpi::support::RunReport report;
    const std::vector<graphpi::Count> counts =
        timed(spans, "dist.count_batch", "dist", round, t, [&] {
          return graphpi::dist::distributed_count_batch(shards, *forest, copt,
                                                        &stats, &report);
        });
    census_round.push_back(t);
    cluster.push_back(stats);
    if (round == 1) first_counts = counts;
    result.attempted += motifs.size();
    if (report.status != graphpi::support::RunStatus::kOk ||
        counts.size() != motifs.size()) {
      result.failed += motifs.size();
      checker.fail("census round " + std::to_string(round) + " did not complete");
    } else {
      for (std::size_t i = 0; i < motifs.size(); ++i)
        if (!checker.expect_equal(names[i] + " round vs round 1", first_counts[i],
                                  counts[i]))
          ++result.failed;
    }
    round_s.push_back(seconds_since(round_start));
    (record ? traced : untraced).push_back(round_s.back());
    if (seconds_since(loop_start) >= opt.seconds) break;
  }
  spans.set_recording(false);
  const auto delta = GraphPi::metrics_snapshot().diff(before);

  // ---- Checks (untimed).
  {
    std::vector<std::uint32_t> owned;
    for (int node = 0; node < shards.nodes(); ++node)
      owned.push_back(shards.shard(node).owned_count());
    check_owned_sum(checker, owned, graph.vertex_count());

    const auto closed = closed_form_counts(graph);
    std::map<std::string, Count> program;
    if (const std::size_t star = star_index(motifs); star < motifs.size())
      program["star5"] = first_counts.at(star);
    else
      checker.fail("no 5-vertex star among the census motifs");
    const std::vector<std::string> small_specs = {
        "triangle", "path3", "star4", "path4", "tailed_triangle", "rectangle"};
    std::vector<graphpi::Pattern> small_patterns;
    for (const auto& spec : small_specs)
      small_patterns.push_back(graphpi::patterns::parse_spec(spec));
    const auto small_counts = graphpi::dist::distributed_count_batch(
        shards, engine.plan_batch(small_patterns), copt);
    for (std::size_t i = 0; i < small_specs.size(); ++i)
      program[small_specs[i]] = small_counts.at(i);
    check_closed_forms(checker, "census_dist", closed, program);

    const graphpi::Graph small = make_small_graph(opt.seed);
    check_brute_force(checker, "census_dist", small, motifs, names,
                      graphpi::dist::distributed_count_batch(small, *forest, copt));

    const graphpi::Graph ref = make_graph(kCensusGraph, kReferenceSeed);
    const auto ref_counts = graphpi::dist::distributed_count_batch(ref, *forest, copt);
    std::map<std::string, Count> by_name;
    for (std::size_t i = 0; i < names.size(); ++i) by_name[names[i]] = ref_counts.at(i);
    check_reference(checker, "census_dist",
                    load_reference_counts(opt.reference_path, "census_dist"), by_name);
  }

  // ---- Metrics.
  result.end_to_end = {{"setup_s", setup_s}, {"round_s", median(round_s)}};
  auto& layer = result.per_layer;
  layer["io.load_s"] = load_s + shard_load_s;
  layer["io.shard_load_s"] = shard_load_s;
  layer["io.snapshot_bytes"] = static_cast<double>(file_bytes(opt.dir, "graph.gps") +
                                                   file_bytes(opt.dir, "census.shard"));
  layer["graph.stats_s"] = stats_s;
  layer["core.plan_batch_s"] = median(plan_round);
  layer["dist.count_batch_s"] = median(census_round);
  layer["core.forest_nodes"] = static_cast<double>(forest->stats().nodes);
  layer["core.forest_shared_steps"] = static_cast<double>(forest->stats().shared_steps);
  add_engine_counters(
      result, [&](const char* name) { return static_cast<double>(delta.counter_or(name)); },
      static_cast<double>(round_s.size()));
  // Per-round cluster counters, median over rounds.
  auto cluster_median = [&](auto field) {
    std::vector<double> v;
    for (const auto& s : cluster) v.push_back(field(s));
    return median(v);
  };
  layer["dist.node_busy_max_s"] = cluster_median([](const auto& s) {
    return s.seconds_per_node.empty()
               ? 0.0
               : *std::max_element(s.seconds_per_node.begin(), s.seconds_per_node.end());
  });
  layer["dist.node_busy_min_s"] = cluster_median([](const auto& s) {
    return s.seconds_per_node.empty()
               ? 0.0
               : *std::min_element(s.seconds_per_node.begin(), s.seconds_per_node.end());
  });
  layer["dist.messages"] = cluster_median(
      [](const auto& s) { return static_cast<double>(s.messages); });
  layer["dist.bytes"] = cluster_median(
      [](const auto& s) { return static_cast<double>(s.bytes); });
  layer["dist.shipped_continuations"] = cluster_median(
      [](const auto& s) { return static_cast<double>(s.shipped_continuations); });
  layer["dist.shipped_set_vertices"] = cluster_median(
      [](const auto& s) { return static_cast<double>(s.shipped_set_vertices); });
  layer["dist.coalesced_frames"] = cluster_median(
      [](const auto& s) { return static_cast<double>(s.coalesced_frames); });
  layer["dist.mailbox_stalls"] = cluster_median(
      [](const auto& s) { return static_cast<double>(s.mailbox_stalls); });
  layer["dist.replication_factor"] =
      cluster_median([](const auto& s) { return s.replication_factor; });
  layer["dist.tasks"] = cluster_median(
      [](const auto& s) { return static_cast<double>(s.total_tasks); });
  if (opt.trace) add_trace_metrics(result, spans, traced, untraced);
  return result;
}

std::map<std::string, Count> reference_census_dist() {
  const graphpi::Graph ref = make_graph(kCensusGraph, kReferenceSeed);
  const GraphPi engine(ref);
  graphpi::MatchOptions plain;
  plain.use_iep = false;
  const auto motifs = graphpi::patterns::connected_motifs(5);
  const auto names = motif_names(motifs.size());
  std::map<std::string, Count> out;
  for (std::size_t i = 0; i < motifs.size(); ++i)
    out[names[i]] = engine.count(motifs[i], plain);
  return out;
}

}  // namespace perfbench
