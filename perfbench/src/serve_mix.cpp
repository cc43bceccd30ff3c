// serve_mix: graphpi_serve with one worker per CPU serves a seeded,
// Zipf-skewed, repeat-heavy query stream over one closed-loop connection
// per CPU. Queries alternate between the serial and generated backends
// with threads:1, and spell each pattern either by name or as an
// N:ADJSTRING respelling (a relabeling, so the count must not change).
// Every distinct spec x backend is issued once in set-up.
#include <sys/wait.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "api/graphpi.h"
#include "client.h"
#include "inputs.h"
#include "service/json.h"
#include "workloads.h"

namespace perfbench {

namespace {

using graphpi::GraphPi;
using graphpi::service::json::Value;

/// The mix's patterns in popularity order: rank r is asked with weight 1/r.
const std::vector<std::string> kMixPatterns = {
    "triangle", "path4",  "star4",  "tailed_triangle", "clique4",
    "rectangle", "clique5", "house", "hourglass"};
constexpr int kRespellings = 2;
constexpr int kBlockQueries = 20;
const char* const kBackends[2] = {"serial", "generated"};

std::string graph_path(const std::string& dir) { return dir + "/graph.gps"; }

/// "N:ADJSTRING" of `p` with its vertices relabeled by `perm`.
std::string respelled(const graphpi::Pattern& p, const std::vector<int>& perm) {
  const int n = p.size();
  std::string adj(static_cast<std::size_t>(n * n), '0');
  for (int u = 0; u < n; ++u)
    for (int v = 0; v < n; ++v)
      if (p.has_edge(u, v))
        adj[static_cast<std::size_t>(perm[static_cast<std::size_t>(u)] * n +
                                     perm[static_cast<std::size_t>(v)])] = '1';
  return std::to_string(n) + ":" + adj;
}

/// Each pattern's spellings: its name plus distinct seeded respellings.
std::vector<std::vector<std::string>> spellings(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5e11ULL);
  std::vector<std::vector<std::string>> out;
  for (const std::string& name : kMixPatterns) {
    const graphpi::Pattern p = graphpi::patterns::parse_spec(name);
    std::vector<std::string> specs{name};
    std::vector<int> perm(static_cast<std::size_t>(p.size()));
    for (int r = 0; r < kRespellings; ++r) {
      std::iota(perm.begin(), perm.end(), 0);
      std::shuffle(perm.begin(), perm.end(), rng);
      const std::string spec = respelled(p, perm);
      if (std::find(specs.begin(), specs.end(), spec) == specs.end())
        specs.push_back(spec);
    }
    out.push_back(std::move(specs));
  }
  return out;
}

std::string query_line(std::uint64_t id, const std::string& spec,
                       const char* backend) {
  return "{\"id\":" + std::to_string(id) + ",\"pattern\":\"" + spec +
         "\",\"backend\":\"" + backend + "\",\"threads\":1}";
}

struct Reply {
  bool ok = false;
  Count count = 0;
  double elapsed_ms = 0.0;
  std::string text;
};

Reply parse_reply(const std::string& line) {
  Reply r;
  r.text = line;
  const auto doc = Value::parse(line);
  if (!doc) return r;
  const Value* status = doc->get("status");
  const Value* count = doc->get("count");
  const Value* elapsed = doc->get("elapsed_ms");
  if (status == nullptr || count == nullptr || elapsed == nullptr) return r;
  const auto n = count->as_uint64();
  r.ok = status->as_string() == "ok" && n.has_value();
  r.count = n.value_or(0);
  r.elapsed_ms = elapsed->as_double();
  return r;
}

/// What one client connection measured.
struct ClientLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t generated_sent = 0;
  std::vector<double> latency_ms, engine_ms, overhead_ms, serial_ms, generated_ms;
  std::vector<double> blocks, traced, untraced;
  std::vector<std::string> failures;
};

void client_loop(int port, int client, const RunOptions& opt,
                 const std::vector<std::vector<std::string>>& specs,
                 const std::vector<Count>& expected, Clock::time_point start,
                 SpanRecorder& spans, ClientLog& log) {
  Connection conn(port);
  std::mt19937_64 rng(opt.seed * 1000003ULL + static_cast<std::uint64_t>(client));
  std::vector<double> weights;
  for (std::size_t r = 1; r <= kMixPatterns.size(); ++r)
    weights.push_back(1.0 / static_cast<double>(r));
  std::discrete_distribution<std::size_t> pick(weights.begin(), weights.end());
  std::uint64_t sent = 0;
  for (std::uint64_t block = 1;; ++block) {
    const bool record = opt.trace && block % 2 == 1;
    const Clock::time_point block_start = Clock::now();
    for (int q = 0; q < kBlockQueries; ++q, ++sent) {
      const std::size_t pattern = pick(rng);
      const auto& spelled = specs[pattern];
      const std::string& spec = spelled[rng() % spelled.size()];
      const int backend = static_cast<int>(sent % 2);
      const std::uint64_t id = (static_cast<std::uint64_t>(client) << 32) | (sent + 1);
      double latency_s = 0.0;
      std::string line;
      {
        // Records a span only while tracing and in a traced block.
        const std::unique_ptr<SpanRecorder::Scope> span =
            record ? std::make_unique<SpanRecorder::Scope>(spans, "service.query",
                                                           "service", id)
                   : nullptr;
        const Clock::time_point t0 = Clock::now();
        line = conn.request(query_line(id, spec, kBackends[backend]));
        latency_s = seconds_since(t0);
      }
      const Reply reply = parse_reply(line);
      ++log.attempted;
      if (backend == 1) ++log.generated_sent;
      if (!reply.ok || reply.count != expected[pattern]) {
        ++log.failed;
        log.failures.push_back("query " + spec + " (" + kBackends[backend] +
                               "): expected count " + std::to_string(expected[pattern]) +
                               ", reply " + reply.text);
        continue;
      }
      const double latency_ms = latency_s * 1e3;
      log.latency_ms.push_back(latency_ms);
      log.engine_ms.push_back(reply.elapsed_ms);
      log.overhead_ms.push_back(latency_ms - reply.elapsed_ms);
      (backend == 0 ? log.serial_ms : log.generated_ms).push_back(reply.elapsed_ms);
    }
    log.blocks.push_back(seconds_since(block_start));
    (record ? log.traced : log.untraced).push_back(log.blocks.back());
    if (seconds_since(start) >= opt.seconds) break;
  }
}

}  // namespace

void prepare_serve_mix(const std::string& dir, std::uint64_t seed, int) {
  make_graph(kServeGraph, seed).save_snapshot(graph_path(dir));
}

RunResult run_serve_mix(const RunOptions& opt, SpanRecorder& spans,
                        Checker& checker) {
  RunResult result;
  const auto specs = spellings(opt.seed);

  // ---- Set-up: start the server, then issue every spec x backend once.
  spans.set_recording(opt.trace);
  double start_s = 0.0, warmup_s = 0.0;
  auto server = timed(spans, "service.start", "service", 0, start_s, [&] {
    return std::make_unique<ServerProcess>(
        opt.bin_dir + "/graphpi_serve",
        std::vector<std::string>{"--graph", graph_path(opt.dir), "--workers",
                                 std::to_string(opt.cpus), "--port", "0"},
        opt.dir + "/server.log");
  });
  const int port = server->port();
  std::vector<Count> expected(kMixPatterns.size(), 0);
  timed(spans, "service.warmup", "service", 0, warmup_s, [&] {
    Connection conn(port);
    std::uint64_t id = 1;
    for (std::size_t p = 0; p < specs.size(); ++p)
      for (const std::string& spec : specs[p])
        for (int b = 0; b < 2; ++b) {
          const Reply reply = parse_reply(conn.request(query_line(id++, spec, kBackends[b])));
          if (!reply.ok) {
            checker.fail("warm-up " + spec + " (" + kBackends[b] + "): " + reply.text);
          } else if (spec == specs[p].front() && b == 0) {
            expected[p] = reply.count;
          } else {
            checker.expect_equal("warm-up " + kMixPatterns[p] + " as " + spec + " (" +
                                     kBackends[b] + ") vs by name (serial)",
                                 expected[p], reply.count);
          }
        }
    return 0;
  });
  const double setup_s = seconds_since(opt.process_start);

  // ---- Measured closed loop: one connection per CPU.
  const std::string metrics_before = fetch_metrics(port);
  std::vector<ClientLog> logs(static_cast<std::size_t>(opt.cpus));
  std::vector<std::exception_ptr> errors(logs.size());
  const Clock::time_point loop_start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < logs.size(); ++c)
      clients.emplace_back([&, c] {
        try {
          client_loop(port, static_cast<int>(c), opt, specs, expected, loop_start,
                      spans, logs[c]);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    for (auto& t : clients) t.join();
  }
  const double loop_s = seconds_since(loop_start);
  spans.set_recording(false);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  const std::string metrics_after = fetch_metrics(port);

  ClientLog all;
  for (ClientLog& log : logs) {
    all.attempted += log.attempted;
    all.failed += log.failed;
    all.generated_sent += log.generated_sent;
    for (auto field : {&ClientLog::latency_ms, &ClientLog::engine_ms,
                        &ClientLog::overhead_ms, &ClientLog::serial_ms,
                        &ClientLog::generated_ms, &ClientLog::blocks,
                        &ClientLog::traced, &ClientLog::untraced})
      (all.*field).insert((all.*field).end(), (log.*field).begin(), (log.*field).end());
    for (auto& f : log.failures) checker.fail(f);
  }
  result.attempted = all.attempted;
  result.failed = all.failed;

  // ---- Checks (untimed).
  {
    // A generated query the interpreter answered is a failed one.
    const double runs = prometheus_value(metrics_after, "graphpi_generated_runs") -
                        prometheus_value(metrics_before, "graphpi_generated_runs");
    if (runs < static_cast<double>(all.generated_sent)) {
      const auto fallbacks = all.generated_sent - static_cast<std::uint64_t>(std::max(0.0, runs));
      result.failed += fallbacks;
      checker.fail(std::to_string(fallbacks) + " generated queries fell back to the interpreter");
    }
    if (prometheus_value(metrics_after, "graphpi_jit_cache_failures") > 0)
      checker.fail("the server's kernel cache reported build failures");

    const graphpi::Graph graph = graphpi::Graph::load_snapshot(graph_path(opt.dir));
    std::map<std::string, Count> served;
    for (std::size_t p = 0; p < kMixPatterns.size(); ++p) served[kMixPatterns[p]] = expected[p];
    Connection conn(port);
    for (const std::string spec : {"path3", "star5"}) {
      const Reply reply = parse_reply(conn.request(query_line(0, spec, "serial")));
      if (!reply.ok) checker.fail("query " + spec + ": " + reply.text);
      served[spec] = reply.count;
    }
    check_closed_forms(checker, "serve_mix", closed_form_counts(graph), served);

    // Every mix pattern recounted in-process with IEP off.
    const GraphPi engine(graph);
    graphpi::MatchOptions plain;
    plain.use_iep = false;
    for (std::size_t p = 0; p < kMixPatterns.size(); ++p)
      checker.expect_equal("serve_mix " + kMixPatterns[p] + " served vs in-process IEP-off",
                           engine.count(graphpi::patterns::parse_spec(kMixPatterns[p]), plain),
                           expected[p]);

    const graphpi::Graph small = make_small_graph(opt.seed);
    const GraphPi small_engine(small);
    std::vector<graphpi::Pattern> patterns = graphpi::patterns::connected_motifs(5);
    std::vector<std::string> names = motif_names(patterns.size());
    for (const std::string& name : kMixPatterns) {
      patterns.push_back(graphpi::patterns::parse_spec(name));
      names.push_back(name);
    }
    std::vector<Count> small_counts;
    for (const auto& p : patterns) small_counts.push_back(small_engine.count(p));
    check_brute_force(checker, "serve_mix", small, patterns, names, small_counts);
  }
  const int status = server->stop();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    checker.fail("graphpi_serve did not exit cleanly on SIGTERM");

  // ---- Metrics. A round is one block of kBlockQueries queries on one
  // connection; the program's own counters come from GET /metrics.
  result.end_to_end = {{"setup_s", setup_s}, {"round_s", median(all.blocks)}};
  const auto served_counter = [&](const std::string& name, const std::string& text) {
    std::string prom = "graphpi_";
    for (const char c : name) prom += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    return prometheus_value(text, prom);
  };
  auto& layer = result.per_layer;
  layer["io.load_s"] = served_counter("io.snapshot.load_ms_sum", metrics_after) / 1e3;
  layer["io.snapshot_bytes"] = static_cast<double>(file_bytes(opt.dir, "graph.gps"));
  layer["codegen.compiles"] = served_counter("jit.cache.compiles", metrics_after);
  layer["codegen.failures"] = served_counter("jit.cache.failures", metrics_after);
  add_engine_counters(
      result,
      [&](const char* name) {
        return served_counter(name, metrics_after) - served_counter(name, metrics_before);
      },
      static_cast<double>(all.blocks.size()));
  layer["service.start_s"] = start_s;
  layer["service.warmup_s"] = warmup_s;
  layer["service.query_p50_ms"] = percentile(all.latency_ms, 50.0);
  layer["service.query_p99_ms"] = percentile(all.latency_ms, 99.0);
  layer["service.queries_per_s"] = static_cast<double>(all.attempted) / loop_s;
  layer["service.engine_ms_p50"] = percentile(all.engine_ms, 50.0);
  layer["service.overhead_ms_p50"] = percentile(all.overhead_ms, 50.0);
  layer["service.overhead_ms_p99"] = percentile(all.overhead_ms, 99.0);
  layer["service.serial_ms_p50"] = percentile(all.serial_ms, 50.0);
  layer["service.generated_ms_p50"] = percentile(all.generated_ms, 50.0);
  layer["service.plan_cache_hits"] = served_counter("service.plan_cache.hits", metrics_after);
  layer["service.plan_cache_misses"] =
      served_counter("service.plan_cache.misses", metrics_after);
  layer["service.queue_high_water"] = served_counter("service.queue_high_water", metrics_after);
  if (opt.trace) add_trace_metrics(result, spans, all.traced, all.untraced);
  return result;
}

}  // namespace perfbench
