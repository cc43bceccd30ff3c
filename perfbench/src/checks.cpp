#include "checks.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "service/json.h"

namespace perfbench {

namespace {

/// Injective edge-preserving maps of `pattern` into the target given as
/// adjacency bitmasks (at most 64 target vertices).
class MapCounter {
 public:
  MapCounter(const Pattern& pattern, std::vector<std::uint64_t> adjacency)
      : adjacency_(std::move(adjacency)) {
    const int k = pattern.size();
    // Visit pattern vertices in BFS order so every vertex after the first
    // of its component has an already-mapped neighbor to draw from.
    std::vector<bool> placed(static_cast<std::size_t>(k), false);
    for (int start = 0; start < k; ++start) {
      if (placed[static_cast<std::size_t>(start)]) continue;
      std::vector<int> queue{start};
      placed[static_cast<std::size_t>(start)] = true;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const int u = queue[head];
        order_.push_back(u);
        for (int w = 0; w < k; ++w)
          if (pattern.has_edge(u, w) && !placed[static_cast<std::size_t>(w)]) {
            placed[static_cast<std::size_t>(w)] = true;
            queue.push_back(w);
          }
      }
    }
    back_.resize(order_.size());
    for (std::size_t i = 0; i < order_.size(); ++i)
      for (std::size_t j = 0; j < i; ++j)
        if (pattern.has_edge(order_[i], order_[j])) back_[i].push_back(j);
    image_.assign(order_.size(), 0);
  }

  std::uint64_t count() { return extend(0, 0); }

 private:
  std::uint64_t extend(std::size_t depth, std::uint64_t used) {
    if (depth == order_.size()) return 1;
    const int n = static_cast<int>(adjacency_.size());
    std::uint64_t candidates =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    candidates &= ~used;
    for (std::size_t j : back_[depth]) candidates &= adjacency_[image_[j]];
    std::uint64_t total = 0;
    while (candidates != 0) {
      const int v = __builtin_ctzll(candidates);
      candidates &= candidates - 1;
      image_[depth] = static_cast<std::size_t>(v);
      total += extend(depth + 1, used | (std::uint64_t{1} << v));
    }
    return total;
  }

  std::vector<std::uint64_t> adjacency_;
  std::vector<int> order_;
  std::vector<std::vector<std::size_t>> back_;
  std::vector<std::size_t> image_;
};

std::uint64_t choose(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

}  // namespace

bool Checker::expect_equal(const std::string& what, Count expected,
                           Count got) {
  ++checks_;
  if (expected == got) return true;
  failures_.push_back(what + ": expected " + std::to_string(expected) +
                      ", program gave " + std::to_string(got));
  return false;
}

void Checker::fail(const std::string& what) {
  ++checks_;
  failures_.push_back(what);
}

std::uint64_t automorphism_count(const Pattern& pattern) {
  std::vector<std::uint64_t> adjacency(static_cast<std::size_t>(pattern.size()));
  for (int u = 0; u < pattern.size(); ++u)
    for (int v = 0; v < pattern.size(); ++v)
      if (pattern.has_edge(u, v)) adjacency[static_cast<std::size_t>(u)] |= std::uint64_t{1} << v;
  return MapCounter(pattern, std::move(adjacency)).count();
}

Count brute_force_count(const Graph& graph, const Pattern& pattern) {
  if (graph.vertex_count() > 64)
    throw std::invalid_argument("brute_force_count: graph has > 64 vertices");
  std::vector<std::uint64_t> adjacency(graph.vertex_count());
  for (graphpi::VertexId v = 0; v < graph.vertex_count(); ++v)
    for (graphpi::VertexId u : graph.neighbors(v)) adjacency[v] |= std::uint64_t{1} << u;
  const std::uint64_t maps = MapCounter(pattern, std::move(adjacency)).count();
  return maps / automorphism_count(pattern);
}

std::map<std::string, Count> closed_form_counts(const Graph& graph) {
  const graphpi::VertexId n = graph.vertex_count();
  Count wedge = 0, star4 = 0, star5 = 0, path4_raw = 0, triangle3 = 0;
  Count cycle4_twice = 0;
  std::vector<Count> tri_at(n, 0);
  std::vector<std::uint32_t> common(n, 0);
  std::vector<graphpi::VertexId> touched;
  for (graphpi::VertexId u = 0; u < n; ++u) {
    const Count d = graph.degree(u);
    wedge += choose(d, 2);
    star4 += choose(d, 3);
    star5 += choose(d, 4);
    // Codegrees of u with every w > u at distance two.
    for (graphpi::VertexId v : graph.neighbors(u))
      for (graphpi::VertexId w : graph.neighbors(v))
        if (w > u) {
          if (common[w] == 0) touched.push_back(w);
          ++common[w];
        }
    for (graphpi::VertexId w : touched) {
      cycle4_twice += choose(common[w], 2);
      common[w] = 0;
    }
    touched.clear();
    // Per-edge codegree: triangles through each edge (u, v), v > u.
    const auto nu = graph.neighbors(u);
    for (graphpi::VertexId v : nu) {
      if (v <= u) continue;
      const auto nv = graph.neighbors(v);
      Count c = 0;
      auto a = nu.begin(), b = nv.begin();
      while (a != nu.end() && b != nv.end()) {
        if (*a < *b) ++a;
        else if (*b < *a) ++b;
        else { ++c; ++a; ++b; }
      }
      triangle3 += c;
      tri_at[u] += c;
      tri_at[v] += c;
      path4_raw += (d - 1) * (graph.degree(v) - 1);
    }
  }
  const Count triangles = triangle3 / 3;
  Count tailed = 0;
  for (graphpi::VertexId v = 0; v < n; ++v) {
    // tri_at counts each triangle at v twice (once per incident edge).
    const Count t = tri_at[v] / 2;
    if (graph.degree(v) >= 2) tailed += t * (graph.degree(v) - 2);
  }
  return {
      {"triangle", triangles},
      {"path3", wedge},
      {"star4", star4},
      {"star5", star5},
      {"path4", path4_raw - 3 * triangles},
      {"tailed_triangle", tailed},
      {"rectangle", cycle4_twice / 2},
  };
}

std::size_t check_closed_forms(Checker& checker, const std::string& label,
                               const std::map<std::string, Count>& expected,
                               const std::map<std::string, Count>& program) {
  std::size_t compared = 0;
  for (const auto& [spec, got] : program) {
    const auto it = expected.find(spec);
    if (it == expected.end()) continue;
    checker.expect_equal(label + " closed form " + spec, it->second, got);
    ++compared;
  }
  return compared;
}

void check_brute_force(Checker& checker, const std::string& label,
                       const Graph& small,
                       const std::vector<Pattern>& patterns,
                       const std::vector<std::string>& names,
                       const std::vector<Count>& program) {
  if (patterns.size() != program.size() || names.size() != program.size()) {
    checker.fail(label + " brute force: " + std::to_string(program.size()) +
                 " program counts for " + std::to_string(patterns.size()) +
                 " patterns");
    return;
  }
  for (std::size_t i = 0; i < patterns.size(); ++i)
    checker.expect_equal(label + " brute force " + names[i],
                         brute_force_count(small, patterns[i]), program[i]);
}

void check_owned_sum(Checker& checker, const std::vector<std::uint32_t>& owned,
                     std::uint64_t vertex_count) {
  std::uint64_t total = 0;
  for (std::uint32_t o : owned) total += o;
  checker.expect_equal("owned vertices summed over shards", vertex_count,
                       total);
}

std::map<std::string, Count> load_reference_counts(
    const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference counts " + path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const auto doc = graphpi::service::json::Value::parse(text.str(), &error);
  if (!doc) throw std::runtime_error(path + ": " + error);
  const auto* entry = doc->get(workload);
  const auto* counts = entry != nullptr ? entry->get("counts") : nullptr;
  if (counts == nullptr || !counts->is_object())
    throw std::runtime_error(path + ": no counts for " + workload);
  std::map<std::string, Count> out;
  for (const auto& [name, value] : counts->members()) {
    const auto n = value.as_uint64();
    if (!n) throw std::runtime_error(path + ": bad count for " + name);
    out[name] = *n;
  }
  return out;
}

void check_reference(Checker& checker, const std::string& label,
                     const std::map<std::string, Count>& reference,
                     const std::map<std::string, Count>& program) {
  for (const auto& [name, expected] : reference) {
    const auto it = program.find(name);
    if (it == program.end()) {
      checker.fail(label + " reference " + name + ": no program count");
      continue;
    }
    checker.expect_equal(label + " reference " + name, expected, it->second);
  }
}

}  // namespace perfbench
