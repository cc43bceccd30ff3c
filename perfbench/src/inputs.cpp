#include "inputs.h"

#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "graph/datasets.h"
#include "graph/generators.h"

namespace perfbench {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

graphpi::Graph make_graph(const GraphSpec& spec, std::uint64_t seed) {
  const auto& ds = graphpi::datasets::spec(spec.dataset);
  const auto n = static_cast<graphpi::VertexId>(
      static_cast<double>(ds.standin_vertices) * spec.scale);
  const auto m = static_cast<std::uint64_t>(
      static_cast<double>(ds.standin_edges) * spec.scale);
  std::uint64_t h = seed;
  for (const char* c = spec.dataset; *c != '\0'; ++c)
    h = mix(h ^ static_cast<std::uint64_t>(*c));
  return graphpi::clustered_power_law(n, m, ds.alpha, ds.closure_p, mix(h))
      .reorder_by_degree();
}

graphpi::Graph make_small_graph(std::uint64_t seed) {
  return graphpi::clustered_power_law(40, 110, 2.2, 0.35,
                                      mix(seed ^ 0x5eed5a11ULL));
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::uint64_t file_bytes(const std::string& dir, const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind(prefix, 0) == 0)
      total += entry.file_size();
  return total;
}

}  // namespace perfbench
