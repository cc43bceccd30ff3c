// Benchmark inputs: the seeded graphs, their on-disk form, and the
// machine shape the workloads size themselves to.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.h"

namespace perfbench {

/// A workload's data graph: a datasets.cpp stand-in's generator
/// parameters (power-law exponent, closure share, |V| and |E| at scale
/// 1.0) times `scale`.
struct GraphSpec {
  const char* dataset;
  double scale;
};

inline constexpr GraphSpec kPaperGraph{"twitter", 0.1};
inline constexpr GraphSpec kCensusGraph{"livejournal", 0.1};
inline constexpr GraphSpec kServeGraph{"wiki_vote", 0.25};

/// Seed of the reference graphs whose counts reference_counts.json holds.
inline constexpr std::uint64_t kReferenceSeed = 20201112;

/// Seeded clustered power-law graph with `spec`'s parameters, relabeled in
/// descending degree order (what `graphpi_cli save` ships).
[[nodiscard]] graphpi::Graph make_graph(const GraphSpec& spec,
                                        std::uint64_t seed);

/// The small graph (40 vertices) the brute-force counter checks on.
[[nodiscard]] graphpi::Graph make_small_graph(std::uint64_t seed);

/// Logical CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int available_cpus();

/// Total size of the regular files directly inside `dir` whose names
/// start with `prefix`.
[[nodiscard]] std::uint64_t file_bytes(const std::string& dir,
                                       const std::string& prefix);

}  // namespace perfbench
