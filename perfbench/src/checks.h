// Correctness checks that do not trust the program under test.
//
// Three independent sources of expected counts:
//   * a brute-force counter — backtracking over injective, edge-preserving
//     maps from the pattern into a small graph, divided by an automorphism
//     count this file computes itself (the same backtracking with the
//     pattern as its own target);
//   * closed forms from degrees and codegrees for the patterns that have
//     one (triangle, wedge, 3-/4-leaf stars, 4-vertex path, tailed
//     triangle, 4-cycle);
//   * a reference file of counts on fixed reference graphs (see README).
// Every comparison goes through a Checker, which records each mismatch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "graph/graph.h"

namespace perfbench {

using graphpi::Count;
using graphpi::Graph;
using graphpi::Pattern;

/// Collects the outcome of every comparison of a run.
class Checker {
 public:
  /// Records one comparison; returns true when the counts are equal.
  bool expect_equal(const std::string& what, Count expected, Count got);
  /// Records a failed condition that is not a count comparison.
  void fail(const std::string& what);

  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] std::size_t checks() const noexcept { return checks_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::size_t checks_ = 0;
  std::vector<std::string> failures_;
};

/// Number of automorphisms of `pattern`, by backtracking.
[[nodiscard]] std::uint64_t automorphism_count(const Pattern& pattern);

/// Non-induced embeddings of `pattern` in `graph` (each subgraph once),
/// by enumerating every injective edge-preserving map and dividing by the
/// automorphism count. Meant for graphs of at most 64 vertices.
[[nodiscard]] Count brute_force_count(const Graph& graph,
                                      const Pattern& pattern);

/// Closed-form non-induced counts of the patterns that have one, keyed by
/// the pattern spec the program parses (triangle, path3, star4, star5,
/// path4, tailed_triangle, rectangle).
[[nodiscard]] std::map<std::string, Count> closed_form_counts(
    const Graph& graph);

/// Compares every program count whose spec has a closed form against it.
/// Specs without a closed form are ignored; returns how many were compared.
std::size_t check_closed_forms(Checker& checker, const std::string& label,
                               const std::map<std::string, Count>& expected,
                               const std::map<std::string, Count>& program);

/// Compares program counts on `small` against the brute-force counter.
void check_brute_force(Checker& checker, const std::string& label,
                       const Graph& small,
                       const std::vector<Pattern>& patterns,
                       const std::vector<std::string>& names,
                       const std::vector<Count>& program);

/// Every shard's owned vertices, summed, must cover the graph exactly once.
void check_owned_sum(Checker& checker, const std::vector<std::uint32_t>& owned,
                     std::uint64_t vertex_count);

/// Reads one workload's entry of the reference-count file: name -> count.
/// Throws std::runtime_error when the file or the entry is missing or
/// malformed.
[[nodiscard]] std::map<std::string, Count> load_reference_counts(
    const std::string& path, const std::string& workload);

/// Compares program counts against a reference entry; every reference
/// name must be present in `program`.
void check_reference(Checker& checker, const std::string& label,
                     const std::map<std::string, Count>& reference,
                     const std::map<std::string, Count>& program);

}  // namespace perfbench
