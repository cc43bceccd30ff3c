// Every correctness check of the benchmark must accept the right count and
// reject the same count off by one.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "api/graphpi.h"
#include "checks.h"
#include "inputs.h"

namespace perfbench {
namespace {

using graphpi::patterns::parse_spec;

TEST(Checks, AutomorphismCountsMatchKnownValues) {
  EXPECT_EQ(automorphism_count(parse_spec("triangle")), 6u);
  EXPECT_EQ(automorphism_count(parse_spec("rectangle")), 8u);
  EXPECT_EQ(automorphism_count(parse_spec("clique5")), 120u);
  EXPECT_EQ(automorphism_count(parse_spec("star5")), 24u);
  EXPECT_EQ(automorphism_count(parse_spec("house")), 2u);
}

TEST(Checks, BruteForceRejectsOffByOne) {
  const Graph small = make_small_graph(7);
  std::vector<Pattern> patterns = graphpi::patterns::evaluation_patterns();
  std::vector<std::string> names;
  std::vector<Count> program;
  const graphpi::GraphPi engine(small);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    names.push_back("P" + std::to_string(i + 1));
    program.push_back(engine.count(patterns[i]));
  }
  Checker good;
  check_brute_force(good, "t", small, patterns, names, program);
  EXPECT_TRUE(good.ok()) << good.failures().front();
  for (std::size_t i = 0; i < program.size(); ++i) {
    for (const Count delta : {Count{1}, ~Count{0}}) {  // +1 and -1
      auto bad_counts = program;
      bad_counts[i] += delta;
      Checker bad;
      check_brute_force(bad, "t", small, patterns, names, bad_counts);
      EXPECT_FALSE(bad.ok()) << names[i];
    }
  }
}

TEST(Checks, ClosedFormsMatchProgramAndRejectOffByOne) {
  const Graph g = make_graph(kServeGraph, 3);
  const auto closed = closed_form_counts(g);
  const graphpi::GraphPi engine(g);
  std::map<std::string, Count> program;
  for (const auto& [spec, expected] : closed) program[spec] = engine.count(parse_spec(spec));
  Checker good;
  EXPECT_EQ(check_closed_forms(good, "t", closed, program), closed.size());
  EXPECT_TRUE(good.ok()) << good.failures().front();
  for (const auto& [spec, count] : program) {
    auto bad_counts = program;
    bad_counts[spec] = count + 1;
    Checker bad;
    check_closed_forms(bad, "t", closed, bad_counts);
    EXPECT_FALSE(bad.ok()) << spec;
  }
}

TEST(Checks, ClosedFormsAgreeWithBruteForceOnSmallGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph small = make_small_graph(seed);
    for (const auto& [spec, count] : closed_form_counts(small))
      EXPECT_EQ(count, brute_force_count(small, parse_spec(spec))) << spec;
  }
}

TEST(Checks, AgreementRejectsOffByOne) {
  Checker good;
  EXPECT_TRUE(good.expect_equal("serial vs generated", 1234, 1234));
  EXPECT_TRUE(good.ok());
  Checker bad;
  EXPECT_FALSE(bad.expect_equal("serial vs generated", 1234, 1235));
  EXPECT_FALSE(bad.ok());
}

TEST(Checks, OwnedSumRejectsOffByOne) {
  Checker good;
  check_owned_sum(good, {10, 11, 12, 7}, 40);
  EXPECT_TRUE(good.ok());
  Checker bad;
  check_owned_sum(bad, {10, 11, 12, 8}, 40);
  EXPECT_FALSE(bad.ok());
}

TEST(Checks, ReferenceFileRejectsOffByOne) {
  const std::string path = ::testing::TempDir() + "perfbench_reference_test.json";
  {
    std::ofstream out(path);
    out << R"({"w": {"graph": "x", "counts": {"A": 18446744073709551615, "B": 5}}})";
  }
  const auto ref = load_reference_counts(path, "w");
  std::remove(path.c_str());
  ASSERT_EQ(ref.size(), 2u);
  Checker good;
  check_reference(good, "t", ref, {{"A", 18446744073709551615ULL}, {"B", 5}});
  EXPECT_TRUE(good.ok());
  Checker bad;
  check_reference(bad, "t", ref, {{"A", 18446744073709551615ULL}, {"B", 6}});
  EXPECT_FALSE(bad.ok());
  Checker missing;
  check_reference(missing, "t", ref, {{"A", 18446744073709551615ULL}});
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace perfbench
