#include "algorithms/registry.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <set>

#include "algorithms/forest_fire.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace csaw {
namespace {

class AllAlgorithms : public ::testing::TestWithParam<AlgorithmId> {};

TEST_P(AllAlgorithms, RunsOnRmatAndProducesValidSample) {
  const AlgorithmId id = GetParam();
  const CsrGraph g = generate_rmat(512, 4096, 33);
  CsrGraphView view(g);

  // Sampling algorithms: depth 2; walks: length 8.
  const AlgorithmInfo info = algorithm_info(id);
  const std::uint32_t depth = info.neighbors_per_step == "1" ? 8 : 2;
  AlgorithmSetup setup = make_algorithm(id, depth);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;

  // MDRW wants a multi-vertex pool; everything else single seeds.
  RunResult run;
  if (setup.spec.select_frontier) {
    const std::vector<std::vector<VertexId>> seeds = {
        {0, 1, 2, 3}, {4, 5, 6, 7}};
    run = engine.run(device, seeds);
  } else {
    const std::vector<VertexId> seeds = {0, 1, 2, 3};
    run = engine.run_single_seed(device, seeds);
  }

  EXPECT_GT(run.sampled_edges(), 0u) << info.name;
  for (std::uint32_t i = 0; i < run.samples.num_instances(); ++i) {
    for (const Edge& e : run.samples.edges(i)) {
      EXPECT_TRUE(g.has_edge(e.src, e.dst)) << info.name;
    }
  }
  EXPECT_GT(run.sim_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, AllAlgorithms, ::testing::ValuesIn(all_algorithms()),
    [](const auto& info) {
      std::string name = algorithm_info(info.param).name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Registry, CoversTheDesignSpaceOfTableOne) {
  // Table I spans {unbiased, static, dynamic} x {1, >1 neighbors}.
  std::set<std::pair<std::string, std::string>> cells;
  for (AlgorithmId id : all_algorithms()) {
    const auto info = algorithm_info(id);
    cells.emplace(info.bias, info.neighbors_per_step);
  }
  EXPECT_TRUE(cells.count({"unbiased", "1"}));
  EXPECT_TRUE(cells.count({"unbiased", ">1"}));
  EXPECT_TRUE(cells.count({"static", "1"}));
  EXPECT_TRUE(cells.count({"static", ">1"}));
  EXPECT_TRUE(cells.count({"dynamic", "1"}));
}

TEST(ForestFire, BurnCountDistribution) {
  // P(k >= 1) = pf; mean = pf / (1 - pf).
  const double pf = 0.7;
  Xoshiro256 rng(55);
  RunningStat stat;
  std::uint64_t at_least_one = 0;
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const auto k = forest_fire_burn_count(pf, rng.uniform());
    stat.add(static_cast<double>(k));
    at_least_one += k >= 1;
  }
  EXPECT_NEAR(static_cast<double>(at_least_one) / kSamples, pf, 0.01);
  EXPECT_NEAR(stat.mean(), pf / (1.0 - pf), 0.05);
}

TEST(ForestFire, BurnCountEdges) {
  EXPECT_EQ(forest_fire_burn_count(0.7, 0.0), 0u);
  EXPECT_GT(forest_fire_burn_count(0.7, 0.9999), 10u);
  EXPECT_THROW(forest_fire_burn_count(0.0, 0.5), CheckError);
  EXPECT_THROW(forest_fire_burn_count(1.0, 0.5), CheckError);
}

TEST(ForestFire, SpecCapsBurnAtDegreeAndCap) {
  auto setup = forest_fire(0.7, 2, /*max_burn=*/4);
  ASSERT_TRUE(setup.spec.variable_neighbor_size);
  // r=0.9999 would burn >10, but degree 3 caps it.
  EXPECT_LE(setup.spec.variable_neighbor_size(3, 0.9999), 3u);
  EXPECT_EQ(setup.spec.effective_branching_cap(), 4u);
}

TEST(Registry, InfoNamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (AlgorithmId id : all_algorithms()) {
    const auto info = algorithm_info(id);
    EXPECT_FALSE(info.name.empty());
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
  }
  EXPECT_EQ(names.size(), all_algorithms().size());
}

}  // namespace
}  // namespace csaw
