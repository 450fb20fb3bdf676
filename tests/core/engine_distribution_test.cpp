// Distributional correctness of the framework end-to-end: the engine's
// SELECT + bias hooks must realize the transition probabilities each
// algorithm prescribes (Theorem 1 applied through the whole stack).
#include <gtest/gtest.h>

#include <map>

#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/node2vec.hpp"
#include "algorithms/random_walks.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "util/stats.hpp"

namespace csaw {
namespace {

TEST(EngineDistribution, UnbiasedWalkFromStarCenterIsUniform) {
  const VertexId kLeaves = 8;
  const CsrGraph g = make_star(kLeaves + 1);
  CsrGraphView view(g);
  auto setup = simple_random_walk(/*length=*/1);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;

  const std::vector<VertexId> seeds(20000, 0);  // all instances at center
  const RunResult run = engine.run_single_seed(device, seeds);

  std::vector<std::uint64_t> counts(kLeaves, 0);
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    ASSERT_EQ(run.samples.edges(i).size(), 1u);
    ++counts[run.samples.edges(i)[0].dst - 1];
  }
  const std::vector<double> expected(kLeaves, 1.0 / kLeaves);
  EXPECT_LT(chi_square(counts, expected), 27.0);  // df=7, 99.9% ~ 24.3
}

TEST(EngineDistribution, BiasedSamplingFollowsDegreeOnToyGraph) {
  // Paper Fig. 1: selecting one neighbor of v8 with degree bias must hit
  // {v5,v7,v9,v10,v11} with probabilities {3,6,2,2,2}/15.
  const CsrGraph g = make_paper_toy_graph();
  CsrGraphView view(g);
  auto setup = biased_neighbor_sampling(/*neighbor_size=*/1, /*depth=*/1);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;

  const std::vector<VertexId> seeds(30000, 8);
  const RunResult run = engine.run_single_seed(device, seeds);

  std::map<VertexId, std::size_t> index = {{5, 0}, {7, 1}, {9, 2},
                                           {10, 3}, {11, 4}};
  std::vector<std::uint64_t> counts(5, 0);
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    ASSERT_EQ(run.samples.edges(i).size(), 1u);
    ++counts[index.at(run.samples.edges(i)[0].dst)];
  }
  const std::vector<double> expected = {3 / 15.0, 6 / 15.0, 2 / 15.0,
                                        2 / 15.0, 2 / 15.0};
  EXPECT_LT(chi_square(counts, expected), 22.0);  // df=4
}

TEST(EngineDistribution, MetropolisHastingsStationaryIsUniform) {
  // MH acceptance min(1, deg(v)/deg(u)) makes the walk's stationary
  // distribution uniform even on a degree-skewed graph. Count visits
  // (walk positions = sources of sampled edges) over a long walk.
  const CsrGraph g = make_star(6);  // extreme skew: center degree 5
  CsrGraphView view(g);
  auto setup = metropolis_hastings_walk(/*length=*/60000);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;

  const RunResult run =
      engine.run_single_seed(device, std::vector<VertexId>{0});
  std::vector<std::uint64_t> visits(6, 0);
  for (const Edge& e : run.samples.edges(0)) {
    // The walk's position after this step: u if accepted, v if it stayed.
    // Count positions via the *next* edge's source; simplest is to count
    // sources, which is the position before each step.
    ++visits[e.src];
  }
  const std::vector<double> expected(6, 1.0 / 6.0);
  // Correlated samples inflate the statistic; allow generous slack while
  // still rejecting the unadjusted walk (center visited ~50% of steps,
  // which would blow far past this bound).
  EXPECT_LT(chi_square(visits, expected), 200.0);
  // Sanity: the unbiased walk *would* sit at the center half the time.
  EXPECT_LT(static_cast<double>(visits[0]),
            0.30 * static_cast<double>(run.samples.edges(0).size()));
}

TEST(EngineDistribution, Node2vecSecondStepMatchesPQFormula) {
  // Walk two steps on the toy graph starting at v4 and observe the second
  // step conditioned on the first being v7 (prev = v4). Candidate
  // classes: back to v4 (w/p), neighbors of v4 (w), two-hop (w/q).
  const double p = 4.0, q = 0.25;
  const CsrGraph g = make_paper_toy_graph();
  CsrGraphView view(g);
  auto setup = node2vec(/*length=*/2, p, q);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;

  const std::vector<VertexId> seeds(60000, 4);
  const RunResult run = engine.run_single_seed(device, seeds);

  // v7's neighbors: {0,1,4,5,6,8}. prev=v4: v4 -> 1/p; v5 (neighbor of
  // v4) -> 1; v0,v1,v6,v8 (two hops) -> 1/q.
  std::map<VertexId, double> bias = {{0, 1 / q}, {1, 1 / q}, {4, 1 / p},
                                     {5, 1.0},   {6, 1 / q}, {8, 1 / q}};
  double total = 0.0;
  for (const auto& [u, b] : bias) total += b;

  std::map<VertexId, std::uint64_t> counts;
  std::uint64_t conditioned = 0;
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    const auto& walk = run.samples.edges(i);
    if (walk.size() < 2 || walk[0].dst != 7) continue;
    ++conditioned;
    ++counts[walk[1].dst];
  }
  ASSERT_GT(conditioned, 10000u);

  std::vector<std::uint64_t> observed;
  std::vector<double> expected;
  for (const auto& [u, b] : bias) {
    observed.push_back(counts[u]);
    expected.push_back(b / total);
  }
  EXPECT_LT(chi_square(observed, expected), 28.0);  // df=5, 99.9% ~ 20.5
}

TEST(EngineDistribution, BiasedWalkPrefersHighDegreeNeighbors) {
  const CsrGraph g = make_paper_toy_graph();
  CsrGraphView view(g);
  auto setup = biased_random_walk(/*length=*/1);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;
  const std::vector<VertexId> seeds(20000, 8);
  const RunResult run = engine.run_single_seed(device, seeds);

  std::uint64_t to_v7 = 0;
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    to_v7 += run.samples.edges(i)[0].dst == 7;
  }
  // Expected fraction 6/15 = 0.4.
  EXPECT_NEAR(static_cast<double>(to_v7) / seeds.size(), 0.4, 0.02);
}

}  // namespace
}  // namespace csaw
