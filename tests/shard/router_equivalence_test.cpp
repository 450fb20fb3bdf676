// The sharded tier's headline claim: a run's samples are byte-identical
// at every shard count x host thread count, because draws are keyed by
// global instance tag, never by shard placement. Every walk algorithm
// is swept at shards {1,2,4} x threads {1,2,7} against an unsharded
// in-memory Sampler baseline of the same (graph, seed, tags). The
// simulated charge is pinned too: one shard costs exactly the in-memory
// pipelined launch, and more shards cost their slowest persistent
// kernel (or longest walker path) plus the wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "shard/router.hpp"

namespace csaw {
namespace {

constexpr AlgorithmId kWalks[] = {
    AlgorithmId::kSimpleRandomWalk,      AlgorithmId::kDeepwalk,
    AlgorithmId::kBiasedRandomWalk,      AlgorithmId::kNode2vec,
    AlgorithmId::kRandomWalkWithRestart, AlgorithmId::kRandomWalkWithJump,
    AlgorithmId::kMetropolisHastingsWalk,
};

CsrGraph test_graph() {
  return generate_rmat(/*num_vertices=*/200, /*num_edges=*/900,
                       /*seed=*/7, {}, /*weighted=*/true);
}

std::vector<VertexId> draw_seeds(const CsrGraph& graph, std::uint32_t n) {
  std::vector<VertexId> seeds;
  for (std::uint32_t i = 0; i < n; ++i) {
    seeds.push_back(static_cast<VertexId>((i * 37 + 11) %
                                          graph.num_vertices()));
  }
  return seeds;
}

/// Gapped service-style tags: the layout coalesced batches produce.
std::vector<std::uint32_t> draw_tags(std::uint32_t n) {
  std::vector<std::uint32_t> tags;
  std::uint32_t tag = 17;
  for (std::uint32_t i = 0; i < n; ++i) {
    tags.push_back(tag);
    tag += 1 + (i % 5);
  }
  return tags;
}

void expect_same_samples(const SampleStore& got, const SampleStore& want,
                         const std::string& label) {
  ASSERT_EQ(got.num_instances(), want.num_instances()) << label;
  for (std::uint32_t i = 0; i < got.num_instances(); ++i) {
    ASSERT_EQ(got.edges(i), want.edges(i)) << label << ", instance " << i;
  }
}

TEST(ShardRouterEquivalence, ByteIdenticalAtEveryShardAndThreadCount) {
  const CsrGraph graph = test_graph();
  const std::uint32_t kInstances = 12;
  const std::vector<VertexId> seed_list = draw_seeds(graph, kInstances);
  const std::vector<std::uint32_t> tags = draw_tags(kInstances);
  const auto seeds = expand_single_seeds(seed_list);

  for (const AlgorithmId algorithm : kWalks) {
    const AlgorithmSetup setup = make_algorithm(algorithm, /*length=*/20);
    ASSERT_TRUE(setup.spec.walk_shaped())
        << algorithm_info(algorithm).name;

    Sampler sampler(graph, setup, [] {
      SamplerOptions options;
      options.mode = ExecutionMode::kInMemory;
      options.num_threads = 1;
      return options;
    }());
    const RunResult baseline = sampler.run_tagged(seeds, tags);

    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      for (const std::uint32_t threads : {1u, 2u, 7u}) {
        ShardOptions options;
        options.shards = shards;
        options.num_threads = threads;
        ShardRouter router(graph, setup, options);
        const RunResult got = router.run_tagged(seeds, tags);
        const std::string label = algorithm_info(algorithm).name +
                                  " shards=" + std::to_string(shards) +
                                  " threads=" + std::to_string(threads);
        expect_same_samples(got.samples, baseline.samples, label);
        ASSERT_TRUE(got.shard.has_value()) << label;
        EXPECT_EQ(got.shard->shards, shards) << label;
        EXPECT_TRUE(got.shard->failed.empty()) << label;
        if (shards == 1) {
          EXPECT_EQ(got.shard->forwarded_walkers, 0u) << label;
          EXPECT_EQ(got.shard->envelopes, 0u) << label;
        }
      }
    }
  }
}

TEST(ShardRouterEquivalence, SimulatedTimelineIndependentOfHostThreads) {
  const CsrGraph graph = test_graph();
  const std::uint32_t kInstances = 10;
  const auto seeds = expand_single_seeds(draw_seeds(graph, kInstances));
  const std::vector<std::uint32_t> tags = draw_tags(kInstances);
  const AlgorithmSetup setup =
      make_algorithm(AlgorithmId::kDeepwalk, /*length=*/24);

  for (const std::uint32_t shards : {2u, 3u}) {
    ShardOptions base;
    base.shards = shards;
    base.num_threads = 1;
    ShardRouter serial(graph, setup, base);
    const RunResult want = serial.run_tagged(seeds, tags);
    EXPECT_GT(want.shard->forwarded_walkers, 0u);
    EXPECT_GT(want.shard->transfer_seconds, 0.0);

    for (const std::uint32_t threads : {2u, 7u}) {
      ShardOptions options = base;
      options.num_threads = threads;
      ShardRouter router(graph, setup, options);
      const RunResult got = router.run_tagged(seeds, tags);
      const std::string label = "shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads);
      expect_same_samples(got.samples, want.samples, label);
      // Host threading must never reach the simulated timeline.
      EXPECT_EQ(got.sim_seconds, want.sim_seconds) << label;
      EXPECT_EQ(got.shard->rounds, want.shard->rounds) << label;
      EXPECT_EQ(got.shard->envelopes, want.shard->envelopes) << label;
      EXPECT_EQ(got.shard->bytes_forwarded, want.shard->bytes_forwarded)
          << label;
      EXPECT_EQ(got.shard->steps_per_shard, want.shard->steps_per_shard)
          << label;
    }
  }
}

TEST(ShardRouterEquivalence, OneShardCostsExactlyTheInMemoryPipelinedRun) {
  const CsrGraph graph = test_graph();
  std::uint32_t algorithms = 0;
  for (const AlgorithmId algorithm : all_algorithms()) {
    const AlgorithmSetup setup = make_algorithm(algorithm, /*length=*/20);
    if (!setup.spec.walk_shaped()) continue;
    ++algorithms;
    for (const std::uint32_t instances : {1u, 7u, 13u, 100u}) {
      const auto seeds = expand_single_seeds(draw_seeds(graph, instances));
      const std::vector<std::uint32_t> tags = draw_tags(instances);
      Sampler sampler(graph, setup, [] {
        SamplerOptions options;
        options.mode = ExecutionMode::kInMemory;
        options.num_threads = 1;
        return options;
      }());
      const RunResult want = sampler.run_tagged(seeds, tags);

      ShardOptions options;
      options.shards = 1;
      options.num_threads = 1;
      ShardRouter router(graph, setup, options);
      const RunResult got = router.run_tagged(seeds, tags);
      const std::string label = algorithm_info(algorithm).name +
                                " instances=" + std::to_string(instances);
      expect_same_samples(got.samples, want.samples, label);
      // Bitwise: one shard is one persistent kernel shaped exactly like
      // the in-memory engine's pipelined launch.
      EXPECT_EQ(got.sim_seconds, want.sim_seconds) << label;
      ASSERT_EQ(got.device_seconds.size(), 1u) << label;
      EXPECT_EQ(got.device_seconds[0], want.sim_seconds) << label;
      EXPECT_EQ(got.shard->transfer_seconds, 0.0) << label;
    }
  }
  EXPECT_EQ(algorithms, std::size(kWalks));
}

TEST(ShardRouterEquivalence, MakespanIsSlowestKernelOrWalkerPathPlusWire) {
  const CsrGraph graph = test_graph();
  const std::uint32_t kInstances = 24;
  const auto seeds = expand_single_seeds(draw_seeds(graph, kInstances));
  const std::vector<std::uint32_t> tags = draw_tags(kInstances);
  // The default device starves few-warp kernels (stall penalty), so a
  // shard kernel binds. A wide device with no latency to hide charges a
  // kernel its longest chain, so a walker's path across shards binds.
  sim::DeviceParams wide;
  wide.sm_count = 1024;
  wide.latency_hiding_warps_per_sm = 1e-3;

  std::uint32_t kernel_bound = 0;
  std::uint32_t path_bound = 0;
  for (const sim::DeviceParams& params : {sim::DeviceParams{}, wide}) {
    const sim::CostModel cost(params);
    for (const AlgorithmId algorithm : kWalks) {
      const AlgorithmSetup setup = make_algorithm(algorithm, /*length=*/24);
      Sampler sampler(graph, setup, [&] {
        SamplerOptions options;
        options.mode = ExecutionMode::kInMemory;
        options.num_threads = 1;
        options.device_params = params;
        return options;
      }());
      // The in-memory pipelined launch's critical path is the longest
      // instance chain: a walker's total rounds, wherever it stepped.
      const double walker_path = cost.critical_path_seconds(
          sampler.run_tagged(seeds, tags).stats.max_warp_rounds);

      for (const std::uint32_t shards : {2u, 3u}) {
        ShardOptions options;
        options.shards = shards;
        options.num_threads = 1;
        options.device_params = params;
        ShardRouter router(graph, setup, options);
        const RunResult got = router.run_tagged(seeds, tags);
        const std::string label =
            algorithm_info(algorithm).name +
            " shards=" + std::to_string(shards) +
            " sm_count=" + std::to_string(params.sm_count);
        ASSERT_EQ(got.device_seconds.size(), shards) << label;
        const double slowest_shard = *std::max_element(
            got.device_seconds.begin(), got.device_seconds.end());
        const double compute = got.sim_seconds - got.shard->transfer_seconds;
        const double eps = 1e-12 * got.sim_seconds;
        EXPECT_GE(compute, slowest_shard - eps) << label;
        if (walker_path <= slowest_shard) {
          ++kernel_bound;
          EXPECT_NEAR(compute, slowest_shard, eps) << label;
        } else {
          ++path_bound;
          EXPECT_NEAR(compute, walker_path, eps) << label;
        }
      }
    }
  }
  EXPECT_GT(kernel_bound, 0u);
  EXPECT_GT(path_bound, 0u);
}

TEST(ShardRouterEquivalence, NonWalkSpecsAreRejectedByThePredicate) {
  for (const AlgorithmId id :
       {AlgorithmId::kUnbiasedNeighborSampling, AlgorithmId::kForestFire,
        AlgorithmId::kSnowball, AlgorithmId::kLayerSampling,
        AlgorithmId::kMultiDimRandomWalk}) {
    EXPECT_FALSE(make_algorithm(id, 3).spec.walk_shaped())
        << algorithm_info(id).name;
  }
  for (const AlgorithmId id : kWalks) {
    EXPECT_TRUE(make_algorithm(id, 3).spec.walk_shaped())
        << algorithm_info(id).name;
  }
}

}  // namespace
}  // namespace csaw
