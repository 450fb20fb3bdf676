// The sharded tier's headline claim: a run's samples are byte-identical
// at every shard count x host thread count, because draws are keyed by
// global instance tag, never by shard placement. Every walk algorithm
// runs on the router paths of the matrix (tests/paths.hpp) at shards
// {1,2,3,4} x threads {1,2,7} against the in-memory oracle of the same
// (graph, seed, tags), and host threading never reaches the simulated
// timeline or the shard counters. The simulated charge is pinned too:
// one shard costs exactly the in-memory pipelined launch, and more
// shards cost their slowest persistent kernel (or longest walker path)
// plus the wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "shard/router.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"
#include "../kernel_digest.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

constexpr AlgorithmId kWalks[] = {
    AlgorithmId::kSimpleRandomWalk,      AlgorithmId::kDeepwalk,
    AlgorithmId::kBiasedRandomWalk,      AlgorithmId::kNode2vec,
    AlgorithmId::kRandomWalkWithRestart, AlgorithmId::kRandomWalkWithJump,
    AlgorithmId::kMetropolisHastingsWalk,
};

using testing::expect_matrix;
using testing::Front;
using testing::gapped_tags;
using testing::Path;
using testing::paths_where;
using testing::shard_options;
using testing::spread_seeds;

CsrGraph test_graph() {
  return generate_rmat(/*num_vertices=*/200, /*num_edges=*/900,
                       /*seed=*/7, {}, /*weighted=*/true);
}

std::vector<VertexId> draw_seeds(const CsrGraph& graph, std::uint32_t n) {
  return spread_seeds(graph, n, 37, 11);
}

TEST(ShardRouterEquivalence, EveryWalkMatchesTheOracleAtEveryShardCount) {
  // The router paths, and the in-memory pipelined launch that one shard
  // must cost exactly.
  const auto paths = paths_where(
      [](const Path& path) {
        return path.front == Front::kRouter ||
               path.family == "in-memory/pipelined";
      },
      {4, {1}, {1, 2, 3, 4}});
  const CsrGraph graph = test_graph();
  std::uint32_t walks = 0;
  for (const AlgorithmId algorithm : all_algorithms()) {
    if (!make_algorithm(algorithm, 20).spec.walk_shaped()) continue;
    ++walks;
    for (const std::uint32_t instances : {1u, 7u, 12u, 13u, 100u}) {
      const auto runs =
          expect_matrix(paths, graph, {algorithm, 20},
                        draw_seeds(graph, instances), gapped_tags(instances));
      for (const auto& [path, result] : runs) {
        // With several walkers, more than one shard forwards some.
        if (path.shards > 1 && instances > 1) {
          EXPECT_GT(result.shard->forwarded_walkers, 0u) << path.label();
          EXPECT_GT(result.shard->transfer_seconds, 0.0) << path.label();
        }
      }
    }
  }
  EXPECT_EQ(walks, std::size(kWalks));
}

TEST(ShardRouterEquivalence, MakespanIsSlowestKernelOrWalkerPathPlusWire) {
  const CsrGraph graph = test_graph();
  const std::uint32_t kInstances = 24;
  const auto seeds = expand_single_seeds(draw_seeds(graph, kInstances));
  const std::vector<std::uint32_t> tags = gapped_tags(kInstances);
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
        SamplerOptions options;
        options.num_threads = 1;
        options.device_params = params;
        ShardRouter router(graph, setup, options, shard_options(shards));
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

/// Everything a sharded run reports: samples, both clocks, the merged
/// kernel stats and every ShardMetrics field.
std::uint64_t router_digest(const RunResult& run) {
  testing::Digest d;
  d.add_samples(run.samples);
  d.add(run.sim_seconds);
  d.add(static_cast<std::uint64_t>(run.device_seconds.size()));
  for (const double s : run.device_seconds) d.add(s);
  sim::visit_kernel_stats(run.stats,
                          [&](std::string_view name, std::uint64_t value) {
                            d.add(name);
                            d.add(value);
                          });
  const ShardMetrics& m = run.shard.value();
  d.add(static_cast<std::uint64_t>(m.shards));
  d.add(static_cast<std::uint64_t>(m.rounds));
  d.add(m.forwarded_walkers);
  d.add(m.envelopes);
  d.add(m.bytes_forwarded);
  d.add(m.transfer_seconds);
  d.add(static_cast<std::uint64_t>(m.envelope_faults));
  d.add(static_cast<std::uint64_t>(m.envelope_retries));
  for (const auto* per_shard : {&m.steps_per_shard, &m.forwarded_per_shard}) {
    d.add(static_cast<std::uint64_t>(per_shard->size()));
    for (const std::uint64_t v : *per_shard) d.add(v);
  }
  d.add(static_cast<std::uint64_t>(m.failed.size()));
  for (const std::uint32_t i : m.failed) d.add(static_cast<std::uint64_t>(i));
  return d.value();
}

TEST(ShardRouterEquivalence, TimelineIsPinned) {
  // The router's samples, simulated timeline and counters, pinned bit for
  // bit for five walks at 1, 2 and 4 shards under three fault setups: a
  // fault-free wire; one envelope to shard 1 % shards retried past two
  // drops plus one to shard 0 that fails all 3 attempts; and the last
  // shard dead. Tight envelopes and queues exercise backpressure. The
  // digests do not depend on the host width.
  const CsrGraph graph = test_graph();
  const std::uint32_t kInstances = 24;
  const auto seeds = expand_single_seeds(draw_seeds(graph, kInstances));
  const std::vector<std::uint32_t> tags = gapped_tags(kInstances);
  enum Faults { kNone, kScripted, kDeadShard };
  struct Case {
    AlgorithmId algorithm;
    std::uint32_t shards;
    std::uint64_t digest[3];  // indexed by Faults
  };
  const std::vector<Case> cases = {
      {AlgorithmId::kDeepwalk,
       1,
       {0x441fb5bb322a357bull, 0x441fb5bb322a357bull, 0x3f2fc5259e63ad62ull}},
      {AlgorithmId::kDeepwalk,
       2,
       {0x5c9c8bc6ed177e2aull, 0x0eb8559c38fd7320ull, 0xbe1fb2533fd725f1ull}},
      {AlgorithmId::kDeepwalk,
       4,
       {0x1798af429c15e3d9ull, 0xf31a5ea506ebacc0ull, 0x51d7d31bc7348ef1ull}},
      {AlgorithmId::kBiasedRandomWalk,
       1,
       {0xddac719fa41cc54eull, 0xddac719fa41cc54eull, 0x3f2fc5259e63ad62ull}},
      {AlgorithmId::kBiasedRandomWalk,
       2,
       {0xd9ef940d3e55ee54ull, 0xb7b2db82702ef400ull, 0x6523f1c7bcfc44afull}},
      {AlgorithmId::kBiasedRandomWalk,
       4,
       {0xa6cbe0fda33b4f61ull, 0xc518372365f4ff9full, 0x44c5149defc226bdull}},
      {AlgorithmId::kNode2vec,
       1,
       {0xcf02cebd3acb8ec9ull, 0xcf02cebd3acb8ec9ull, 0x3f2fc5259e63ad62ull}},
      {AlgorithmId::kNode2vec,
       2,
       {0x4db56e01ba699495ull, 0x275ac75d77cee49full, 0x5739c49fa41045abull}},
      {AlgorithmId::kNode2vec,
       4,
       {0x3a9e01155ded0450ull, 0xf1e382ecf8168d0dull, 0xfde3ab8129ffba0bull}},
      {AlgorithmId::kRandomWalkWithRestart,
       1,
       {0xd7b249a40c00f36cull, 0xd7b249a40c00f36cull, 0x3f2fc5259e63ad62ull}},
      {AlgorithmId::kRandomWalkWithRestart,
       2,
       {0x7df9fec283754084ull, 0x8bbd4ad224dee26cull, 0xbe1fb2533fd725f1ull}},
      {AlgorithmId::kRandomWalkWithRestart,
       4,
       {0xa9e3b30af929a13full, 0xb36774b9e2008b25ull, 0xec37ece6822ab5fdull}},
      {AlgorithmId::kMetropolisHastingsWalk,
       1,
       {0x32e4b7f90f4c155eull, 0x32e4b7f90f4c155eull, 0x3f2fc5259e63ad62ull}},
      {AlgorithmId::kMetropolisHastingsWalk,
       2,
       {0xddcbcda3c72e80d7ull, 0xb08b2f14c1ab00a2ull, 0x336811bebd1b1764ull}},
      {AlgorithmId::kMetropolisHastingsWalk,
       4,
       {0xe04b6beec4d4e34aull, 0x631aab6725010c54ull, 0x47bde7d8fa30d57eull}},
  };
  for (const Case& c : cases) {
    const AlgorithmSetup setup = make_algorithm(c.algorithm, /*length=*/16);
    for (const Faults faults : {kNone, kScripted, kDeadShard}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        std::shared_ptr<FaultInjector> injector;
        if (faults == kScripted) {
          injector = std::make_shared<FaultInjector>();
          injector->fail_next(1 % c.shards, /*times=*/2);
          injector->fail_next(0, /*times=*/5);
        } else if (faults == kDeadShard) {
          injector = std::make_shared<FaultInjector>();
          injector->fail_forever(c.shards - 1);
        }
        SamplerOptions options;
        options.num_threads = threads;
        options.transfer_retry.attempts = 3;
        ShardRouter router(graph, setup, options,
                           {.shards = c.shards,
                            .envelope_capacity = 3,
                            .queue_capacity = 2,
                            .faults = injector});
        const RunResult got = router.run_tagged(seeds, tags);
        EXPECT_EQ(router_digest(got), c.digest[faults])
            << algorithm_info(c.algorithm).name << " shards=" << c.shards
            << " faults=" << faults << " threads=" << threads;
      }
    }
  }
}

TEST(ShardRouterEquivalence, RunTaggedNeedsOneTagPerInstance) {
  // Like Sampler::run_tagged: a run without tags has no Philox stream to
  // draw from, so it is rejected before any walker is seeded.
  const CsrGraph graph = test_graph();
  ShardRouter router(graph, make_algorithm(AlgorithmId::kDeepwalk, 4),
                     SamplerOptions{}, shard_options(2));
  const auto seeds = expand_single_seeds(draw_seeds(graph, 3));
  EXPECT_THROW(router.run_tagged(seeds, {}), CheckError);
  EXPECT_THROW(router.run_tagged(seeds, gapped_tags(2)), CheckError);
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
