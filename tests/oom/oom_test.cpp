#include "oom/oom_engine.hpp"

#include <gtest/gtest.h>

#include <set>

#include "algorithms/forest_fire.hpp"
#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/node2vec.hpp"
#include "algorithms/random_walks.hpp"
#include "algorithms/snowball.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace csaw {
namespace {

std::vector<VertexId> spread_seeds(const CsrGraph& g, std::uint32_t n) {
  std::vector<VertexId> seeds(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    seeds[i] = static_cast<VertexId>((i * 97) % g.num_vertices());
  }
  return seeds;
}

struct OomToggles {
  bool batched;
  bool workload_aware;
  bool balancing;
  const char* name;
};

class OomConfigs : public ::testing::TestWithParam<OomToggles> {
 protected:
  OomConfig config() const {
    OomConfig c;
    c.num_partitions = 4;
    c.resident_partitions = 2;
    c.num_streams = 2;
    c.batched = GetParam().batched;
    c.workload_aware = GetParam().workload_aware;
    c.block_balancing = GetParam().balancing;
    return c;
  }
};

TEST_P(OomConfigs, WalkMatchesInMemoryBitForBit) {
  // The §V-B correctness claim, made testable by counter-based RNG: the
  // out-of-memory engine must produce exactly the sample the in-memory
  // engine produces, whatever the schedule.
  const CsrGraph g = generate_rmat(1024, 8192, 51);
  auto setup = biased_random_walk(/*length=*/12);
  const auto seeds = spread_seeds(g, 40);

  CsrGraphView view(g);
  SamplingEngine in_memory(view, setup.policy, setup.spec);
  sim::Device d_in;
  const SampleRun reference = in_memory.run_single_seed(d_in, seeds);

  OomEngine oom(g, setup.policy, setup.spec, config());
  sim::Device d_oom;
  const OomRun run = oom.run_single_seed(d_oom, seeds);

  ASSERT_EQ(run.samples.num_instances(), reference.samples.num_instances());
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(run.samples.edges(i), reference.samples.edges(i))
        << "instance " << i << " diverged under " << GetParam().name;
  }
}

TEST_P(OomConfigs, MetropolisHastingsAlsoMatches) {
  const CsrGraph g = generate_rmat(512, 4096, 52);
  auto setup = metropolis_hastings_walk(10);
  const auto seeds = spread_seeds(g, 16);

  CsrGraphView view(g);
  SamplingEngine in_memory(view, setup.policy, setup.spec);
  sim::Device d_in;
  const SampleRun reference = in_memory.run_single_seed(d_in, seeds);

  OomEngine oom(g, setup.policy, setup.spec, config());
  sim::Device d_oom;
  const OomRun run = oom.run_single_seed(d_oom, seeds);
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(run.samples.edges(i), reference.samples.edges(i));
  }
}

TEST_P(OomConfigs, NeighborSamplingInvariantsHold) {
  const CsrGraph g = generate_rmat(1024, 8192, 53);
  auto setup = biased_neighbor_sampling(2, 3);
  const auto seeds = spread_seeds(g, 32);

  OomEngine oom(g, setup.policy, setup.spec, config());
  sim::Device device;
  const OomRun run = oom.run_single_seed(device, seeds);

  EXPECT_GT(run.samples.total_edges(), 0u);
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    std::set<VertexId> seen = {seeds[i]};
    for (const Edge& e : run.samples.edges(i)) {
      EXPECT_TRUE(g.has_edge(e.src, e.dst));
      // Never more than branching allows: 2 + 4 + 8.
    }
    EXPECT_LE(run.samples.edges(i).size(), 14u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Toggles, OomConfigs,
    ::testing::Values(OomToggles{false, false, false, "Baseline"},
                      OomToggles{true, false, false, "BA"},
                      OomToggles{true, true, false, "BA_WS"},
                      OomToggles{true, true, true, "BA_WS_BAL"},
                      OomToggles{false, true, true, "WS_BAL_NoBatch"}),
    [](const auto& info) { return info.param.name; });

TEST(Oom, WorkloadAwareSchedulingReducesTransfers) {
  // Fig. 15's mechanism: keeping the busiest partition resident until its
  // queue drains avoids re-transferring it every round.
  const CsrGraph g = generate_rmat(2048, 16384, 54);
  auto setup = biased_neighbor_sampling(2, 3);
  const auto seeds = spread_seeds(g, 128);

  auto run_with = [&](bool workload_aware) {
    OomConfig c;
    c.num_partitions = 4;
    c.resident_partitions = 2;
    c.workload_aware = workload_aware;
    OomEngine oom(g, setup.policy, setup.spec, c);
    sim::Device device;
    return oom.run_single_seed(device, seeds).metrics.partition_transfers;
  };
  EXPECT_LE(run_with(true), run_with(false));
}

TEST(Oom, BatchingChangesWorkDistributionNotLaunches) {
  // Both modes launch one kernel per (partition, wave); batching changes
  // the work *distribution*: vertex-grained (a warp per frontier entry)
  // versus instance-grained (a warp per instance, entries serialized).
  const CsrGraph g = generate_rmat(1024, 8192, 55);
  auto setup = biased_neighbor_sampling(2, 3);
  const auto seeds = spread_seeds(g, 64);

  auto run_mode = [&](bool batched) {
    OomConfig c;
    c.batched = batched;
    OomEngine oom(g, setup.policy, setup.spec, c);
    sim::Device device;
    return oom.run_single_seed(device, seeds);
  };
  const OomRun batched = run_mode(true);
  const OomRun grouped = run_mode(false);
  // Identical logical work (same total frontier entries -> same sampled
  // edges), but fewer, longer warps without batching.
  EXPECT_EQ(batched.samples.total_edges(), grouped.samples.total_edges());
  EXPECT_GT(batched.stats.warps, grouped.stats.warps);
  EXPECT_GE(grouped.stats.max_warp_rounds, batched.stats.max_warp_rounds);
}

TEST(Oom, BatchingImprovesSimulatedTime) {
  const CsrGraph g = generate_rmat(1024, 8192, 56);
  auto setup = unbiased_neighbor_sampling(2, 3);
  const auto seeds = spread_seeds(g, 96);

  auto seconds = [&](bool batched) {
    OomConfig c;
    c.batched = batched;
    c.workload_aware = false;
    c.block_balancing = false;
    OomEngine oom(g, setup.policy, setup.spec, c);
    sim::Device device;
    return oom.run_single_seed(device, seeds).sim_seconds;
  };
  EXPECT_LT(seconds(true), seconds(false));
}

TEST(Oom, MultiSeedInstancesWork) {
  const CsrGraph g = generate_rmat(512, 4096, 57);
  auto setup = unbiased_neighbor_sampling(2, 2);
  const std::vector<std::vector<VertexId>> seeds = {
      {0, 5, 9}, {1}, {2, 3}};
  OomEngine oom(g, setup.policy, setup.spec, OomConfig{});
  sim::Device device;
  const OomRun run = oom.run(device, seeds);
  EXPECT_EQ(run.samples.num_instances(), 3u);
  EXPECT_GT(run.samples.total_edges(), 0u);
}

TEST(Oom, RejectsInMemoryOnlySpecs) {
  const CsrGraph g = generate_rmat(256, 1024, 58);
  auto snow = snowball(2);
  EXPECT_THROW(OomEngine(g, snow.policy, snow.spec, OomConfig{}), CheckError);

  OomConfig bad;
  bad.resident_partitions = 9;
  bad.num_partitions = 4;
  auto ns = unbiased_neighbor_sampling(2, 2);
  EXPECT_THROW(OomEngine(g, ns.policy, ns.spec, bad), CheckError);
}

TEST(Oom, ForestFireRunsWithBranchingCap) {
  const CsrGraph g = generate_rmat(512, 4096, 59);
  auto setup = forest_fire(0.7, 2);
  OomEngine oom(g, setup.policy, setup.spec, OomConfig{});
  sim::Device device;
  const OomRun run = oom.run_single_seed(device, spread_seeds(g, 32));
  EXPECT_GT(run.samples.total_edges(), 0u);
  for (std::uint32_t i = 0; i < 32; ++i) {
    for (const Edge& e : run.samples.edges(i)) {
      EXPECT_TRUE(g.has_edge(e.src, e.dst));
    }
  }
}

TEST(Oom, CachedWindowsRunOnTheSmsTheirBlocksOccupy) {
  // A thread block runs on one SM, so each cached kernel window is
  // charged on at most ceil(warps / kWarpsPerBlock) SMs, and its window
  // on the stream is exactly the cost model's duration at that grant.
  const CsrGraph g = generate_rmat(1024, 8192, 61);
  auto setup = biased_random_walk(/*length=*/12);
  OomConfig c;
  c.num_partitions = 4;
  c.resident_partitions = 3;
  c.engine.schedule = Schedule::kPipelined;
  OomEngine oom(g, setup.policy, setup.spec, c);
  sim::Device device;
  // Each of 24 walkers is one block wide (CostModel::cooperative_widths),
  // so a window holds a block per chain it runs.
  oom.run_single_seed(device, spread_seeds(g, 24));

  const double sm_count = device.cost_model().params().sm_count;
  std::size_t windows = 0;
  std::size_t capped = 0;
  for (const sim::KernelRecord& k : device.kernel_log()) {
    if (k.name.rfind("oom_cached_p", 0) != 0) continue;
    ++windows;
    const auto blocks = static_cast<double>(
        (k.stats.warps + sim::kWarpsPerBlock - 1) / sim::kWarpsPerBlock);
    // resource_fraction * sm_count <= blocks, without the rounding of
    // the product.
    EXPECT_LE(k.resource_fraction, blocks / sm_count) << k.name;
    if (k.resource_fraction == blocks / sm_count) ++capped;
    EXPECT_EQ(k.end,
              k.start + device.cost_model().kernel_seconds(
                            k.stats, k.resource_fraction))
        << k.name;
  }
  EXPECT_GT(windows, 0u);
  // 24 walkers over 4 partitions never fill a block-balancing share.
  EXPECT_EQ(capped, windows);
}

TEST(Oom, TransfersAndMetricsPopulated) {
  const CsrGraph g = generate_rmat(1024, 8192, 60);
  auto setup = biased_neighbor_sampling(2, 2);
  OomEngine oom(g, setup.policy, setup.spec, OomConfig{});
  sim::Device device;
  const OomRun run = oom.run_single_seed(device, spread_seeds(g, 64));

  EXPECT_GT(run.metrics.partition_transfers, 0u);
  EXPECT_GT(run.metrics.bytes_transferred, 0u);
  EXPECT_GT(run.metrics.scheduling_rounds, 0u);
  EXPECT_GT(run.metrics.kernel_launches, 0u);
  EXPECT_GT(run.sim_seconds, 0.0);
  EXPECT_GT(run.stats.warps, 0u);
  EXPECT_EQ(device.transfer().count(), run.metrics.partition_transfers);
}

}  // namespace
}  // namespace csaw
