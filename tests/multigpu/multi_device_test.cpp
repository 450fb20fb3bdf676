// Multi-device execution (paper §V-D) through the Sampler facade:
// disjoint instance groups, one per device, no inter-device
// communication; the run completes when the slowest device drains its
// group.
#include "core/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/random_walks.hpp"
#include "graph/generators.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::expect_same_samples;
using testing::spread_seeds;

RunResult run_on_devices(const CsrGraph& g, const AlgorithmSetup& setup,
                         const std::vector<VertexId>& seeds,
                         std::uint32_t devices,
                         MemoryAssumption memory = MemoryAssumption::kFits) {
  SamplerOptions options;
  options.mode = ExecutionMode::kMultiDevice;
  options.num_devices = devices;
  options.memory_assumption = memory;
  return Sampler(g, setup, options).run_single_seed(seeds);
}

class DeviceCounts : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DeviceCounts, SamplesAreIndependentOfDeviceCount) {
  // The counter-based RNG makes the union of samples identical for any
  // device count — exactly, not just distributionally.
  const CsrGraph g = generate_rmat(1024, 8192, 61);
  const auto setup = biased_random_walk(10);
  const auto seeds = spread_seeds(g, 60);
  const RunResult one = run_on_devices(g, setup, seeds, 1);
  const RunResult many = run_on_devices(g, setup, seeds, GetParam());
  expect_same_samples(many.samples, one.samples,
                      std::to_string(GetParam()) + " devices");
}

INSTANTIATE_TEST_SUITE_P(Counts, DeviceCounts, ::testing::Values(2, 3, 6));

TEST(MultiDevice, MakespanIsMaxOfDevices) {
  const CsrGraph g = generate_rmat(512, 4096, 62);
  const RunResult run = run_on_devices(g, unbiased_neighbor_sampling(2, 2),
                                       spread_seeds(g, 30), 3);
  ASSERT_EQ(run.device_seconds.size(), 3u);
  EXPECT_DOUBLE_EQ(run.sim_seconds, *std::max_element(
                                        run.device_seconds.begin(),
                                        run.device_seconds.end()));
}

TEST(MultiDevice, ScalingImprovesWithEnoughInstances) {
  // Fig. 17's shape at unit scale: with enough instances to saturate the
  // devices (>= latency_hiding_warps_per_sm * sm_count warps each), more
  // devices are faster; with too few, scaling stalls (Fig. 17(a)).
  const CsrGraph g = generate_rmat(1024, 8192, 63);
  const auto setup = biased_neighbor_sampling(2, 2);
  const auto makespan = [&](std::uint32_t instances, std::uint32_t devices) {
    return run_on_devices(g, setup, spread_seeds(g, instances), devices)
        .sim_seconds;
  };
  // Saturated: 6400 instances, 3200 warps per device at 2 devices.
  EXPECT_LT(makespan(6400, 2), makespan(6400, 1) * 0.7);
  // Starved: 480 instances over 6 devices scale worse than saturated.
  const double starved = makespan(480, 1) / makespan(480, 6);
  const double saturated = makespan(6400, 1) / makespan(6400, 6);
  EXPECT_LT(starved, saturated);
}

TEST(MultiDevice, OutOfMemoryModeMatchesInMemorySamples) {
  // Every device pages through its own private partition cache.
  const CsrGraph g = generate_rmat(1024, 8192, 64);
  const auto setup = biased_random_walk(8);
  const auto seeds = spread_seeds(g, 24);
  const RunResult in_memory = run_on_devices(g, setup, seeds, 2);
  const RunResult paged =
      run_on_devices(g, setup, seeds, 2, MemoryAssumption::kExceeds);
  ASSERT_TRUE(paged.oom.has_value());
  EXPECT_GT(paged.oom->partition_transfers, 0u);
  expect_same_samples(paged.samples, in_memory.samples, "multi-device paged");
}

TEST(MultiDevice, MoreDevicesThanInstances) {
  const CsrGraph g = generate_rmat(256, 2048, 65);
  const RunResult run =
      run_on_devices(g, simple_random_walk(5), spread_seeds(g, 3), 6);
  EXPECT_EQ(run.samples.num_instances(), 3u);
  EXPECT_GT(run.samples.total_edges(), 0u);
  EXPECT_EQ(run.device_seconds.size(), 6u);
}

}  // namespace
}  // namespace csaw
