// Gang scheduling (non-batched baseline) and transfer accounting of the
// out-of-memory engine.
#include <gtest/gtest.h>

#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/random_walks.hpp"
#include "graph/generators.hpp"
#include "oom/oom_engine.hpp"
#include "../timeline_audit.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::spread_seeds;

class GangSizes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GangSizes, SamplesAreIndependentOfGangSize) {
  // Gang scheduling changes when instances run, never what they sample:
  // the counter-based RNG keys draws by instance, not schedule.
  const CsrGraph g = generate_rmat(512, 4096, 71);
  auto setup = biased_random_walk(8);
  const auto seeds = spread_seeds(g, 48, 53);

  SamplerOptions batched;
  batched.schedule = Schedule::kStepBarrier;
  batched.oom_batched = true;
  OomEngine reference_engine(g, setup.policy, setup.spec, batched);
  sim::Device d0;
  const RunResult reference = reference_engine.run_single_seed(d0, seeds);

  SamplerOptions ganged;
  ganged.schedule = Schedule::kStepBarrier;
  ganged.oom_batched = false;
  ganged.oom_unbatched_gang_size = GetParam();
  OomEngine engine(g, setup.policy, setup.spec, ganged);
  sim::Device d1;
  const RunResult run = engine.run_single_seed(d1, seeds);

  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(run.samples.edges(i), reference.samples.edges(i))
        << "instance " << i << " gang " << GetParam();
  }
}

TEST_P(GangSizes, TransfersScaleWithGangCount) {
  const CsrGraph g = generate_rmat(1024, 8192, 72);
  auto setup = biased_neighbor_sampling(2, 2);
  const auto seeds = spread_seeds(g, 64, 53);

  auto transfers = [&](std::uint32_t gang_size, bool batched) {
    SamplerOptions c;
    c.schedule = Schedule::kStepBarrier;
    c.oom_batched = batched;
    c.oom_unbatched_gang_size = gang_size;
    OomEngine engine(g, setup.policy, setup.spec, c);
    sim::Device device;
    return engine.run_single_seed(device, seeds).oom->partition_transfers;
  };
  const auto merged = transfers(0xFFFFFFFF, true);
  const auto ganged = transfers(GetParam(), false);
  // Each gang pays its own residency cycle: transfers never decrease and
  // grow roughly with the gang count.
  EXPECT_GE(ganged, merged);
  if (GetParam() <= 16) {
    EXPECT_GE(ganged, merged * (64 / GetParam()) / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GangSizes,
                         ::testing::Values(8, 16, 32, 64));

TEST(OomGang, MetropolisHastingsBitIdenticalUnderGangScheduling) {
  const CsrGraph g = generate_rmat(512, 4096, 73);
  auto setup = metropolis_hastings_walk(12);
  const auto seeds = spread_seeds(g, 24, 53);

  CsrGraphView view(g);
  SamplingEngine in_memory(view, setup.policy, setup.spec);
  sim::Device d_in;
  const SampleRun reference = in_memory.run_single_seed(d_in, seeds);

  SamplerOptions options;
  options.schedule = Schedule::kStepBarrier;
  options.oom_batched = false;
  options.oom_unbatched_gang_size = 7;  // deliberately unaligned
  options.oom_workload_aware = false;
  OomEngine engine(g, setup.policy, setup.spec, options);
  sim::Device d_oom;
  const RunResult run = engine.run_single_seed(d_oom, seeds);
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(run.samples.edges(i), reference.samples.edges(i));
  }
}

TEST(OomGang, SimulatedTimeWorsensWithSmallGangs) {
  const CsrGraph g = generate_rmat(1024, 8192, 74);
  auto setup = unbiased_neighbor_sampling(2, 2);
  const auto seeds = spread_seeds(g, 96, 53);

  auto seconds = [&](std::uint32_t gang_size) {
    SamplerOptions c;
    c.schedule = Schedule::kStepBarrier;
    c.oom_batched = false;
    c.oom_unbatched_gang_size = gang_size;
    OomEngine engine(g, setup.policy, setup.spec, c);
    sim::Device device;
    return engine.run_single_seed(device, seeds).sim_seconds;
  };
  EXPECT_GT(seconds(8), seconds(96));
}

TEST(OomGang, SingleInstanceStillWorks) {
  const CsrGraph g = generate_rmat(256, 2048, 75);
  auto setup = biased_neighbor_sampling(2, 2);
  SamplerOptions options;
  options.schedule = Schedule::kStepBarrier;
  options.oom_batched = false;
  options.oom_unbatched_gang_size = 4;
  OomEngine engine(g, setup.policy, setup.spec, options);
  sim::Device device;
  const RunResult run =
      engine.run_single_seed(device, std::vector<VertexId>{5});
  EXPECT_EQ(run.samples.num_instances(), 1u);
  EXPECT_GT(run.samples.total_edges(), 0u);
}

}  // namespace
}  // namespace csaw
