#include "oom/oom_engine.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/forest_fire.hpp"
#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/node2vec.hpp"
#include "algorithms/random_walks.hpp"
#include "algorithms/snowball.hpp"
#include "gpusim/timeline.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"
#include "../kernel_digest.hpp"
#include "../timeline_audit.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::spread_seeds;

/// The schedule these tests ran on before they took SamplerOptions, whose
/// defaults to kPipelined).
SamplerOptions barrier_options() {
  SamplerOptions options;
  options.schedule = Schedule::kStepBarrier;
  return options;
}

struct OomToggles {
  bool batched;
  bool workload_aware;
  bool balancing;
  const char* name;
};

class OomOptions : public ::testing::TestWithParam<OomToggles> {
 protected:
  SamplerOptions options() const {
    SamplerOptions o = barrier_options();
    o.num_partitions = 4;
    o.resident_partitions = 2;
    o.oom_batched = GetParam().batched;
    o.oom_workload_aware = GetParam().workload_aware;
    o.oom_block_balancing = GetParam().balancing;
    return o;
  }
};

TEST_P(OomOptions, WalkMatchesInMemoryBitForBit) {
  // The §V-B correctness claim, made testable by counter-based RNG: the
  // out-of-memory engine must produce exactly the sample the in-memory
  // engine produces, whatever the schedule.
  const CsrGraph g = generate_rmat(1024, 8192, 51);
  auto setup = biased_random_walk(/*length=*/12);
  const auto seeds = spread_seeds(g, 40, 97);

  CsrGraphView view(g);
  SamplingEngine in_memory(view, setup.policy, setup.spec);
  sim::Device d_in;
  const RunResult reference = in_memory.run_single_seed(d_in, seeds);

  OomEngine oom(g, setup.policy, setup.spec, options());
  sim::Device d_oom;
  const RunResult run = oom.run_single_seed(d_oom, seeds);

  ASSERT_EQ(run.samples.num_instances(), reference.samples.num_instances());
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(run.samples.edges(i), reference.samples.edges(i))
        << "instance " << i << " diverged under " << GetParam().name;
  }
}

TEST_P(OomOptions, MetropolisHastingsAlsoMatches) {
  const CsrGraph g = generate_rmat(512, 4096, 52);
  auto setup = metropolis_hastings_walk(10);
  const auto seeds = spread_seeds(g, 16, 97);

  CsrGraphView view(g);
  SamplingEngine in_memory(view, setup.policy, setup.spec);
  sim::Device d_in;
  const RunResult reference = in_memory.run_single_seed(d_in, seeds);

  OomEngine oom(g, setup.policy, setup.spec, options());
  sim::Device d_oom;
  const RunResult run = oom.run_single_seed(d_oom, seeds);
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(run.samples.edges(i), reference.samples.edges(i));
  }
}

TEST_P(OomOptions, NeighborSamplingInvariantsHold) {
  const CsrGraph g = generate_rmat(1024, 8192, 53);
  auto setup = biased_neighbor_sampling(2, 3);
  const auto seeds = spread_seeds(g, 32, 97);

  OomEngine oom(g, setup.policy, setup.spec, options());
  sim::Device device;
  const RunResult run = oom.run_single_seed(device, seeds);

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
    Toggles, OomOptions,
    ::testing::Values(OomToggles{false, false, false, "Baseline"},
                      OomToggles{true, false, false, "BA"},
                      OomToggles{true, true, false, "BA_WS"},
                      OomToggles{true, true, true, "BA_WS_BAL"},
                      OomToggles{false, true, true, "WS_BAL_NoBatch"}),
    [](const auto& info) { return info.param.name; });

std::uint64_t barrier_digest(const sim::Device& device, const RunResult& run) {
  testing::Digest d;
  d.add_kernels(device);
  for (const sim::TransferRecord& t : device.transfer().log()) {
    d.add(t.label);
    d.add(t.bytes);
    d.add(static_cast<std::uint64_t>(t.stream_id));
    d.add(t.start);
    d.add(t.end);
  }
  d.add(run.oom->partition_transfers);
  d.add(run.oom->kernel_launches);
  d.add(run.oom->scheduling_rounds);
  d.add(run.oom->kernel_imbalance);
  d.add(run.sim_seconds);
  d.add_samples(run.samples);
  return d.value();
}

TEST(Oom, BarrierTimelineIsPinned) {
  // The barrier waves behind Figs. 13-15, pinned bit for bit: every
  // kernel record (name, stream, clock, share, stats), every transfer,
  // the run's counters, its simulated time and its samples, for every
  // BA x WS x BAL toggle with a walk and a neighbor-sampling spec, and a
  // non-batched run that pages one gang of instances at a time. The
  // digests do not depend on the host width.
  const CsrGraph g = generate_rmat(1024, 8192, 62);
  struct Case {
    const char* spec;
    bool batched, workload_aware, balancing;
    std::uint32_t gang;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      {"walk", false, false, false, 1024, 0x2bd916686a6f99a0ull},
      {"walk", false, false, true, 1024, 0xe87a647942ab9ecaull},
      {"walk", false, true, false, 1024, 0x3963e21d99472191ull},
      {"walk", false, true, true, 1024, 0xce9a030933200dacull},
      {"walk", true, false, false, 1024, 0x2bd916686a6f99a0ull},
      {"walk", true, false, true, 1024, 0xe87a647942ab9ecaull},
      {"walk", true, true, false, 1024, 0x3963e21d99472191ull},
      {"walk", true, true, true, 1024, 0xce9a030933200dacull},
      {"neighbor", false, false, false, 1024, 0x3153b162646c3576ull},
      {"neighbor", false, false, true, 1024, 0xa5bac48db207ef96ull},
      {"neighbor", false, true, false, 1024, 0xc548cca0ffb74832ull},
      {"neighbor", false, true, true, 1024, 0x6abde366118a3cdeull},
      {"neighbor", true, false, false, 1024, 0x748a23411d963343ull},
      {"neighbor", true, false, true, 1024, 0xaea9f32c66e618a8ull},
      {"neighbor", true, true, false, 1024, 0x9fd8eadd250f0331ull},
      {"neighbor", true, true, true, 1024, 0x0553662f9e0fc3a6ull},
      {"walk", false, true, true, 12, 0x366f53973480e3e0ull},
  };
  for (const Case& c : cases) {
    const auto setup = std::string_view(c.spec) == "walk"
                           ? biased_random_walk(/*length=*/12)
                           : biased_neighbor_sampling(2, 3);
    for (const std::uint32_t threads : {1u, 4u}) {
      SamplerOptions options = barrier_options();
      options.num_partitions = 4;
      options.resident_partitions = 2;
      options.oom_batched = c.batched;
      options.oom_workload_aware = c.workload_aware;
      options.oom_block_balancing = c.balancing;
      options.oom_unbatched_gang_size = c.gang;
      options.num_threads = threads;
      OomEngine oom(g, setup.policy, setup.spec, options);
      sim::Device device;
      const RunResult run = oom.run_single_seed(device, spread_seeds(g, 40, 97));
      EXPECT_EQ(barrier_digest(device, run), c.digest)
          << c.spec << " BA=" << c.batched << " WS=" << c.workload_aware
          << " BAL=" << c.balancing << " gang=" << c.gang
          << " threads=" << threads;
    }
  }
}

TEST(Oom, BarrierStreamingCompletesInRoundOrder) {
  // Completion fires at the round boundary where an instance has nothing
  // left queued, on the barrier schedule as on the pipelined one.
  // Instances 1 and 2 walk inside partition 0, which the workload-aware
  // plan takes first, so they finish in round 1; instance 0 walks inside
  // partition 3 and finishes in round 2.
  const CsrGraph g = build_csr({{0, 1}, {6, 7}}, 8);
  auto setup = simple_random_walk(/*length=*/4);
  SamplerOptions c;
  c.num_partitions = 4;
  c.resident_partitions = 1;
  c.schedule = Schedule::kStepBarrier;
  const std::vector<VertexId> seeds = {6, 0, 1};

  OomEngine buffered(g, setup.policy, setup.spec, c);
  sim::Device buffered_device;
  const RunResult reference = buffered.run_single_seed(buffered_device, seeds);

  std::vector<std::uint32_t> order;
  std::vector<std::vector<Edge>> streamed(seeds.size());
  RunControl control;
  control.on_instance_complete = [&](std::uint32_t i,
                                     std::vector<Edge>& edges) {
    order.push_back(i);
    streamed[i] = edges;
  };
  OomEngine streaming(g, setup.policy, setup.spec, c);
  sim::Device device;
  const RunResult run =
      streaming.run(device, expand_single_seeds(seeds), {}, control);
  EXPECT_EQ(run.oom->scheduling_rounds, 2u);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 0}));
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    EXPECT_FALSE(streamed[i].empty());
    EXPECT_EQ(streamed[i], reference.samples.edges(i)) << "instance " << i;
  }
}

TEST(Oom, WorkloadAwareSchedulingReducesTransfers) {
  // Fig. 15's mechanism: keeping the busiest partition resident until its
  // queue drains avoids re-transferring it every round.
  const CsrGraph g = generate_rmat(2048, 16384, 54);
  auto setup = biased_neighbor_sampling(2, 3);
  const auto seeds = spread_seeds(g, 128, 97);

  auto run_with = [&](bool workload_aware) {
    SamplerOptions c = barrier_options();
    c.num_partitions = 4;
    c.resident_partitions = 2;
    c.oom_workload_aware = workload_aware;
    OomEngine oom(g, setup.policy, setup.spec, c);
    sim::Device device;
    return oom.run_single_seed(device, seeds).oom->partition_transfers;
  };
  EXPECT_LE(run_with(true), run_with(false));
}

TEST(Oom, BatchingChangesWorkDistributionNotLaunches) {
  // Both modes launch one kernel per (partition, wave); batching changes
  // the work *distribution*: vertex-grained (a warp per frontier entry)
  // versus instance-grained (a warp per instance, entries serialized).
  const CsrGraph g = generate_rmat(1024, 8192, 55);
  auto setup = biased_neighbor_sampling(2, 3);
  const auto seeds = spread_seeds(g, 64, 97);

  auto run_mode = [&](bool batched) {
    SamplerOptions c = barrier_options();
    c.oom_batched = batched;
    OomEngine oom(g, setup.policy, setup.spec, c);
    sim::Device device;
    return oom.run_single_seed(device, seeds);
  };
  const RunResult batched = run_mode(true);
  const RunResult grouped = run_mode(false);
  // Identical logical work (same total frontier entries -> same sampled
  // edges), but fewer, longer warps without batching.
  EXPECT_EQ(batched.samples.total_edges(), grouped.samples.total_edges());
  EXPECT_GT(batched.stats.warps, grouped.stats.warps);
  EXPECT_GE(grouped.stats.max_warp_rounds, batched.stats.max_warp_rounds);
}

TEST(Oom, BatchingImprovesSimulatedTime) {
  const CsrGraph g = generate_rmat(1024, 8192, 56);
  auto setup = unbiased_neighbor_sampling(2, 3);
  const auto seeds = spread_seeds(g, 96, 97);

  auto seconds = [&](bool batched) {
    SamplerOptions c = barrier_options();
    c.oom_batched = batched;
    c.oom_workload_aware = false;
    c.oom_block_balancing = false;
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
  OomEngine oom(g, setup.policy, setup.spec, barrier_options());
  sim::Device device;
  const RunResult run = oom.run(device, seeds);
  EXPECT_EQ(run.samples.num_instances(), 3u);
  EXPECT_GT(run.samples.total_edges(), 0u);
}

TEST(Oom, RejectsInMemoryOnlySpecs) {
  const CsrGraph g = generate_rmat(256, 1024, 58);
  auto snow = snowball(2);
  EXPECT_THROW(OomEngine(g, snow.policy, snow.spec, barrier_options()),
               CheckError);

  SamplerOptions bad = barrier_options();
  bad.resident_partitions = 9;
  bad.num_partitions = 4;
  auto ns = unbiased_neighbor_sampling(2, 2);
  EXPECT_THROW(OomEngine(g, ns.policy, ns.spec, bad), CheckError);
}

TEST(Oom, RunRejectsMalformedTagsAndCancelTokens) {
  // A direct caller hands tags and cancel tokens straight to the engine,
  // which checks them before it indexes either by instance.
  const CsrGraph g = generate_rmat(256, 1024, 58);
  auto setup = biased_random_walk(/*length=*/4);
  OomEngine oom(g, setup.policy, setup.spec, barrier_options());
  const auto seeds = expand_single_seeds(std::vector<VertexId>{1, 2});
  sim::Device device;
  const std::vector<std::uint32_t> unsorted = {5, 3};
  EXPECT_THROW(oom.run(device, seeds, unsorted), CheckError);
  const std::vector<std::uint32_t> one_tag = {5};
  EXPECT_THROW(oom.run(device, seeds, one_tag), CheckError);
  RunControl one_token;
  one_token.instance_cancel.resize(1);
  EXPECT_THROW(oom.run(device, seeds, {}, one_token), CheckError);
}

TEST(Oom, ForestFireRunsWithBranchingCap) {
  const CsrGraph g = generate_rmat(512, 4096, 59);
  auto setup = forest_fire(0.7, 2);
  OomEngine oom(g, setup.policy, setup.spec, barrier_options());
  sim::Device device;
  const RunResult run = oom.run_single_seed(device, spread_seeds(g, 32, 97));
  EXPECT_GT(run.samples.total_edges(), 0u);
  for (std::uint32_t i = 0; i < 32; ++i) {
    for (const Edge& e : run.samples.edges(i)) {
      EXPECT_TRUE(g.has_edge(e.src, e.dst));
    }
  }
}

TEST(Oom, CachedWindowsRunOnTheSmsTheirBlocksOccupy) {
  // A thread block runs on one SM, so no stretch of a cached kernel
  // window on the SM ledger is granted more than ceil(warps /
  // kWarpsPerBlock) SMs. 24 walkers over 4 partitions never fill the
  // device, so every stretch runs at exactly that cap, and each window
  // lasts the cost model's duration at its cap.
  const CsrGraph g = generate_rmat(1024, 8192, 61);
  auto setup = biased_random_walk(/*length=*/12);
  SamplerOptions c;
  c.num_partitions = 4;
  c.resident_partitions = 3;
  c.schedule = Schedule::kPipelined;
  OomEngine oom(g, setup.policy, setup.spec, c);
  sim::Device device;
  // Each of 24 walkers is one block wide (CostModel::cooperative_widths),
  // so a window holds a block per chain it runs.
  oom.run_single_seed(device, spread_seeds(g, 24, 97));

  const double sm_count = device.cost_model().params().sm_count;
  const auto block_cap = [&](const sim::KernelRecord& k) {
    return static_cast<double>((k.stats.warps + sim::kWarpsPerBlock - 1) /
                               sim::kWarpsPerBlock) /
           sm_count;
  };
  std::size_t segments = 0;
  std::size_t capped = 0;
  for (const sim::SmSegment& seg : device.sm_ledger()) {
    const sim::KernelRecord& k = device.kernel_log()[seg.kernel];
    ASSERT_EQ(k.name.rfind("oom_cached_p", 0), 0u) << k.name;
    ++segments;
    EXPECT_LE(seg.grant, block_cap(k)) << k.name;
    if (seg.grant == block_cap(k)) ++capped;
  }
  EXPECT_GT(segments, 0u);
  EXPECT_EQ(capped, segments);
  for (const sim::KernelRecord& k : device.kernel_log()) {
    EXPECT_DOUBLE_EQ(k.end, k.start + device.cost_model().kernel_seconds(
                                          k.stats, block_cap(k)))
        << k.name;
  }
}

TEST(Oom, CachedRoundsNeverOversubscribeTheSms) {
  // Rounds chain per stream with no barrier between them, so a round's
  // windows open while the last round's still run. Granting each round
  // its own shares of the whole device held up to 1.91x of its SMs on
  // this sweep; the ledger grants each window only the SMs earlier
  // windows leave free.
  auto setup = biased_random_walk(/*length=*/16);
  double peak = 0.0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrGraph g = generate_rmat(4096, 32768, seed);
    for (const auto& [partitions, resident] :
         std::vector<std::pair<std::uint32_t, std::uint32_t>>{
             {4, 3}, {8, 4}, {8, 5}, {8, 6}, {8, 7}}) {
      SamplerOptions c;
      c.num_partitions = partitions;
      c.resident_partitions = resident;
      c.schedule = Schedule::kPipelined;
      OomEngine oom(g, setup.policy, setup.spec, c);
      sim::Device device;
      oom.run_single_seed(device, spread_seeds(g, 128, 97));
      const double use = sim::check_timeline(device);
      EXPECT_LE(use, 1.0 + 1e-9) << "seed " << seed << ", " << resident
                                 << " of " << partitions << " resident";
      peak = std::max(peak, use);
    }
  }
  EXPECT_GT(peak, 0.99);  // the sweep does fill the device
}

TEST(Oom, FullyResidentHubWindowTakesTheSmsOthersFree) {
  // Every partition resident: one round. The hub partition processes
  // most of the round's entries, so it gets most of the free SMs, and the
  // SMs of the windows that end pass to it. At the share of its
  // round-start queue it ran on 25% of the SMs to 1.96 ms, while the
  // other windows ended by 0.37 ms.
  const CsrGraph g = generate_rmat(8192, 65536, 0xC5A7);
  auto setup = biased_random_walk(/*length=*/32);
  SamplerOptions c;
  c.num_partitions = 4;
  c.resident_partitions = 4;
  c.schedule = Schedule::kPipelined;
  OomEngine oom(g, setup.policy, setup.spec, c);
  sim::Device device;
  const RunResult run = oom.run_single_seed(device, spread_seeds(g, 256));
  EXPECT_EQ(run.oom->scheduling_rounds, 1u);
  EXPECT_LE(run.sim_seconds, 0.8e-3);
}

TEST(Oom, TransfersAndMetricsPopulated) {
  const CsrGraph g = generate_rmat(1024, 8192, 60);
  auto setup = biased_neighbor_sampling(2, 2);
  OomEngine oom(g, setup.policy, setup.spec, barrier_options());
  sim::Device device;
  const RunResult run = oom.run_single_seed(device, spread_seeds(g, 64, 97));

  EXPECT_GT(run.oom->partition_transfers, 0u);
  EXPECT_GT(run.oom->bytes_transferred, 0u);
  EXPECT_GT(run.oom->scheduling_rounds, 0u);
  EXPECT_GT(run.oom->kernel_launches, 0u);
  EXPECT_GT(run.sim_seconds, 0.0);
  EXPECT_GT(run.stats.warps, 0u);
  EXPECT_EQ(device.transfer().count(), run.oom->partition_transfers);
}

}  // namespace
}  // namespace csaw
