// Cooperative walk launches (sim::ChainWidth::kCooperative): a pipelined
// walk launch with too few walkers to hide latency gives each walker up
// to a block of warps and splits every step's neighbor tiles across them.
// Only the simulated schedule moves: samples, bytes and the counters of
// every launch that already hides latency stay exactly as they were.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::expect_same_samples;

SamplerOptions options(Schedule schedule,
                       ExecutionMode mode = ExecutionMode::kInMemory) {
  SamplerOptions o;
  o.mode = mode;
  o.schedule = schedule;
  o.num_threads = 1;
  return o;
}

/// Single seeds spread over the graph; walker i of a longer list starts
/// where walker i of a shorter one does, so the lists nest.
std::vector<std::vector<VertexId>> nested_seeds(const CsrGraph& g,
                                                std::uint32_t n,
                                                std::uint32_t per_instance) {
  std::vector<std::vector<VertexId>> seeds(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t k = 0; k < per_instance; ++k) {
      seeds[i].push_back(
          static_cast<VertexId>((i * 97 + k) % g.num_vertices()));
    }
  }
  return seeds;
}

TEST(CooperativeWalk, OneChainHubStepSplitsItsTilesAcrossABlock) {
  // Hub 0 has 512 neighbors: 16 tiles of 32 lanes. One walker of one
  // step takes a whole block (8 warps), 2 tiles each.
  const CsrGraph star = make_star(513);
  const AlgorithmSetup setup =
      make_algorithm(AlgorithmId::kBiasedRandomWalk, /*length=*/1);
  const std::vector<std::vector<VertexId>> hub = {{0}};
  // The step-barrier kernel runs the same step on one warp.
  const RunResult one_warp =
      Sampler(star, setup, options(Schedule::kStepBarrier)).run(hub);
  const RunResult block =
      Sampler(star, setup, options(Schedule::kPipelined)).run(hub);
  expect_same_samples(block.samples, one_warp.samples, "block");

  const std::uint64_t warps = 8;
  const std::uint64_t tiles = 16;
  // Per tile: EDGEBIAS 1, Kogge-Stone scan 6, normalize 1.
  const std::uint64_t rounds_per_tile = 8;
  const std::uint64_t other =
      one_warp.stats.lockstep_rounds - tiles * rounds_per_tile;
  // A block scan of the 8 warp totals (log2 8) plus the offset add.
  const std::uint64_t combine = 3 + 1;
  const std::uint64_t span =
      other + (tiles / warps) * rounds_per_tile + combine;

  EXPECT_EQ(block.stats.max_warp_rounds, span);
  EXPECT_EQ(block.stats.lockstep_rounds,
            one_warp.stats.lockstep_rounds + combine * warps);
  EXPECT_EQ(block.stats.warps, warps);
  EXPECT_EQ(block.stats.occupied_slot_rounds, warps * span);
  EXPECT_EQ(block.stats.global_bytes, one_warp.stats.global_bytes);
  EXPECT_EQ(block.stats.sampled_vertices, one_warp.stats.sampled_vertices);
  EXPECT_EQ(block.stats.select_iterations, one_warp.stats.select_iterations);
}

TEST(CooperativeWalk, AddingWalkersNeverShortensTheLaunchOrOpensACliff) {
  const CsrGraph g = generate_rmat(/*num_vertices=*/4096,
                                   /*num_edges=*/65536, /*seed=*/5);
  const AlgorithmSetup setup =
      make_algorithm(AlgorithmId::kBiasedRandomWalk, /*length=*/20);
  const std::uint32_t sweep[] = {1,   7,   25,  100, 200,  201,
                                 400, 401, 800, 801, 1600, 3200};
  // From 200 walkers on, the launch holds the latency-hiding target of
  // 1600 warps; below it the cost model's stall term charges a k-warp
  // launch ~1/k of the rounds, so fewer walkers there take longer.
  const std::uint32_t kSaturated = 200;

  double prev_seconds = 0.0;
  double prev_seps = 0.0;
  std::uint32_t prev_n = 0;
  for (const std::uint32_t n : sweep) {
    const RunResult run =
        Sampler(g, setup, options(Schedule::kPipelined))
            .run(nested_seeds(g, n, 1));
    const std::string label = "walkers " + std::to_string(prev_n) +
                              " -> " + std::to_string(n);
    if (prev_n >= kSaturated) {
      EXPECT_GE(run.sim_seconds, prev_seconds) << label;
    }
    // No width cliff: one more walker never costs a visible share of
    // the launch's throughput (power-of-two widths lost 26-45% here).
    EXPECT_GE(run.seps(), 0.99 * prev_seps) << label;
    prev_seconds = run.sim_seconds;
    prev_seps = run.seps();
    prev_n = n;
  }
}

/// A launch that kept its one-warp shape: its KernelStats, field for field.
struct Golden {
  AlgorithmId id;
  std::uint32_t depth;
  std::uint32_t instances;
  std::uint32_t seeds_per_instance;
  Schedule schedule;
  ExecutionMode mode;
  std::uint64_t stats[11];  // visit_kernel_stats order
};

TEST(CooperativeWalk, SaturatedWalksAndOtherLaunchesKeepTheirStats) {
  const CsrGraph g = generate_rmat(/*num_vertices=*/2048,
                                   /*num_edges=*/16384, /*seed=*/7);
  constexpr auto kPipe = Schedule::kPipelined;
  constexpr auto kMem = ExecutionMode::kInMemory;
  const Golden goldens[] = {
      // Walks with enough walkers to hide latency: every width is 1.
      {AlgorithmId::kBiasedRandomWalk, 8, 1600, 1, kPipe, kMem,
       {725371, 33712188, 0, 0, 1600, 761, 934048, 12800, 0, 0, 12800}},
      {AlgorithmId::kDeepwalk, 8, 2000, 1, kPipe, kMem,
       {591538, 22830712, 0, 0, 2000, 661, 817752, 16000, 0, 0, 16000}},
      {AlgorithmId::kNode2vec, 8, 1600, 1, kPipe, kMem,
       {451912, 16945632, 0, 0, 1600, 606, 622152, 12800, 0, 0, 12800}},
      // Walks of several seeds per instance run several tasks per step.
      {AlgorithmId::kBiasedRandomWalk, 8, 100, 3, kPipe, kMem,
       {136968, 6378832, 0, 0, 300, 1033, 82448, 2400, 0, 0, 2400}},
      {AlgorithmId::kBiasedRandomWalk, 8, 100, 2, kPipe,
       ExecutionMode::kOutOfMemory,
       {90142, 4177384, 0, 0, 829, 713, 133798, 1600, 0, 0, 1600}},
      // The barrier schedule, however few walkers.
      {AlgorithmId::kBiasedRandomWalk, 8, 100, 1, Schedule::kStepBarrier,
       kMem,
       {44972, 2083952, 0, 0, 800, 167, 91704, 800, 0, 0, 800}},
      // Launches that are not walk-shaped.
      {AlgorithmId::kUnbiasedNeighborSampling, 2, 50, 1, kPipe, kMem,
       {5207, 181828, 288, 47, 90, 188, 6878, 271, 288, 18, 270}},
      {AlgorithmId::kBiasedNeighborSampling, 2, 50, 1, kPipe, kMem,
       {7086, 293796, 298, 39, 90, 249, 8246, 275, 298, 28, 270}},
      {AlgorithmId::kForestFire, 2, 50, 1, kPipe, kMem,
       {4027, 140222, 379, 102, 99, 175, 6164, 339, 379, 50, 329}},
      {AlgorithmId::kSnowball, 2, 50, 1, kPipe, kMem,
       {106589, 1619392, 0, 0, 1372, 921, 33004, 0, 0, 0, 0}},
      {AlgorithmId::kLayerSampling, 2, 50, 1, kPipe, kMem,
       {6029, 288146, 203, 29, 50, 274, 10366, 191, 203, 13, 190}},
      {AlgorithmId::kMultiDimRandomWalk, 2, 50, 3, kPipe, kMem,
       {5218, 149488, 100, 0, 50, 291, 9290, 200, 100, 0, 200}},
      {AlgorithmId::kBiasedNeighborSampling, 2, 50, 1, kPipe,
       ExecutionMode::kOutOfMemory,
       {7086, 293796, 298, 39, 123, 249, 11230, 275, 298, 28, 270}},
  };
  for (const Golden& golden : goldens) {
    const AlgorithmSetup setup = make_algorithm(golden.id, golden.depth);
    const RunResult run =
        Sampler(g, setup, options(golden.schedule, golden.mode))
            .run(nested_seeds(g, golden.instances,
                              golden.seeds_per_instance));
    std::size_t field = 0;
    sim::visit_kernel_stats(
        run.stats, [&](const char* name, std::uint64_t value) {
          EXPECT_EQ(value, golden.stats[field++])
              << algorithm_info(golden.id).name << " x" << golden.instances
              << " " << to_string(golden.schedule) << ": " << name;
        });
    EXPECT_EQ(field, std::size(golden.stats));
  }
}

TEST(CooperativeWalk, UnbatchedOomTaskOfSeveralWalkersKeepsOneWarp) {
  // Unbatched, one out-of-memory task walks every entry its instance has
  // on a partition: with two seeds, two neighbor lists of different
  // lengths in one task, which a cooperative split cannot cover.
  const CsrGraph g = generate_rmat(/*num_vertices=*/2048,
                                   /*num_edges=*/16384, /*seed=*/7);
  const AlgorithmSetup setup =
      make_algorithm(AlgorithmId::kBiasedRandomWalk, /*length=*/8);
  const auto seeds = nested_seeds(g, /*n=*/100, /*per_instance=*/2);
  SamplerOptions unbatched =
      options(Schedule::kPipelined, ExecutionMode::kOutOfMemory);
  unbatched.oom_batched = false;
  SamplerOptions waves = unbatched;
  waves.schedule = Schedule::kStepBarrier;
  const RunResult run = Sampler(g, setup, unbatched).run(seeds);
  expect_same_samples(run.samples, Sampler(g, setup, waves).run(seeds).samples,
                      "waves");
  const std::uint64_t golden[] = {90142, 4177384, 0,    0, 563, 902,
                                  167004, 1600,  0, 0, 1600};
  std::size_t field = 0;
  sim::visit_kernel_stats(run.stats,
                          [&](const char* name, std::uint64_t value) {
                            EXPECT_EQ(value, golden[field++]) << name;
                          });
  EXPECT_EQ(field, std::size(golden));
}

}  // namespace
}  // namespace csaw
