// The tentpole guarantee of the parallel kernel executor: samples, seps()
// and per-kernel KernelStats are byte-identical between num_threads = 1
// and any other width, across every execution mode. The counter-based
// Philox RNG makes the random draws schedule-independent; chain-local
// outputs, per-worker scratch and one chain per instance make the host
// execution schedule-independent too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algorithms/layer_sampling.hpp"
#include "algorithms/mdrw.hpp"
#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/random_walks.hpp"
#include "core/engine.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"

namespace csaw {
namespace {

constexpr std::uint32_t kWidths[] = {2, 7};

std::vector<VertexId> spread_seeds(const CsrGraph& g, std::uint32_t n) {
  std::vector<VertexId> seeds(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    seeds[i] = static_cast<VertexId>((i * 131) % g.num_vertices());
  }
  return seeds;
}

void expect_same_stats(const sim::KernelStats& a, const sim::KernelStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.lockstep_rounds, b.lockstep_rounds) << label;
  EXPECT_EQ(a.global_bytes, b.global_bytes) << label;
  EXPECT_EQ(a.atomic_ops, b.atomic_ops) << label;
  EXPECT_EQ(a.atomic_conflicts, b.atomic_conflicts) << label;
  EXPECT_EQ(a.warps, b.warps) << label;
  EXPECT_EQ(a.max_warp_rounds, b.max_warp_rounds) << label;
  EXPECT_EQ(a.occupied_slot_rounds, b.occupied_slot_rounds) << label;
  EXPECT_EQ(a.select_iterations, b.select_iterations) << label;
  EXPECT_EQ(a.collision_searches, b.collision_searches) << label;
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.sampled_vertices, b.sampled_vertices) << label;
}

void expect_same_run(const RunResult& serial, const RunResult& parallel,
                     const std::string& label) {
  ASSERT_EQ(serial.samples.num_instances(), parallel.samples.num_instances())
      << label;
  for (std::uint32_t i = 0; i < serial.samples.num_instances(); ++i) {
    EXPECT_EQ(serial.samples.edges(i), parallel.samples.edges(i))
        << label << ", instance " << i;
  }
  // Simulated time is computed from the merged stats, so exact double
  // equality is the assertion — any schedule dependence would break it.
  EXPECT_EQ(serial.sim_seconds, parallel.sim_seconds) << label;
  EXPECT_EQ(serial.seps(), parallel.seps()) << label;
  EXPECT_EQ(serial.device_seconds, parallel.device_seconds) << label;
  expect_same_stats(serial.stats, parallel.stats, label);
}

void expect_mode_equivalence(ExecutionMode mode, const AlgorithmSetup& setup,
                             const CsrGraph& g, std::uint32_t num_instances,
                             const std::string& label) {
  const auto seeds = spread_seeds(g, num_instances);

  SamplerOptions serial_options;
  serial_options.mode = mode;
  serial_options.num_threads = 1;
  if (mode == ExecutionMode::kMultiDevice) serial_options.num_devices = 2;
  if (mode == ExecutionMode::kOutOfMemory) {
    serial_options.memory_assumption = MemoryAssumption::kExceeds;
  }
  Sampler serial(g, setup, serial_options);
  const RunResult reference = serial.run_single_seed(seeds);
  ASSERT_GT(reference.sampled_edges(), 0u) << label;

  for (const std::uint32_t width : kWidths) {
    SamplerOptions options = serial_options;
    options.num_threads = width;
    Sampler sampler(g, setup, options);
    const RunResult run = sampler.run_single_seed(seeds);
    expect_same_run(reference, run,
                    label + ", " + std::to_string(width) + " threads");
  }
}

TEST(ParallelEquivalence, InMemoryNeighborSampling) {
  const CsrGraph g = generate_rmat(1024, 8192, 71);
  expect_mode_equivalence(ExecutionMode::kInMemory,
                          biased_neighbor_sampling(3, 3), g, 48,
                          "in-memory neighbor sampling");
}

TEST(ParallelEquivalence, InMemoryLayerSampling) {
  const CsrGraph g = generate_rmat(512, 4096, 19);
  expect_mode_equivalence(ExecutionMode::kInMemory, layer_sampling(8, 3), g,
                          24, "in-memory layer sampling");
}

TEST(ParallelEquivalence, InMemoryMultiDimRandomWalk) {
  const CsrGraph g = generate_rmat(512, 4096, 23);
  // select_frontier mode: frontier selection + in-place pool replacement.
  expect_mode_equivalence(ExecutionMode::kInMemory,
                          multi_dimensional_random_walk(6), g, 24,
                          "in-memory MDRW");
}

TEST(ParallelEquivalence, OutOfMemoryNeighborSampling) {
  const CsrGraph g = generate_rmat(1024, 8192, 71);
  expect_mode_equivalence(ExecutionMode::kOutOfMemory,
                          biased_neighbor_sampling(3, 3), g, 48,
                          "out-of-memory neighbor sampling");
}

TEST(ParallelEquivalence, OutOfMemoryRandomWalk) {
  const CsrGraph g = generate_rmat(1024, 8192, 37);
  expect_mode_equivalence(ExecutionMode::kOutOfMemory, biased_random_walk(12),
                          g, 64, "out-of-memory random walk");
}

TEST(ParallelEquivalence, MultiDeviceNeighborSampling) {
  const CsrGraph g = generate_rmat(1024, 8192, 71);
  expect_mode_equivalence(ExecutionMode::kMultiDevice,
                          biased_neighbor_sampling(3, 3), g, 48,
                          "multi-device neighbor sampling");
}

TEST(ParallelEquivalence, AutoMode) {
  const CsrGraph g = generate_rmat(1024, 8192, 71);
  expect_mode_equivalence(ExecutionMode::kAuto, biased_neighbor_sampling(3, 3),
                          g, 48, "auto mode");
}

TEST(ParallelEquivalence, KernelLogsMatchPerKernel) {
  // Engine-level: not just totals — every logged kernel (name, simulated
  // interval, stats) matches between the serial and parallel schedules.
  const CsrGraph g = generate_rmat(1024, 8192, 71);
  CsrGraphView view(g);
  const auto setup = biased_neighbor_sampling(3, 3);
  const auto seeds = spread_seeds(g, 40);

  EngineConfig serial_config;
  serial_config.num_threads = 1;
  sim::Device serial_device;
  SamplingEngine serial_engine(view, setup.policy, setup.spec, serial_config);
  serial_engine.run_single_seed(serial_device, seeds);

  EngineConfig parallel_config;
  parallel_config.num_threads = 7;
  sim::Device parallel_device;
  SamplingEngine parallel_engine(view, setup.policy, setup.spec,
                                 parallel_config);
  parallel_engine.run_single_seed(parallel_device, seeds);

  const auto& serial_log = serial_device.kernel_log();
  const auto& parallel_log = parallel_device.kernel_log();
  ASSERT_EQ(serial_log.size(), parallel_log.size());
  for (std::size_t k = 0; k < serial_log.size(); ++k) {
    const std::string label = "kernel " + serial_log[k].name;
    EXPECT_EQ(serial_log[k].name, parallel_log[k].name);
    EXPECT_EQ(serial_log[k].stream_id, parallel_log[k].stream_id) << label;
    EXPECT_EQ(serial_log[k].start, parallel_log[k].start) << label;
    EXPECT_EQ(serial_log[k].end, parallel_log[k].end) << label;
    expect_same_stats(serial_log[k].stats, parallel_log[k].stats, label);
  }
}

TEST(ParallelEquivalence, BatchedServingMatchesAtAnyWidth) {
  const CsrGraph g = generate_rmat(1024, 8192, 71);
  const auto setup = biased_neighbor_sampling(2, 2);
  const auto seeds = spread_seeds(g, 30);

  SamplerOptions serial_options;
  serial_options.num_threads = 1;
  Sampler serial(g, setup, serial_options);
  const RunResult reference = serial.run_batches_single_seed(seeds, 7);

  SamplerOptions options;
  options.num_threads = 7;
  Sampler sampler(g, setup, options);
  expect_same_run(reference, sampler.run_batches_single_seed(seeds, 7),
                  "batched serving");
}

}  // namespace
}  // namespace csaw
