// Branching specs on every execution path (tests/paths.hpp), and the
// guarantee of the parallel kernel executor: samples, both simulated
// clocks and the kernel stats are byte-identical between num_threads = 1
// and any other width, on every path. The counter-based Philox RNG makes
// the random draws schedule-independent; chain-local outputs, per-worker
// scratch and one chain per instance make the host execution
// schedule-independent too. Branching specs on a paged backend are the
// known difference of ROADMAP item 6: they match within their residency.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algorithms/neighbor_sampling.hpp"
#include "core/engine.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::engine_suite_paths;
using testing::expect_matrix;
using testing::expect_same_run;
using testing::expect_same_samples;
using testing::expect_same_stats;
using testing::find_path;
using testing::gapped_tags;
using testing::spread_seeds;

TEST(ParallelEquivalence, NeighborSamplingOnEveryPath) {
  const CsrGraph g = generate_rmat(1024, 8192, 71);
  const auto runs = expect_matrix(engine_suite_paths(), g,
                                  {AlgorithmId::kBiasedNeighborSampling, 3, 3},
                                  spread_seeds(g, 48), gapped_tags(48));
  // Not a contract: at the default residency this workload's paged bytes
  // do not depend on the schedule, but the fuzzer draws branching configs
  // where they do (ROADMAP item 6).
  const SampleStore* barrier = nullptr;
  for (const auto& [path, result] : runs) {
    if (!path.family.starts_with("paged r=2/4/")) continue;
    if (barrier == nullptr) barrier = &result.samples;
    expect_same_samples(result.samples, *barrier, path.label());
  }
  EXPECT_NE(barrier, nullptr);
}

TEST(ParallelEquivalence, LayerSamplingOnEveryPath) {
  const CsrGraph g = generate_rmat(512, 4096, 19);
  expect_matrix(engine_suite_paths(), g, {AlgorithmId::kLayerSampling, 3, 8},
                spread_seeds(g, 24), gapped_tags(24));
}

TEST(ParallelEquivalence, MultiDimRandomWalkOnEveryPath) {
  // select_frontier mode: frontier selection + in-place pool replacement.
  const CsrGraph g = generate_rmat(512, 4096, 23);
  expect_matrix(engine_suite_paths(), g, {AlgorithmId::kMultiDimRandomWalk, 6},
                spread_seeds(g, 24), gapped_tags(24));
}

TEST(ParallelEquivalence, KernelLogsMatchPerKernel) {
  // Engine-level: not just totals — every logged kernel (name, simulated
  // interval, stats) matches between the serial and parallel schedules.
  const CsrGraph g = generate_rmat(1024, 8192, 71);
  CsrGraphView view(g);
  const auto setup = biased_neighbor_sampling(3, 3);
  const auto seeds = spread_seeds(g, 40);

  SamplerOptions serial_config;
  serial_config.schedule = Schedule::kStepBarrier;
  serial_config.num_threads = 1;
  sim::Device serial_device;
  SamplingEngine serial_engine(view, setup.policy, setup.spec, serial_config);
  serial_engine.run_single_seed(serial_device, seeds);

  SamplerOptions parallel_config;
  parallel_config.schedule = Schedule::kStepBarrier;
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
  const auto batched = [&](std::uint32_t width) {
    return Sampler(g, setup, find_path("in-memory/pipelined", width).options)
        .run_batches_single_seed(seeds, 7);
  };
  expect_same_run(batched(7), batched(1), "batched serving");
}

}  // namespace
}  // namespace csaw
