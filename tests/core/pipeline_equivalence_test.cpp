// Walk-shaped specs on every execution path (tests/paths.hpp): the bytes
// of the in-memory step-barrier oracle on every path, host width
// invisible down to the simulated clocks, kernel stats and backend
// metrics, and a pipelined makespan never longer than the step-barrier
// one on the same backend. The pipelined chains reuse the barrier
// kernels' per-instance bodies and keep each instance's task order,
// while the counter-based RNG keeps the cross-instance interleaving
// invisible — see docs/ARCHITECTURE.md "Pipelined scheduler".
#include <gtest/gtest.h>

#include <vector>

#include "algorithms/random_walks.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::engine_suite_paths;
using testing::expect_matrix;
using testing::expect_same_samples;
using testing::find_path;
using testing::gapped_tags;
using testing::spread_seeds;

TEST(PipelineEquivalence, BiasedRandomWalkOnEveryPath) {
  const CsrGraph g = generate_rmat(1024, 8192, 37);
  expect_matrix(engine_suite_paths(), g,
                {AlgorithmId::kBiasedRandomWalk, 16}, spread_seeds(g, 64),
                gapped_tags(64));
}

TEST(PipelineEquivalence, Node2vecHonorsStepDependency) {
  // node2vec's bias reads prev_vertex — the vertex its own chain explored
  // at step s-1. A pipeline that let step s run before the instance's
  // step s-1 completed (or leaked another instance's prev_vertex), or a
  // forwarded walker that lost it, would change the walks.
  const CsrGraph g = generate_rmat(1024, 8192, 53);
  expect_matrix(engine_suite_paths(), g, {AlgorithmId::kNode2vec, 12},
                spread_seeds(g, 40), gapped_tags(40));
}

TEST(PipelineEquivalence, OutOfMemoryUnbatchedBaseline) {
  // The instance-grained baseline pipelines too (one straggling warp-task
  // per chain pass instead of per entry).
  const CsrGraph g = generate_rmat(1024, 8192, 41);
  const auto unbatched = [](SamplerOptions options) {
    options.oom_batched = false;
    options.oom_unbatched_gang_size = 24;
    return options;
  };
  const auto setup = biased_random_walk(10);
  const auto seeds = spread_seeds(g, 48);
  const RunResult ref =
      Sampler(g, setup,
              unbatched(find_path("paged r=2/4/step_barrier").options))
          .run_single_seed(seeds);
  const RunResult run =
      Sampler(g, setup,
              unbatched(find_path("paged r=2/4/pipelined", 7).options))
          .run_single_seed(seeds);
  expect_same_samples(run.samples, ref.samples, "unbatched baseline");
  EXPECT_LE(run.sim_seconds, ref.sim_seconds);
}

TEST(PipelineEquivalence, BatchedServingMatchesAcrossSchedules) {
  const CsrGraph g = generate_rmat(1024, 8192, 77);
  const auto setup = biased_random_walk(8);
  const auto seeds = spread_seeds(g, 30);
  const RunResult ref =
      Sampler(g, setup, find_path("in-memory/step_barrier").options)
          .run_batches_single_seed(seeds, 7);
  const RunResult run =
      Sampler(g, setup, find_path("in-memory/pipelined", 7).options)
          .run_batches_single_seed(seeds, 7);
  expect_same_samples(run.samples, ref.samples, "batched serving");
  EXPECT_LE(run.sim_seconds, ref.sim_seconds);
}

}  // namespace
}  // namespace csaw
